from __future__ import annotations

import itertools

import pytest

import tightgroupoid as tg
from tightgroupoid import errors

import oracles

SAMPLE_NAMES = ("I2", "B2", "Z2z", "E4", "Pow(3)", "In(3)")


def make(name):
    sg = tg.build_fixture(name)
    act = tg.standard_action(tg.tight_spectrum(sg))
    return sg, act, tg.build_germ_groupoid(act)


def make_from(sg):
    return tg.build_germ_groupoid(tg.standard_action(tg.tight_spectrum(sg)))


def is_pair_groupoid(g):
    units = len(g.units)
    if len(g.arrows) != units * units:
        return False
    seen = {(g.source[i], g.target[i]) for i in range(len(g.arrows))}
    return len(seen) == len(g.arrows)


# ------------------------------------------------------------ construction

def test_i2_gives_the_pair_groupoid_on_two_units():
    _, _, g = make("I2")
    assert len(g.arrows) == 4 and len(g.units) == 2
    assert is_pair_groupoid(g)


def test_z2z_gives_the_order_two_group():
    _, _, g = make("Z2z")
    assert len(g.arrows) == 2 and len(g.units) == 1
    other = next(i for i in range(2) if i not in g.units)
    unit = next(iter(g.units))
    assert oracles.compose(g, other, other) == unit
    assert g.inverse(other) == other


def test_b2_gives_the_pair_groupoid_on_two_units():
    _, _, g = make("B2")
    assert len(g.arrows) == 4 and len(g.units) == 2
    assert is_pair_groupoid(g)


def test_canonical_representatives_are_minimal():
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        buckets = {}
        for s in sg.elements():
            for x in act.domain(s):
                buckets.setdefault(g.arrow_of(s, x), []).append((s, x))
        for i, members in buckets.items():
            assert g.arrows[i] == min(members)


def test_germ_equality_matches_classes():
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        domains = oracles.views(act.array)[1]
        for x in range(act.points):
            present = [s for s in sg.elements() if x in domains[s]]
            for s, t in itertools.combinations(present, 2):
                assert oracles.germ_equal(sg, domains, s, t, x) == \
                    (g.arrow_of(s, x) == g.arrow_of(t, x))


def test_equal_germs_share_image():
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        buckets = {}
        for s in sg.elements():
            for x in act.domain(s):
                buckets.setdefault(g.arrow_of(s, x), set()).add(
                    act.apply(s, x))
        for images in buckets.values():
            assert len(images) == 1


def test_unit_identification_is_a_bijection():
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        for x in range(act.points):
            classes = {
                g.arrow_of(e, x)
                for e in sg.idempotents if x in act.domain(e)
            }
            assert classes == {g.unit_at[x]}
        assert frozenset(g.unit_at.values()) == g.units
        assert len(g.unit_at) == len(g.units) == act.points


# ----------------------------------------------------------------- slices

def test_slices():
    sg, act, g = make("I2")
    byname = {sg.name_of(s): s for s in sg.elements()}
    swap = byname["10"]
    off_diagonal = {g.arrow_of(swap, x) for x in act.domain(swap)}
    assert len(off_diagonal) == 2
    assert all(g.source[i] != g.target[i] for i in off_diagonal)
    for e in sg.idempotents:
        units_over = {g.arrow_of(e, x) for x in act.domain(e)}
        assert units_over == {g.unit_at[x] for x in act.domain(e)}
    assert oracles.slice_arrows(g, swap, ()) == frozenset()
    with pytest.raises(errors.DomainViolation, match="slice points escape"):
        oracles.slice_arrows(g, byname["0_"], {0, 1})
    outside = min({0, 1} - act.domain(byname["0_"]))
    with pytest.raises(errors.DomainViolation, match="outside the domain"):
        g.arrow_of(byname["0_"], outside)


def test_slices_are_bisections():
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        for s in sg.elements():
            dom = sorted(act.domain(s))
            arrows = [g.arrow_of(s, x) for x in dom]
            assert len(set(arrows)) == len(dom)
            assert [g.source[i] for i in arrows] == dom
            targets = [g.target[i] for i in arrows]
            assert len(set(targets)) == len(targets)


# --------------------------------------------------------------- isotropy

def test_isotropy_fixtures():
    _, _, g = make("I2")
    assert g.isotropy_bundle() == g.units
    _, _, g = make("Z2z")
    assert g.isotropy_bundle() == frozenset(range(2))
    x = next(iter(g.unit_at))
    iso = oracles.isotropy_group(g, x)
    assert len(iso) == 2
    for i in iso:
        for j in iso:
            assert oracles.compose(g, i, j) in iso


def test_units_inside_isotropy():
    for name in SAMPLE_NAMES:
        _, _, g = make(name)
        assert g.units <= g.isotropy_bundle()


def test_principality_fixtures():
    assert make("I2")[2].is_essentially_principal()
    assert oracles.is_principal(make("B2")[2])
    assert not make("Z2z")[2].is_essentially_principal()


def test_essential_principality_reads():
    for name in SAMPLE_NAMES:
        _, act, g = make(name)
        trivial_isotropy = all(
            oracles.isotropy_group(g, x) == {g.unit_at[x]} for x in range(act.points)
        )
        assert g.is_essentially_principal() == oracles.is_principal(g) == trivial_isotropy


# ------------------------------------------------------------ the verdicts

def test_hausdorff_direct():
    for name in SAMPLE_NAMES:
        _, _, g = make(name)
        assert g.is_hausdorff()


def test_minimality():
    for name in ("I2", "B2", "Z2z"):
        assert make(name)[2].is_minimal()
    assert not make("E4")[2].is_minimal()
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 0, 0],
        [0, 2, 1, 0, 0],
        [0, 0, 0, 3, 4],
        [0, 0, 0, 4, 3],
    ]
    sg = tg.from_table(table, 0)
    act = tg.standard_action(tg.tight_spectrum(sg))
    assert not tg.build_germ_groupoid(act).is_minimal()


def test_single_unit_groupoid_is_minimal():
    _, _, g = make("Z2z")
    assert g.is_minimal()


def test_groupoid_contraction_refuted():
    for name in SAMPLE_NAMES:
        _, _, g = make(name)
        verdict = g.locally_contracting_verdict()
        assert not verdict and verdict.reason == "CardinalityObstruction"


def test_groupoid_contraction_search_agrees():
    for name in ("I2", "B2", "Z2z", "E4"):
        _, _, g = make(name)
        assert len(g.arrows) <= 10
        found, _ = oracles.search_contraction_groupoid(g)
        assert found is False


# ----------------------------------------------------------- equivalences

def test_axioms_exhaustively():
    for name in SAMPLE_NAMES:
        _, _, g = make(name)
        g.verify_axioms()


def test_direct_verdicts_match_action_level():
    for name in SAMPLE_NAMES:
        _, act, g = make(name)
        assert g.is_essentially_principal() == tg.is_topologically_free(act)
        assert g.is_minimal() == tg.is_irreducible(act)
        assert g.locally_contracting_verdict().value == \
            tg.is_locally_contracting_action(act).value


def test_build_rejects_invalid_action():
    sg = tg.build_fixture("E4")
    maps = {0: (0, None), 1: (0, None), 2: (None, 1), 3: (0, 1)}
    with pytest.raises(errors.InvalidAction):
        tg.build_germ_groupoid(tg.FiniteAction(sg, 2, maps))


def test_hausdorff_equivalence_chain():
    # units closed iff every trivially-fixed region is closed inside the
    # domain of its element; discrete spaces make both sides literal set
    # facts, and both have to come out True together
    for name in SAMPLE_NAMES:
        sg, act, g = make(name)
        units_closed = g.units == g.units
        regions_closed = all(
            tg.trivial_fixed_points(act, s) & act.domain(s)
            == tg.trivial_fixed_points(act, s)
            for s in sg.elements()
        )
        assert units_closed and regions_closed
        assert g.is_hausdorff() == units_closed == regions_closed


# ------------------------------------------- axioms against the oracle

NINE_FIXTURES = ("I2", "B2", "Z2z", "E4", "In(3)", "In(4)", "Bn(8)", "Pow(5)",
                 "Cz(7)")


def axiom_outcome(check, g):
    """None when `check` passes on g, else the exception it raised first:
    its type, message and, for a TheoremViolation, identity and
    arguments."""
    try:
        check(g)
    except errors.TheoremViolation as exc:
        return ("TheoremViolation", exc.property, exc.criterion, exc.direct,
                exc.instance)
    except errors.TightGroupoidError as exc:
        return (type(exc).__name__, str(exc))
    return None


def both_outcomes(g):
    return (axiom_outcome(tg.GermGroupoid.verify_axioms, g),
            axiom_outcome(oracles.compose_verify_axioms, g))


def axiom_instances(corpus100):
    for name in NINE_FIXTURES:
        yield name, make(name)[2]
    for name, sg in corpus100:
        yield name, tg.analyze(sg, name=name).groupoid


def test_verify_axioms_agrees_with_compose_oracle(corpus100):
    for name, g in axiom_instances(corpus100):
        assert both_outcomes(g) == (None, None), name
    # wider tables: 144 arrows over 12 units, 40 arrows over one unit,
    # and I5's germs
    for name in ("Bn(12)", "Cz(40)", "In(5)"):
        assert both_outcomes(make(name)[2]) == (None, None), name


def test_corrupted_groupoids_fail_first_on_the_same_identity(corpus100):
    import random
    from collections import Counter

    rng = random.Random(5278)
    caught = Counter()
    for name, g in axiom_instances(corpus100):
        n = len(g.arrows)
        pts = g.action.points
        cases = []
        # a target moved to another point
        if pts > 1:
            i = rng.randrange(n)
            target = list(g.target)
            target[i] = (target[i] + 1 + rng.randrange(pts - 1)) % pts
            cases.append(("target", tuple(target), True))
        # the class of a pair a check reads: the right unit law of arrow
        # i reads the germ of s_i times the unit's element at x_i
        if n > 1:
            i = rng.randrange(n)
            s, x = g.arrows[i]
            unit = g.arrows[g.unit_at[x]][0]
            key = (g.semigroup.table[s][unit], x)
            class_of = g.class_of.copy()
            class_of[key] = (class_of[key] + 1 + rng.randrange(n - 1)) % n
            cases.append(("class_of", class_of, True))
            # and one entry anywhere, which no check may read; both
            # readings must still agree
            key = rng.choice(sorted(oracles.class_pairs(g)))
            class_of = g.class_of.copy()
            class_of[key] = (class_of[key] + 1 + rng.randrange(n - 1)) % n
            cases.append(("class_of", class_of, False))
        # two points trade units
        if pts > 1:
            x, y = rng.sample(range(pts), 2)
            unit_at = dict(g.unit_at)
            unit_at[x], unit_at[y] = unit_at[y], unit_at[x]
            cases.append(("unit_at", unit_at, True))
        for attr, value, must_raise in cases:
            saved = getattr(g, attr)
            setattr(g, attr, value)
            try:
                fast, oracle = both_outcomes(g)
            finally:
                setattr(g, attr, saved)
            assert fast == oracle, (name, attr)
            assert fast is not None or not must_raise, (name, attr)
            caught[attr] += fast is not None
    # 64 of the 109 instances have two or more points
    assert caught["target"] == caught["unit_at"] == 64
    assert caught["class_of"] >= 109


def test_corrupted_products_fail_first_on_the_same_identity(corpus100,
                                                            monkeypatch):
    # one product of two arrow representatives, changed at random in
    # both places it is read: the block of columns the check takes from
    # the Cayley graph and the full table the oracle composes through.
    # Both readings must then fail on the same identity, including
    # associativity and composition bookkeeping, or both pass
    import random
    from collections import Counter

    columns = tg.InverseSemigroup._columns
    corrupt = {}                       # (a, b) -> the wrong product a b

    def corrupted_columns(sg, wanted):
        out = columns(sg, wanted)
        for (a, b), ab in corrupt.items():
            out[list(wanted).index(b), a] = ab
        return out

    monkeypatch.setattr(tg.InverseSemigroup, "_columns", corrupted_columns)
    rng = random.Random(1408)
    first = Counter()
    for name, g in axiom_instances(corpus100):
        sg = g.semigroup
        table = sg.table
        reps = sorted({s for s, _ in g.arrows})
        for _ in range(10):
            a, b = rng.choice(reps), rng.choice(reps)
            row = list(table[a])
            row[b] = (row[b] + 1 + rng.randrange(sg.size - 1)) % sg.size
            corrupt[a, b] = row[b]
            sg._table = table[:a] + (tuple(row),) + table[a + 1:]
            try:
                fast, oracle = both_outcomes(g)
            finally:
                sg._table = table
                corrupt.clear()
            assert fast == oracle, (name, a, b)
            first[fast and fast[1 if fast[0] == "TheoremViolation" else 0]] += 1
    assert {None, "DomainViolation", "composition_bookkeeping",
            "associativity"} <= set(first)


# ------------------------------------- many arrows per point, against the oracle

S4_WITH_ZERO = "semigroup S4z\npoints 4\ngen c = 1 2 3 0\ngen t = 1 0 2 3\n"


def wide_instances():
    """S4 with a zero adjoined, read from the generator text of a 4-cycle
    and a transposition (25 elements, 24 arrows on one point), Bn(6) (36
    arrows on 6 points, one between each two) and Pow(4) (4 units): the
    first two above the size where verify_axioms runs its array passes,
    the last below it."""
    yield "S4+0", tg.build_semigroup(tg.parse_spec(S4_WITH_ZERO))
    for name in ("Bn(6)", "Pow(4)"):
        yield name, tg.build_fixture(name)


def test_wide_groupoids_agree_with_compose_oracle_clean_and_corrupted(monkeypatch):
    # clean, then every class_of cell of a defined pair moved to the next
    # arrow, then products of two representatives changed in both places
    # they are read, as test_corrupted_products_fail_first_on_the_same_identity
    # does: each product once at random, and on In(4) each one read as
    # each of the elements 0 to 3.  On the three wide groupoids every
    # product of two representatives is a representative's own cell, so a
    # class_of change breaks a unit or an inverse law first; a changed
    # product reaches associativity, and on In(4) composition bookkeeping
    import random
    from collections import Counter

    columns = tg.InverseSemigroup._columns
    corrupt = {}                       # (a, b) -> the wrong product a b

    def corrupted_columns(sg, wanted):
        out = columns(sg, wanted)
        for (a, b), ab in corrupt.items():
            out[list(wanted).index(b), a] = ab
        return out

    monkeypatch.setattr(tg.InverseSemigroup, "_columns", corrupted_columns)
    rng = random.Random(5278)
    first = Counter()

    def record(outcome):
        first[outcome and outcome[1 if outcome[0] == "TheoremViolation" else 0]] += 1

    shapes = {}
    instances = [*wide_instances(), ("In(4)", tg.build_fixture("In(4)"))]
    for name, sg in instances:
        g = make_from(sg)
        n = len(g.arrows)
        shapes[name] = (sg.size, g.action.points, n)
        assert both_outcomes(g) == (None, None), name
        clean = g.class_of
        for (s, x), k in sorted(oracles.class_pairs(g).items()):
            g.class_of = clean.copy()
            g.class_of[s, x] = (k + 1) % n
            try:
                fast, oracle = both_outcomes(g)
            finally:
                g.class_of = clean
            assert fast == oracle, (name, s, x)
            record(fast)
        table = sg.table
        reps = sorted({s for s, _ in g.arrows})
        wrong = [(a, b, (table[a][b] + 1 + rng.randrange(sg.size - 1)) % sg.size)
                 for a in reps for b in reps]
        if name == "In(4)":
            wrong += [(a, b, ab) for a in reps for b in reps for ab in range(4)
                      if ab != table[a][b]]
        for a, b, ab in wrong:
            corrupt[a, b] = ab
            row = list(table[a])
            row[b] = ab
            sg._table = table[:a] + (tuple(row),) + table[a + 1:]
            try:
                fast, oracle = both_outcomes(g)
            finally:
                sg._table = table
                corrupt.clear()
            assert fast == oracle, (name, a, b, ab)
            record(fast)
    assert shapes == {"S4+0": (25, 1, 24), "Bn(6)": (37, 6, 36), "Pow(4)": (16, 4, 4),
                      "In(4)": (209, 4, 16)}
    assert {None, "DomainViolation", "associativity", "composition_bookkeeping",
            "right_inverse_law", "right_unit_law"} <= set(first), first
