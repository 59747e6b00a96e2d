from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import criteria, errors, spectrum as spectrum_mod

import oracles


def byname(sg):
    return {sg.name_of(s): s for s in sg.elements()}


# -------------------------------------------------------------- hausdorff

def test_hausdorff_criterion_fixtures(named_fixtures):
    for name, sg in named_fixtures.items():
        result = tg.hausdorff_criterion(sg)
        assert result.value
        covers = result.witness["covers"]
        for e in sg.idempotents:
            if e != sg.zero:
                assert covers[e] == (e,)
        for s, cover in covers.items():
            assert sg.is_cover(cover, tg.Ideal(frozenset(sg.members_of(sg.below_bits[s]))))


def test_e_star_unitary_gets_empty_covers():
    z2z = tg.build_fixture("Z2z")
    assert tg.hausdorff_criterion(z2z).witness["covers"][2] == ()


# ------------------------------------------------------------ weakly fixed

def test_fixed_implies_weakly_fixed(named_fixtures):
    for sg in named_fixtures.values():
        for s in sg.elements():
            ss = sg.table[sg.star[s]][s]
            for e in sg.below(ss):
                if e != sg.zero and sg.table[s][e] == e:
                    assert tg.weakly_fixed(sg, e, s)


def test_weakly_fixed_examples():
    z2z = tg.build_fixture("Z2z")
    assert tg.weakly_fixed(z2z, 1, 2)        # conjugation fixes 1 though g*1 != 1
    b2 = tg.build_fixture("B2")
    n = byname(b2)
    assert not tg.weakly_fixed(b2, n["e22"], n["e12"])
    with pytest.raises(errors.PreconditionViolated):
        tg.weakly_fixed(b2, n["e11"], n["e12"])


# --------------------------------------------------- topological freeness

def test_top_free_criterion_fixtures(named_fixtures):
    assert tg.top_free_criterion(named_fixtures["I2"]).value
    assert tg.top_free_criterion(named_fixtures["B2"]).value
    res = tg.top_free_criterion(named_fixtures["Z2z"])
    assert not res.value
    first = res.witness["failures"][0]
    assert (first["s"], first["e"]) == (2, 1)


def test_fixed_cover_reduction_matches_bruteforce():
    # a fixed cover exists iff the full fixed candidate set covers
    for name in ("I2", "B2", "Z2z", "E4", "Pow(3)"):
        sg = tg.build_fixture(name)
        for s in sg.elements():
            ss = sg.table[sg.star[s]][s]
            for e in sg.below(ss):
                if e == sg.zero or not tg.weakly_fixed(sg, e, s):
                    continue
                cands = [c for c in sg.below(e)
                         if c != sg.zero and sg.table[s][c] == c]
                ideal = sg.principal_ideal(e)
                exists = any(
                    sg.is_cover(cov, ideal)
                    for cov in oracles.powerset(cands)
                )
                assert exists == sg.is_outer_cover(cands, ideal)


# --------------------------------------------------------------- minimality

def test_minimal_criterion_fixtures(named_fixtures):
    assert tg.minimal_criterion(named_fixtures["I2"]).value
    assert tg.minimal_criterion(named_fixtures["Z2z"]).value
    b2 = named_fixtures["B2"]
    res = tg.minimal_criterion(b2)
    assert res.value
    n = byname(b2)
    pairs = dict(res.witness["conjugate_covers"][(n["e11"], n["e22"])])
    assert n["e11"] in pairs and pairs[n["e11"]] == n["e12"]
    e4 = named_fixtures["E4"]
    res = tg.minimal_criterion(e4)
    assert not res.value
    assert {"e": 1, "f": 2, "uncovered": 1} in res.witness["failures"]


def test_minimal_witness_families_cover(named_fixtures):
    for sg in named_fixtures.values():
        res = tg.minimal_criterion(sg)
        if not res.value:
            continue
        for (e, _f), pairs in res.witness["conjugate_covers"].items():
            cover = [c for c, _ in pairs]
            assert sg.is_outer_cover(cover, sg.principal_ideal(e))


def test_minimal_witness_matches_the_pairwise_oracle():
    # the criterion trims the covers of every nonzero idempotent e at once,
    # one lane of |E| + 1 bits per e in one integer, where the oracle trims
    # each (e, conjugate set) on its own: the same witness, in the same
    # (e, f) order, with one tuple shared by the pairs of one trimmed cover
    # and one f.  In(6) packs 63 lanes of 65 bits, past a machine word,
    # for six conjugate sets; Pow(5) and E4 take the failing path
    cases = [(name, tg.build_fixture(name))
             for name in (*LABEL_INSTANCES, "In(4)", "In(5)", "In(6)")]
    cases += tg.corpus(300, 7) + tg.corpus(300, 5278)
    shared, failing = {}, set()
    for name, sg in cases:
        got, want = tg.minimal_criterion(sg), oracles.pairwise_minimal_criterion(sg)
        assert (got.value, got.witness) == (want.value, want.witness), name
        if not got.value:
            failing.add(name)
            continue
        covers = got.witness["conjugate_covers"]
        assert list(covers) == list(want.witness["conjugate_covers"]), name
        made = {}                      # (trimmed cover, f) -> ids of its tuples
        for (e, f), pairs in covers.items():
            made.setdefault((tuple(c for c, _ in pairs), f), set()).add(id(pairs))
        assert all(len(ids) == 1 for ids in made.values()), name
        assert len({id(pairs) for pairs in covers.values()}) == len(made), name
        shared[name] = len(made)
    assert shared["In(5)"] == 391
    assert {"E4", "Pow(5)"} <= failing and "In(6)" in shared


# ------------------------------------------------------- local contraction

def brute_locally_contracting(sg):
    nz = sg.nonzero_idempotents()
    if not nz:
        return True
    for e in nz:
        ok = False
        for s in sg.elements():
            t = sg.table[e][sg.table[sg.star[s]][s]]
            cands = [f for f in sg.below(t) if f != sg.zero]
            for family in oracles.powerset(cands):
                if not family:
                    continue
                for f0 in family:
                    annihilates = all(
                        sg.table[sg.table[f0][s]][fi] == sg.zero for fi in family)
                    if not annihilates:
                        continue
                    covers = all(
                        sg.is_outer_cover(
                            family,
                            sg.principal_ideal(
                                sg.table[sg.table[s][fi]][sg.star[s]]))
                        for fi in family)
                    if covers:
                        ok = True
                        break
                if ok:
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def test_contraction_criterion_fixtures(named_fixtures):
    for name, sg in named_fixtures.items():
        res = tg.locally_contracting_criterion(sg)
        assert res.value is False
        assert res.value == brute_locally_contracting(sg)


def test_contraction_refutation_at_e4_atom(named_fixtures, corpus100):
    e4 = tg.build_fixture("E4")
    res = tg.locally_contracting_criterion(e4)
    assert res.witness["e"] in (1, 2)
    # the refutation always lands on an atom, where the one-member family
    # is the only candidate
    for name, sg in list(named_fixtures.items()) + list(corpus100):
        res = tg.locally_contracting_criterion(sg)
        assert res.value is False, name
        assert len(sg.below(res.witness["e"])) == 2, name


def contracting_fake():
    """Not an inverse semigroup (the constructor trusts its inputs): s=2
    has domain and range the atom e=1 but is given the inverse 3, whose
    own inverse is 0, so e s = (s* e)* = 0 and e s e = 0 while
    s e s* = e.  Both contraction patterns qualify at e with s, which no
    inverse semigroup allows."""
    sg = tg.InverseSemigroup(0, [0, 1, 3, 0], (0, 1, 2, 3), d=[0, 1, 1, 1],
                             right=[(0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0),
                                    (0, 3, 0, 0)])
    assert sg.idempotents == {0, 1} and sg.r == (0, 1, 1, 0)
    assert sg.column == {0: 0, 1: 1}
    assert sg.slab.tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]
    return sg


def assert_raises_at_atom(criterion):
    with pytest.raises(errors.TheoremViolation) as info:
        criterion(contracting_fake())
    assert info.value.property == criterion.__name__
    assert (info.value.criterion, info.value.direct) == (True, False)
    assert info.value.instance == "atom e=1 with s=2"


def test_contraction_criterion_raises_on_contracting_atom():
    assert_raises_at_atom(tg.locally_contracting_criterion)


def test_easier_criterion_raises_on_contracting_atom():
    assert_raises_at_atom(tg.easier_loc_contr_criterion)


def test_degenerate_semigroup_is_vacuously_contracting():
    trivial = tg.from_table([[0]], 0)
    res = tg.locally_contracting_criterion(trivial)
    assert res.value is True and res.vacuous
    easier = tg.easier_loc_contr_criterion(trivial)
    assert easier.value is True and easier.vacuous


def test_easier_criterion_fixtures(named_fixtures):
    for name, sg in named_fixtures.items():
        easier = tg.easier_loc_contr_criterion(sg)
        assert easier.value is False
        # material implication with the main criterion
        main = tg.locally_contracting_criterion(sg)
        assert not easier.value or main.value


# -------------------------------------------------------------- conjunction

def test_hausdorff_and_principal_conjunction(named_fixtures):
    assert oracles.ess_principal_and_hausdorff_criterion(named_fixtures["I2"]).value
    assert oracles.ess_principal_and_hausdorff_criterion(named_fixtures["B2"]).value
    assert not oracles.ess_principal_and_hausdorff_criterion(named_fixtures["Z2z"]).value


# -------------------------------------------------------------- full report

def test_full_report_flags(analyses):
    expect = {
        "I2": {"a": True, "b": True, "c": True, "d": False},
        "B2": {"a": True, "b": True, "c": True, "d": False},
        "Z2z": {"a": True, "b": False, "c": True, "d": False},
        "E4": {"a": True, "b": True, "c": False, "d": False},
    }
    for name, analysis in analyses.items():
        assert analysis.report.cstar_flags == expect[name]


def test_report_pairs_agree(analyses):
    for analysis in analyses.values():
        rep = analysis.report
        for pair in (rep.hausdorff, rep.essentially_principal,
                     rep.minimal, rep.locally_contracting):
            assert pair.criterion == pair.direct


def test_conclusions_track_flags(analyses):
    i2 = analyses["I2"].report
    assert any("simple" in line for line in i2.conclusions)
    assert not any("purely infinite" in line for line in i2.conclusions)
    e4 = analyses["E4"].report
    assert not any("simple" in line for line in e4.conclusions)


def test_full_report_requires_points():
    with pytest.raises(errors.EmptySpectrum):
        tg.analyze(tg.from_table([[0]], 0))


def test_no_point_above_nonzero_idempotents_is_a_violation(monkeypatch):
    # every nonzero idempotent lies above an atom, so a spectrum without
    # points is a defect unless E(S) = {0}
    monkeypatch.setattr(spectrum_mod, "_is_atom", lambda sg, e: False)
    with pytest.raises(errors.TheoremViolation, match="nonempty_spectrum"):
        tg.analyze(tg.build_fixture("B2"), "B2")


def test_pair_mismatch_is_loud():
    with pytest.raises(errors.TheoremViolation):
        criteria._pair("demo", "inst", True, False, {})


def test_verify_instance_runs_everything(named_fixtures):
    for name, sg in named_fixtures.items():
        _, checks = tg.verify_instance(sg, name)
        assert {"tight_equals_ultra", "weakly_fixed_vs_fixed_points",
                "outer_cover_vs_domain_union", "conjugated_domains",
                "ultrafilter_preserved", "topfree_three_way",
                "groupoid_axioms"} <= set(checks)


def test_conjunction_matches_direct_groupoid(analyses, named_fixtures):
    for name, sg in named_fixtures.items():
        combined = oracles.ess_principal_and_hausdorff_criterion(sg)
        g = analyses[name].groupoid
        assert combined.value == (g.is_hausdorff() and g.is_essentially_principal())


def test_larger_instances_smoke():
    # the full symmetric inverse monoid on four points, and a subset
    # semilattice big enough to engage the capped tightness search
    i4 = tg.build_fixture("In(4)")
    assert i4.size == 209
    _, checks = tg.verify_instance(i4, "In(4)")
    assert checks["groupoid_axioms"]

    pow5 = tg.meet_semilattice_of_subsets(5)
    assert len(pow5.idempotents) == 32
    tight = {f.min for f in tg.tight_spectrum(pow5).points}
    ultra = {f.min for f in tg.ultrafilters(pow5)}
    assert tight == ultra and len(tight) == 5


# ------------------------------------------------ harness failure labels

LABEL_INSTANCES = ("I2", "B2", "Z2z", "E4", "In(3)", "Bn(8)", "Pow(5)", "Cz(7)")


def _mutations():
    def negated_flags(mp, analysis):
        # flip every pair (s, e) with e <= s*s, which both top_free_criterion
        # and weakly_fixed read
        sg = analysis.semigroup
        below_d = sg.slab[list(sg.d)] == np.array(sg.idempotent_list())
        mp.setattr(sg, "_weakly_fixed", sg._weakly_fixed ^ below_d)

    def conjugates_to_zero(mp, analysis):
        # every s f s* whose domain holds two points or more read as zero
        sg, defined = analysis.semigroup, analysis.action.defined
        mp.setattr(sg, "r", tuple(sg.zero if defined[e].sum() > 1 else e for e in sg.r))

    def meet_row_loses_own_column(mp, analysis):
        # the highest idempotent's row of meet_bits without its own bit
        sg = analysis.semigroup
        rows, j = list(sg.meet_bits), len(sg.idempotents) - 1
        rows[j] &= ~(1 << j)
        mp.setattr(sg, "meet_bits", tuple(rows))

    def atom_row_loses_own_column(mp, analysis):
        # the lowest atom's row of below_bits without its own bit
        sg = analysis.semigroup
        rows = list(sg.below_bits)
        a = next(e for e in sg.idempotent_list() if rows[e].bit_count() == 2)
        rows[a] &= ~(1 << sg.column[a])
        mp.setattr(sg, "below_bits", tuple(rows))

    return {
        "weakly_fixed": (False, negated_flags),
        "weakly_fixed_in_harness": (True, negated_flags),
        "outer_cover": (True, meet_row_loses_own_column),
        "cover": (True, atom_row_loses_own_column),
        "conjugate": (True, conjugates_to_zero),
    }


def harness_failures():
    """Per mutation and instance, the message verify_instance raises, or
    None when the mutation goes unseen on that instance.  With
    `in_harness`, analyze runs unpatched first, so the harness's own
    identity fails and its label shows."""
    out = {}
    for mutation, (in_harness, mutate) in _mutations().items():
        for name in LABEL_INSTANCES:
            sg = tg.build_fixture(name)
            analysis = tg.analyze(sg, name=name)
            with pytest.MonkeyPatch.context() as mp:
                if in_harness:
                    mp.setattr(criteria, "analyze", lambda *args: analysis)
                mutate(mp, analysis)
                try:
                    criteria.verify_instance(sg, name)
                    out[mutation, name] = None
                except errors.TheoremViolation as exc:
                    out[mutation, name] = str(exc)
    return out


# the messages as the harness raised them when it formatted every label
# before comparing, element by element; formatting labels only on failure,
# and reading both sides at the first failing cell of a pass, must keep
# them.  The conjugate rows name the cells where the former mutation of
# the image of a point set of two or more points was caught.  The cover
# rows corrupt what each cover identity reads of the instance after
# analyze: a row of meet_bits for the outer one, a row of below_bits for
# the one inside the ideal
HARNESS_FAILURES = {
    ('weakly_fixed', 'I2'):
        'topological_freeness: criterion verdict False != direct verdict True on instance I2',
    ('weakly_fixed', 'B2'):
        'topological_freeness: criterion verdict False != direct verdict True on instance B2',
    ('weakly_fixed', 'Z2z'):
        'topological_freeness: criterion verdict True != direct verdict False on instance Z2z',
    ('weakly_fixed', 'E4'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance E4 s=1 e=1',
    ('weakly_fixed', 'In(3)'):
        'topological_freeness: criterion verdict False != direct verdict True on instance In(3)',
    ('weakly_fixed', 'Bn(8)'):
        'topological_freeness: criterion verdict False != direct verdict True on instance Bn(8)',
    ('weakly_fixed', 'Pow(5)'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance Pow(5) s=1 e=1',
    ('weakly_fixed', 'Cz(7)'):
        'topological_freeness: criterion verdict True != direct verdict False on instance Cz(7)',
    ('weakly_fixed_in_harness', 'I2'):
        'weakly_fixed_vs_fixed_points: criterion verdict True != direct verdict False on instance I2 s=1 e=2',
    ('weakly_fixed_in_harness', 'B2'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance B2 s=1 e=1',
    ('weakly_fixed_in_harness', 'Z2z'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance Z2z s=1 e=1',
    ('weakly_fixed_in_harness', 'E4'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance E4 s=1 e=1',
    ('weakly_fixed_in_harness', 'In(3)'):
        'weakly_fixed_vs_fixed_points: criterion verdict True != direct verdict False on instance In(3) s=1 e=3',
    ('weakly_fixed_in_harness', 'Bn(8)'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance Bn(8) s=1 e=1',
    ('weakly_fixed_in_harness', 'Pow(5)'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance Pow(5) s=1 e=1',
    ('weakly_fixed_in_harness', 'Cz(7)'):
        'weakly_fixed_vs_fixed_points: criterion verdict False != direct verdict True on instance Cz(7) s=1 e=1',
    ('outer_cover', 'I2'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance I2 J=[0, 2, 3, 4] C=[4]',
    ('outer_cover', 'B2'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance B2 J=[0, 4] C=[4]',
    ('outer_cover', 'Z2z'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance Z2z J=[0, 1] C=[1]',
    ('outer_cover', 'E4'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance E4 J=[0, 1, 2, 3] C=[3]',
    ('outer_cover', 'In(3)'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance In(3) J=[0, 3, 7, 9, 13, 15, 16, 17] C=[17]',
    ('outer_cover', 'Bn(8)'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance Bn(8) J=[0, 64] C=[64]',
    ('outer_cover', 'Pow(5)'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance Pow(5) J=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31] C=[31]',
    ('outer_cover', 'Cz(7)'):
        'outer_cover_vs_domain_union: criterion verdict False != direct verdict True on instance Cz(7) J=[0, 1] C=[1]',
    ('cover', 'I2'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance I2 J=[0, 2] C=[]',
    ('cover', 'B2'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance B2 J=[0, 1, 4] C=[4]',
    ('cover', 'Z2z'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance Z2z J=[0, 1] C=[]',
    ('cover', 'E4'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance E4 J=[0, 1] C=[]',
    ('cover', 'In(3)'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance In(3) J=[0, 3] C=[]',
    ('cover', 'Bn(8)'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance Bn(8) J=[0, 1, 10, 19, 28, 37, 46, 55, 64] C=[10, 19, 28, 37, 46, 55, 64]',
    ('cover', 'Pow(5)'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance Pow(5) J=[0, 1, 3, 4, 5, 7, 8, 9, 13, 14, 15, 19, 20, 21, 25, 29] C=[4, 14]',
    ('cover', 'Cz(7)'):
        'cover_vs_domain_equality: criterion verdict True != direct verdict False on instance Cz(7) J=[0, 1] C=[]',
    ('conjugate', 'I2'):
        'conjugated_domains: criterion verdict frozenset({0, 1}) != direct verdict frozenset() on instance I2 s=4 f=4',
    ('conjugate', 'B2'):
        None,
    ('conjugate', 'Z2z'):
        None,
    ('conjugate', 'E4'):
        'conjugated_domains: criterion verdict frozenset({0, 1}) != direct verdict frozenset() on instance E4 s=3 f=3',
    ('conjugate', 'In(3)'):
        'conjugated_domains: criterion verdict frozenset({1, 2}) != direct verdict frozenset() on instance In(3) s=5 f=9',
    ('conjugate', 'Bn(8)'):
        None,
    ('conjugate', 'Pow(5)'):
        'conjugated_domains: criterion verdict frozenset({0, 1}) != direct verdict frozenset() on instance Pow(5) s=6 f=6',
    ('conjugate', 'Cz(7)'):
        None,
}


def test_harness_failures_keep_their_messages():
    assert harness_failures() == HARNESS_FAILURES


# ------------------------------------------------ Green's relations route

def green_instances():
    from test_families import TABLE_FAMILIES

    for name in ("I2", "B2", "Z2z", "E4", "In(3)", "In(4)", "Bn(8)",
                 "Pow(5)", "Cz(7)"):
        yield name, tg.build_fixture(name)
    for seed in (7, 5278):
        yield from tg.corpus(500, seed)
    for name, ((table, zero), _, _) in sorted(TABLE_FAMILIES.items()):
        yield name, tg.from_table(table, zero)
    for n in range(1, 7):
        yield f"In({n})", tg.build_fixture(f"In({n})")


def test_green_route_agrees_with_both_routes_for_b_and_c():
    # a third decision of (b) and (c), from Green's relations at the
    # atoms, against the criterion and the direct verdict; the instances
    # must meet every cell of the (b, c) square
    cells = Counter()
    for name, sg in green_instances():
        try:
            rep = tg.analyze(sg, name=name).report
        except errors.EmptySpectrum:
            continue
        got = oracles.green_flags(sg)
        assert got == (rep.essentially_principal.criterion,
                       rep.minimal.criterion), name
        assert got == (rep.essentially_principal.direct,
                       rep.minimal.direct), name
        cells[got] += 1
    assert len(cells) == 4, cells
