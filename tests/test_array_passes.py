"""The whole-instance array passes over the slab against the per-element
loops they replace, kept in `oracles`: the weakly fixed flags, the
conjugators and cover decisions of the minimal criterion, the maps of the
standard action and the action checks, values and order included; and
the direct decisions over the action's array against their set and dict
loops: freeness, orbits, the germ quotient and the slice identity; and
the identities of the harness against its element-by-element loop."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import action, criteria, errors, germs, report, spectrum

import oracles
from test_criteria import LABEL_INSTANCES
from test_families import TABLE_FAMILIES

NINE_FIXTURES = ("I2", "B2", "Z2z", "E4", "In(3)", "In(4)", "Bn(8)", "Pow(5)",
                 "Cz(7)")


def pass_instances():
    for name in NINE_FIXTURES:
        yield name, tg.build_fixture(name)
    for seed in (7, 5278):
        yield from tg.corpus(500, seed)
    for name, ((table, zero), _, _) in sorted(TABLE_FAMILIES.items()):
        yield name, tg.from_table(table, zero)
    for n in range(1, 6):
        yield f"In({n})", tg.build_fixture(f"In({n})")


def ordered(value):
    """A witness with the order of every dict made part of its value."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [ordered(v) for v in value]
    return value


def test_array_passes_match_per_element_loops():
    spectra = 0
    for name, sg in pass_instances():
        slab = oracles.dict_slab(sg)
        idem = sg.idempotent_list()

        # every cell of the weakly fixed pass, and every pair through
        # weakly_fixed, which reads it
        expected = np.zeros((sg.size, len(idem)), dtype=bool)
        for s in sg.elements():
            for j, e in enumerate(idem):
                if slab[e][sg.d[s]] == e:
                    expected[s, j] = oracles.per_pair_weakly_fixed(sg, slab, e, s)
                    assert criteria.weakly_fixed(sg, e, s) is bool(expected[s, j]), \
                        (name, s, e)
        assert np.array_equal(sg._weakly_fixed, expected), name

        # every cell of the conjugation array: the first s per (f, c),
        # in the order of s, and |S| where there is none
        conjugators = criteria._conjugators(sg)
        assert conjugators.shape == (len(idem),) * 2, name
        assert conjugators.dtype.kind == "i", name
        assert conjugators.tolist() == oracles.conjugator_scan(sg), name

        # both criteria: the top-free one against its pair by pair walk,
        # whose weakly fixed tests and cover decisions are loops, the
        # minimal one against its pair by pair oracle
        want = [oracles.per_pair_top_free_criterion(
                    sg, lambda sg_, e, s: oracles.per_pair_weakly_fixed(sg_, slab, e, s)),
                oracles.pairwise_minimal_criterion(sg)]
        got = [criteria.top_free_criterion(sg), criteria.minimal_criterion(sg)]
        for g, w in zip(got, want):
            assert (g.value, ordered(g.witness)) == (w.value, ordered(w.witness)), name

        try:
            spec = spectrum.tight_spectrum(sg)
        except errors.EmptySpectrum:
            continue
        spectra += 1
        act = action.standard_action(spec)
        maps = oracles.views(act.array)[0]
        assert ordered(maps) == ordered(oracles.dict_standard_action(spec)), name
        assert act.array.dtype == np.int32 and not act.array.flags.writeable, name
        oracles.per_element_validate(sg, act.points, maps)
        assert direct_outcomes(act) == oracle_outcomes(act), name
    assert spectra > 1000


def test_constructor_builds_the_index_conjugation_and_weakly_fixed_arrays(corpus100):
    # right after construction the instance holds its array of star, d
    # and r, the column of s f s* per slab cell, and the weakly fixed
    # flags, set only where e <= s*s; each is read-only.  The flags'
    # cells are checked against the per-pair loop by
    # test_array_passes_match_per_element_loops
    instances = [(name, tg.build_fixture(name)) for name in (*NINE_FIXTURES, "In(5)")]
    for name, sg in instances + list(corpus100):
        held = vars(sg)
        index, conj, flags = held["_index"], held["_conjugation"], held["_weakly_fixed"]
        assert index.dtype == np.int32 and not index.flags.writeable, name
        assert np.array_equal(index, np.array((sg.star, sg.d, sg.r))), name
        assert conj.dtype == np.int32 and not conj.flags.writeable, name
        assert conj.shape == sg.slab.shape, name
        assert conj.tolist() == [[sg.column[sg.r[c]] for c in row]
                                 for row in sg.slab.tolist()], name
        assert flags.dtype == bool and not flags.flags.writeable, name
        assert flags.shape == sg.slab.shape, name
        below_d = sg.slab[list(sg.d)] == np.array(sg.idempotent_list())
        assert not (flags & ~below_d).any(), name


def test_nothing_fills_an_instance_after_construction():
    # the harness, the JSON document and the DOT graph read what the
    # constructor stored: none of them adds, drops or rebinds an attribute
    def held(sg):
        return {k: id(v) for k, v in vars(sg).items()}

    instances = [(name, tg.build_fixture(name)) for name in LABEL_INSTANCES]
    for name, sg in instances + tg.corpus(20, 7):
        built = held(sg)
        analysis, _ = tg.verify_instance(sg, name)
        assert held(sg) == built, (name, "verify_instance")
        report.json_text(report.build_document(analysis, name))
        assert held(sg) == built, (name, "build_document")
        report.emit_dot(analysis.groupoid, name)
        assert held(sg) == built, (name, "emit_dot")


def test_one_instance_shared_by_four_threads_gives_one_report():
    # more threads than cores, switching often, each analyzing one shared
    # instance, write the report one thread writes alone
    sg = tg.build_fixture("In(4)")

    def text(_=None):
        return report.json_text(report.build_document(tg.analyze(sg, "In(4)"), "In(4)"))

    alone, interval = text(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            texts = list(pool.map(text, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert texts == [alone] * 4


def outcome(check, *args):
    """The exception class and arguments `check` raises, or None when it
    passes."""
    try:
        check(*args)
    except errors.InvalidAction as exc:
        return type(exc), exc.args
    return None


def build_and_validate(sg, points, maps):
    action.validate_action(action.FiniteAction(sg, points, maps))


def kind(result):
    if result is None:
        return "valid"
    cls, (message,) = result
    if cls is not errors.InvalidAction:
        return cls.__name__
    for word in ("injectively", "range of", "domain of", "idempotent", "entries"):
        if word in message:
            return word
    return message


def corrupted_maps(act):
    """Every single-cell change of the standard action's maps, to another
    point, None, or an entry that is no point (out of range, a float, a
    bool, a string, a list), and every map one entry short or long."""
    junk = (act.points, 7, -1, 0.5, True, "0", [0])
    maps = oracles.views(act.array)[0]
    for s, x in itertools.product(act.semigroup.elements(), range(act.points)):
        for value in (None, *range(act.points), *junk):
            if value == maps[s][x] and type(value) is type(maps[s][x]):
                continue
            row = list(maps[s])
            row[x] = value
            yield s, x, value, {**maps, s: tuple(row)}
    for s, m in maps.items():
        yield s, None, "short", {**maps, s: m[:-1]}
        yield s, None, "long", {**maps, s: (*m, None)}


def test_validate_action_fails_as_the_per_element_loop():
    # every corruption of the standard action: a broken image, inverse,
    # domain, range or composite, or a map that is no partial map of the
    # carrier, must raise the same exception with the same arguments as
    # the loop, or pass with it, and neither may raise anything else
    kinds = Counter()
    for name in ("I2", "B2", "Z2z", "E4", "In(3)"):
        sg = tg.build_fixture(name)
        act = action.standard_action(spectrum.tight_spectrum(sg))
        for s, x, value, maps in corrupted_maps(act):
            got = outcome(build_and_validate, sg, act.points, maps)
            want = outcome(oracles.per_element_validate, sg, act.points, maps)
            assert got == want, (name, s, x, value)
            kinds[kind(want)] += 1
    assert {"injectively", "InverseMismatch", "domain of", "range of",
            "CompositionMismatch", "entries"} <= set(kinds), kinds


def result_of(call, *args):
    """What `call` returns, or the class and message of the package error
    it raises."""
    try:
        return call(*args)
    except errors.TightGroupoidError as exc:
        return type(exc).__name__, str(exc)


def germ_outcomes(g):
    """The germ groupoid as stored, and its slice identity."""
    assert np.array_equal(g.class_of >= 0, g.action.defined)
    return (g.arrows, oracles.class_pairs(g), g.unit_at,
            result_of(germs.GermGroupoid.is_hausdorff, g))


def direct_outcomes(act):
    """The direct decisions on an action by the array passes: freeness,
    orbit classes, and the germ groupoid with its slice identity, or the
    error its build raises first."""
    def quotient():
        return germ_outcomes(germs.build_germ_groupoid(act))
    return (action.is_free(act), action.is_topologically_free(act),
            action.orbit_partition(act).classes, result_of(quotient))


def oracle_outcomes(act):
    """The same decisions by the set and dict loops, validating the
    action element by element unless it is marked valid."""
    def quotient():
        if not act._validated:
            oracles.per_element_validate(act.semigroup, act.points,
                                         oracles.views(act.array)[0])
        arrows, class_of, unit_at = oracles.dict_germ_quotient(act)
        cells = np.full(act.array.shape, -1, np.int32)
        for (s, x), k in class_of.items():
            cells[s, x] = k
        g = germs.GermGroupoid(act, arrows, cells, unit_at)
        return (tuple(arrows), class_of, unit_at,
                result_of(oracles.frozenset_is_hausdorff, g))
    return (*oracles.set_freeness(act), oracles.pair_orbit_partition(act).classes,
            result_of(quotient))


def first_failure(outcomes):
    """The class of the error the germ build or its slice identity
    raised, or None."""
    quotient = outcomes[3]
    if isinstance(quotient[0], str):
        return quotient[0]
    slices = quotient[3]
    return slices[0] if slices is not True else None


def swap_two_images(cells, s, rng):
    x, y = rng.sample(np.flatnonzero(cells[s] >= 0).tolist(), 2)
    cells[s, [x, y]] = cells[s, [y, x]]


def corrupted_arrays(act, rng):
    """The action's array with an image swapped and with a domain point
    dropped, each on one random element, and with an image swapped on
    every idempotent defined at two points or more, each with the
    elements changed."""
    sg, defined = act.semigroup, act.defined
    movable = [s for s in sg.elements() if defined[s].sum() > 1]
    if movable:
        s = rng.choice(movable)
        cells = act.array.copy()
        swap_two_images(cells, s, rng)
        yield [s], cells
    idempotents = [e for e in movable if e in sg.idempotents]
    if len(idempotents) > 1:
        cells = act.array.copy()
        for e in idempotents:
            swap_two_images(cells, e, rng)
        yield idempotents, cells
    s = rng.choice(np.flatnonzero(defined.any(axis=1)).tolist())
    cells = act.array.copy()
    cells[s, rng.choice(np.flatnonzero(defined[s]).tolist())] = -1
    yield [s], cells


def test_direct_passes_fail_as_the_per_element_loops(corpus100, monkeypatch):
    # corrupted actions: an image swapped (on one element, or on several
    # idempotents at once) or a domain point dropped, with the axioms
    # checked first (both sides must fail alike), and, off the
    # idempotents, also marked valid, as a defect the checks missed, so
    # the passes themselves read it (on an idempotent the least
    # idempotent of a point may then hold no such point, where the dict
    # loop fails with a KeyError); and two rows of below_bits with the
    # bit of one nonzero idempotent flipped, which moves the trivially
    # fixed mask.  Verdicts, orbit classes, arrows, classes, units and
    # the first violation of each build and slice identity must agree
    rng = random.Random(5278)
    seen = Counter()
    instances = [(name, tg.build_fixture(name)) for name in NINE_FIXTURES]
    for name, sg in instances + list(corpus100):
        act = action.standard_action(spectrum.tight_spectrum(sg))
        for changed, cells in corrupted_arrays(act, rng):
            marks = (False,) if sg.idempotents.intersection(changed) else (False, True)
            for valid in marks:
                bad = action.FiniteAction(sg, act.points, cells, act.point_labels)
                bad._validated = valid
                got = direct_outcomes(bad)
                assert got == oracle_outcomes(bad), (name, changed, valid)
                seen[first_failure(got)] += 1
                seen["top free" if got[1] else "not top free"] += 1
        nonzero = [j for j, e in enumerate(sg.idempotent_list()) if e != sg.zero]
        for _ in range(2):
            rows, j = rng.sample(range(sg.size), min(2, sg.size)), rng.choice(nonzero)
            below = list(sg.below_bits)
            for s in rows:
                below[s] ^= 1 << j
            with monkeypatch.context() as mp:
                mp.setattr(sg, "below_bits", tuple(below))
                bad = action.FiniteAction(sg, act.points, act.array, act.point_labels)
                got = direct_outcomes(bad)
                assert got == oracle_outcomes(bad), (name, rows, j)
            seen[first_failure(got)] += 1
            seen["top free" if got[1] else "not top free"] += 1
    assert {None, "DomainViolation", "TheoremViolation", "InvalidAction",
            "InverseMismatch", "DomainNotCovering", "CompositionMismatch",
            "top free", "not top free"} <= set(seen), seen


def test_analysis_never_builds_the_per_element_views():
    # the action and the germ quotient are held as arrays only: after the
    # harness has run and every domain has been read, neither object
    # holds a dict, list or frozenset but the per-point units
    sg = tg.build_fixture("In(5)")
    analysis, _ = tg.verify_instance(sg, "I5")
    act, g = analysis.action, analysis.groupoid
    assert sum(len(act.domain(s)) for s in sg.elements()) == 5225
    held = {(owner, key): value for owner, obj in (("action", act), ("groupoid", g))
            for key, value in vars(obj).items()
            if isinstance(value, (dict, list, frozenset))}
    assert sorted(held) == [("groupoid", "unit_at"), ("groupoid", "units")]
    assert all(len(value) == act.points for value in held.values())
    elems, xs = np.nonzero(act.defined)
    assert [g.arrow_of(s, x) for s, x in zip(elems.tolist(), xs.tolist())] == \
        g.class_of[elems, xs].tolist()


def harness_corruptions(analysis, rng):
    """Changes made after `analyze`, each a function applying it through
    a monkeypatch: one pair of images of the action's array swapped on a
    random element; one weakly fixed flag of a pair (s, e <= s*s)
    flipped; one bit of ``below_bits`` flipped, with the trivially
    fixed mask kept as analyze left it and re-read from the flipped bits;
    and, for the first atom a with another idempotent b above it and
    above no other atom, ``r[a]`` set to b.  The bit is the only one, if
    there is just one, that keeps a non-idempotent row from {0}, else a
    random one.  a and b have one domain, so only the minimum of s a s*
    tells them apart.  Last, one bit of a random idempotent's row of
    ``meet_bits`` flipped."""
    sg, act = analysis.semigroup, analysis.action
    movable = [s for s in sg.elements() if act.defined[s].sum() > 1]
    if movable:
        cells = act.array.copy()
        swap_two_images(cells, rng.choice(movable), rng)
        yield "image", lambda mp: mp.setattr(act, "array", cells)
    pairs = np.argwhere(sg.slab[list(sg.d)] == np.array(sg.idempotent_list()))
    s, j = rng.choice(pairs.tolist())
    flags = sg._weakly_fixed.copy()
    flags[s, j] ^= True
    yield "flag", lambda mp: mp.setattr(sg, "_weakly_fixed", flags)
    zero_bit = 1 << sg.column[sg.zero]
    spoilers = [(s, j) for s in sg.elements() if s not in sg.idempotents
                for j in range(len(sg.idempotents))
                if (sg.below_bits[s] & ~zero_bit) >> j & 1]
    s, j = spoilers[0] if len(spoilers) == 1 else \
        (rng.randrange(sg.size), rng.randrange(len(sg.idempotents)))
    below = list(sg.below_bits)
    below[s] ^= 1 << j

    def flip(mp):
        mp.setattr(sg, "below_bits", tuple(below))
        if s in sg.idempotents:       # below() reads the flipped row
            assert sg.below(s) == sg.members_of(below[s])
    yield "below_bits", flip

    def flip_and_reread(mp):
        flip(mp)
        mp.delitem(vars(act), "trivial")
    yield "below_bits, mask re-read", flip_and_reread
    twins = [(p.min, b) for p in analysis.spectrum.points for b in sg.idempotent_list()
             if b != p.min and (act.defined[b] == act.defined[p.min]).all()]
    if twins:
        a, b = twins[0]
        ranges = list(sg.r)
        ranges[a] = b
        yield "range", lambda mp: mp.setattr(sg, "r", tuple(ranges))
    e, j = rng.choice(sg.idempotent_list()), rng.randrange(len(sg.idempotents))
    meets = list(sg.meet_bits)
    meets[sg.column[e]] ^= 1 << j
    yield "meet_bits", lambda mp: mp.setattr(sg, "meet_bits", tuple(meets))


def both_harness_outcomes(analysis, name, monkeypatch, change=None):
    """The identities verify_instance and the per-element oracle ran on
    one analysis, or the error each raised, with `change` applied after
    analyze."""
    with monkeypatch.context() as mp:
        mp.setattr(criteria, "analyze", lambda *args: analysis)
        if change is not None:
            change(mp)
        return (result_of(lambda: criteria.verify_instance(analysis.semigroup, name)[1]),
                result_of(oracles.per_element_identities, analysis, name))


def test_harness_passes_fail_as_the_per_element_loops(monkeypatch):
    # the passes of verify_instance against the loops kept in `oracles`:
    # the same first violation, class and message, or the same identities
    # run, on every pass instance as built and, off the held-out corpus
    # seed, after each corruption of what the passes read
    rng = random.Random(1408)
    failed = Counter()
    for name, sg in pass_instances():
        try:
            analysis = tg.analyze(sg, name)
        except errors.EmptySpectrum:
            continue
        got, want = both_harness_outcomes(analysis, name, monkeypatch)
        assert got == want and isinstance(got, dict), name
        if name.startswith("corpus-5278"):
            continue
        for kind, change in harness_corruptions(analysis, rng):
            got, want = both_harness_outcomes(analysis, name, monkeypatch, change)
            assert got == want, (name, kind)
            if isinstance(got, tuple):
                failed[got[1].split(":")[0]] += 1
    assert {"weakly_fixed_vs_fixed_points", "outer_cover_vs_domain_union",
            "cover_vs_domain_equality", "conjugated_domains", "ultrafilter_preserved",
            "trivial_fixed_subset_fixed",
            "estar_trivial_fixed_empty", "fixed_implies_weakly_fixed"} <= set(failed), failed


@pytest.mark.parametrize("read, arg", [
    ("below", -1), ("below", 5), ("below", 2),
    ("weakly_fixed", -1), ("weakly_fixed", 5),
    ("nat_leq", -1), ("nat_leq", 5), ("name_of", -1), ("name_of", 5),
])
def test_out_of_range_scalar_reads_raise_package_errors(read, arg):
    # B2's idempotents are 0, 1 and 4; element 2 is not one, and NumPy
    # would wrap -1 to element 4's row.  nat_leq is read with `arg` on
    # either side
    sg = tg.build_fixture("B2")
    assert sg.idempotent_list() == (0, 1, 4) and sg.size == 5
    if read == "below":
        with pytest.raises(errors.NotIdempotent):
            sg.below(arg)
        return
    reads = {"weakly_fixed": [lambda: criteria.weakly_fixed(sg, 4, arg)],
             "nat_leq": [lambda: sg.nat_leq(4, arg), lambda: sg.nat_leq(arg, 1)],
             "name_of": [lambda: sg.name_of(arg)]}[read]
    for call in reads:
        with pytest.raises(errors.PreconditionViolated):
            call()


@pytest.mark.parametrize("read, s, x", [
    ("apply", 2, -1), ("apply", -1, 1), ("apply", 1, 2), ("apply", 5, 0),
    ("domain", -1, None), ("domain", 5, None),
    ("arrow_of", 2, -1), ("arrow_of", -1, 1), ("arrow_of", 1, 2), ("arrow_of", 5, 0),
    ("label_of", None, -1), ("label_of", None, 2),
    ("inverse", -1, None), ("inverse", 4, None),
])
def test_out_of_range_reads_raise_package_errors(read, s, x):
    # B2 has five elements acting on two points, with four arrows; NumPy
    # and tuples would wrap a negative index to the last row or column
    act = action.standard_action(spectrum.tight_spectrum(tg.build_fixture("B2")))
    gpd = germs.build_germ_groupoid(act)
    assert act.array.shape == (5, 2) and len(gpd.arrows) == 4
    on_arrows = read in ("arrow_of", "inverse")
    with pytest.raises(errors.DomainViolation if on_arrows else errors.NotInDomain):
        getattr(gpd if on_arrows else act, read)(*(v for v in (s, x) if v is not None))


def test_harness_on_wide_groupoids_fails_as_the_per_element_loops(monkeypatch):
    # S4 with a zero (24 arrows on one point), Bn(6) and Pow(4), the
    # instances test_germs.py holds against the compose oracle: the
    # harness as built, after each image of the action's array is moved to
    # each other point, and after the corruptions of harness_corruptions,
    # raises what the per-element loops raise.  On Bn(6) every element
    # acts on one point, so an image moved off both its point and its old
    # image leaves the weakly fixed flags standing and makes the
    # conjugated domains identity fail first
    from test_germs import wide_instances

    rng = random.Random(1408)
    failed = Counter()
    for name, sg in wide_instances():
        analysis = tg.analyze(sg, name)
        got, want = both_harness_outcomes(analysis, name, monkeypatch)
        assert got == want and isinstance(got, dict), name
        act = analysis.action
        changes = []
        for s, x in zip(*np.nonzero(act.defined)):
            for y in range(act.points):
                if y != act.array[s, x]:
                    cells = act.array.copy()
                    cells[s, x] = y
                    changes.append((f"image {s} {x} {y}", lambda mp, cells=cells:
                                    mp.setattr(act, "array", cells)))
        changes += list(harness_corruptions(analysis, rng))
        for kind, change in changes:
            got, want = both_harness_outcomes(analysis, name, monkeypatch, change)
            assert got == want, (name, kind)
            failed[got[1].split(":")[0] if isinstance(got, tuple) else None] += 1
    assert {None, "weakly_fixed_vs_fixed_points", "conjugated_domains"} <= set(failed), failed


def test_conjugated_domains_reads_every_52_point_word(monkeypatch):
    # the conjugated domains pass packs point sets into float64 words of 52
    # points.  A 60-cycle and the identity on point 0 close to 3,661
    # elements acting on 60 points; two images at 52 and above swapped on
    # a power of the cycle differ only in the second word, where the pass
    # must find what the per-element loop finds first
    m = 60
    sg = tg.from_partial_maps(m, [tuple((x + 1) % m for x in range(m)),
                                  (0,) + (None,) * (m - 1)])
    analysis = tg.analyze(sg, "C60")
    act = analysis.action
    assert (sg.size, act.points) == (3661, 60)
    got, want = both_harness_outcomes(analysis, "C60", monkeypatch)
    assert got == want and isinstance(got, dict)
    s = next(s for s in sg.elements()
             if act.defined[s].all() and (act.array[s] != np.arange(m)).all())
    x, y = np.flatnonzero(act.array[s] >= 52)[:2]
    cells = act.array.copy()
    cells[s, [x, y]] = cells[s, [y, x]]
    got, want = both_harness_outcomes(analysis, "C60", monkeypatch,
                                      lambda mp: mp.setattr(act, "array", cells))
    assert got == want
    assert got[1].startswith("conjugated_domains: criterion verdict frozenset({5")
