"""The whole-instance array passes over the slab against the per-element
loops they replace, kept in `oracles`: the weakly fixed flags, the
conjugators and cover decisions of the minimal criterion, the maps of the
standard action and the action checks, values and order included; and
the direct decisions over the action's array against their set and dict
loops: freeness, orbits, the germ quotient and the slice identity."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np

import tightgroupoid as tg
from tightgroupoid import action, criteria, errors, germs, spectrum

import oracles
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


def test_array_passes_match_per_element_loops(monkeypatch):
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
        assert np.array_equal(criteria._weakly_fixed_flags(sg), expected), name

        # the first s of each conjugate, in the order of s
        assert ordered(criteria._conjugators(sg)) == \
            ordered(oracles.conjugator_scan(sg)), name

        # both criteria: the top-free one against its pair by pair walk,
        # with the loops patched in for the pass and the bit-mask cover
        # decisions, the minimal one against its pair by pair oracle
        with monkeypatch.context() as mp:
            mp.setattr(criteria, "_decide_cover", oracles.count_decide_cover)
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
        assert ordered(act.maps) == ordered(oracles.dict_standard_action(spec)), name
        assert all(type(y) is int for m in act.maps.values() for y in m
                   if y is not None), name
        oracles.per_element_validate(act)
        assert direct_outcomes(act) == oracle_outcomes(act), name
    assert spectra > 1000


def outcome(check, sg, points, maps):
    """The exception class and arguments `check` raises on the action
    with these maps, or None when it passes."""
    try:
        check(action.FiniteAction(sg, points, maps))
    except errors.InvalidAction as exc:
        return type(exc), exc.args
    return None


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
    for s, x in itertools.product(act.semigroup.elements(), range(act.points)):
        for value in (None, *range(act.points), *junk):
            if value == act.maps[s][x] and type(value) is type(act.maps[s][x]):
                continue
            row = list(act.maps[s])
            row[x] = value
            yield s, x, value, {**act.maps, s: tuple(row)}
    for s, m in act.maps.items():
        yield s, None, "short", {**act.maps, s: m[:-1]}
        yield s, None, "long", {**act.maps, s: (*m, None)}


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
            got = outcome(action.validate_action, sg, act.points, maps)
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
    return (g.arrows, g._class_of, g.unit_at,
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
            oracles.per_element_validate(act)
        arrows, class_of, unit_at = oracles.dict_germ_quotient(act)
        g = germs.GermGroupoid(act, arrows, np.full(act.array.shape, -1, np.int32),
                               unit_at)
        g._class_of = class_of
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
    # analyze and the reports read the action's array, its masks and the
    # germ class array only: no map tuples, no domain or trivially fixed
    # frozensets, no dict of germ classes by pair.  Every view is cached
    # on its object when built, so an empty cache shows it never was
    sg = tg.build_fixture("In(5)")
    analysis = tg.analyze(sg, name="I5")
    doc = tg.build_document(analysis, "I5")
    assert tg.emit_report(doc) and tg.emit_dot(analysis.groupoid, "I5")
    act, g = analysis.action, analysis.groupoid
    assert not {"maps", "edomains", "_domains", "_trivial_sets"} & set(vars(act))
    assert "_class_of" not in vars(g)
    # the views are built when read, from the same arrays
    assert sum(len(act.domain(s)) for s in sg.elements()) == 5225
    assert all(g.arrow_of(s, x) == g.class_of[s, x]
               for s, m in act.maps.items() for x, y in enumerate(m) if y is not None)
