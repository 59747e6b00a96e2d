"""The whole-instance array passes over the slab against the per-element
loops they replace, kept in `oracles`: the weakly fixed flags, the
conjugators and cover decisions of the minimal criterion, the maps of the
standard action and the action checks, values and order included."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

import tightgroupoid as tg
from tightgroupoid import action, criteria, errors, spectrum

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
