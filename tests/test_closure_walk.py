"""The block walk of `from_partial_maps` against the walk map by map kept
in `oracles`: every field of the instance, the slab and the partial maps
included, and every refusal with its message, on the closure-built
fixtures, two 500-instance corpora and random maps of degree 1 to 300,
under the default block size and under blocks small enough that a cap
is passed in the middle of one."""

from __future__ import annotations

import random
import re

import pytest

import tightgroupoid as tg
from tightgroupoid import errors, fixtures, semigroup
from tightgroupoid.fixtures import random_partial_injection

import oracles
from test_table_input import fields

CLOSURE_FIXTURES = ("I2", "In(1)", "In(2)", "In(3)", "In(4)", "In(5)", "In(6)")


def outcome(build, degree, gens):
    """The fields of the instance `build` returns, its partial maps
    included, or the class and message of the error it raises."""
    try:
        sg = build(degree, gens)
        return (*fields(sg), sg.partial_maps)
    except errors.TightGroupoidError as exc:
        return type(exc).__name__, str(exc)


def recorded_closures(monkeypatch, build):
    """The (degree, generators) of every closure `build()` asks for."""
    calls = []

    def recording(degree, gens, labels=None):
        calls.append((degree, [tuple(g) for g in gens]))
        return semigroup.from_partial_maps(degree, gens, labels)

    with monkeypatch.context() as mp:
        mp.setattr(fixtures, "from_partial_maps", recording)
        build()
    return calls


def random_cases(rng, count, degrees):
    for _ in range(count):
        degree = rng.choice(degrees)
        yield degree, [random_partial_injection(rng, degree)
                       for _ in range(rng.randint(1, 3))]


def assert_same(cases):
    """Each case builds, or fails, as the per-map walk does; returns the
    kinds of outcome seen: "built", or a message with its numbers as N."""
    kinds = set()
    for degree, gens in cases:
        got = outcome(tg.from_partial_maps, degree, gens)
        assert got == outcome(oracles.per_map_closure, degree, gens), (degree, gens)
        kinds.add(re.sub(r"\d+", "N", got[1]) if isinstance(got[0], str) else "built")
    return kinds


CAP_MESSAGES = {"closure exceeded N elements",
                "closure of N maps on N points exceeds N image cells",
                "closure of N elements and N idempotents exceeds N slab cells"}


def test_fixtures_and_corpora_build_as_the_per_map_walk(monkeypatch):
    cases = []
    for name in CLOSURE_FIXTURES:
        cases += recorded_closures(monkeypatch, lambda: tg.build_fixture(name))
    assert len(cases) == len(CLOSURE_FIXTURES)
    for seed in (7, 5278):
        got = recorded_closures(monkeypatch, lambda: tg.corpus(500, seed))
        assert len(got) >= 500
        cases += got
    assert assert_same(cases) == {"built"}


def test_random_maps_up_to_300_points_build_as_the_per_map_walk(monkeypatch):
    # degrees past 254 take two bytes a digit; 70,000 points take four
    monkeypatch.setattr(semigroup, "MAX_SIZE", 2000)
    rng = random.Random(1997)
    cases = list(random_cases(rng, 600, range(1, 7)))
    cases += random_cases(rng, 40, range(7, 255))
    cases.append((3, []))
    cases.append((3, [(None, None, None)]))
    cases.append((3, [(None, None, None), (1, 2, 0)]))
    assert {"built", "closure exceeded N elements"} <= assert_same(cases)
    wide = list(random_cases(rng, 30, range(255, 301)))
    wide.append((70_000, [tuple(range(70_000))]))
    assert {"built", "closure exceeded N elements"} <= assert_same(wide)


@pytest.mark.parametrize("block_cells", [1, 7, 64, semigroup.BLOCK_CELLS])
def test_refusals_match_the_per_map_walk_at_any_block_size(monkeypatch, block_cells):
    # caps small enough to be passed inside a block; each refusal names
    # the first count past the cap, as the per-map walk stops there
    monkeypatch.setattr(semigroup, "BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    kinds = set()
    for max_size, max_cells in [(30, 10**6), (10**6, 150), (40, 200), (7, 35),
                                (25, 100)]:
        monkeypatch.setattr(semigroup, "MAX_SIZE", max_size)
        monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", max_cells)
        cases = list(random_cases(rng, 100, range(1, 7)))
        cases += [(4, [(1, 2, 3, 0), (1, 0, 2, 3), (0, 1, 2, None)]),
                  (5, [(1, 2, 3, 4, 0)])]
        kinds |= assert_same(cases)
    assert kinds == {"built"} | CAP_MESSAGES


def test_s_star_s_assert_catches_a_map_that_is_not_injective(monkeypatch):
    # the generator check refuses such a map first; past it, the whole-array
    # pass checks s s* s = s, with or without python -O
    monkeypatch.setattr(semigroup, "_check_partial_map", lambda g, degree, label: tuple(g))
    with pytest.raises(errors.InvariantViolation,
                       match=r"s_star_s: found 1, expected 0 at row 0, image 0"):
        tg.from_partial_maps(3, [(0, 0, 1)])
