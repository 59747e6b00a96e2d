"""Generating sets, and the checks that run against them, compared with
the exhaustive checks they replace (kept in oracles.py): Light's
associativity test in `from_table` against the cubic scan, and the
generator cut of `validate_action` against all pairs of elements."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import tightgroupoid as tg
from tightgroupoid import errors

import oracles
from test_families import TABLE_FAMILIES

NAMES = ("I2", "B2", "Z2z", "E4", "Bn(5)", "Pow(4)", "Cz(7)", "In(3)")
MONOID5 = (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 1, 2, 3, None)])
TABLE_MUTATIONS_PER_INSTANCE = 20
ACTION_MUTATIONS_PER_INSTANCE = 12


@pytest.fixture(scope="module")
def instances(corpus100):
    return [(name, tg.build_fixture(name)) for name in NAMES] + list(corpus100)


@pytest.fixture(scope="module")
def monoid5():
    return tg.from_partial_maps(*MONOID5)


def right_closure(sg):
    """Everything reached from the generators by right-multiplying by
    generators, walked on the table."""
    reached = set(sg.generators)
    todo = list(reached)
    for x in todo:
        for g in sg.generators:
            y = sg.table[x][g]
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


def test_generators_reach_every_element(instances, monoid5):
    for name, sg in instances + [("monoid5", monoid5)]:
        assert right_closure(sg) == set(sg.elements()), name
    # Light's test and the action check cost O(n^2) per generator; the four
    # letters and the zero already generate monoid5, so the greedy set
    # should be no larger
    assert len(monoid5.generators) <= 5


@pytest.mark.parametrize("n", range(2, 21))
def test_brandt_generators_reach_every_element(n):
    # the greedy's first chain runs through the n points and back to the
    # first: n + 1 generators, where B_n needs n for its n^2 matrix units
    sg = tg.build_fixture(f"Bn({n})")
    assert right_closure(sg) == set(sg.elements())
    assert len(sg.generators) == n + 1


@pytest.mark.parametrize("name", sorted(TABLE_FAMILIES))
def test_table_family_generators_reach_every_element(name):
    (table, zero), _, _ = TABLE_FAMILIES[name]
    sg = tg.from_table(table, zero)
    assert right_closure(sg) == set(sg.elements())


def test_table_is_the_composition_of_maps(instances, monoid5):
    closure_built = [sg for _, sg in instances if sg.partial_maps]
    closure_built += [tg.build_fixture("In(4)")]
    for sg in closure_built:
        f = sg.partial_maps
        for a in sg.elements():
            for b in sg.elements():
                assert f[sg.table[a][b]] == oracles.compose_maps(f[a], f[b])
    # every cell would take 2.4M compositions; a seeded sample instead
    rng = random.Random(0)
    f = monoid5.partial_maps
    for _ in range(20000):
        a, b = rng.randrange(monoid5.size), rng.randrange(monoid5.size)
        assert f[monoid5.table[a][b]] == oracles.compose_maps(f[a], f[b])


def associativity_verdict(table, zero):
    """The triple `from_table` reports, or None when associativity
    passes (whatever later axiom the table then fails)."""
    try:
        tg.from_table(table, zero)
    except errors.NotAssociative as exc:
        return exc.triple
    except errors.TightGroupoidError:
        pass
    return None


def test_table_mutations_match_cubic_scan(instances):
    rng = random.Random(0)
    outcomes = Counter()
    for name, sg in instances:
        for _ in range(TABLE_MUTATIONS_PER_INSTANCE):
            table = [list(row) for row in sg.table]
            a, b = rng.randrange(sg.size), rng.randrange(sg.size)
            v = rng.randrange(sg.size - 1)
            table[a][b] = v if v < table[a][b] else v + 1
            want = oracles.cubic_associativity(table)
            got = associativity_verdict(table, sg.zero)
            assert (got is None) == (want is None), (name, a, b, table[a][b])
            if got is not None:
                x, y, z = got
                assert table[table[x][y]][z] != table[x][table[y][z]], \
                    (name, got)
            outcomes[want is None] += 1
    assert sum(outcomes.values()) >= 2000
    assert outcomes[True] and outcomes[False], outcomes


def mutate_action(sg, act, rng):
    """One seeded change to the maps of a valid action: a swap of two
    images of a non-idempotent s with the map of s* kept its inverse
    (passes every check before composition), a relabelling of all points
    (a valid action again), or one changed cell (mostly caught earlier)."""
    maps = oracles.views(act.array)[0]
    kind = rng.choice(("swap", "relabel", "cell"))
    movers = [s for s in sg.elements()
              if s not in sg.idempotents and len(act.domain(s)) >= 2]
    if kind == "swap" and movers:
        s = rng.choice(movers)
        x1, x2 = rng.sample(sorted(act.domain(s)), 2)
        m = list(maps[s])
        m[x1], m[x2] = m[x2], m[x1]
        maps[s] = tuple(m)
        maps[sg.star[s]] = oracles.invert_map(maps[s])
    elif kind == "relabel":
        perm = list(range(act.points))
        rng.shuffle(perm)
        for s, m in list(maps.items()):
            out = [None] * act.points
            for x, y in enumerate(m):
                if y is not None:
                    out[perm[x]] = perm[y]
            maps[s] = tuple(out)
    else:
        s, x = rng.randrange(sg.size), rng.randrange(act.points)
        choices = [y for y in [None, *range(act.points)] if y != maps[s][x]]
        m = list(maps[s])
        m[x] = rng.choice(choices)
        maps[s] = tuple(m)
    return tg.FiniteAction(sg, act.points, maps)


def test_action_mutations_match_all_pairs(instances):
    rng = random.Random(0)
    outcomes = Counter()
    for name, sg in instances:
        act = tg.standard_action(tg.tight_spectrum(sg))
        for _ in range(ACTION_MUTATIONS_PER_INSTANCE):
            mutant = mutate_action(sg, act, rng)
            try:
                tg.validate_action(mutant)
                got = None
            except errors.CompositionMismatch as exc:
                got = exc.where
            except errors.TightGroupoidError:
                outcomes["caught before composition"] += 1
                continue
            want = oracles.all_pairs_composition(mutant)
            assert (got is None) == (want is None), (name, got, want)
            if got is not None:
                s, t, x = got
                m = oracles.views(mutant.array)[0]
                y = m[t][x]
                assert t in sg.generators
                assert (m[s][y] if y is not None else None) != \
                    m[sg.table[s][t]][x], (name, got)
            outcomes["mismatch" if got else "valid"] += 1
    assert outcomes["mismatch"] and outcomes["valid"], outcomes
