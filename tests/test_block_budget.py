"""Every pass cut into blocks of rows reads one budget, ``semigroup.BLOCK_CELLS``
cells a block: at budgets small enough that each instance spans several
blocks, each pass must raise the same first error as at the default
budget, where the instance fits one block, and as its oracle in
`oracles`.  The closure walk and the inverse search are held to theirs in
test_closure_walk.py and test_table_input.py."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import action, semigroup, spectrum

import oracles
from test_array_passes import both_harness_outcomes, result_of
from test_germs import axiom_outcome, make_from, wide_instances

DEFAULT = semigroup.BLOCK_CELLS


def first_element(message):
    """The first index in a message: x of NotAssociative's (x, g, y), s of
    CompositionMismatch's (s, g, x)."""
    return int(re.search(r"\d+", message).group())


def at_budgets(monkeypatch, cells, read):
    """What `read` returns with the budget at `cells` and at the default."""
    out = []
    for budget in (cells, DEFAULT):
        with monkeypatch.context() as mp:
            mp.setattr(semigroup, "BLOCK_CELLS", budget)
            out.append(read())
    return out


def spans_blocks(cells, cells_per_row, rows, past):
    """At a small budget the pass spans several blocks and `past` lies
    outside the first; at the default it is one block."""
    step = max(1, cells // max(1, cells_per_row))
    if cells == DEFAULT:
        return step >= rows
    return step < rows and past >= step


@pytest.mark.parametrize("cells", [1, 7, 64, DEFAULT])
def test_blocked_passes_fail_first_as_at_the_default_budget(monkeypatch, cells):
    rng = random.Random(1408)
    past = {}                 # pass -> its failures past the first block

    # Light's test: one entry of a Brandt table changed at random
    for name in ("Bn(3)", "Bn(6)"):
        sg = tg.build_fixture(name)
        n = sg.size
        table = [list(row) for row in sg.table]
        for _ in range(40):
            bad = [row[:] for row in table]
            a, b = rng.randrange(n), rng.randrange(n)
            bad[a][b] = (bad[a][b] + 1 + rng.randrange(n - 1)) % n
            got, default = at_budgets(monkeypatch, cells,
                                      lambda: result_of(lambda: tg.from_table(bad, sg.zero).size))
            assert got == default, (name, a, b)
            cubic = oracles.cubic_associativity(bad)
            assert (cubic is None) == (got == n or got[0] != "NotAssociative"), (name, a, b)
            if cubic is not None:
                x, g, y = map(int, re.findall(r"\d+", got[1])[:3])
                assert bad[bad[x][g]][y] != bad[x][bad[g][y]], (name, x, g, y)
                past["light"] = past.get("light", 0) + spans_blocks(cells, n, n, x)

    # validate_action: two images of a non-idempotent swapped, its
    # inverse's map kept its inverse, and one image moved to another point
    sg = tg.build_fixture("In(4)")
    act = action.standard_action(spectrum.tight_spectrum(sg))
    maps = oracles.views(act.array)[0]
    movers = [s for s in sg.elements()
              if s not in sg.idempotents and len(act.domain(s)) >= 2]
    kinds = set()
    for s in rng.sample(movers, 12):
        x1, x2 = rng.sample(sorted(act.domain(s)), 2)
        swapped = list(maps[s])
        swapped[x1], swapped[x2] = swapped[x2], swapped[x1]
        moved = list(maps[s])
        moved[x1] = rng.choice([y for y in range(act.points) if y != maps[s][x1]])
        for bad in ({**maps, s: tuple(swapped), sg.star[s]: oracles.invert_map(tuple(swapped))},
                    {**maps, s: tuple(moved)}):
            got, default = at_budgets(monkeypatch, cells, lambda: result_of(
                action.validate_action, action.FiniteAction(sg, act.points, bad)))
            want = result_of(oracles.per_element_validate, sg, act.points, bad)
            assert got == default == want, s
            kinds.add(got[0])
            if got[0] == "CompositionMismatch":
                past["composition"] = past.get("composition", 0) + spans_blocks(
                    cells, len(sg.generators) * act.points, sg.size, first_element(got[1]))
    assert "CompositionMismatch" in kinds, kinds

    # the harness: on Bn(6), a weakly fixed flag flipped and an image moved
    # off its point and its old image, each on the highest element it can be
    sg = tg.build_fixture("Bn(6)")
    analysis = tg.analyze(sg, "Bn(6)")
    act, width = analysis.action, len(sg.idempotents)
    pairs = np.argwhere(sg.slab[list(sg.d)] == np.array(sg.idempotent_list()))
    s, j = pairs[-1].tolist()
    flags = sg._weakly_fixed.copy()
    flags[s, j] ^= True
    elems, xs = np.nonzero(act.defined & (act.array != np.arange(act.points)))
    t, x = int(elems[-1]), int(xs[-1])
    cells_moved = act.array.copy()
    cells_moved[t, x] = next(y for y in range(act.points) if y not in (x, act.array[t, x]))
    for identity, at, change in (
            ("weakly_fixed_vs_fixed_points", s,
             lambda mp: mp.setattr(sg, "_weakly_fixed", flags)),
            ("conjugated_domains", t, lambda mp: mp.setattr(act, "array", cells_moved))):
        got, default = at_budgets(monkeypatch, cells, lambda: both_harness_outcomes(
            analysis, "Bn(6)", monkeypatch, change))
        assert got == default and got[0] == got[1], identity
        assert got[0][1].startswith(f"{identity}:") and f" s={at} " in got[0][1], got
        assert spans_blocks(cells, width, sg.size, at), identity

    # the groupoid axioms: products of two arrow representatives changed in
    # both places they are read, as in test_germs.py
    columns = tg.InverseSemigroup._columns
    corrupt = {}                       # (a, b) -> the wrong product a b

    def corrupted_columns(sg, wanted):
        out = columns(sg, wanted)
        for (a, b), ab in corrupt.items():
            out[list(wanted).index(b), a] = ab
        return out

    monkeypatch.setattr(tg.InverseSemigroup, "_columns", corrupted_columns)
    failed = set()
    for name, sg in wide_instances():
        if name == "Pow(4)":           # the compose loop alone: no blocks
            continue
        g = make_from(sg)
        n = len(g.arrows)
        pairs = int((np.array(g.source)[:, None] == np.array(g.target)).sum())
        assert spans_blocks(cells, pairs, n, 1), name
        table = sg.table
        reps = sorted({s for s, _ in g.arrows})
        for a, b in rng.sample([(a, b) for a in reps for b in reps], 40):
            corrupt[a, b] = (table[a][b] + 1 + rng.randrange(sg.size - 1)) % sg.size
            row = list(table[a])
            row[b] = corrupt[a, b]
            sg._table = table[:a] + (tuple(row),) + table[a + 1:]
            try:
                got, default = at_budgets(monkeypatch, cells, lambda: axiom_outcome(
                    tg.GermGroupoid.verify_axioms, g))
                want = axiom_outcome(oracles.compose_verify_axioms, g)
            finally:
                sg._table = table
                corrupt.clear()
            assert got == default == want, (name, a, b)
            failed.add(got and got[1])
            if got and got[1] == "associativity":
                past["axioms"] = past.get("axioms", 0) + spans_blocks(cells, pairs, n,
                                                                      got[2][2])
    assert "associativity" in failed, failed
    if cells != DEFAULT:
        assert set(past) == {"light", "composition", "axioms"} and all(past.values()), past
