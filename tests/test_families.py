"""Structured families with known groupoids, as regression anchors:
groups with zero give their own group over a single point, matrix-unit
semigroups give pair groupoids, and pure semilattices give unit spaces
indexed by their atoms.  The families at the end are given by their
multiplication tables, so they take the `from_table` route through the
identity harness."""

from __future__ import annotations

import pytest

import tightgroupoid as tg

import oracles


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cyclic_groups_with_zero(n):
    sg = tg.cyclic_group_with_zero(n)
    analysis, _ = tg.verify_instance(sg, f"Cz({n})")
    g = analysis.groupoid
    assert len(g.units) == 1 and len(g.arrows) == n
    flags = analysis.report.cstar_flags
    assert flags["a"] and flags["c"] and not flags["d"]
    assert flags["b"] == (n == 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_unit_semigroups(n):
    sg = tg.brandt_semigroup(n)
    analysis, _ = tg.verify_instance(sg, f"Bn({n})")
    g = analysis.groupoid
    assert len(g.units) == n and len(g.arrows) == n * n
    hom_sets = {(g.source[i], g.target[i]) for i in range(len(g.arrows))}
    assert len(hom_sets) == n * n
    assert analysis.report.cstar_flags == {"a": True, "b": True,
                                           "c": True, "d": False}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subset_semilattices(k):
    sg = tg.meet_semilattice_of_subsets(k)
    analysis, _ = tg.verify_instance(sg, f"Pow({k})")
    g = analysis.groupoid
    assert len(g.units) == len(g.arrows) == k
    flags = analysis.report.cstar_flags
    assert flags["a"] and flags["b"] and not flags["d"]
    assert flags["c"] == (k == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_inverse_monoids(n):
    sg = tg.symmetric_inverse_monoid(n)
    analysis, _ = tg.verify_instance(sg, f"In({n})")
    g = analysis.groupoid
    # the n singleton-domain partial identities are the tight points and
    # every pair of them is connected by a unique germ
    assert len(g.units) == n and len(g.arrows) == n * n
    assert analysis.report.cstar_flags == {"a": True, "b": True,
                                           "c": True, "d": False}


# ------------------------------------------ families given by their tables

def brandt_over_group(order, n):
    """B(Z_order, n): 0 and the triples (i, g, j), with
    (i, g, j)(k, h, l) = (i, g + h, l) when j = k and 0 otherwise."""
    triples = [(i, g, j) for i in range(n) for g in range(order) for j in range(n)]
    index = {t: k + 1 for k, t in enumerate(triples)}

    def mul(a, b):
        if a == 0 or b == 0 or a[2] != b[0]:
            return 0
        return index[(a[0], (a[1] + b[1]) % order, b[2])]

    elements = [0, *triples]
    return [[mul(a, b) for b in elements] for a in elements], 0


def lattice(below):
    """The meet table of a finite lattice given by the strict down-sets of
    its elements; element 0 is the bottom."""
    down = [set(b) | {x} for x, b in enumerate(below)]
    return [[max(down[a] & down[b], key=lambda c: len(down[c]))
             for b in range(len(down))] for a in range(len(down))], 0


def clifford_chain():
    """Z2 over Z2 along the chain beta < alpha, linked by the identity, with
    a zero: 1, 2 are the group at alpha and 3, 4 the group at beta."""
    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        level = 1 if a <= 2 and b <= 2 else 3
        return level + ((a - 1) % 2 + (b - 1) % 2) % 2

    return [[mul(a, b) for b in range(5)] for a in range(5)], 0


TABLE_FAMILIES = {
    # name: (table, zero), (|S|, |E|, points, arrows, units), flags a b c d
    "B(Z3,2)": (brandt_over_group(3, 2), (13, 3, 2, 12, 2), "TFTF"),
    "B(Z2,3)": (brandt_over_group(2, 3), (19, 4, 3, 18, 3), "TFTF"),
    "M3": (lattice([(), (0,), (0,), (0,), (0, 1, 2, 3)]), (5, 5, 3, 3, 3), "TTFF"),
    "N5": (lattice([(), (0,), (0, 1), (0,), (0, 1, 2, 3)]), (5, 5, 2, 2, 2), "TTFF"),
    "Clifford": (clifford_chain(), (5, 3, 1, 2, 1), "TFTF"),
}


@pytest.mark.parametrize("name", sorted(TABLE_FAMILIES))
def test_table_built_families(name):
    (table, zero), counts, flags = TABLE_FAMILIES[name]
    sg = tg.from_table(table, zero)
    assert sg.partial_maps is None
    analysis, checks = tg.verify_instance(sg, name)
    g = analysis.groupoid
    assert len(checks) == 14
    assert (sg.size, len(sg.idempotents), len(analysis.spectrum.points),
            len(g.arrows), len(g.units)) == counts
    assert "".join("FT"[v] for _, v in sorted(analysis.report.cstar_flags.items())) \
        == flags
    # a germ is determined by s e_x, so the arrows are the elements whose
    # domain s*s is an atom
    atoms = {e for e in sg.nonzero_idempotents() if len(sg.below(e)) == 2}
    assert len(g.arrows) == sum(sg.d[s] in atoms for s in sg.elements())
    easier = tg.easier_loc_contr_criterion(sg)
    want = oracles.search_easier_contraction(sg)
    assert (easier.value, easier.vacuous) == (want.value, want.vacuous)
