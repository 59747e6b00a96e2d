"""The fields `analyze` reads (involution, s*s, ss*, the slab of products
s e, the right Cayley graph) checked against the full-table route they
replace, and a guard that neither the analysis nor the identity harness
of a closure-built instance fills its table."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import cli, errors, fixtures, semigroup
from tightgroupoid.errors import TheoremViolation

import oracles
from conftest import CORPUS_COUNT, CORPUS_SEED

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MONOID5_TEXT = """semigroup monoid5
points 5
gen a = 1 2 3 4 0
gen b = 1 0 2 3 4
gen c = 0 1 2 3 _
"""


def three_generators_text(name, n):
    """`.isg` text of In(n): the n-cycle, the transposition (0 1) and the
    rank n-1 partial identity."""
    cycle = " ".join(str((x + 1) % n) for x in range(n))
    swap = " ".join(map(str, [1, 0, *range(2, n)]))
    partial = " ".join([*map(str, range(n - 1)), "_"])
    return (f"semigroup {name}\npoints {n}\ngen a = {cycle}\n"
            f"gen b = {swap}\ngen c = {partial}\n")


def closure_built():
    """Fresh instances, so that no other test has filled their tables."""
    out = [(f"In({n})", tg.symmetric_inverse_monoid(n)) for n in range(1, 5)]
    out.append(("monoid5", tg.build_semigroup(tg.parse_spec(MONOID5_TEXT))))
    return out + tg.corpus(CORPUS_COUNT, CORPUS_SEED)


def test_closure_fields_match_checked_table():
    for name, sg in closure_built():
        assert sg._table is None, name
        assert oracles.table_free_fields_mismatch(sg) is None, name
        # the order of the elements is the image-tuple order, -1 for
        # undefined, and the empty map is the zero
        key = [tuple(-1 if v is None else v for v in f) for f in sg.partial_maps]
        assert key == sorted(key), name
        assert sg.element_names == tuple(map(oracles.map_name, sg.partial_maps)), name
        assert sg.zero == 0 and all(v is None for v in sg.partial_maps[0]), name


def test_table_fields_match_checked_table(monkeypatch):
    # each fixture's validated input, recorded on its way to from_table,
    # is the reference; the instance's own table comes from the Cayley
    # graph under test
    inputs = []

    def recording(table, zero, names=None):
        inputs.append([tuple(row) for row in table])
        return tg.from_table(table, zero, names)

    monkeypatch.setattr(fixtures, "from_table", recording)
    built = [(name, tg.build_fixture(name), inputs[-1])
             for name in ("B2", "Z2z", "E4", "Bn(8)", "Pow(5)", "Cz(7)")]
    spec = tg.parse_spec(workloads.brandt_text(15))
    built.append(("brandt15", tg.build_semigroup(spec), list(spec.rows)))
    for name, sg, table in built:
        assert oracles.table_free_fields_mismatch(sg, table) is None, name
        assert sg._table is None, name
        assert sg.table == tuple(map(tuple, table)), name


def test_slab_is_one_packed_int32_array():
    # one read-only C-contiguous int32 array of shape (|S|, |E|), a column
    # per idempotent in index order, on closure- and table-built instances
    built = closure_built() + [(name, tg.build_fixture(name))
                               for name in ("B2", "Z2z", "E4", "Cz(7)")]
    for name, sg in built:
        slab = sg.slab
        assert type(slab) is np.ndarray and slab.dtype == np.int32, name
        assert slab.shape == (sg.size, len(sg.idempotents)), name
        assert slab.flags.c_contiguous and not slab.flags.writeable, name
        assert list(sg.column) == list(sg.idempotent_list()), name
        assert list(sg.column.values()) == list(range(len(sg.idempotents))), name


def test_cayley_graph_is_one_packed_int32_array():
    # the right Cayley graph likewise: one read-only C-contiguous int32
    # array of shape (|S|, |generators|), whatever integer sequence the
    # constructor was given, and the caller's array left as it was
    spec = tg.parse_spec(workloads.brandt_text(15))
    built = closure_built() + [(name, tg.build_fixture(name))
                               for name in ("B2", "Z2z", "E4", "Cz(7)", "In(3)")]
    built.append(("brandt15", tg.build_semigroup(spec)))
    b2 = tg.build_fixture("B2")
    built.append(("B2 rows", tg.from_table([list(row) for row in b2.table], b2.zero)))
    given = np.array([[0, 0], [0, 1]], dtype=np.int64, order="F")
    built.append(("direct", tg.InverseSemigroup(0, [0, 1], [0, 1], [0, 1], given)))
    for name, sg in built:
        right = sg.right
        assert type(right) is np.ndarray and right.dtype == np.int32, name
        assert right.shape == (sg.size, len(sg.generators)), name
        assert right.flags.c_contiguous and not right.flags.writeable, name
    assert given.flags.writeable and given.tolist() == [[0, 0], [0, 1]]


def test_the_cayley_graph_is_walked_once_per_instance(monkeypatch):
    # the closure walk hands its breadth-first tree to the constructor, so
    # a closure-built instance never walks the graph again; a table-built
    # one is walked once, by the table checks, which derive the inverses
    # along the tree and hand it to the constructor.  The slab, the groupoid
    # axiom check and the rest of the identity harness read columns along
    # that tree and never walk it
    walks = []
    breadth_first = semigroup._breadth_first

    def counting(right, generators):
        walks.append(len(right))
        return breadth_first(right, generators)

    monkeypatch.setattr(semigroup, "_breadth_first", counting)
    sg = tg.build_fixture("In(5)")
    tg.verify_instance(sg, "In(5)")
    assert walks == []
    for name, inst in fixtures.iter_corpus(20, 7):
        tg.verify_instance(inst, name)
        assert walks == [], name
    spec = tg.parse_spec(workloads.brandt_text(15))
    for name, build in (("brandt15", lambda: tg.build_semigroup(spec)),
                        ("Pow(5)", lambda: tg.build_fixture("Pow(5)")),
                        ("Cz(7)", lambda: tg.build_fixture("Cz(7)"))):
        inst = build()
        tg.verify_instance(inst, name)
        assert walks == [inst.size], name
        walks.clear()


def spanning_tree_mismatch(sg):
    """The first element whose ``parent`` and ``letter`` differ from the
    oracle's breadth-first walk of ``sg.right``, with both edges; None
    when every element agrees."""
    tree = oracles.spanning_tree(sg.right.tolist(), sg.generators)
    assert len(sg.parent) == len(sg.letter) == len(tree) == sg.size
    for y, p, j in zip(range(sg.size), sg.parent.tolist(), sg.letter.tolist()):
        want = (-1, -1) if tree[y] is None else tree[y]
        if (p, j) != want:
            return y, (p, j), want
    return None


def test_the_tree_is_the_breadth_first_walk():
    # closure route: the tree read off the walk's own edges; table route:
    # the constructor's one breadth-first pass over `right`
    built = [(f"In({n})", tg.symmetric_inverse_monoid(n)) for n in range(1, 7)]
    built += tg.corpus(300, 7)
    built += [(name, tg.build_fixture(name)) for name in ("Pow(5)", "Cz(7)")]
    built.append(("brandt15", tg.build_semigroup(tg.parse_spec(workloads.brandt_text(15)))))
    for name, sg in built:
        for tree in (sg.parent, sg.letter):
            assert tree.dtype == np.int32 and not tree.flags.writeable, name
        assert spanning_tree_mismatch(sg) is None, name


def test_generators_are_the_letters_plus_unreached_zero():
    # a permutation group never reaches the empty map, so the zero joins
    # the letters; a partial map does reach it
    group = tg.from_partial_maps(3, [(1, 2, 0)])
    assert [group.partial_maps[g] for g in group.generators] == \
        [(1, 2, 0), (2, 0, 1), (None, None, None)]
    assert (group.right[:, -1] == group.zero).all()
    shrink = tg.from_partial_maps(2, [(1, None)])
    assert [shrink.partial_maps[g] for g in shrink.generators] == \
        [(1, None), (None, 0)]


def test_analysis_never_fills_the_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the multiplication table was filled")

    monkeypatch.setattr(semigroup, "_cayley_table", refuse)
    spec = tg.parse_spec(MONOID5_TEXT)
    sg = tg.build_semigroup(spec)
    analysis = tg.analyze(sg, name=spec.name)
    doc = tg.build_document(analysis, spec.name)
    assert tg.emit_report(doc) and tg.emit_dot(analysis.groupoid, spec.name)
    assert len(tg.all_filters(sg)) == 31
    # nor does the identity harness, whose groupoid axioms read only
    # products of arrow representatives
    tg.verify_instance(sg, spec.name)
    assert sg._table is None
    for name, inst in tg.corpus(20, 7):
        tg.verify_instance(inst, name)
        assert inst._table is None, name
    with pytest.raises(AssertionError, match="table was filled"):
        sg.table[1][2]


def test_table_reproducer_never_fills_the_table():
    # a table-built instance's reproducer reads every column at once; its
    # text is the one written from the table
    spec = tg.parse_spec(workloads.brandt_text(15))
    for name, sg in (("Bn(8)", tg.build_fixture("Bn(8)")),
                     (spec.name, tg.build_semigroup(spec))):
        text = tg.format_spec(cli.spec_of_semigroup(sg, name))
        assert sg._table is None, name
        assert text == tg.format_spec(tg.SemigroupSpec(
            name, "table", size=sg.size, zero=sg.zero, rows=sg.table)), name
        assert text.count("\n") == sg.size + 2, name


def test_group_with_zero_analysis_never_fills_the_table(monkeypatch):
    # the identity of a group with zero is read from the slab, so neither
    # the fixture nor its analysis asks for a general product
    def refuse(*args):
        raise AssertionError("the multiplication table was filled")

    monkeypatch.setattr(semigroup, "_cayley_table", refuse)
    sg = tg.build_fixture("Cz(7)")
    tg.analyze(sg, name="Cz(7)")
    assert sg._table is None


# ------------------------------------------------------------- size cap

def partial_identities_text(name, n):
    """`.isg` text of the n rank n-1 partial identities of n points, which
    close to a semilattice of 2^n - 1 elements, all idempotent."""
    lines = [f"semigroup {name}", f"points {n}"]
    for x in range(n):
        cells = ["_" if y == x else str(y) for y in range(n)]
        lines.append(f"gen p{x} = " + " ".join(cells))
    return "\n".join(lines) + "\n"


def test_default_caps_admit_i6_and_stop_i7():
    # |In(n)| is the sum over k of C(n,k)^2 k!: 13,327 for n = 6 and
    # 130,922 for n = 7; I6 has 2^6 idempotents
    assert 13_327 <= semigroup.MAX_SIZE < 130_922
    assert 13_327 * 2 ** 6 <= semigroup.MAX_SLAB_CELLS


def test_size_cap_is_exact(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i3.isg"
    path.write_text(three_generators_text("I3", 3))
    monkeypatch.setattr(semigroup, "MAX_SIZE", 34)
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert "|S|=34" in capsys.readouterr().out
    monkeypatch.setattr(semigroup, "MAX_SIZE", 33)
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert "invalid input: closure exceeded 33 elements" in capsys.readouterr().err


def test_size_cap_stops_i7_at_the_first_map_past_it(tmp_path, capsys, monkeypatch,
                                                   product_count):
    monkeypatch.setattr(semigroup, "MAX_SIZE", 200)
    path = tmp_path / "i7.isg"
    path.write_text(three_generators_text("I7", 7))
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert "invalid input: closure exceeded 200 elements" in capsys.readouterr().err
    # four distinct letters: the cycle, its inverse, the swap and the
    # partial identity; the walk multiplies only maps found under the cap,
    # and needs a product for each of the 196 maps past the letters and
    # the empty map
    assert 196 <= product_count[0] <= 201 * 4


def test_slab_cap_is_exact(tmp_path, capsys, monkeypatch):
    # I3: 34 elements, 8 of them idempotent
    path = tmp_path / "i3.isg"
    path.write_text(three_generators_text("I3", 3))
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", 272)
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert "|S|=34 |E|=8" in capsys.readouterr().out
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", 271)
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert ("invalid input: closure of 34 elements and 8 idempotents "
            "exceeds 271 slab cells") in capsys.readouterr().err


def test_default_slab_cap_stops_a_large_semilattice(tmp_path, capsys):
    # 14 points: 16,383 elements pass the size cap, but the slab would
    # have 16,383^2 cells; the run stops before it is built
    path = tmp_path / "p14.isg"
    path.write_text(partial_identities_text("P14", 14))
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert "invalid input: closure of 16383 elements and 16383 idempotents" \
        in capsys.readouterr().err


def cycle_text(name, n):
    """`.isg` text of one n-point cycle, whose closure is the cyclic group
    of order n plus the empty map: n + 1 maps of n points each."""
    cells = " ".join(str((x + 1) % n) for x in range(n))
    return f"semigroup {name}\npoints {n}\ngen a = {cells}\n"


def test_walk_cap_is_exact(tmp_path, capsys, monkeypatch):
    # the 10-cycle walks 11 maps of 10 points, 110 image cells; its slab
    # has 11 x 2 cells, so only the walk's count can refuse it
    path = tmp_path / "c10.isg"
    path.write_text(cycle_text("C10", 10))
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", 110)
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert "|S|=11 |E|=2" in capsys.readouterr().out
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", 109)
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert ("invalid input: closure of 11 maps on 10 points exceeds 109 "
            "image cells") in capsys.readouterr().err


def test_default_walk_cap_stops_a_long_cycle(tmp_path, capsys, product_count):
    # 12,001 maps pass the size cap, but they would hold 1.44e8 image
    # cells; the walk is refused at its 167th map, having multiplied only
    # maps found under the cap
    path = tmp_path / "c12000.isg"
    path.write_text(cycle_text("C12000", 12_000))
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert ("invalid input: closure of 167 maps on 12000 points exceeds "
            "2000000 image cells") in capsys.readouterr().err
    # the letters are the cycle and its inverse; every map past them and
    # the empty map takes a product to find
    assert 164 <= product_count[0] <= 167 * 2


def test_many_letters_are_walked_in_blocks():
    # 100 random permutations of 2,000 points and their inverses are 200
    # letters.  The first frontier, 201 maps times every letter, would
    # hold 8e7 product cells (over 300 MB); the walk forms them a block
    # of at most one map at a time and is refused at its 1001st map.
    import random
    import tracemalloc

    rng = random.Random(100)
    gens = [tuple(rng.sample(range(2000), 2000)) for _ in range(100)]
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapExceeded) as info:
            tg.from_partial_maps(2000, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("closure of 1001 maps on 2000 points exceeds "
                               "2000000 image cells")
    assert peak < 32 * 2 ** 20, peak


def orthogonal_atoms_text(name, n):
    """`.isg` table text of the semilattice of a zero and n - 1 pairwise
    orthogonal atoms, whose greedy generating set is all n - 1 atoms."""
    lines = [f"semigroup {name}", f"table {n} zero 0"]
    for i in range(n):
        lines.append(" ".join(str(i) if j == i else "0" for j in range(n)))
    return "\n".join(lines) + "\n"


def test_default_table_cap_stops_the_800_element_semilattice(
        tmp_path, capsys, monkeypatch):
    # 800^2 cells for each of 799 generators; the run stops before the
    # first associativity comparison
    def refuse(*args):
        raise AssertionError("Light's test ran")

    monkeypatch.setattr(semigroup.np, "array_equal", refuse)
    path = tmp_path / "sl800.isg"
    path.write_text(orthogonal_atoms_text("SL800", 800))
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert ("invalid input: table of 800 elements with 799 generators needs "
            "511360000 associativity checks, over the cap of 200000000"
            ) in capsys.readouterr().err


def test_table_cap_is_exact_and_keeps_verdicts(tmp_path, capsys, monkeypatch):
    # brandt15: 226 elements and the greedy generators of the built instance
    path = tmp_path / "b15.isg"
    path.write_text(workloads.brandt_text(15))
    gens = len(tg.build_semigroup(tg.parse_spec(path.read_text())).generators)
    assert cli.run_cli(["analyze", str(path)]) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(semigroup, "MAX_TABLE_WORK", 226 ** 2 * gens)
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == default
    monkeypatch.setattr(semigroup, "MAX_TABLE_WORK", 226 ** 2 * gens - 1)
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert f"invalid input: table of 226 elements with {gens} generators" \
        in capsys.readouterr().err


# ----------------------------------------------------------- reproducer

def test_closure_reproducer_never_fills_the_table(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the multiplication table was filled")

    monkeypatch.setattr(semigroup, "_cayley_table", refuse)
    monkeypatch.chdir(tmp_path)
    sg = tg.build_semigroup(tg.parse_spec(MONOID5_TEXT))
    exc = TheoremViolation("demo", True, False, "forced for the test")
    body = json.loads((tmp_path / cli._dump_violation(sg, "monoid5", exc)).read_text())
    spec = tg.parse_spec(body["isg"])
    assert spec.mode == "generators"
    again = tg.build_semigroup(spec)
    assert again.partial_maps == sg.partial_maps
    assert again.element_names == sg.element_names
    assert again.star == sg.star
    assert np.array_equal(again.right, sg.right)
    assert np.array_equal(again.slab, sg.slab)


@pytest.mark.parametrize("name", ["B2", "I2"])
def test_verdict_mismatch_exits_3_with_a_replayable_reproducer(
        name, tmp_path, capsys, monkeypatch):
    # a direct decision that lies must surface as exit 3, and the
    # reproducer must rebuild the same instance
    is_minimal = tg.GermGroupoid.is_minimal
    monkeypatch.setattr(tg.GermGroupoid, "is_minimal",
                        lambda self: not is_minimal(self))
    monkeypatch.chdir(tmp_path)
    assert cli.run_cli(["analyze", "--fixture", name]) == 3
    assert "verdict mismatch" in capsys.readouterr().err
    body = json.loads((tmp_path / cli._violation_path(name)).read_text())
    assert body["property"] == "minimal"
    sg = tg.build_fixture(name)
    again = tg.build_semigroup(tg.parse_spec(body["isg"]))
    for field in ("star", "d", "r", "table"):
        assert getattr(again, field) == getattr(sg, field), field
    assert np.array_equal(again.right, sg.right)
    assert np.array_equal(again.slab, sg.slab)
