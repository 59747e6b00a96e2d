from __future__ import annotations

import itertools
import math

import pytest

import tightgroupoid as tg
from tightgroupoid import cli, errors, fixtures, report, semigroup

import oracles


def test_named_fixture_cardinalities():
    assert tg.build_fixture("I2").size == 7
    assert tg.build_fixture("B2").size == 5
    assert tg.build_fixture("Z2z").size == 3
    assert tg.build_fixture("E4").size == 4
    assert len(tg.build_fixture("E4").idempotents) == 4


def test_parameterized_fixtures():
    assert tg.build_fixture("In(2)").size == 7
    expected = sum(math.comb(3, k) ** 2 * math.factorial(k) for k in range(4))
    assert tg.build_fixture("In(3)").size == expected == 34
    assert tg.build_fixture("Bn(3)").size == 10
    assert tg.build_fixture("Cz(1)").size == 2
    assert tg.build_fixture("Cz(3)").size == 4
    assert tg.build_fixture("Pow(3)").size == 8


def test_symmetric_cap():
    # In(7) has 130,922 elements; the walk stops at the first map past
    # semigroup.MAX_SIZE
    with pytest.raises(errors.CapExceeded, match="closure exceeded 20000"):
        tg.build_fixture("In(7)")


def short_id(name):
    head, _, arg = name.partition("(")
    return name if len(arg) < 20 else f"{head}(<{len(arg) - 1} digits>)"


def refuse(*args, **kwargs):
    raise AssertionError("a refused fixture reached its builder")


@pytest.mark.parametrize("family, last, size",
                         [("Bn", 3, 10), ("Cz", 9, 10), ("Pow", 3, 8)])
def test_table_family_cap_is_exact(family, last, size, monkeypatch):
    # the cap admits a table of size^2 cells and refuses the next family
    # member, and the member itself one cell lower, before a table exists
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", size * size)
    assert tg.build_fixture(f"{family}({last})").size == size
    monkeypatch.setattr(fixtures, "from_table", refuse)
    with pytest.raises(errors.CapExceeded):
        tg.build_fixture(f"{family}({last + 1})")
    monkeypatch.setattr(semigroup, "MAX_SLAB_CELLS", size * size - 1)
    with pytest.raises(errors.CapExceeded):
        tg.build_fixture(f"{family}({last})")


def test_default_caps_admit_the_documented_largest_fixtures():
    # Bn(n) has n^2 + 1 elements, Cz(n) n + 1 and Pow(k) 2^k
    cells = semigroup.MAX_SLAB_CELLS
    assert (37 ** 2 + 1) ** 2 <= cells < (38 ** 2 + 1) ** 2
    assert 1414 ** 2 <= cells < 1415 ** 2
    assert (2 ** 10) ** 2 <= cells < (2 ** 11) ** 2


@pytest.mark.parametrize("name", ["Bn(38)", "Cz(1414)", "Pow(11)", "In(11)",
                                  "In(" + "9" * 4000 + ")",
                                  "Pow(" + "9" * 4000 + ")"], ids=short_id)
def test_default_caps_refuse_before_building(name, monkeypatch):
    monkeypatch.setattr(fixtures, "from_table", refuse)
    monkeypatch.setattr(fixtures, "from_partial_maps", refuse)
    with pytest.raises(errors.CapExceeded):
        tg.build_fixture(name)


@pytest.mark.parametrize("name", ["Cz(\u0663)", "Cz(" + "9" * 5000 + ")"],
                         ids=short_id)
def test_fixture_argument_is_ascii_digits_of_bounded_length(name, capsys):
    # an Arabic-Indic three is no argument; 5000 digits pass int()'s limit
    with pytest.raises(errors.TightGroupoidError):
        tg.build_fixture(name)
    assert cli.run_cli(["analyze", "--fixture", name]) == 1
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_unknown_fixture():
    with pytest.raises(errors.DegreeMismatch):
        tg.build_fixture("nope")


def test_group_with_zero():
    assert tg.group_with_zero([[0]]).size == 2
    c2 = tg.group_with_zero([[0, 1], [1, 0]])
    assert c2.size == 3 and c2.idempotents == {0, 1}


def test_group_with_zero_accepts_a_nonabelian_group():
    # S3 as permutations of three points, composed right to left
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[x] for x in q)) for q in perms] for p in perms]
    s3 = tg.group_with_zero(table)
    assert s3.size == 7 and s3.idempotents == {0, 1}
    assert s3.star[1:] == tuple(1 + perms.index(tuple(p.index(x) for x in range(3)))
                                for p in perms)
    assert s3.d[1:] == s3.r[1:] == (1,) * 6
    assert any(table[a][b] != table[b][a] for a in range(6) for b in range(6))


def test_group_with_zero_rejects_monoids():
    # a two-chain semilattice is a monoid but not a group
    with pytest.raises(errors.DegreeMismatch, match="2 nonzero idempotents, not one"):
        tg.group_with_zero([[0, 0], [0, 1]])


def test_table_fixtures_match_their_loops():
    # the array-built tables against the former cell-by-cell loops
    families = ((tg.brandt_semigroup, oracles.loop_brandt_table, range(1, 9)),
                (tg.cyclic_group_with_zero, oracles.loop_cyclic_table, range(1, 13)),
                (tg.meet_semilattice_of_subsets, oracles.loop_subsets_table, range(9)))
    for family, loop, sizes in families:
        for n in sizes:
            assert family(n).table == tuple(map(tuple, loop(n))), (family.__name__, n)


def test_z2z_equals_cyclic_construction():
    a = tg.build_fixture("Z2z")
    b = tg.cyclic_group_with_zero(2)
    assert a.table == b.table and a.zero == b.zero


def test_corpus_is_deterministic():
    first = tg.corpus(6, 42)
    second = tg.corpus(6, 42)
    assert [sg.table for _, sg in first] == [sg.table for _, sg in second]
    assert [name for name, _ in first] == [name for name, _ in second]


def test_corpus_respects_bounds():
    for _, sg in tg.corpus(15, 11):
        assert sg.size <= 300
        assert len(sg.idempotents) >= 2


def test_random_instances_are_generator_closed_models():
    import random

    rng = random.Random(5)
    for _ in range(5):
        sg = tg.random_instance(rng)
        assert sg.partial_maps is not None
        empty = sg.partial_maps[sg.zero]
        assert all(v is None for v in empty)


def test_every_family_names_each_element_once():
    """A report keys its witnesses by element name, so two elements with
    one name would leave one entry for both: every fixture family, at
    the sizes where its namer changes form, and the one-point generator
    text give distinct names and one Hausdorff cover per element."""
    names = ["I2", "B2", "Z2z", "E4", "In(1)", "In(2)", "In(3)", "Bn(1)", "Bn(9)",
             "Bn(10)", "Bn(11)", "Cz(1)", "Cz(7)", "Pow(1)", "Pow(2)", "Pow(5)"]
    cases = [(name, tg.build_fixture(name)) for name in names]
    cases.append(("one point", tg.build_semigroup(
        tg.parse_spec("semigroup one\npoints 1\ngen a = 0\n"))))
    for name, sg in cases:
        assert len(set(map(sg.name_of, sg.elements()))) == sg.size, name
        doc = report.build_document(tg.analyze(sg, name=name), name)
        assert len(doc["witnesses"]["hausdorff"]["covers"]) == sg.size, name
    for name in ("Bn(37)", "In(5)", "Pow(10)"):
        sg = tg.build_fixture(name)
        assert len(set(map(sg.name_of, sg.elements()))) == sg.size, name
    assert tg.build_fixture("Pow(3)").element_names == \
        ("0", "a", "b", "c", "ab", "ac", "bc", "abc")


def test_duplicate_element_names_are_refused():
    with pytest.raises(errors.DuplicateName, match="duplicate name 'x'"):
        tg.from_table([[0, 0, 0], [0, 1, 0], [0, 0, 2]], 0, ["0", "x", "x"])
