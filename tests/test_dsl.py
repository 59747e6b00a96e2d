from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import dsl, errors, semigroup

Z2Z_TEXT = """\
semigroup Z2z
table 3 zero 0
0 0 0
0 1 2
0 2 1
"""

I2_TEXT = """\
# the partial injections of two points, from two generators
semigroup I2
points 2

gen a = 1 0
gen b = 0 _
"""


def test_parse_table():
    spec = tg.parse_spec(Z2Z_TEXT)
    assert spec.mode == "table" and spec.size == 3 and spec.zero == 0
    sg = tg.build_semigroup(spec)
    assert sg.size == 3 and sg.idempotents == {0, 1}


def test_table_spec_is_built_from_its_own_rows(monkeypatch):
    # a parsed spec's rows are the parser's read-only int32 array, which
    # reaches from_table itself; a spec edited with replace() or built by
    # hand is built, and refused, from its own rows and zero
    spec = tg.parse_spec(Z2Z_TEXT)
    assert spec.rows.dtype == np.int32 and not spec.rows.flags.writeable
    seen = []
    monkeypatch.setattr(dsl, "from_table",
                        lambda rows, zero: seen.append(rows) or
                        semigroup.from_table(rows, zero))
    assert tg.build_semigroup(spec).idempotents == {0, 1}
    assert len(seen) == 1 and seen[0] is spec.rows

    chain = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    edited = replace(spec, rows=chain)
    assert tg.build_semigroup(edited).idempotents == {0, 1, 2}
    assert seen[1] is chain
    monkeypatch.undo()
    with pytest.raises(errors.NoZero, match="zero index -1 out of range"):
        tg.build_semigroup(replace(spec, zero=-1))
    wrapped = ((0, 0, 0), (0, 1, -1), (0, -1, 1))
    with pytest.raises(errors.DegreeMismatch, match="table entry -1 out of range"):
        tg.build_semigroup(tg.SemigroupSpec("Z2z", "table", size=3, zero=0,
                                            rows=wrapped))


def test_parse_generators_and_build():
    spec = tg.parse_spec(I2_TEXT)
    assert spec.mode == "generators" and spec.degree == 2
    assert spec.generators == (("a", (1, 0)), ("b", (0, None)))
    sg = tg.build_semigroup(spec)
    assert sg.size == 7


def test_parser_accepts_non_injective_build_rejects():
    text = "semigroup bad\npoints 2\ngen a = 0 0\n"
    spec = tg.parse_spec(text)          # syntax is fine
    with pytest.raises(errors.NotInjective):
        tg.build_semigroup(spec)        # semantics are not


def test_missing_header():
    with pytest.raises(errors.DslSyntaxError) as info:
        tg.parse_spec("table 2 zero 0\n0 0\n0 1\n")
    assert info.value.line == 1


def test_row_arity_error_carries_position():
    text = "semigroup t\ntable 2 zero 0\n0 0\n0\n"
    with pytest.raises(errors.DslSyntaxError) as info:
        tg.parse_spec(text)
    assert info.value.line == 4


def test_range_errors():
    with pytest.raises(errors.DslRangeError):
        tg.parse_spec("semigroup t\ntable 2 zero 5\n0 0\n0 1\n")
    with pytest.raises(errors.DslRangeError):
        tg.parse_spec("semigroup t\ntable 2 zero 0\n0 7\n0 1\n")
    with pytest.raises(errors.DslRangeError):
        tg.parse_spec("semigroup t\npoints 2\ngen a = 5 _\n")
    for text in ("semigroup t\ntable 2 zero -1\n0 0\n0 1\n",
                 "semigroup t\ntable 2 zero 0\n0 -1\n0 1\n",
                 "semigroup t\npoints 2\ngen a = -1 _\n"):
        with pytest.raises(errors.DslRangeError):
            tg.parse_spec(text)


def test_duplicate_generator_names():
    text = "semigroup t\npoints 1\ngen a = 0\ngen a = _\n"
    with pytest.raises(errors.DuplicateName):
        tg.parse_spec(text)


def test_non_integer_token():
    with pytest.raises(errors.DslSyntaxError) as info:
        tg.parse_spec("semigroup t\ntable 2 zero 0\n0 x\n0 1\n")
    assert info.value.line == 3 and info.value.col == 3


def test_comments_and_blank_lines_ignored():
    text = "\n# heading\nsemigroup t # trailing\n\ntable 1 zero 0\n0 # row\n"
    spec = tg.parse_spec(text)
    assert spec.name == "t" and spec.size == 1


def test_round_trip_both_modes():
    for text in (Z2Z_TEXT, I2_TEXT):
        spec = tg.parse_spec(text)
        assert tg.parse_spec(tg.format_spec(spec)) == spec


def test_round_trip_through_semigroup():
    from tightgroupoid.cli import spec_of_semigroup

    for name in ("I2", "B2", "Z2z", "E4"):
        sg = tg.build_fixture(name)
        spec = spec_of_semigroup(sg, name)
        again = tg.build_semigroup(tg.parse_spec(tg.format_spec(spec)))
        assert again.table == sg.table and again.zero == sg.zero


@pytest.mark.parametrize("text, line, col", [
    ("semigroup t\ntable ٢ zero 0\n0 0\n0 1\n", 2, 7),
    ("semigroup t\ntable 2 zero 0\n0 0_1\n0 1\n", 3, 3),
    ("semigroup t\ntable 2 zero +0\n0 0\n0 1\n", 2, 14),
    ("semigroup t\npoints 2\ngen a = １ _\n", 3, 9),
])
def test_integers_are_ascii_decimal(text, line, col):
    # int() reads all four tokens (an Arabic-Indic two, an underscore, a
    # plus sign, a full-width one); the format takes only '-' and 0-9
    with pytest.raises(errors.DslSyntaxError) as info:
        tg.parse_spec(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_minus_zero_is_zero():
    # a row with a sign leaves the one-check fast path and is read token
    # by token, which must still return it
    spec = tg.parse_spec("semigroup t\ntable 2 zero -0\n0 -0\n0 1\n")
    assert spec.zero == 0 and spec.rows.tolist() == [[0, 0], [0, 1]]


BIG = "7" * 5000


@pytest.mark.parametrize("text, line, col", [
    (f"semigroup t\ntable 2 zero {BIG}\n0 0\n0 1\n", 2, 14),
    (f"semigroup t\ntable 2 zero 0\n0 {BIG}\n0 1\n", 3, 3),
    (f"semigroup t\npoints 2\ngen a = {BIG} _\n", 3, 9),
], ids=["zero", "entry", "image"])
def test_overlong_integers_are_syntax_errors(text, line, col):
    # int() refuses decimal strings past its digit limit with ValueError;
    # the parser reports them at their token like any other bad integer
    with pytest.raises(errors.DslSyntaxError) as info:
        tg.parse_spec(text)
    assert (info.value.line, info.value.col) == (line, col)
