"""Table input through the whole-array passes against the row by row and
per-element readings kept in `oracles`: ``parse_spec`` on table texts,
``from_table`` on tables of every container type, and the inverses,
derived along the spanning tree or searched over blocks of rows.  Each
pair must give the same spec or instance, or the same error with the
same message, line and column.  The fast paths are also checked not to
lean on their fallbacks: the byte pass must read the texts it can, and
a valid table must never reach the inverse search."""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import dsl, fixtures, semigroup
from tightgroupoid.dsl import SemigroupSpec, format_spec, parse_spec
from tightgroupoid.errors import DegreeMismatch, InverseMissing, InverseNotUnique

import oracles
from conftest import CORPUS_COUNT, CORPUS_SEED
from test_families import TABLE_FAMILIES
from test_input_fuzz import TABLE_TEXTS, outcome

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import brandt_text  # noqa: E402


def family_text(name):
    (table, zero), _, _ = TABLE_FAMILIES[name]
    return format_spec(SemigroupSpec(name, "table", size=len(table), zero=zero,
                                     rows=tuple(map(tuple, table))))


def fields(sg):
    """Everything an instance keeps, as comparable values; the arrays with
    their type, shape and cells."""
    return (sg.size, sg.zero, sg.star, sg.d, sg.r, sg.generators,
            *(array_fields(a) for a in (sg.right, sg.slab)),
            sg.idempotents, sg.column, sg.element_names)


def array_fields(a):
    return (type(a), a.dtype, a.shape, a.tolist())


def built(build, *args):
    got = outcome(build, *args)
    return fields(got) if isinstance(got, semigroup.InverseSemigroup) else got


TEXTS = (*TABLE_TEXTS, *map(family_text, sorted(TABLE_FAMILIES)), brandt_text(15))


@pytest.mark.parametrize("text", TEXTS, ids=lambda t: t.split("\n", 1)[0])
def test_table_texts_read_and_build_as_row_by_row(text):
    spec = parse_spec(text)
    assert spec == oracles.row_by_row_parse_spec(text)
    rows = spec.rows
    assert rows.dtype == np.int32 and rows.shape == (spec.size,) * 2
    assert not rows.flags.writeable
    assert built(semigroup.from_table, spec.rows, spec.zero) == \
        built(oracles.per_row_from_table, spec.rows, spec.zero)


# B4: 17 elements, so entries run to two digits
B4_ROWS = [line.split() for line in brandt_text(4).splitlines()[2:]]
N = len(B4_ROWS)
ODD_TOKENS = ("-0", "-1", "+1", "1.0", "1e2", "0x1", "0_1", "١", str(N),
              "9" * 5000, "0" * 4999 + "1", "07", "007", "99")


def b4_text(rows, sep=" "):
    return "\n".join(["semigroup b4", f"table {N} zero 0",
                      *(sep.join(row) for row in rows)]) + "\n"


def with_token(rows, r, c, token):
    rows = [list(row) for row in rows]
    rows[r][c] = token
    return rows


def same_reading(text):
    got = outcome(parse_spec, text)
    assert got == outcome(oracles.row_by_row_parse_spec, text)
    return got


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_odd_entries_read_as_row_by_row(token):
    raised = 0
    for r, c in ((0, 0), (0, N - 1), (7, 3), (N - 1, N - 1)):
        got = same_reading(b4_text(with_token(B4_ROWS, r, c, token)))
        raised += isinstance(got, tuple)
        # a later bad row never hides an earlier one, nor the reverse
        for r2 in (0, 7, N - 1):
            if r2 != r:
                rows = with_token(with_token(B4_ROWS, r, c, token), r2, 1, str(N + 3))
                assert isinstance(same_reading(b4_text(rows)), tuple)
    assert raised == (0 if token in ("-0", "07", "007") else 4)


def test_odd_rows_read_as_row_by_row():
    short = [list(row) for row in B4_ROWS]
    del short[5][-1]
    long = [list(row) for row in B4_ROWS]
    long[5].append("0")
    for rows in (short, long):
        assert isinstance(same_reading(b4_text(rows)), tuple)
        assert isinstance(same_reading(b4_text(with_token(rows, 2, 0, "x"))), tuple)
        assert isinstance(same_reading(b4_text(with_token(rows, 9, 0, "x"))), tuple)
    # str.split() splits at a non-ASCII space as at any other whitespace
    spaced = same_reading(b4_text(B4_ROWS, sep="\u2003"))
    assert spaced == same_reading(b4_text(B4_ROWS, sep=" \u00a0"))
    assert spaced == parse_spec(b4_text(B4_ROWS))


def b4_table():
    return [[int(v) for v in row] for row in B4_ROWS]


def containers(rows):
    """`rows` as lists, tuples and the arrays that hold its entries."""
    yield "lists", [list(row) for row in rows]
    yield "tuples", tuple(map(tuple, rows))
    top = max(map(max, rows))
    if top < 2 ** 63:
        yield "rows of arrays", [np.array(row, dtype=np.int64) for row in rows]
        yield "int64", np.array(rows, dtype=np.int64)
    if top < 2 ** 31:
        yield "int32", np.array(rows, dtype=np.int32)


def test_from_table_containers_build_as_row_by_row():
    want = fields(oracles.per_row_from_table(b4_table(), 0))
    for kind, table in containers(b4_table()):
        assert built(semigroup.from_table, table, 0) == want, kind


@pytest.mark.parametrize("value", (-1, N, N + 5, 2 ** 40, 2 ** 63, 2 ** 70))
def test_from_table_out_of_range_entries_fail_as_row_by_row(value):
    for r, c in ((0, 0), (6, 11), (N - 1, N - 1)):
        rows = b4_table()
        rows[r][c] = value
        for kind, table in containers(rows):
            got = built(semigroup.from_table, table, 0)
            assert isinstance(got, tuple) and str(value) in got[1], kind
            assert got == built(oracles.per_row_from_table, table, 0), kind


def test_entries_and_images_that_are_not_integers_are_refused():
    # NumPy would round 1.7 down and parse "1"; the first non-integer in
    # row order is named, and bools pass, as operator.index takes them
    for table, first in (([[0, 0], [0, 1.7]], 1.7),
                         (np.array([[0, 0], [0, 1.2]]), np.float64(0)),
                         ([[0, 0], [0, "1"]], "1"),
                         ([[0, 2], [0.5, "1"]], 0.5),
                         ([[0, 0], [0, None]], None),
                         (["01", "01"], "0")):
        with pytest.raises(DegreeMismatch) as err:
            semigroup.from_table(table, 0)
        assert str(err.value) == f"table entry {first!r} is not an integer"
    assert fields(semigroup.from_table([[False, False], [False, True]], 0)) == \
        fields(semigroup.from_table(np.array([[0, 0], [0, 1]]), 0))
    for image in (1.7, "1", 1.0):
        with pytest.raises(DegreeMismatch) as err:
            semigroup.from_partial_maps(2, [(image, 0)])
        assert str(err.value) == f"map generator 0 image {image!r} is not an integer"
    assert fields(semigroup.from_partial_maps(2, [(True, np.int64(0))])) == \
        fields(semigroup.from_partial_maps(2, [(1, 0)]))


def test_from_table_ragged_rows_fail_as_row_by_row():
    for r in (0, 6, N - 1):
        for cut in (-1, 1):
            rows = b4_table()
            rows[r] = rows[r][:cut] if cut < 0 else rows[r] + [0]
            cases = [rows]
            for r2 in (0, 6, N - 1):         # an entry out of range, before or after
                if r2 != r:
                    bad = [list(row) for row in rows]
                    bad[r2][0] = N
                    cases.append(bad)
            for table in cases:
                for kind in (list, tuple):
                    got = built(semigroup.from_table, kind(map(kind, table)), 0)
                    assert isinstance(got, tuple), (r, cut)
                    assert got == built(oracles.per_row_from_table, table, 0), (r, cut)


def parts_table(kinds):
    """The 0-direct union of parts, one per letter of `kinds` after the
    zero 0: 'a' an idempotent atom, 'n' a null element, whose products
    are all 0 (no inverse), and 'l' with the 'r' after it a left-zero
    pair, x y = x on the pair (two inverses each).  Products across parts
    are 0, so the table is associative and only its inverses can fail."""
    n = len(kinds) + 1
    table = [[0] * n for _ in range(n)]
    for i, kind in enumerate(kinds, start=1):
        mate = {"a": i, "l": i + 1, "r": i - 1}.get(kind)
        if mate is not None:
            table[i][i] = table[i][mate] = i
    return table


@pytest.mark.parametrize("block", (10, 30, semigroup.BLOCK_CELLS))
def test_inverse_search_fails_at_the_lowest_element_in_any_block(monkeypatch, block):
    monkeypatch.setattr(semigroup, "BLOCK_CELLS", block)
    size = 10                          # rows of 10 cells: blocks of 3 end at 2, 5 and 8
    for first in range(1, size):
        for bad in ("n", "lr"):
            head = "a" * (first - 1) + bad
            if len(head) > size - 1:
                continue
            for rest in ("a", "n", "lr"):     # atoms or more failures after
                kinds = (head + rest * size)[:size - 1]
                if kinds.endswith("l"):
                    kinds = kinds[:-1] + "a"
                table = parts_table(kinds)
                want = InverseMissing(first) if bad == "n" else InverseNotUnique(first)
                got = built(semigroup.from_table, table, 0)
                assert got[:2] == (type(want), str(want)), (block, kinds)
                assert got == built(oracles.per_row_from_table, table, 0)
    for table, zero in [parts_table("a" * (size - 1)), 0], \
            *(TABLE_FAMILIES[name][0] for name in sorted(TABLE_FAMILIES)):
        got = built(semigroup.from_table, table, zero)
        assert isinstance(got[0], int)
        assert got == built(oracles.per_row_from_table, table, zero), block


def valid_tables():
    """(name, table, zero) of every valid table the inverse checks meet:
    the table families, a fixture ladder, a corpus as tables, and B15 as
    the benchmark parses it."""
    for name in sorted(TABLE_FAMILIES):
        (table, zero), _, _ = TABLE_FAMILIES[name]
        yield name, table, zero
    for name in ("I2", "B2", "Z2z", "E4", "In(4)", "Bn(8)", "Pow(5)", "Cz(40)"):
        sg = tg.build_fixture(name)
        yield name, sg.table, sg.zero
    for name, sg in fixtures.iter_corpus(CORPUS_COUNT, CORPUS_SEED):
        yield name, sg.table, sg.zero
    spec = parse_spec(brandt_text(15))
    yield "brandt15", spec.rows, spec.zero


def test_valid_tables_never_reach_the_inverse_search(monkeypatch):
    # the search is the fallback for tables that are not inverse; a
    # derivation that failed on a valid table would hide behind it
    def search(m):
        raise AssertionError(f"the inverse search ran on a valid table of {len(m)}")

    monkeypatch.setattr(semigroup, "_searched_inverses", search)
    for name, table, zero in valid_tables():
        assert semigroup.from_table(table, zero).star == \
            oracles.per_row_from_table(table, zero).star, name


# ------------------------------------------- table texts of every spelling

SEPARATORS = (" ", "  ", "\t", " \t ", "\u00a0", "\x0b", "\x0c", "\x85", "\u2028", "\u2003")
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028", "\x1e")
COMMENTS = ("# a comment", "#", "# é   ١ -1 +1", "#\t7 7 7")


def odd_token(rng, token, w):
    """An entry token spelled with leading zeros, to exactly w or w + 1
    digits, w those of the largest entry, or to any length, with a sign,
    or far too long."""
    kind = rng.randrange(4)
    if kind == 0:
        return "0" * rng.randrange(1, 4) + token
    if kind == 1:
        return rng.choice(("-", "+")) + token
    if kind == 2:
        return token.zfill(w + rng.randrange(2))
    return "0" * rng.choice((8, 40, 5000)) + token


def random_table_text(rng):
    """A table text with seeded variations, each at a random place:
    separators and line ends of every kind str.split and str.splitlines
    know, comments on their own lines and inside rows, blank lines, odd
    tokens, an entry out of range, a row too short or too long, a row
    split in two, an entry moved to the row before, too few or too many
    rows, and no final line end."""
    n = rng.choice((1, 2, 3, 5, 11, 17))
    rows = [[str(rng.randrange(n)) for _ in range(n)] for _ in range(n)]
    r = rng.randrange(n)
    if rng.random() < 0.15:
        rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + ["0"]
    elif rng.random() < 0.1 and n > 1:        # as many entries, in other lines
        if rng.random() < 0.5:
            rows[r:r + 1] = [rows[r][:n // 2], rows[r][n // 2:]]
        else:
            rows[r - 1].append(rows[r].pop())
    if rng.random() < 0.08:
        rows = rows[:-1] if rng.random() < 0.5 and n > 1 else rows + [rows[0]]
        r = rng.randrange(len(rows))
    c = rng.randrange(len(rows[r])) if rows[r] else None
    if c is not None and rng.random() < 0.25:
        rows[r][c] = odd_token(rng, rows[r][c], len(str(n - 1)))
    elif c is not None and rng.random() < 0.05:
        rows[r][c] = str(n + rng.choice((0, 1, 10 ** 6)))
    sep = rng.choice((" ", "  ", "\t", " \t "))
    lines = [sep.join(row) for row in rows]
    if rng.random() < 0.3 and len(rows[r]) > 1:
        lines[r] = lines[r].replace(sep, rng.choice(SEPARATORS), 1)
    if rng.random() < 0.15:
        cut = rng.randrange(len(lines[r]) + 1)
        lines[r] = lines[r][:cut] + rng.choice(COMMENTS) + lines[r][cut:]
    if rng.random() < 0.2:
        lines[r] = rng.choice(SEPARATORS[:4]) + lines[r]
    lines = ["semigroup T", f"table {n} zero {rng.randrange(n)}", *lines]
    for extra in ("", " \t", *COMMENTS):
        if rng.random() < 0.1:
            lines.insert(rng.randrange(len(lines) + 1), extra)
    end = rng.choice(LINE_ENDS) if rng.random() < 0.3 else rng.choice(("\n", "\r\n"))
    return end.join(lines) + ("" if rng.random() < 0.2 else end)


def test_table_text_spellings_read_as_row_by_row(monkeypatch):
    read = Counter()

    def byte_pass(body, n):
        table = table_body(body, n)
        read["byte pass"] += table is not None
        return table

    table_body = dsl._table_body
    monkeypatch.setattr(dsl, "_table_body", byte_pass)
    rng = random.Random(20)
    for _ in range(400):
        text = random_table_text(rng)
        got = outcome(parse_spec, text)
        assert got == outcome(oracles.row_by_row_parse_spec, text), repr(text)
        read["spec" if isinstance(got, SemigroupSpec) else got[0].__name__] += 1
    # both readers make specs, and the row reader raises both kinds of error
    assert read["byte pass"] >= 100 and read["spec"] - read["byte pass"] >= 50, read
    assert read["DslSyntaxError"] >= 20 and read["DslRangeError"] >= 5, read


def test_the_byte_pass_reads_brandt15_and_tokens_of_up_to_w_digits():
    # B15 has 226 elements, so w = 3 digits; a token of w + 1 digits goes
    # to the row reader, which reads it as the same entry
    text = brandt_text(15)
    head, rows = text.splitlines()[:2], text.splitlines()[2:]
    want = oracles.row_by_row_parse_spec(text)
    padded = [" ".join(t.zfill(3) for t in row.split(" ")) for row in rows]
    longer = [padded[0].replace("000", "0000", 1), *padded[1:]]
    for body, read in ((rows, True), (padded, True), (longer, False)):
        table = dsl._table_body("\n".join(body) + "\n", 226)
        assert (table is not None) == read
        if read:
            assert np.array_equal(table, want.rows)
        assert parse_spec("\n".join(head + body) + "\n") == want
