"""Fuzzing of the `.isg` input path.

Texts start generator shaped or table shaped, valid or not, and are then
mutated or truncated.  Each goes through ``parse_spec``, then
``build_semigroup`` under the builders' size caps, then ``analyze FILE``:
nothing but a TightGroupoidError may escape the first two, and the
command must end in exit 0, 1 or 2 (3 would be a verdict mismatch).  The
mutated table texts must also parse as the row by row reader of
`oracles` parses them, to the same spec or the same error.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import tightgroupoid as tg
from tightgroupoid import cli
from tightgroupoid.dsl import SemigroupSpec, build_semigroup, format_spec, parse_spec
from tightgroupoid.errors import TightGroupoidError

import oracles


@functools.cache
def table_text(name):
    """The named fixture as table text, built when first asked for, so
    that no module builds an instance while it is collected."""
    sg = tg.build_fixture(name)
    return format_spec(SemigroupSpec(name, "table", size=sg.size,
                                     zero=sg.zero, rows=sg.table))


TABLE_NAMES = ("I2", "B2", "Z2z", "E4", "Cz(3)")


@st.composite
def generator_texts(draw):
    degree = draw(st.integers(1, 4))
    image = st.one_of(st.none(), st.integers(0, degree - 1))
    lines = ["semigroup G", f"points {degree}"]
    for j in range(draw(st.integers(1, 3))):
        cells = ["_" if v is None else str(v)
                 for v in draw(st.lists(image, min_size=degree, max_size=degree))]
        lines.append(f"gen g{j} = " + " ".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def random_table_texts(draw):
    n = draw(st.integers(1, 4))
    zero = draw(st.integers(0, n - 1))
    entry = st.integers(0, n - 1)
    rows = [" ".join(map(str, draw(st.lists(entry, min_size=n, max_size=n))))
            for _ in range(n)]
    return "\n".join(["semigroup T", f"table {n} zero {zero}", *rows]) + "\n"


TOKENS = ("0", "1", "2", "3", "_", "-1", "99", "x", "#", "=", "gen", "table",
          "zero", "points", "semigroup", "\n", " ", "\t", "\x00", "é", "1e3",
          "0x1", "1_0", "٣", "+1", "-0", "1.0", "007", "\u00a0")


@st.composite
def mutated(draw, base):
    text = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace", "truncate",
                                     "duplicate line", "drop line")))
        token = draw(st.one_of(st.sampled_from(TOKENS),
                               st.text(min_size=1, max_size=2)))
        if kind == "insert":
            text = text[:pos] + token + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 4)):]
        elif kind == "replace":
            text = text[:pos] + token + text[pos + 1:]
        elif kind == "truncate":
            text = text[:pos]
        else:
            lines = text.split("\n")
            k = pos % len(lines)
            if kind == "duplicate line":
                lines.insert(k, lines[k])
            else:
                del lines[k]
            text = "\n".join(lines)
    return text


table_texts = st.one_of(
    mutated(random_table_texts()),
    mutated(st.sampled_from(TABLE_NAMES).map(table_text)),
)
isg_texts = st.one_of(mutated(generator_texts()), table_texts)


def outcome(call, *args):
    """What `call` returns, or the class, message, line and column of the
    TightGroupoidError it raises."""
    try:
        return call(*args)
    except TightGroupoidError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def run_input_path(text):
    try:
        build_semigroup(parse_spec(text))
    except TightGroupoidError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.isg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(["analyze", path])
    assert code in (0, 1, 2), (code, text, err.getvalue())
    return code


@settings(deadline=None)
@given(text=isg_texts)
def test_fuzzed_input_ends_in_a_clean_exit(text):
    run_input_path(text)


@settings(deadline=None)
@given(text=table_texts)
def test_fuzzed_tables_parse_as_the_row_reader(text):
    assert outcome(parse_spec, text) == outcome(oracles.row_by_row_parse_spec, text)


def test_unmutated_bases_analyze():
    for name in TABLE_NAMES:
        assert run_input_path(table_text(name)) == 0
