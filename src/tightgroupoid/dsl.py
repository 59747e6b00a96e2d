"""Parser and printer for the `.isg` input format.

Two shapes are accepted after a `semigroup <name>` header:

    table <n> zero <k>      followed by n rows of n element indices
    points <m>              followed by `gen <name> = <m tokens>` lines,
                            where token i is the image of point i or `_`

`#` starts a comment, blank lines are skipped, and lines end where
``str.splitlines`` ends them.  The parser reports line and column
exactly; semantic validation beyond counts and index ranges
(injectivity, the semigroup axioms) happens at build time, not here.
Integers are an optional ``-`` and ASCII digits.  Only the header is
split into tokens: a table body goes from text to an n x n int32 array
in whole-array passes over its bytes, which find the tokens, count them
per line, and convert and range-check them by digit arithmetic.  A body
the passes refuse goes to the row reader, which raises at the first bad
row with the line and column of its first bad token.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DslRangeError, DslSyntaxError, DuplicateName
from .semigroup import InverseSemigroup, from_partial_maps, from_table


@dataclass(frozen=True)
class SemigroupSpec:
    """Parsed description of one instance, table or generator shaped.

    A table spec from :func:`parse_spec` also carries ``table``, its rows
    as the parser's read-only n x n int32 array, which
    :func:`build_semigroup` hands to
    :func:`~tightgroupoid.semigroup.from_table` in place of the row
    tuples.  It is set by the parser alone: it is no argument of the
    constructor, and :func:`dataclasses.replace` leaves it unset, so a
    spec built or edited by hand is built from its ``rows``."""

    name: str
    mode: str                      # "table" | "generators"
    size: int | None = None
    zero: int | None = None
    rows: tuple | None = None
    degree: int | None = None
    generators: tuple | None = None    # ((name, images-with-None), ...)
    table: np.ndarray | None = field(default=None, init=False, compare=False,
                                     repr=False)


# Where str.splitlines ends a line; "\r\n" ends one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")
_COMMENT = re.compile(f"#[^{_BREAKS}]*")


def _significant(text: str):
    """Each line of :func:`_lines`, with the offset in `text` past it."""
    for ln, line in enumerate(_LINE.finditer(text), start=1):
        before = line[1].split("#", 1)[0]
        if before.split():
            yield (ln, before, before.split()), line.end()


def _lines(text: str):
    """Significant lines as (line_number, text before any comment, tokens)."""
    return [line for line, _ in _significant(text)]


def _at(where, i):
    """(line, 1-based column) of token i of a significant line, for errors."""
    ln, line, toks = where
    col = 0
    for tok in toks[:i]:
        col = line.index(tok, col) + len(tok)
    return ln, line.index(toks[i], col) + 1


def parse_spec(text: str) -> SemigroupSpec:
    lines = list(itertools.islice(_significant(text), 2))     # the header
    if not lines:
        raise DslSyntaxError(1, 1, "a 'semigroup <name>' header")
    (ln, _, toks), _ = lines[0]
    if len(toks) != 2 or toks[0] != "semigroup":
        raise DslSyntaxError(*_at(lines[0][0], 0), "'semigroup <name>'")
    name = toks[1]
    if len(lines) < 2:
        raise DslSyntaxError(ln, 1, "a 'table' or 'points' declaration")
    decl, end = lines[1]
    if decl[2][0] == "table":
        return _parse_table(name, decl, text, end)
    if decl[2][0] == "points":
        return _parse_generators(name, decl, _lines(text)[2:])
    raise DslSyntaxError(*_at(decl, 0), "'table' or 'points'")


def _int_token(where, i, what):
    """Token i as an integer: an optional ``-`` and ASCII digits only."""
    tok = where[2][i]
    digits = tok[1:] if tok[:1] == "-" else tok
    if digits.isascii() and digits.isdigit():
        try:
            return int(tok)
        except ValueError:      # past int()'s limit on decimal digits
            pass
    raise DslSyntaxError(*_at(where, i), f"an integer {what}")


def _parse_table(name, decl, text, end):
    """A table spec; its rows, text[end:], go to the byte pass, else the row reader."""
    ln, _, toks = decl
    if len(toks) != 4 or toks[2] != "zero":
        raise DslSyntaxError(*_at(decl, 0), "'table <n> zero <k>'")
    n = _int_token(decl, 1, "size")
    zero = _int_token(decl, 3, "zero index")
    if n < 1:
        raise DslRangeError(*_at(decl, 1), "size must be at least 1")
    if not 0 <= zero < n:
        raise DslRangeError(*_at(decl, 3), f"zero index {zero} outside 0..{n - 1}")
    table = _table_body(text[end:], n)
    if table is None:
        rest = _lines(text)[2:]
        if len(rest) != n:
            raise DslSyntaxError(rest[-1][0] if rest else ln, 1, f"{n} table rows")
        table = np.array([_row_entries(line, n) for line in rest], dtype=np.int32)
    table.flags.writeable = False
    spec = SemigroupSpec(name, "table", size=n, zero=zero,
                         rows=tuple(map(tuple, table.tolist())))
    object.__setattr__(spec, "table", table)
    return spec


def _table_body(body, n):
    """The rows of a table body as an n x n int32 array, read in
    whole-array passes over its bytes; None, for the row reader, unless
    the body, comments removed, is n lines of n tokens of ASCII digits,
    each below n and no longer than n - 1 written out, between spaces,
    tabs and CR or LF line breaks."""
    data = f"\n{_COMMENT.sub('', body) if '#' in body else body}\n".encode()
    if data.translate(None, b"0123456789 \t\r\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = raw >= ord("0")
    last = np.zeros(len(raw), dtype=bool)        # the last digit of a token
    np.greater(digit[:-1], digit[1:], out=last[:-1])
    breaks = np.flatnonzero((raw == ord("\n")) | (raw == ord("\r")))
    per_line = np.add.reduceat(last, breaks, dtype=np.intp)
    if np.count_nonzero(per_line == n) != n or np.count_nonzero(last) != n * n:
        return None
    # the value of the run of digits ending at each byte, up to w digits
    w = len(str(n - 1))
    digits = (raw - np.uint8(ord("0"))) * digit
    values = digits.astype(np.int32)
    run = digit.copy()              # a run of k + 1 digits ends here
    for k in range(1, w + 1):
        run[k:] &= digit[:-k]
        values[k:] += np.multiply(digits[:-k], run[k:], dtype=np.int32) * 10 ** k
    if run.any():
        return None
    values = np.compress(last, values)
    return values.reshape(n, n) if values.max() < n else None


def _row_entries(row_line, n):
    """A table row read token by token; the first bad entry raises."""
    if len(row_line[2]) != n:
        raise DslSyntaxError(*_at(row_line, 0), f"{n} entries in the row")
    row = []
    for i in range(n):
        v = _int_token(row_line, i, "table entry")
        if not 0 <= v < n:
            raise DslRangeError(*_at(row_line, i), f"entry {v} outside 0..{n - 1}")
        row.append(v)
    return row


def _parse_generators(name, decl, rest):
    ln, _, toks = decl
    if len(toks) != 2:
        raise DslSyntaxError(*_at(decl, 0), "'points <m>'")
    degree = _int_token(decl, 1, "point count")
    if degree < 1:
        raise DslRangeError(*_at(decl, 1), "point count must be at least 1")
    gens, names = [], set()
    if not rest:
        raise DslSyntaxError(ln, 1, "at least one 'gen' line")
    for gen_line in rest:
        gln, _, gtoks = gen_line
        if gtoks[0] != "gen":
            raise DslSyntaxError(*_at(gen_line, 0), "'gen <name> = <images>'")
        if len(gtoks) != 3 + degree or gtoks[2] != "=":
            raise DslSyntaxError(*_at(gen_line, 0),
                                 f"'gen <name> = ' followed by {degree} tokens")
        gname = gtoks[1]
        if gname in names:
            raise DuplicateName(gname, gln)
        names.add(gname)
        images = []
        for i in range(3, len(gtoks)):
            if gtoks[i] == "_":
                images.append(None)
                continue
            v = _int_token(gen_line, i, "image")
            if not 0 <= v < degree:
                raise DslRangeError(*_at(gen_line, i), f"image {v} outside 0..{degree - 1}")
            images.append(v)
        gens.append((gname, tuple(images)))
    return SemigroupSpec(name, "generators", degree=degree, generators=tuple(gens))


def format_spec(spec: SemigroupSpec) -> str:
    """Canonical text for a spec; parsing it back gives an equal spec."""
    out = [f"semigroup {spec.name}"]
    if spec.mode == "table":
        out.append(f"table {spec.size} zero {spec.zero}")
        for row in spec.rows:
            out.append(" ".join(str(v) for v in row))
    else:
        out.append(f"points {spec.degree}")
        for gname, images in spec.generators:
            cells = " ".join("_" if v is None else str(v) for v in images)
            out.append(f"gen {gname} = {cells}")
    return "\n".join(out) + "\n"


def build_semigroup(spec: SemigroupSpec) -> InverseSemigroup:
    """Realize a parsed spec; semigroup axioms and the size caps of
    :mod:`~tightgroupoid.semigroup` are enforced here.  A parsed table
    reaches :func:`~tightgroupoid.semigroup.from_table` as the parser's
    array, any other as its rows."""
    if spec.mode == "table":
        rows = spec.rows if spec.table is None else spec.table
        return from_table(rows, spec.zero)
    labels = [gname for gname, _ in spec.generators]
    gens = [images for _, images in spec.generators]
    return from_partial_maps(spec.degree, gens, labels)
