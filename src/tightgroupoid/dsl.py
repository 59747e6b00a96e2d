"""Parser and printer for the `.isg` input format.

Two shapes are accepted after a `semigroup <name>` header:

    table <n> zero <k>      followed by n rows of n element indices
    points <m>              followed by `gen <name> = <m tokens>` lines,
                            where token i is the image of point i or `_`

`#` starts a comment, blank lines are skipped, and lines end where
``str.splitlines`` ends them.  The parser reports line and column
exactly; semantic validation beyond counts and index ranges
(injectivity, the semigroup axioms) happens at build time, not here.
Integers are an optional ``-`` and ASCII digits.  The text is scanned
once, and only the header is split into tokens: a table body goes from
text to an n x n int32 array, the spec's ``rows``, in whole-array passes
over its bytes, which find the tokens' last digits and count them per
line, and then over those token ends, which read each value back digit
by digit and range-check it.  A body the passes refuse goes
to the row reader, which reads the lines after the header and raises at
the first bad row with the line and column of its first bad token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DslRangeError, DslSyntaxError, DuplicateName
from .semigroup import InverseSemigroup, from_partial_maps, from_table


@dataclass(frozen=True, eq=False)
class SemigroupSpec:
    """Parsed description of one instance, table or generator shaped.

    A table spec from :func:`parse_spec` holds its ``rows`` as the
    parser's read-only n x n int32 array; one built by hand holds
    whatever rows it was given.  Two specs are equal, and hash alike,
    when :func:`format_spec` writes them the same."""

    name: str
    mode: str                      # "table" | "generators"
    size: int | None = None
    zero: int | None = None
    rows: tuple | np.ndarray | None = None
    degree: int | None = None
    generators: tuple | None = None    # ((name, images-with-None), ...)

    def __eq__(self, other):
        return isinstance(other, SemigroupSpec) and format_spec(self) == format_spec(other)

    def __hash__(self):
        return hash(format_spec(self))


# Where str.splitlines ends a line; "\r\n" ends one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")
_COMMENT = re.compile(f"#[^{_BREAKS}]*")


def _significant(text: str):
    """Significant lines as (line_number, text before any comment,
    tokens), each with the offset in `text` past it."""
    for ln, line in enumerate(_LINE.finditer(text), start=1):
        before = line[1].split("#", 1)[0]
        if toks := before.split():
            yield (ln, before, toks), line.end()


def _at(where, i):
    """(line, 1-based column) of token i of a significant line, for errors."""
    ln, line, toks = where
    col = 0
    for tok in toks[:i]:
        col = line.index(tok, col) + len(tok)
    return ln, line.index(toks[i], col) + 1


def parse_spec(text: str) -> SemigroupSpec:
    lines = _significant(text)          # one scan, header first
    header, _ = next(lines, (None, None))
    if header is None:
        raise DslSyntaxError(1, 1, "a 'semigroup <name>' header")
    ln, _, toks = header
    if len(toks) != 2 or toks[0] != "semigroup":
        raise DslSyntaxError(*_at(header, 0), "'semigroup <name>'")
    name = toks[1]
    decl, end = next(lines, (None, None))
    if decl is None:
        raise DslSyntaxError(ln, 1, "a 'table' or 'points' declaration")
    rest = (line for line, _ in lines)
    if decl[2][0] == "table":
        return _parse_table(name, decl, text[end:], rest)
    if decl[2][0] == "points":
        return _parse_generators(name, decl, rest)
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


def _parse_table(name, decl, body, rest):
    """A table spec; its rows, `body`, go to the byte pass, else the
    row reader, which reads the significant lines `rest`."""
    ln, _, toks = decl
    if len(toks) != 4 or toks[2] != "zero":
        raise DslSyntaxError(*_at(decl, 0), "'table <n> zero <k>'")
    n = _int_token(decl, 1, "size")
    zero = _int_token(decl, 3, "zero index")
    if n < 1:
        raise DslRangeError(*_at(decl, 1), "size must be at least 1")
    if not 0 <= zero < n:
        raise DslRangeError(*_at(decl, 3), f"zero index {zero} outside 0..{n - 1}")
    table = _table_body(body, n)
    if table is None:
        rest = list(rest)
        if len(rest) != n:
            raise DslSyntaxError(rest[-1][0] if rest else ln, 1, f"{n} table rows")
        table = np.array([_row_entries(line, n) for line in rest], dtype=np.int32)
    table.flags.writeable = False
    return SemigroupSpec(name, "table", size=n, zero=zero, rows=table)


def _table_body(body, n):
    """The rows of a table body as an n x n int32 array, read in
    whole-array passes over its bytes, then over the n^2 token ends, each
    read back a digit at a time; None, for the row reader, unless
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
    # tokens per line, counted from the token ends between line breaks
    ends = np.flatnonzero(last)
    breaks = np.flatnonzero((raw == ord("\n")) | (raw == ord("\r")))
    per_line = np.diff(np.searchsorted(ends, breaks), append=ends.size)
    if np.count_nonzero(per_line == n) != n or ends.size != n * n:
        return None
    # each token's value, read back from its end: digit k of a token (0 the
    # last) is k bytes before it, read for the tokens `longer` than k digits.
    # The body's leading "\n" ends every token before index 0
    w = len(str(n - 1))
    values = np.subtract(raw[ends], ord("0"), dtype=np.int32)
    longer = np.flatnonzero(digit[ends - 1])
    for k in range(1, w):
        values[longer] += np.subtract(raw[ends[longer] - k], ord("0"), dtype=np.int32) * 10 ** k
        longer = longer[digit[ends[longer] - k - 1]]
    if longer.size or values.max() >= n:        # a token too long, or too high
        return None
    return values.reshape(n, n)


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
    if not gens:
        raise DslSyntaxError(ln, 1, "at least one 'gen' line")
    return SemigroupSpec(name, "generators", degree=degree, generators=tuple(gens))


def format_spec(spec: SemigroupSpec) -> str:
    """Canonical text for a spec; parsing it back gives an equal spec."""
    out = [f"semigroup {spec.name}"]
    if spec.mode == "table":
        out.append(f"table {spec.size} zero {spec.zero}")
        rows = spec.rows
        for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            out.append(" ".join(map(str, row)))
    else:
        out.append(f"points {spec.degree}")
        for gname, images in spec.generators:
            cells = " ".join("_" if v is None else str(v) for v in images)
            out.append(f"gen {gname} = {cells}")
    return "\n".join(out) + "\n"


def build_semigroup(spec: SemigroupSpec) -> InverseSemigroup:
    """Realize a parsed spec; semigroup axioms and the size caps of
    :mod:`~tightgroupoid.semigroup` are enforced here."""
    if spec.mode == "table":
        return from_table(spec.rows, spec.zero)
    labels = [gname for gname, _ in spec.generators]
    gens = [images for _, images in spec.generators]
    return from_partial_maps(spec.degree, gens, labels)
