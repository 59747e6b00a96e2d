"""Parser and printer for the `.isg` input format.

Two shapes are accepted after a `semigroup <name>` header:

    table <n> zero <k>      followed by n rows of n element indices
    points <m>              followed by `gen <name> = <m tokens>` lines,
                            where token i is the image of point i or `_`

`#` starts a comment, blank lines are skipped.  The parser reports line
and column exactly; semantic validation beyond counts and index ranges
(injectivity, the semigroup axioms) happens at build time, not here.
Integers are an optional ``-`` and ASCII digits.  Table rows are checked
one by one for their token count and for ASCII digits, and then
converted together, by digit arithmetic over the bytes of one body, into
an n x n array that is range-checked at once; a row that fails a check
is read again token by token, so every error names the line and column
of the first bad token, in row order.
"""

from __future__ import annotations

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


def _lines(text: str):
    """Significant lines as (line_number, text before any comment,
    tokens)."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            out.append((ln, line, toks))
    return out


def _at(where, i):
    """(line, 1-based column) of token i of a significant line.  Columns
    are worked out only for error reports."""
    ln, line, toks = where
    col = 0
    for tok in toks[:i]:
        col = line.index(tok, col) + len(tok)
    return ln, line.index(toks[i], col) + 1


def parse_spec(text: str) -> SemigroupSpec:
    lines = _lines(text)
    if not lines:
        raise DslSyntaxError(1, 1, "a 'semigroup <name>' header")
    ln, _, toks = lines[0]
    if len(toks) != 2 or toks[0] != "semigroup":
        raise DslSyntaxError(*_at(lines[0], 0), "'semigroup <name>'")
    name = toks[1]
    if len(lines) < 2:
        raise DslSyntaxError(ln, 1, "a 'table' or 'points' declaration")
    decl, rest = lines[1], lines[2:]
    head = decl[2][0]
    if head == "table":
        return _parse_table(name, decl, rest)
    if head == "points":
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


def _parse_table(name, decl, rest):
    ln, _, toks = decl
    if len(toks) != 4 or toks[2] != "zero":
        raise DslSyntaxError(*_at(decl, 0), "'table <n> zero <k>'")
    n = _int_token(decl, 1, "size")
    zero = _int_token(decl, 3, "zero index")
    if n < 1:
        raise DslRangeError(*_at(decl, 1), "size must be at least 1")
    if not 0 <= zero < n:
        raise DslRangeError(*_at(decl, 3), f"zero index {zero} outside 0..{n - 1}")
    if len(rest) != n:
        where = rest[-1][0] if rest else ln
        raise DslSyntaxError(where, 1, f"{n} table rows")
    table = _table_entries(rest, n)
    table.flags.writeable = False
    spec = SemigroupSpec(name, "table", size=n, zero=zero,
                         rows=tuple(map(tuple, table.tolist())))
    object.__setattr__(spec, "table", table)
    return spec


def _table_entries(rest, n):
    """The n rows of a table as an n x n int32 array, converted in
    whole-body passes.

    Each row gets the token count check and one ASCII-digit check of its
    joined tokens.  Then every row, up to the first with a wrong count, is
    joined into one body, and :func:`_digit_values` converts all its
    tokens at once.  A row that fails the digit check, or the range check
    of the converted entries, is read token by token by
    :func:`_row_entries`, which raises at its first bad entry; the rows
    are taken in order, so the first failing row raises what reading row
    by row would.
    """
    joined, odd = [], []         # rows as text; rows to read one by one
    for row_line in rest:
        rtoks = row_line[2]
        if len(rtoks) != n:          # raises in its turn below
            odd.append(len(joined))
            break
        digits = "".join(rtoks)      # one check for the whole row
        if not (digits.isascii() and digits.isdigit()):
            odd.append(len(joined))
        joined.append(" ".join(rtoks))
    table = _digit_values(" ".join(joined), len(str(n - 1)))
    table = table.reshape(len(joined), n)
    far = np.flatnonzero((table >= n).any(axis=1)).tolist()
    for i in sorted(set(odd + far)):
        row_line = rest[i]
        if len(row_line[2]) != n:
            raise DslSyntaxError(*_at(row_line, 0), f"{n} entries in the row")
        table[i] = _row_entries(row_line, n)
    return table


def _digit_values(body, w):
    """The space-separated tokens of `body` as an int32 array, by digit
    arithmetic on its UTF-8 bytes.  A token of ASCII digits and at most
    `w` (under 10) characters gets its value and a longer one 10 ** w;
    any other token gets a value that means nothing."""
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    if not raw.size:
        return np.zeros(0, dtype=np.int32)
    ends = np.append(np.flatnonzero(raw == ord(" ")), len(raw)).astype(np.int32)
    lengths = np.diff(ends, prepend=np.int32(-1)) - 1
    digit = raw - np.uint8(ord("0"))
    values = np.zeros(len(ends), dtype=np.int32)
    # the k-th character from each token's end; an index before the body
    # wraps and is masked, and the body has at least w bytes
    for k in range(w, 0, -1):
        values *= 10
        values += np.where(lengths >= k, digit[ends - k], 0)
    values[lengths > w] = 10 ** w
    return values


def _row_entries(row_line, n):
    """A table row read token by token; the first bad entry raises."""
    row = []
    for i in range(len(row_line[2])):
        v = _int_token(row_line, i, "table entry")
        if not 0 <= v < n:
            raise DslRangeError(*_at(row_line, i), f"entry {v} outside 0..{n - 1}")
        row.append(v)
    return tuple(row)


def _parse_generators(name, decl, rest):
    ln, _, toks = decl
    if len(toks) != 2:
        raise DslSyntaxError(*_at(decl, 0), "'points <m>'")
    degree = _int_token(decl, 1, "point count")
    if degree < 1:
        raise DslRangeError(*_at(decl, 1), "point count must be at least 1")
    gens = []
    names = set()
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
