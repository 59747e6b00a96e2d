"""Finite inverse semigroups with zero.

Elements are dense indices ``0..size-1``.  The analysis reads only a few
kinds of product, each stored as a field: the involution s -> s*, the
idempotents s*s and ss*, the products s e with an idempotent e (the
slab), and the products s g with a generator g (the right Cayley graph).
A product e s is (s* e)*.  Every predicate in this package reduces to a
finite scan of these and every theorem to an exhaustive check; the
scans over all |S| |E| cells run as whole-array passes, the order of
idempotents, their orthogonality, and with them every ideal, fixed ideal
and cover, are tests on bit rows, ``below_bits`` per element and
``meet_bits`` per idempotent, and any other scalar read takes a row
through ``.tolist()``.  Both builders hand the constructor the
involution, s*s and the Cayley graph, kept as a read-only int32 array
with its breadth-first spanning tree (the closure walk's own; a table's
graph is walked once); the slab, the block of products of arrow
representatives that the groupoid axiom check reads, and the full table
are columns read along that tree by one method, ``_columns``.  Nothing
in the package fills the table; it remains, filled on first access, for
readers outside it.  The closure builder keeps its maps as the rows of
one digit array.  The involution, s*s and ss* are tuples for scalar
reads and the rows of one int32 array, made once, for array passes.

Instances are immutable after construction and safe to share between
threads; after ``__init__`` only the table and the partial maps fill,
each once, for readers outside the package.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    DegreeMismatch,
    DuplicateName,
    InverseMissing,
    InverseNotUnique,
    NotAnIdeal,
    NotAssociative,
    NotIdempotent,
    NotInjective,
    NoZero,
    PreconditionViolated,
    TheoremViolation,
    ZeroNotAbsorbing,
)

# Size caps, enforced by the builders; a build past one raises
# CapExceeded.  MAX_SIZE stops the closure walk after the block of maps
# that passes it: I6 (13,327 elements) fits, I7 (130,922) does not.
# MAX_SLAB_CELLS bounds the |S| x |E| slab before it is built (I6 needs
# 852,928 cells) and the walk's image cells, maps found times degree,
# after each block: I6 stores 79,962 and the 20,000-point identity
# 40,000, while a 12,000-point cycle is refused at its 167th map.
# MAX_TABLE_WORK bounds Light's test of a table, n^2 cells per generator:
# a semilattice of n - 1 orthogonal atoms has n - 1 generators, so
# n = 400 (6.4e7) passes in about 0.08 s and n = 800 (5.1e8) is refused.
MAX_SIZE = 20_000
MAX_SLAB_CELLS = 2_000_000
MAX_TABLE_WORK = 200_000_000

# Cells per block of every pass cut into blocks of rows, `_block_rows` of
# its cells per row: the closure walk (letters times degree a map), Light's
# test and the inverse search of a table (n an element), the composition
# check of `action.validate_action` (generators times points an element),
# the harness's weakly fixed and conjugated-domains passes (|E| an
# element) and the pair and triple pass of `GermGroupoid.verify_axioms`
# (the composable pairs, at least a j's triples).  A block's transient
# arrays take a few bytes a cell; I5, I6 and small corpus instances build
# in the same time from 2^10 to 2^20 cells.
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Ideal:
    """Downward closed subset of the idempotent semilattice, 0 included."""

    members: frozenset

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class InverseSemigroup:
    """A validated finite inverse semigroup with zero.

    Build instances through :func:`from_table` or
    :func:`from_partial_maps`; the constructor itself trusts its inputs.
    It takes the involution, ``d``, the right Cayley graph and its tree
    (walked here if not given), and derives the rest from them.

    Attributes:
        size: number of elements.
        zero: index of the absorbing element.
        star: involution, ``star[s]`` is the unique generalized inverse.
        d: ``d[s]`` is the idempotent s*s, the domain of s.
        r: ``r[s]`` is the idempotent ss*, the range of s.
        _index: read-only (3, |S|) int32 array, rows ``star``, ``d``, ``r``.
        _conjugation: read-only int32 array of the slab's shape; cell
            (s, column[f]) is the column of s f s*, the range of s f.
        _weakly_fixed: read-only bool array of the slab's shape; cell
            (s, column[e]) is True when e <= s*s is weakly fixed under s:
            no nonzero f <= e has s f s* f = 0.
        slab: read-only C-contiguous int32 array of shape (|S|, |E|);
            ``slab[s, column[e]]`` is the product s e, which is s
            restricted to the domain of e, with the idempotents' columns
            in increasing index order.  The conjugate s e s* is
            ``r[slab[s, column[e]]]``.  Cells are NumPy integers: a value
            that reaches a report goes through ``int`` or ``.tolist()``.
        column: dict from each idempotent to its column of the slab.
        below_bits: tuple, per element s, of one integer with bit
            ``column[f]`` set for each idempotent f <= s, that is s f = f:
            the fixed ideal of s, at an idempotent its down-set.
        meet_bits: tuple, per idempotent e in column order, of one
            integer with bit ``column[f]`` set for each idempotent f with
            e f != 0.  Both are one ``np.packbits`` pass over slab rows;
            :meth:`bits` and :meth:`members_of` convert between
            idempotents and bits, and every cover decision is :meth:`_met`.
        idempotents: frozenset of idempotent indices (the semilattice).
        generators: element indices of which every element is a
            product; the associativity check of :func:`from_table` and the
            homomorphism check of :func:`~tightgroupoid.action.validate_action`
            run against them instead of every element.
        right: read-only C-contiguous int32 array of shape (|S|,
            |generators|); ``right[s, j]`` is s times ``generators[j]``.
        parent, letter: read-only int32 arrays, the breadth-first tree
            of ``right``: y is ``parent[y]`` times
            ``generators[letter[y]]``, both -1 at a generator.
        table: multiplication table, ``table[a][b]`` is the product,
            filled by :meth:`_columns` on first access for readers outside
            the package, which never reads it.
        element_names: optional printable names, index aligned and
            distinct.
        partial_maps: for closure-built instances, each element's
            image tuple (None where undefined), read off the digit rows
            on first access; otherwise None.
    """

    def __init__(self, zero, star, generators, d, right,
                 element_names=None, digits=None, tree=None):
        ids = list(range(len(star)))         # one int object per index, shared
        get = ids.__getitem__
        self.zero = get(zero)
        self.star = tuple(map(get, star))
        self.size = len(self.star)
        self.generators = tuple(map(get, generators))
        self.d = tuple(map(get, d))
        self.r = tuple(map(self.d.__getitem__, self.star))
        self._index = np.array((self.star, self.d, self.r), dtype=np.int32)
        self._index.flags.writeable = False
        self._idem_sorted = tuple(s for s, e in zip(ids, self.d) if s == e)
        self.idempotents = frozenset(self._idem_sorted)
        self.right = np.array(right, dtype=np.int32, order="C")
        self.right.flags.writeable = False
        self.parent, self.letter = np.array(
            _breadth_first(self.right, self.generators) if tree is None else tree,
            dtype=np.int32)
        self.parent.flags.writeable = self.letter.flags.writeable = False
        idem = self._idem_sorted
        self.column = {e: j for j, e in enumerate(idem)}
        self.slab = np.ascontiguousarray(self._columns(idem).T)
        self.slab.flags.writeable = False
        rows, zero = np.array(idem), self.zero
        below = self.slab == rows                         # (s, f): f <= s
        meets = self.slab[rows]                           # (e, f): e f
        self.below_bits = tuple(_row_bits(below))
        self.meet_bits = tuple(_row_bits(meets != zero))
        # an idempotent's column: idempotents up to it, less 1
        column_of = np.cumsum(self._index[1] == np.arange(self.size), dtype=np.int32) - 1
        self._conjugation = column_of[self._index[2][self.slab]]
        # f is bad for s when s f s* misses it; e is weakly fixed when no
        # bad f lies below it, one product of the bad cells with the order
        below_d = below[self._index[1]]                   # (s, e): e <= s*s
        bad = below_d & (rows != zero) & (meets[self._conjugation, np.arange(len(idem))] == zero)
        order = below[rows].T.astype(np.float32)          # (f, e): f <= e
        self._weakly_fixed = below_d & (bad.astype(np.float32) @ order == 0)
        self._conjugation.flags.writeable = self._weakly_fixed.flags.writeable = False
        self._table = None
        self.element_names = tuple(element_names) if element_names else None
        if self.element_names and len(set(self.element_names)) < self.size:
            seen = set()        # a report keys its witnesses by name
            raise DuplicateName(next(n for n in self.element_names
                                     if n in seen or seen.add(n)))
        self._digits = digits

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = _cayley_table(self)
        return self._table

    @cached_property
    def partial_maps(self):
        return None if self._digits is None else _images(self._digits)

    def _columns(self, wanted) -> np.ndarray:
        """Columns x -> x y of the table for each y in `wanted`, as the
        rows of an int32 array (Froidure & Pin, "Algorithms for computing
        finite semigroups", 1997).  Column j of ``right`` is the column of
        g_j = ``generators[j]``; any other y is p g_j for p = ``parent[y]``
        and j = ``letter[y]``, and column y, x -> x y = (x p) g_j, is
        column p sent through column j: one gather, kept along the tree
        paths of `wanted`, so that no column costs two."""
        by_gen = np.ascontiguousarray(self.right.T)   # contiguous gathers
        cols = {g: by_gen[j] for j, g in enumerate(self.generators)}
        parent, letter = self.parent.tolist(), self.letter.tolist()
        out = np.empty((len(wanted), self.size), dtype=np.int32)
        for i, y in enumerate(wanted):
            chain = []
            while y not in cols:
                chain.append(y)
                y = parent[y]
            col = cols[y]
            for y in reversed(chain):
                col = cols[y] = by_gen[letter[y]].take(col)
            out[i] = col
        return out

    # ------------------------------------------------------------ basics

    def __repr__(self):
        return f"InverseSemigroup(size={self.size}, idempotents={len(self.idempotents)})"

    def elements(self) -> range:
        return range(self.size)

    def name_of(self, s: int) -> str:
        self._require_element(s)
        return f"s{s}" if self.element_names is None else self.element_names[s]

    def idempotent_list(self) -> tuple:
        """All idempotents in increasing index order."""
        return self._idem_sorted

    def nonzero_idempotents(self) -> tuple:
        return tuple(e for e in self._idem_sorted if e != self.zero)

    def _require_element(self, s: int) -> None:
        if not 0 <= s < self.size:
            raise PreconditionViolated(f"element {s} is outside range({self.size})")

    def _require_idempotent(self, e: int) -> None:
        if e not in self.idempotents:
            raise NotIdempotent(e)

    def bits(self, idempotents: Iterable[int]) -> int:
        """One integer with bit ``column[f]`` set for each idempotent f of
        `idempotents`."""
        return sum({1 << self.column[f] for f in idempotents})

    def members_of(self, bits: int) -> tuple:
        """The idempotents whose columns are the set bits of `bits`, in
        increasing index order."""
        idem = self._idem_sorted
        out = []
        while bits:
            low = bits & -bits
            out.append(idem[low.bit_length() - 1])
            bits ^= low
        return tuple(out)

    # ------------------------------------------------------------- order

    def nat_leq(self, s: int, t: int) -> bool:
        """Natural partial order: s <= t iff s = t s* s."""
        self._require_element(s)
        self._require_element(t)
        return bool(self.slab[t, self.column[self.d[s]]] == s)

    def meet(self, e: int, f: int) -> int:
        """Greatest lower bound of two idempotents; equals their product."""
        self._require_idempotent(e)
        self._require_idempotent(f)
        return int(self.slab[e, self.column[f]])

    def orthogonal(self, e: int, f: int) -> bool:
        """Two idempotents are orthogonal when their product is zero."""
        self._require_idempotent(e)
        self._require_idempotent(f)
        return not self.meet_bits[self.column[e]] >> self.column[f] & 1

    def below(self, e: int) -> tuple:
        """Idempotents <= the idempotent e, the member tuple of the
        principal ideal: the members of ``below_bits[e]``."""
        self._require_idempotent(e)
        return self.members_of(self.below_bits[e])

    # ------------------------------------------------------------- ideals

    def ideal(self, members: Iterable[int]) -> Ideal:
        """Validate a member set and wrap it as an Ideal, testing its slab rows at once."""
        mem = frozenset(members)
        if self.zero not in mem:
            raise NotAnIdeal("an ideal must contain zero")
        for e in mem:
            if e not in self.idempotents:
                raise NotAnIdeal(f"member {e} is not idempotent")
        order = list(mem)
        escapes = (np.bincount(order, minlength=self.size) == 0)[self.slab[order]]
        if escapes.any():
            i, j = _first(escapes)
            raise NotAnIdeal(f"not downward closed: {order[i]}*{self._idem_sorted[j]} escapes")
        return Ideal(mem)

    def principal_ideal(self, e: int) -> Ideal:
        """All idempotents below e."""
        return Ideal(frozenset(self.below(e)))

    def ideal_perp(self, ideal: Ideal) -> Ideal:
        """Idempotents orthogonal to every member of the given ideal."""
        return self.constraint_ideal((), self._checked_members(ideal))

    def _checked_members(self, ideal: Ideal) -> frozenset:
        if not isinstance(ideal, Ideal):
            raise NotAnIdeal(f"expected an Ideal, got {type(ideal).__name__}")
        return ideal.members

    def constraint_ideal(self, below: Iterable[int], apart: Iterable[int]) -> Ideal:
        """Idempotents below everything in `below` and orthogonal to
        everything in `apart`.

        An empty `below` constrains nothing (the intersection over an
        empty family is all of E), and likewise for `apart`.  For
        nonempty `below` the result only depends on the meet of `below`,
        since lying below every member is the same as lying below their
        greatest lower bound.
        """
        below, apart = tuple(below), tuple(apart)
        for x in itertools.chain(below, apart):
            self._require_idempotent(x)
        out = ~self._met(self.bits(apart)) & (1 << len(self._idem_sorted)) - 1
        for x in below:
            out &= self.below_bits[x]
        return Ideal(frozenset(self.members_of(out)))

    # ------------------------------------------------------------- covers

    def first_uncovered(self, cover, members: Iterable[int]):
        """The first nonzero idempotent of `members`, in their order, that
        intersects no element of `cover`, a collection of idempotents, read
        once into what it meets, :meth:`_met`; None when there is none."""
        for c in cover:
            self._require_idempotent(c)
        met, column, zero = self._met(self.bits(cover)), self.column, self.zero
        return next((f for f in members if f != zero and not met >> column[f] & 1), None)

    def is_outer_cover(self, cover: Iterable[int], ideal: Ideal) -> bool:
        """True when every nonzero member of the ideal intersects some
        element of `cover`.  The cover need not sit inside the ideal."""
        return self.first_uncovered(tuple(cover), self._checked_members(ideal)) is None

    def is_cover(self, cover: Iterable[int], ideal: Ideal) -> bool:
        """An outer cover that moreover lies inside the ideal."""
        cov = frozenset(cover)
        return cov <= self._checked_members(ideal) and self.is_outer_cover(cov, ideal)

    def canonical_cover(self, ideal: Ideal) -> frozenset:
        """The maximal nonzero members of an ideal, :meth:`_maximal`.
        Every nonzero member lies below, hence meets, a maximal one, so
        they always cover it; they are none exactly when the ideal is {0}.
        """
        return frozenset(self.members_of(self._maximal(self.bits(self._checked_members(ideal)))))

    def _maximal(self, bits: int) -> int:
        """The maximal nonzero members of a set of idempotents, as bits."""
        below, idem = self.below_bits, self._idem_sorted
        strictly_below, rest = 0, bits
        while rest:
            low = rest & -rest
            strictly_below |= below[idem[low.bit_length() - 1]] & ~low
            rest ^= low
        return bits & ~strictly_below & ~(1 << self.column[self.zero])

    def _met(self, bits: int, rows=None) -> int:
        """What the members of `bits` meet, as bits: the union of their rows
        of ``meet_bits``, or of `rows`, any rows in column order.  Every
        cover decision of the package reads it: a family covers the ideal
        J when J holds no nonzero idempotent outside what it meets."""
        rows, out = self.meet_bits if rows is None else rows, 0
        while bits:
            low = bits & -bits
            out |= rows[low.bit_length() - 1]
            bits ^= low
        return out

    # ------------------------------------------------------------- global

    def is_e_star_unitary(self) -> bool:
        """True when no non-idempotent element dominates a nonzero
        idempotent: every non-idempotent's row of ``below_bits`` is {0}."""
        zero_bit = 1 << self.column[self.zero]
        return all(bits == zero_bit
                   for s, bits in enumerate(self.below_bits)
                   if s not in self.idempotents)


# -------------------------------------------------------------- builders

def _integer(v, what: str) -> int:
    """`v` through ``operator.index``, else :class:`DegreeMismatch` naming it."""
    try:
        return operator.index(v)
    except TypeError:
        raise DegreeMismatch(f"{what} {v!r} is not an integer") from None


def from_table(table: Sequence[Sequence[int]], zero: int,
               element_names: Sequence[str] | None = None) -> InverseSemigroup:
    """Validate a multiplication table and return the semigroup.

    Checks associativity, the absorbing zero, and a unique generalized
    inverse for every element, from which the involution and the
    idempotents are computed.  The rows, of any integer sequence or array
    type, are converted once into an array; an integer array is read as
    it is and never written to.  The first entry in row order that
    ``operator.index`` refuses, a float or text, raises
    :class:`DegreeMismatch`.  Rows up to the first of
    the wrong length are range-checked as one array, and the first entry
    out of range in row order, or else that row, raises
    :class:`DegreeMismatch`.  The zero may be any integer type, NumPy's
    included; anything else, like an index out of range, raises
    :class:`NoZero`.

    Associativity is decided by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1.2) against the greedy generating
    set of :func:`_right_generators`, kept as ``generators``: it picks
    the highest unreached element that extends, else closes, a chain of
    picks (n + 1 generators on B_n, one chain through all n points) and
    walks only left-nested products, so it needs no associativity.  The
    elements a with ``(x a) y == x (a y)`` for all x and y are closed
    under products, so the table is associative exactly when every
    generator passes, at O(n^2) per generator instead of O(n^3).  A
    failure raises :class:`NotAssociative` with a failing triple
    ``(x, g, y)``.  `MAX_TABLE_WORK` caps n^2 times the number of
    generators, the cells the test compares, before it runs: a semilattice
    of n - 1 orthogonal atoms has n - 1 generators and costs O(n^3).
    """
    n = len(table)
    if n < 1:
        raise NoZero("empty multiplication table")
    square = next((i for i, row in enumerate(table) if len(row) != n), n)
    rows = table[:square]
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        m = rows.reshape(square, n)  # an integer array is checked as it is
    else:
        if np.array(rows).dtype.kind not in "iub":   # floats, text, ints past int64
            rows = [[_integer(v, "table entry") for v in row] for row in rows]
        try:
            m = np.array(rows, dtype=np.int64).reshape(square, n)
        except OverflowError:        # an entry past int64, out of range below
            m = np.array(rows, dtype=object).reshape(square, n)
    bad = np.flatnonzero((m < 0) | (m >= n))
    if bad.size:
        raise DegreeMismatch(f"table entry {m.flat[bad[0]]} out of range 0..{n - 1}")
    if square < n:
        raise DegreeMismatch(f"table is not {n}x{n}")
    try:
        index = operator.index(zero)    # any integer, NumPy's included
    except TypeError:
        index = n                       # refused below, as out of range
    if not 0 <= index < n:
        raise NoZero(f"zero index {zero!r} out of range")
    if element_names is not None and len(element_names) != n:
        raise DegreeMismatch("element_names length does not match the table")
    return _checked(m.astype(np.int32, copy=False), index, element_names)


def _checked(m: np.ndarray, zero: int, element_names=None) -> InverseSemigroup:
    """The axiom checks of :func:`from_table` on a square int32 table `m`
    whose entries and zero are in range; the instance keeps its involution,
    s*s and the columns of its generators, not the table.

    Light's test compares (x g) y with x (g y) for each generator g in
    blocks of rows x, `_block_rows` of n cells, and raises at the first
    failing (g, x, y).  The inverse s* is the unique t with (s t) s = s and
    (t s) t = t.  Every s* is derived in O(n k) for k generators along the
    spanning tree of their columns, walked here once, the constructor's
    too.  A table regular through them whose idempotents commute is inverse
    (Howie, *Fundamentals of Semigroup Theory*, 1995, Thm 5.1.1), so s* is
    the only inverse; else the O(n^2) search, in blocks of rows s alike,
    raises at the lowest s with none, or more.  A search that finds each
    inverse unique is a defect: unique inverses make a table inverse.  Last,
    the slab must equal the table's idempotent columns; a cell (s, e) that
    differs is a defect, the first raising :class:`TheoremViolation`."""
    n = len(m)
    gens = _right_generators(m)
    if n * n * len(gens) > MAX_TABLE_WORK:
        raise CapExceeded(f"table of {n} elements with {len(gens)} generators "
                          f"needs {n * n * len(gens)} associativity checks, "
                          f"over the cap of {MAX_TABLE_WORK}")
    step = _block_rows(n)
    for g in gens:
        for lo in range(0, n, step):
            lhs = m[m[lo:lo + step, g]]           # (x, y) -> (x g) y
            rhs = m[lo:lo + step, m[g]]           # (x, y) -> x (g y)
            if not np.array_equal(lhs, rhs):
                x, y = _first(lhs != rhs)
                raise NotAssociative(lo + x, g, y)

    right = m[:, gens]
    tree = _breadth_first(right, gens)
    ar = np.arange(n, dtype=np.int32)
    star = _derived_inverses(m, gens, tree)
    el = np.flatnonzero(m.diagonal() == ar)       # the idempotents
    sub = m[np.ix_(el, el)]
    if star is None or not np.array_equal(sub, sub.T):
        _searched_inverses(m)
        raise TheoremViolation("inverse_search", False, True,
                               f"table of {n} elements, each with one inverse")
    star = star.tolist()

    bad = np.flatnonzero((m[zero] != zero) | (m[:, zero] != zero))
    if bad.size:
        raise ZeroNotAbsorbing(int(bad[0]))

    sg = InverseSemigroup(zero, star, gens, m[star, ar].tolist(), right,
                          element_names, tree=tree)
    bad = sg.slab != np.take(m, el, axis=1)
    if bad.any():
        s, j = _first(bad)
        raise TheoremViolation("slab_columns", int(sg.slab[s, j]), int(m[s, el[j]]),
                               f"table s={s} e={el[j]}")
    return sg


def _inverse_pairs(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cell (i, t) is True when t is an inverse of ``s[i]`` in the table `m`."""
    ar = np.arange(len(m), dtype=np.int32)
    ts = m[:, s].T                                    # (s, t) -> t s
    sts = np.take_along_axis(ts, m[s], axis=1)        # (s, t) -> (s t) s
    tst = m[ts, ar]                                   # (s, t) -> (t s) t
    return (sts == s[:, None]) & (tst == ar)


def _derived_inverses(m: np.ndarray, gens: list, tree: tuple):
    """Each s* of the table `m`, derived along `tree` as (p g)* = g* p*
    from the generators' inverses, if each has exactly one; None unless
    s s* s = s and s* s s* = s* for every s."""
    both = _inverse_pairs(m, np.array(gens))
    if (both.sum(axis=1) != 1).any():
        return None
    inverse = both.argmax(axis=1)
    rows, star = m[inverse].tolist(), dict(zip(gens, inverse.tolist()))
    parent, letter = tree
    for y in range(len(m)):
        chain = []
        while y not in star:
            chain.append(y)
            y = parent[y]
        for y in reversed(chain):
            star[y] = rows[letter[y]][star[parent[y]]]   # row j: t -> g_j* t
    ar = np.arange(len(m), dtype=np.int32)
    star = np.fromiter(map(star.__getitem__, ar.tolist()), np.int32, len(m))
    regular = (m[m[ar, star], ar] == ar).all() and (m[m[star, ar], star] == star).all()
    return star if regular else None


def _searched_inverses(m: np.ndarray) -> None:
    """Raise at the lowest s of the table `m` with no inverse, or more than
    one, searched over blocks of rows s of n cells each, `_block_rows`."""
    step = _block_rows(len(m))
    for lo in range(0, len(m), step):
        count = _inverse_pairs(m, np.arange(lo, min(lo + step, len(m)), dtype=np.int32)).sum(axis=1)
        if (count != 1).any():
            i = int(np.argmax(count != 1))
            raise (InverseNotUnique if count[i] else InverseMissing)(lo + i)


def _right_generators(m: np.ndarray) -> list:
    """Greedy generating set of a square table: every element ends up a
    left-nested product ``(..(g1 g2)..) gk`` of generators, whatever the
    table's associativity.  Each pick is the highest unreached x with p x
    unreached, p the product of the chain of picks so far, else with x p
    unreached, else the highest unreached x, which starts a new chain.
    On B_n the first chain runs through all n points: n + 1 generators."""
    reached = np.zeros(len(m), dtype=bool)
    gens, chain = [], None
    while not reached.all():
        fresh = ~reached
        ahead = [] if chain is None else [fresh & fresh[m[chain]], fresh & fresh[m[:, chain]]]
        pick = next((tier for tier in ahead if tier.any()), None)
        c = int(np.flatnonzero(fresh if pick is None else pick)[-1])
        chain = c if pick is None else int(m[chain, c])
        gens.append(c)
        # everything reached so far, times the new generator, and c itself
        fresh = np.append(m[reached, c], np.int32(c))
        while fresh.size:
            hit = (np.bincount(fresh, minlength=len(m)) > 0) & ~reached
            reached |= hit
            fresh = m[hit][:, gens].ravel()
    return gens


def _block_rows(cells_per_row: int) -> int:
    """Rows per block of `cells_per_row` cells each: as many as
    `BLOCK_CELLS` holds, at least one."""
    return max(1, BLOCK_CELLS // max(1, cells_per_row))


def _first(failing: np.ndarray) -> tuple:
    """The index of the first True cell of a bool array, in C order."""
    return tuple(map(int, np.unravel_index(int(failing.argmax()), failing.shape)))


def _row_bits(flags: np.ndarray) -> list:
    """Each row of a 2-d bool array as one integer, with bit j set when
    cell j is True."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    rows = packed.view(f"V{packed.shape[1]}").ravel().tolist()   # bytes each
    return list(map(int.from_bytes, rows, itertools.repeat("little")))


def _bit_rows(rows, width: int) -> np.ndarray:
    """The inverse of :func:`_row_bits`: a (len(rows), width) bool array
    whose cell (i, j) is bit j of ``rows[i]``."""
    size = (width + 7) // 8
    raw = b"".join(map(int.to_bytes, rows, itertools.repeat(size), itertools.repeat("little")))
    packed = np.frombuffer(raw, np.uint8).reshape(len(rows), size)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


def _breadth_first(right: np.ndarray, generators) -> tuple:
    """`right` walked breadth first from the generators: y's first edge
    is (``parent[y]``, ``letter[y]``), both -1 at a generator."""
    rows = right.tolist()
    parent, letter = [None] * len(rows), [-1] * len(rows)
    walk = list(generators)
    for g in walk:
        parent[g] = -1
    for p in walk:                             # the list grows while walked
        for j, y in enumerate(rows[p]):
            if parent[y] is None:
                parent[y], letter[y] = p, j
                walk.append(y)
    if len(walk) < len(rows):
        raise TheoremViolation("generators_reach", len(walk), len(rows),
                               f"element {parent.index(None)} unreached")
    return parent, letter


def _cayley_table(sg: InverseSemigroup) -> tuple:
    """The full table, ``table[x][y]`` = x y, from every column."""
    ids = list(range(sg.size))                 # one int object per index, shared
    return tuple(tuple(map(ids.__getitem__, row))
                 for row in sg._columns(ids).T.tolist())


# ------------------------------------------------------ partial map model

def _check_partial_map(g: Sequence, degree: int, label: str) -> tuple:
    if len(g) != degree:
        raise DegreeMismatch(f"map {label} has {len(g)} entries, expected {degree}")
    out, what = [], f"map {label} image"
    for v in g:
        if v is not None:
            v = _integer(v, what)
            if not 0 <= v < degree:
                raise DegreeMismatch(f"map {label} sends a point to {v}, outside 0..{degree - 1}")
        out.append(v)
    images = [v for v in out if v is not None]
    if len(set(images)) < len(images):
        raise NotInjective(label)
    return tuple(out)


def _inverses_and_domains(maps: np.ndarray) -> np.ndarray:
    """The inverse and the domain, the identity on it, of each digit row
    of `maps`, as the two layers of an array of shape (2, *maps.shape):
    where s sends x to v, s* sends v to x.  Where two points share an
    image, s s* s differs from s, which raises :class:`TheoremViolation`."""
    out = np.zeros((2, *maps.shape), dtype=maps.dtype)
    r, x = np.nonzero(maps)
    v = maps[r, x].astype(np.intp) - 1
    out[0, r, v] = x + 1
    out[1, r, x] = x + 1
    bad = np.flatnonzero(out[0, r, v] != x + 1)
    if bad.size:
        i = bad[0]
        raise TheoremViolation("s_star_s", int(out[0, r[i], v[i]]) - 1, int(x[i]),
                               f"row {r[i]}, image {v[i]}")
    return out


def _right_products(block: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Digit rows of f a for every map f of `block` and letter a: one
    gather, (f a)(x) = f(a(x)), indexed (f, a, x).  `block` carries a
    leading 0 column, so an undefined a(x), digit 0, stays undefined."""
    return np.take(block, letters, axis=1)


def from_partial_maps(degree: int, generators: Sequence[Sequence],
                      labels: Sequence[str] | None = None) -> InverseSemigroup:
    """Close a family of partial injections under composition and
    inversion, adjoin the empty map as zero if absent, and return the
    resulting semigroup.

    The closure is the smallest set of partial injections of
    ``{0..degree-1}`` containing the generators; it is an inverse
    semigroup because partial identities commute.  It is the set of words
    in the generators and their inverses, so one breadth-first walk
    right-multiplies every map found by each of those letters.  The walk
    is the right Cayley graph (Froidure & Pin, "Algorithms for computing
    finite semigroups", 1997): its edges are kept as ``right``, with the
    letters, plus the zero when no product reaches it, as
    ``generators``, and each element's first edge in walk order, past the
    empty map's row, is its edge of the spanning tree.

    A map is a row of digits, 0 where it is undefined and v + 1 where it
    sends a point to v, of the smallest unsigned type that holds the
    degree, big-endian, so that the bytes of rows sort as their images
    do with -1 for undefined.  The walk cuts the maps found but not yet
    walked into blocks of at most `BLOCK_CELLS` product cells, at least
    one map each; a block is multiplied by every letter in one array
    gather, and each product is looked up by its bytes among the maps
    found, a new one appended in walk order.  The caps are checked after
    every block: `MAX_SIZE` refuses a closure past that many maps, and
    `MAX_SLAB_CELLS` one whose image cells, maps found times degree, pass
    it.  A refusal names the first count past the cap, where a walk map
    by map would have stopped; the walk never forms more products than
    the maps under the caps times the letters.  After the walk and before
    the slab is built, `MAX_SLAB_CELLS` also rejects a closure whose slab
    would have more than that many cells, |S| times |E|.

    The elements are ordered by the bytes of their rows, which the
    instance keeps, so the empty map is the zero.  The inverse and s*s of
    every map are formed as arrays and looked up in the sorted rows; the
    idempotents are the partial identities.  The axiom checks of
    :func:`from_table` hold by construction; what is checked, in
    whole-array passes over |S| times degree cells, is that every inverse
    and domain lies in S, that s s* s = s, and that the empty map is the
    zero, a failure raising :class:`TheoremViolation`.
    """
    if degree < 1:
        raise DegreeMismatch("degree must be at least 1")
    gens = []
    for i, g in enumerate(generators):
        label = labels[i] if labels else f"generator {i}"
        gens.append(_check_partial_map(g, degree, label))
    # the walk's maps, lookups and edges are gone before the constructor
    # builds its arrays: the helper returns only what it needs
    return InverseSemigroup(0, *_closure(degree, gens))


def _closure(degree: int, gens: list) -> tuple:
    """The closure walk of :func:`from_partial_maps` over the checked maps
    `gens`, and its checks: the constructor's arguments past the zero,
    element 0.  Its blocks of maps, letters times the degree cells a map,
    are `_block_rows` long."""
    digit = np.min_scalar_type(degree).newbyteorder(">")
    key = np.dtype(f"S{degree * digit.itemsize}")    # a digit row as bytes
    rows = np.array([[0 if v is None else v + 1 for v in g] for g in gens],
                    dtype=digit).reshape(len(gens), degree)
    rows = np.concatenate([rows, _inverses_and_domains(rows)[0]]).astype(digit)
    # maps are the bytes of their rows, trailing zero bytes dropped, as
    # NumPy converts a bytes array to a list
    letters = list(dict.fromkeys(rows.view(key).ravel().tolist()))
    empty = b""
    found = list(dict.fromkeys([empty, *letters]))
    pos = {f: i for i, f in enumerate(found)}

    def admit(count):                # the caps on `count` maps found
        if count > MAX_SIZE:
            raise CapExceeded(f"closure exceeded {MAX_SIZE} elements")
        if count * degree > MAX_SLAB_CELLS:
            raise CapExceeded(f"closure of {count} maps on {degree} points "
                              f"exceeds {MAX_SLAB_CELLS} image cells")

    def digits(maps):                # the digit rows of some maps found
        return np.array(maps, dtype=key).view(digit).reshape(len(maps), degree)

    admit(len(found))
    limit = min(MAX_SIZE, MAX_SLAB_CELLS // degree)  # most maps both caps pass
    by_letter = digits(letters).astype(np.intp)
    step = _block_rows(len(letters) * degree)
    edges = []                       # found[i] * letters[j], row-major in (i, j)
    lo = 0
    while lo < len(found):           # the list grows while it is walked
        hi = min(len(found), lo + step)
        block = np.zeros((hi - lo, degree + 1), dtype=digit)
        block[:, 1:] = digits(found[lo:hi])
        products = _right_products(block, by_letter).view(key).ravel().tolist()
        fresh = [h for h in dict.fromkeys(products) if h not in pos]
        pos.update(zip(fresh, range(len(found), len(found) + len(fresh))))
        found += fresh
        edges += map(pos.__getitem__, products)
        if len(found) > limit:
            admit(limit + 1)
        lo = hi

    n = len(found)
    keys = np.array(found, dtype=key)
    order = np.argsort(keys)
    keys = keys[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    maps = keys.view(digit).reshape(n, degree)
    if maps[0].any():
        raise TheoremViolation("empty_map_zero", _images(maps[:1])[0],
                               (None,) * degree, "element 0")
    # the inverse and the domain of every map, looked up among the maps
    want = _inverses_and_domains(maps).reshape(2 * n, degree).view(keys.dtype).ravel()
    at = np.searchsorted(keys, want)
    miss = np.flatnonzero(keys[np.minimum(at, n - 1)] != want)
    if miss.size:
        i = int(miss[0])
        raise TheoremViolation("closure_lookup", 2 * n - miss.size, 2 * n,
                               f"{('inverse', 'domain')[i // n]} of element {i % n}")
    star, d = at[:n], at[n:]
    idem = int(np.count_nonzero(d == np.arange(n)))   # the partial identities
    if n * idem > MAX_SLAB_CELLS:
        raise CapExceeded(f"closure of {n} elements and {idem} "
                          f"idempotents exceeds {MAX_SLAB_CELLS} slab cells")

    width = len(letters)
    edges = np.array(edges, dtype=np.intp)
    gen_ids = rank[[pos[a] for a in letters]].tolist()
    right = rank[edges.reshape(n, width)[order]]
    # each element's first edge past the empty map's row, found[0]
    first = np.full(n, edges.size)
    np.minimum.at(first, edges[width:], np.arange(width, edges.size))
    tree = np.full((2, n), -1, dtype=np.int32)
    reached = first < edges.size
    tree[:, rank[reached]] = rank[first[reached] // width], first[reached] % width
    tree[:, gen_ids] = -1
    # element 0 is the empty map; it is reached when it is a letter or the
    # product of a nonempty map and a letter
    if empty not in letters and not (right[1:] == 0).any():
        gen_ids.append(0)
        right = np.hstack([right, np.zeros((n, 1), dtype=np.intp)])
    maps.flags.writeable = False
    cells = np.array(["_", *map(str, range(degree))])[maps]   # one lookup
    if degree <= 10:             # a character a cell: a row is one string
        names = cells.view(f"<U{degree}").ravel().tolist()
    else:
        names = list(map(",".join, cells.tolist()))
    names[0] = "0"
    if degree == 1 and n == 2:   # the identity's image string, 0, names the zero
        names[1] = "1"
    return star.tolist(), gen_ids, d.tolist(), right, names, maps, tree


def _images(digits: np.ndarray) -> tuple:
    """Each digit row as a tuple of images, None where undefined."""
    images = [None, *range(digits.shape[1])]
    return tuple(tuple(map(images.__getitem__, row)) for row in digits.tolist())
