"""Finite inverse semigroups with zero.

Elements are dense indices ``0..size-1``.  The analysis reads only a few
kinds of product, each stored as a field: the involution s -> s*, the
idempotents s*s and ss*, the products s e with an idempotent e (the
slab), and the products s g with a generator g (the right Cayley graph).
A product e s is (s* e)*.  The slab is one read-only C-contiguous int32
array of shape (|S|, |E|): row s holds s e for every idempotent e, one
column per idempotent in increasing index order, and ``column[e]`` is
the column of e.  Every predicate in this package reduces to a finite
scan of these and every theorem to an exhaustive check; the scans over
all |S| |E| cells run as whole-array passes, the scans of ideals and
covers read the meet table ``meets`` of the idempotents, and any other
scalar read takes a row through ``.tolist()``.  Both builders hand the constructor the
involution, s*s and the Cayley graph; the slab, the block of products of
arrow representatives that the groupoid axiom check reads, and the full
multiplication table are columns read off the graph by one routine,
:func:`_columns`.  Nothing in the analysis or the identity harness
fills the table; it remains, filled on first access, for readers
outside them.

Instances are immutable after construction and safe to share between
threads; after ``__init__`` only the table, the caches of ``below`` and
``fixed_idempotents`` and the weakly fixed flags of
:func:`~tightgroupoid.criteria.weakly_fixed` fill, each with the one
value its key determines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    DegreeMismatch,
    InverseMissing,
    InverseNotUnique,
    NotAnIdeal,
    NotAssociative,
    NotIdempotent,
    NotInjective,
    NoZero,
    ZeroNotAbsorbing,
)

# Size caps, enforced by the builders; a build past one raises
# CapExceeded.  MAX_SIZE stops the closure walk at its first map past the
# cap: I6 (13,327 elements) fits, I7 (130,922) does not.  MAX_SLAB_CELLS
# bounds the |S| x |E| slab before it is built: I6 needs 852,928 cells.
# It also bounds the walk's image cells, maps found times degree, at each
# new map: I6 stores 79,962 and the 20,000-point identity 40,000, while a
# 12,000-point cycle is refused at its 167th map.
# MAX_TABLE_WORK bounds Light's test of a table, n^2 cells per generator:
# a semilattice of n - 1 orthogonal atoms has n - 1 generators, so
# n = 400 (6.4e7) passes in about 0.08 s and n = 800 (5.1e8) is refused.
MAX_SIZE = 20_000
MAX_SLAB_CELLS = 2_000_000
MAX_TABLE_WORK = 200_000_000

# Partial injection on {0..degree-1}: image tuple, None where undefined.
PartialMap = tuple

# A cover candidate is just a set of idempotent indices; cover-ness is a
# predicate, not an invariant, so no wrapper type is needed.
Cover = frozenset


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
    It takes the involution, ``d`` and the right Cayley graph, and
    derives ``r``, the idempotents and the slab from them.

    Attributes:
        size: number of elements.
        zero: index of the absorbing element.
        star: involution, ``star[s]`` is the unique generalized inverse.
        d: ``d[s]`` is the idempotent s*s, the domain of s.
        r: ``r[s]`` is the idempotent ss*, the range of s.
        slab: read-only C-contiguous int32 array of shape (|S|, |E|);
            ``slab[s, column[e]]`` is the product s e, which is s
            restricted to the domain of e, with the idempotents' columns
            in increasing index order.  The conjugate s e s* is
            ``r[slab[s, column[e]]]``.  Cells are NumPy integers: a value
            that reaches a report goes through ``int`` or ``.tolist()``.
        column: dict from each idempotent to its column of the slab.
        meets: the meet table of the semilattice, ``meets[e][f]`` = e f
            for idempotents e and f: the slab's rows at the idempotents,
            as dicts, for the scans over ideals and covers that read
            them cell by cell (|E|^2 cells, where the slab has |S| |E|).
        idempotents: frozenset of idempotent indices (the semilattice).
        generators: element indices whose closure under right
            multiplication by one another is the whole semigroup: every
            element is a product of generators.  The associativity check
            of :func:`from_table` and the homomorphism check of
            :func:`~tightgroupoid.action.validate_action` run against this
            set instead of every element.
        right: ``right[s][j]`` is the product of s and ``generators[j]``.
        table: multiplication table, ``table[a][b]`` is the product,
            filled from ``right`` on first access.  Nothing
            :func:`~tightgroupoid.criteria.analyze` or
            :func:`~tightgroupoid.criteria.verify_instance` calls reads
            it; it remains for outside readers, such as the reproducer
            of a table-built instance.
        element_names: optional printable names, index aligned.
        partial_maps: for closure-built instances, the concrete partial
            injection realizing each element; otherwise None.
    """

    def __init__(self, zero, star, generators, d, right,
                 element_names=None, partial_maps=None):
        ids = list(range(len(star)))         # one int object per index, shared
        get = ids.__getitem__
        self.zero = get(zero)
        self.star = tuple(map(get, star))
        self.size = len(self.star)
        self.generators = tuple(map(get, generators))
        self.d = tuple(map(get, d))
        self.r = tuple(map(self.d.__getitem__, self.star))
        self._idem_sorted = tuple(s for s, e in zip(ids, self.d) if s == e)
        self.idempotents = frozenset(self._idem_sorted)
        self.right = tuple(tuple(map(get, row)) for row in right)
        idem = self._idem_sorted
        self.column = {e: j for j, e in enumerate(idem)}
        self.slab = np.ascontiguousarray(
            _columns(self.right, self.generators, idem).T)
        self.slab.flags.writeable = False
        self.meets = {e: dict(zip(idem, row))
                      for e, row in zip(idem, self.slab[list(idem)].tolist())}
        self._table = None
        self.element_names = tuple(element_names) if element_names else None
        self.partial_maps = tuple(partial_maps) if partial_maps else None
        self._below = {}
        self._fixed = {}
        self._weakly_fixed = None

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = _cayley_table(self.right, self.generators)
        return self._table

    # ------------------------------------------------------------ basics

    def __repr__(self):
        return f"InverseSemigroup(size={self.size}, idempotents={len(self.idempotents)})"

    def elements(self) -> range:
        return range(self.size)

    def left(self, e: int, s: int) -> int:
        """The product e s of an idempotent e and any element s: in an
        inverse semigroup it is (s* e)*, read off the slab."""
        return self.star[self.slab[self.star[s], self.column[e]]]

    def name_of(self, s: int) -> str:
        if self.element_names is not None:
            return self.element_names[s]
        return f"s{s}"

    def idempotent_list(self) -> tuple:
        """All idempotents in increasing index order."""
        return self._idem_sorted

    def nonzero_idempotents(self) -> tuple:
        return tuple(e for e in self._idem_sorted if e != self.zero)

    def _require_idempotent(self, e: int) -> None:
        if e not in self.idempotents:
            raise NotIdempotent(e)

    # ------------------------------------------------------------- order

    def nat_leq(self, s: int, t: int) -> bool:
        """Natural partial order: s <= t iff s = t s* s."""
        return bool(self.slab[t, self.column[self.d[s]]] == s)

    def leq_e(self, e: int, f: int) -> bool:
        """Semilattice order on idempotents: e <= f iff e = ef."""
        self._require_idempotent(e)
        self._require_idempotent(f)
        return self.meets[e][f] == e

    def meet(self, e: int, f: int) -> int:
        """Greatest lower bound of two idempotents; equals their product."""
        self._require_idempotent(e)
        self._require_idempotent(f)
        return self.meets[e][f]

    def orthogonal(self, e: int, f: int) -> bool:
        """Two idempotents are orthogonal when their product is zero."""
        self._require_idempotent(e)
        self._require_idempotent(f)
        return self.meets[e][f] == self.zero

    def intersects(self, e: int, f: int) -> bool:
        """Negation of orthogonality: the product is nonzero."""
        return not self.orthogonal(e, f)

    def below(self, e: int) -> tuple:
        """Idempotents <= the idempotent e, cached; the member tuple of the
        principal ideal."""
        got = self._below.get(e)
        if got is None:
            got = tuple(f for f, ef in self.meets[e].items() if ef == f)
            self._below[e] = got
        return got

    # ------------------------------------------------------------- ideals

    def ideal(self, members: Iterable[int]) -> Ideal:
        """Validate a member set and wrap it as an Ideal."""
        mem = frozenset(members)
        if self.zero not in mem:
            raise NotAnIdeal("an ideal must contain zero")
        for e in mem:
            if e not in self.idempotents:
                raise NotAnIdeal(f"member {e} is not idempotent")
        for e in mem:
            for f, ef in self.meets[e].items():
                if ef not in mem:
                    raise NotAnIdeal(f"not downward closed: {e}*{f} escapes")
        return Ideal(mem)

    def principal_ideal(self, e: int) -> Ideal:
        """All idempotents below e."""
        self._require_idempotent(e)
        return Ideal(frozenset(self.below(e)))

    def ideal_perp(self, ideal: Ideal) -> Ideal:
        """Idempotents orthogonal to every member of the given ideal."""
        mem = self._checked_members(ideal)
        zero = self.zero
        out = []
        for f, row in self.meets.items():
            for e in mem:
                if row[e] != zero:
                    break
            else:
                out.append(f)
        return Ideal(frozenset(out))

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
        below = tuple(below)
        apart = tuple(apart)
        for x in itertools.chain(below, apart):
            self._require_idempotent(x)
        out = set(self._idem_sorted)
        for x in below:
            row = self.meets[x]
            out = {f for f in out if row[f] == f}
        for y in apart:
            row = self.meets[y]
            out = {f for f in out if row[f] == self.zero}
        return Ideal(frozenset(out))

    def fixed_idempotents(self, s: int) -> Ideal:
        """Idempotents e with e <= s, equivalently s e = e.

        These are exactly the idempotents fixed under left multiplication
        by s; the set is always an ideal, but not a principal one unless
        s is itself idempotent.  Cached per element.
        """
        got = self._fixed.get(s)
        if got is None:
            got = Ideal(frozenset(e for e, se in zip(self._idem_sorted,
                                                     self.slab[s].tolist())
                                  if se == e))
            self._fixed[s] = got
        return got

    # ------------------------------------------------------------- covers

    def first_uncovered(self, cover, members: Iterable[int]):
        """The first nonzero idempotent of `members`, in their order, that
        intersects no element of `cover`; None when there is none.  The
        cover is scanned once per member, so it must be a collection of
        idempotents."""
        if not self.idempotents.issuperset(cover):
            for c in cover:
                self._require_idempotent(c)
        zero, meets = self.zero, self.meets
        for f in members:
            if f == zero:
                continue
            row = meets[f]
            for c in cover:
                if row[c] != zero:
                    break
            else:
                return f
        return None

    def is_outer_cover(self, cover: Iterable[int], ideal: Ideal) -> bool:
        """True when every nonzero member of the ideal intersects some
        element of `cover`.  The cover need not sit inside the ideal."""
        mem = self._checked_members(ideal)
        return self.first_uncovered(tuple(cover), mem) is None

    def is_cover(self, cover: Iterable[int], ideal: Ideal) -> bool:
        """An outer cover that moreover lies inside the ideal."""
        cov = frozenset(cover)
        if not cov <= self._checked_members(ideal):
            return False
        return self.is_outer_cover(cov, ideal)

    def canonical_cover(self, ideal: Ideal) -> Cover:
        """The maximal nonzero members of an ideal.

        Every nonzero member of the ideal lies below, hence intersects, a
        maximal one, so the result is always a cover; it is empty exactly
        when the ideal is {0}.  Returning only maximal elements keeps the
        witness small; any cover would do for the criteria built on top.
        """
        mem = self._checked_members(ideal)
        nz = [f for f in sorted(mem) if f != self.zero]
        maximal = []
        for f in nz:
            row = self.meets[f]
            for g in nz:
                if row[g] == f and g != f:
                    break
            else:
                maximal.append(f)
        return frozenset(maximal)

    # ------------------------------------------------------------- global

    def is_e_star_unitary(self) -> bool:
        """True when no non-idempotent element dominates a nonzero
        idempotent, i.e. every non-idempotent has fixed ideal {0}."""
        for s in self.elements():
            if s in self.idempotents:
                continue
            if len(self.fixed_idempotents(s)) > 1:
                return False
        return True


# -------------------------------------------------------------- builders

def from_table(table: Sequence[Sequence[int]], zero: int,
               element_names: Sequence[str] | None = None) -> InverseSemigroup:
    """Validate a multiplication table and return the semigroup.

    Checks associativity, the absorbing zero, and existence of a unique
    generalized inverse for every element; the involution and the
    idempotent set are computed, not supplied, since a supplied involution
    would need the same validation anyway.

    Associativity is decided by Light's test against a generating set
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1.2).
    The set is found greedily: scanning from the highest index down, an
    element not yet reached becomes a generator, and the reached set is
    extended by right-multiplying by generators.  That walk forms only
    left-nested products, so it needs no associativity, and it ends with
    every element a left-nested product of generators.  The elements a
    with ``(x a) y == x (a y)`` for all x and y are closed under products,
    so once every generator passes, every element does: the table is
    associative exactly when it passes, at O(n^2) per generator instead of
    O(n^3).  A failure raises :class:`NotAssociative` with a failing
    triple ``(x, g, y)``.  The generating set is kept as ``generators``.
    `MAX_TABLE_WORK` caps n^2 times the number of generators, the cells
    Light's test compares, and is checked once the generators are known,
    before the test runs: a semilattice of n - 1 orthogonal atoms has
    n - 1 generators and costs O(n^3).
    """
    rows = [tuple(map(int, row)) for row in table]
    n = len(rows)
    if n < 1:
        raise NoZero("empty multiplication table")
    for row in rows:
        if len(row) != n:
            raise DegreeMismatch(f"table is not {n}x{n}")
        if min(row) < 0 or max(row) >= n:
            v = next(v for v in row if not 0 <= v < n)
            raise DegreeMismatch(f"table entry {v} out of range 0..{n - 1}")
    if not isinstance(zero, int) or not 0 <= zero < n:
        raise NoZero(f"zero index {zero!r} out of range")
    if element_names is not None and len(element_names) != n:
        raise DegreeMismatch("element_names length does not match the table")
    return _checked(np.array(rows, dtype=np.int32), zero, element_names)


def _checked(m: np.ndarray, zero: int, element_names=None) -> InverseSemigroup:
    """The axiom checks of :func:`from_table` on a square int32 table `m`
    whose entries and zero are in range; the instance keeps its involution,
    s*s and the columns of its generators, not the table."""
    n = len(m)
    gens = _right_generators(m)
    if n * n * len(gens) > MAX_TABLE_WORK:
        raise CapExceeded(f"table of {n} elements with {len(gens)} generators "
                          f"needs {n * n * len(gens)} associativity checks, "
                          f"over the cap of {MAX_TABLE_WORK}")
    for g in gens:
        lhs = m[m[:, g], :]       # (x, y) -> (x g) y
        rhs = m[:, m[g]]          # (x, y) -> x (g y)
        if not np.array_equal(lhs, rhs):
            x, y = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAssociative(x, g, y)
    del lhs, rhs

    ar = np.arange(n, dtype=np.int32)
    star = []
    for s in range(n):
        sts = m[m[s], s]          # over t: (s t) s
        tst = m[m[:, s], ar]      # over t: (t s) t
        cand = np.flatnonzero((sts == s) & (tst == ar))
        if cand.size == 0:
            raise InverseMissing(s)
        if cand.size > 1:
            raise InverseNotUnique(s)
        star.append(int(cand[0]))

    bad = np.flatnonzero((m[zero] != zero) | (m[:, zero] != zero))
    if bad.size:
        raise ZeroNotAbsorbing(int(bad[0]))

    idem = frozenset(int(e) for e in np.flatnonzero(m.diagonal() == ar))
    # Uniqueness of inverses already forces these; they are cheap to
    # re-assert and catching them here would mean a bug above.
    assert zero in idem
    assert all(star[e] == e for e in idem)
    el = sorted(idem)
    sub = m[np.ix_(el, el)]
    assert np.array_equal(sub, sub.T), "idempotents failed to commute"

    return InverseSemigroup(zero, star, gens, m[star, ar].tolist(),
                            m[:, gens].tolist(), element_names)


def _right_generators(m: np.ndarray) -> list:
    """Greedy generating set of a square table, highest index first: every
    element ends up a left-nested product ``(..(g1 g2)..) gk`` of
    generators, whatever the table's associativity."""
    reached = np.zeros(len(m), dtype=bool)
    gens = []
    for c in range(len(m) - 1, -1, -1):
        if reached[c]:
            continue
        gens.append(c)
        # everything reached so far, times the new generator, and c itself
        fresh = np.append(m[reached, c], np.int32(c))
        while True:
            fresh = np.unique(fresh)
            fresh = fresh[~reached[fresh]]
            if not fresh.size:
                break
            reached[fresh] = True
            fresh = m[np.ix_(fresh, gens)].ravel()
    return gens


def _columns(right, generators, wanted) -> np.ndarray:
    """Columns x -> x y of the multiplication table for each y in
    `wanted`, as the rows of an int32 array, read off the right Cayley
    graph (Froidure & Pin, "Algorithms for computing finite semigroups",
    1997).

    Column g of the table is column j of `right` for the generator
    g = ``generators[j]``.  Walking the graph breadth first from the
    generators reaches every element y as some p g with p reached before,
    its parent, and then column y, x -> x y = (x p) g, is column p sent
    through column g: one array gather per element.  Columns are kept
    along the parent chains of the wanted elements, so every column costs
    at most one gather.
    """
    n = len(right)
    by_gen = np.array(right, dtype=np.int32).reshape(n, len(generators)).T.copy()
    cols = {}                                  # y -> column x -> x y
    for j, g in enumerate(generators):
        cols.setdefault(g, by_gen[j])
    parent = dict.fromkeys(cols)               # y -> (p, j) with y = p g_j
    walk = list(cols)
    for p in walk:                             # the list grows while walked
        for j, y in enumerate(right[p]):
            if y not in parent:
                parent[y] = (p, j)
                walk.append(y)
    assert len(walk) == n, "the generators do not reach every element"
    out = np.empty((len(wanted), n), dtype=np.int32)
    for i, y in enumerate(wanted):
        chain = []
        while y not in cols:
            chain.append(y)
            y = parent[y][0]
        col = cols[y]
        for y in reversed(chain):
            col = cols[y] = by_gen[parent[y][1]][col]
        out[i] = col
    return out


def _cayley_table(right, generators) -> tuple:
    """The full table, ``table[x][y]`` = x y: every column of
    :func:`_columns`."""
    n = len(right)
    table = _columns(right, generators, range(n)).T
    ids = list(range(n))                       # one int object per index, shared
    return tuple(tuple(map(ids.__getitem__, row)) for row in table.tolist())


# ------------------------------------------------------ partial map model

def compose_maps(f: PartialMap, g: PartialMap) -> PartialMap:
    """f after g, defined where the chain is."""
    return tuple(f[y] if (y := g[x]) is not None else None for x in range(len(g)))


def invert_map(f: PartialMap) -> PartialMap:
    out = [None] * len(f)
    for x, y in enumerate(f):
        if y is not None:
            out[y] = x
    return tuple(out)


def map_name(f: PartialMap) -> str:
    """Compact printable form: per-point images, '_' where undefined."""
    if all(v is None for v in f):
        return "0"
    cells = ["_" if v is None else str(v) for v in f]
    sep = "" if len(f) <= 10 else ","
    return sep.join(cells)


def _check_partial_map(g: Sequence, degree: int, label: str) -> PartialMap:
    if len(g) != degree:
        raise DegreeMismatch(f"map {label} has {len(g)} entries, expected {degree}")
    out = []
    for v in g:
        if v is None:
            out.append(None)
            continue
        v = int(v)
        if not 0 <= v < degree:
            raise DegreeMismatch(f"map {label} sends a point to {v}, outside 0..{degree - 1}")
        out.append(v)
    seen = set()
    for v in out:
        if v is None:
            continue
        if v in seen:
            raise NotInjective(label)
        seen.add(v)
    return tuple(out)


def from_partial_maps(degree: int, generators: Sequence[Sequence],
                      labels: Sequence[str] | None = None) -> InverseSemigroup:
    """Close a family of partial injections under composition and
    inversion, adjoin the empty map as zero if absent, and return the
    resulting semigroup.

    The closure is the smallest set of partial injections of
    ``{0..degree-1}`` containing the generators; it is automatically an
    inverse semigroup because idempotent partial injections (partial
    identities) commute.  The inverse of a word is the reversed word of
    inverse letters, so the closure is the set of words over the
    generators and their inverses: one breadth-first walk right-multiplies
    every map found by each of those letters.  `MAX_SIZE` aborts runaway
    closures at the first map past the cap, and `MAX_SLAB_CELLS` at the
    first whose image cells, maps found times degree, pass it; after the
    walk and before the slab is built, it also rejects a closure whose
    slab would have more than that many cells, |S| times |E|.  The walk is the
    right Cayley graph (Froidure & Pin, "Algorithms for computing finite
    semigroups", 1997): maps are composed once per edge, |S| times the
    number of letters, and its edges are kept as ``right`` with the
    letters as ``generators``, plus the zero when no product reaches it.

    The elements are ordered as their image tuples, with -1 for
    undefined, so the empty map is the zero.  The inverse and s*s (the
    identity on the domain) are read per map and looked up by the walk's
    own index; the idempotents are the partial identities, s = s*s, and
    the constructor derives ss* and the slab from these.  The
    maps are associative and the empty map absorbing by construction, so
    the axiom checks of :func:`from_table` are not needed; what is
    asserted, at O(|S| degree), is that every inverse and domain lies in
    S, that s s* s = s, and that the empty map is the zero.
    """
    if degree < 1:
        raise DegreeMismatch("degree must be at least 1")
    gens = []
    for i, g in enumerate(generators):
        label = labels[i] if labels else f"generator {i}"
        gens.append(_check_partial_map(g, degree, label))

    empty = tuple([None] * degree)
    letters = list(dict.fromkeys(gens + [invert_map(g) for g in gens]))
    found = list(dict.fromkeys([empty, *letters]))
    pos = {f: i for i, f in enumerate(found)}

    def admit():                     # the caps on the maps found so far
        if len(found) > MAX_SIZE:
            raise CapExceeded(f"closure exceeded {MAX_SIZE} elements")
        if len(found) * degree > MAX_SLAB_CELLS:
            raise CapExceeded(f"closure of {len(found)} maps on {degree} points "
                              f"exceeds {MAX_SLAB_CELLS} image cells")

    admit()
    right = []                       # right[i][j]: index of found[i] * letters[j]
    for f in found:                  # the list grows while it is walked
        row = []
        for a in letters:
            h = compose_maps(f, a)
            k = pos.get(h)
            if k is None:
                k = pos[h] = len(found)
                found.append(h)
                admit()
            row.append(k)
        right.append(row)

    n = len(found)
    order = sorted(range(n), key=lambda i: tuple(-1 if v is None else v
                                                 for v in found[i]))
    rank = [0] * n
    for k, i in enumerate(order):
        rank[i] = k
    maps = [found[i] for i in order]
    assert maps[0] == empty, "the empty map is not the zero"

    def index_of(f):
        i = pos.get(f)
        assert i is not None, "a product escapes the closure"
        return rank[i]

    star, d = [], []
    for f in maps:
        inv = invert_map(f)
        dom = tuple(None if v is None else x for x, v in enumerate(f))
        star.append(index_of(inv))
        d.append(index_of(dom))
        assert all(v is None or f[inv[v]] == v for v in f), \
            "s s* s differs from s"
    idem = sum(s == e for s, e in enumerate(d))      # the partial identities
    if n * idem > MAX_SLAB_CELLS:
        raise CapExceeded(f"closure of {n} elements and {idem} "
                          f"idempotents exceeds {MAX_SLAB_CELLS} slab cells")

    gen_ids = [rank[pos[a]] for a in letters]
    right = [[rank[k] for k in right[i]] for i in order]
    # element 0 is the empty map; it is reached when it is a letter or the
    # product of a nonempty map and a letter
    if empty not in letters and not any(0 in row for row in right[1:]):
        gen_ids.append(0)
        for row in right:
            row.append(0)
    return InverseSemigroup(0, star, gen_ids, d, right,
                            [map_name(f) for f in maps], maps)
