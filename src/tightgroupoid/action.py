"""Finite inverse semigroup actions by partial injections.

An action is stored as one (|S|, points) int32 array of images, -1 where
undefined; the checks and direct decisions are whole-array passes over
it, and the per-element forms are views derived from it when first read.

The carrier is a finite set of points carrying the discrete topology, so
the topological notions in the definitions below collapse: the interior
and the closure of any subset are the subset itself.  Each predicate
uses the subset directly, and its docstring keeps the general form next
to the collapse so the collapse stays auditable.  The test suite asserts,
rather than assumes, that the collapsed predicates agree wherever two of
them are provably equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import (
    CompositionMismatch,
    DomainNotCovering,
    EmptySpectrum,
    InverseMismatch,
    InvalidAction,
    NotInDomain,
    TheoremViolation,
)
from .semigroup import InverseSemigroup
from .spectrum import TightSpectrum


def _row_sets(mask: np.ndarray) -> list:
    """Per row of the bool array `mask`, the frozenset of its True
    columns; equal rows share one frozenset, found by the row's bytes."""
    n, width = mask.shape
    raw = mask.tobytes()
    rows = [raw[i * width:(i + 1) * width] for i in range(n)]
    sets = {row: frozenset(compress(range(width), row)) for row in set(rows)}
    return [sets[row] for row in rows]


class FiniteAction:
    """An action of a finite inverse semigroup on a finite point set.

    Attributes:
        semigroup: the acting semigroup.
        points: carrier size; points are indices 0..points-1.
        array: the stored form, ``array[s, x]`` the image of x under s.
        defined, trivial: the domain and trivially fixed masks.
        maps: per element, an image tuple over the carrier with None
            where the partial injection is undefined.
        edomains: per idempotent, the (open) set where its map is the
            identity.
        point_labels: optional printable names for carrier points.

    `maps` is the array or a dict of maps, checked to be maps of the
    carrier when the array is first read; the other forms are views.
    :func:`validate_action` checks the axioms exhaustively.
    """

    def __init__(self, semigroup: InverseSemigroup, points: int, maps,
                 point_labels=None):
        self.semigroup = semigroup
        self.points = points
        if isinstance(maps, np.ndarray):
            maps.flags.writeable = False
            self.array = maps
        else:
            self.maps = {s: tuple(m) for s, m in maps.items()}
        self.point_labels = tuple(point_labels) if point_labels else None
        self._validated = False

    def __repr__(self):
        return f"FiniteAction(points={self.points}, semigroup_size={self.semigroup.size})"

    @cached_property
    def array(self) -> np.ndarray:
        sg, points, maps = self.semigroup, self.points, self.maps
        if set(maps) != set(sg.elements()):
            raise InvalidAction("maps must be indexed by every semigroup element")
        images, kinds = {None, *range(points)}, {int, type(None)}
        for s in sg.elements():
            m = maps[s]
            if len(m) != points or not kinds.issuperset(map(type, m)) or \
                    not images.issuperset(m):
                raise InvalidAction(f"map of element {s} must have {points} "
                                    f"entries, each None or an int in range({points})")
        cells = np.array([[-1 if y is None else y for y in maps[s]]
                          for s in sg.elements()], dtype=np.int32)
        cells.flags.writeable = False
        return cells.reshape(sg.size, points)

    @cached_property
    def maps(self) -> dict:
        return dict(enumerate(map(tuple, np.where(self.defined, self.array, None).tolist())))

    @cached_property
    def defined(self) -> np.ndarray:
        return self.array >= 0

    @cached_property
    def trivial(self) -> np.ndarray:
        sg = self.semigroup
        idem = sg.idempotent_list()
        width = (len(idem) + 7) // 8
        raw = b"".join(bits.to_bytes(width, "little") for bits in sg.below_bits)
        below = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(sg.size, width),
                              axis=1, count=len(idem), bitorder="little")
        return below.astype(np.float32) @ self.defined[np.array(idem)] > 0

    @cached_property
    def _domains(self) -> list:
        return _row_sets(self.defined)

    @cached_property
    def _trivial_sets(self) -> list:
        return _row_sets(self.trivial)

    @cached_property
    def edomains(self) -> dict:
        return {e: self._domains[e] for e in self.semigroup.idempotents}

    def domain(self, s: int) -> frozenset:
        return self._domains[s]

    def apply(self, s: int, x: int) -> int:
        y = int(self.array[s, x])
        if y < 0:
            raise NotInDomain(f"point {x} outside the domain of element {s}")
        return y

    def image(self, s: int, subset) -> frozenset:
        m = self.maps[s]
        out = []
        for x in subset:
            y = m[x]
            if y is None:
                raise NotInDomain(f"point {x} outside the domain of element {s}")
            out.append(y)
        return frozenset(out)

    def label_of(self, x: int) -> str:
        if self.point_labels is not None:
            return self.point_labels[x]
        return f"x{x}"


def validate_action(action: FiniteAction) -> None:
    """Check every action axiom exhaustively.

    Every map must first have one entry per point, each None or an int
    point; the lowest element whose map does not raises
    :class:`InvalidAction` naming it.  Composites must agree with the
    product maps on the largest domain where they make sense, the map of
    s* must invert the map of s with domains equal to the domains of s*s
    and ss*, idempotents must act as partial identities with zero acting
    as the empty map, and the idempotent domains must cover the carrier.

    Composition is checked for s in S and t in ``semigroup.generators``
    only.  Every t is a product g1...gk of generators, and if
    theta(s g) = theta(s) theta(g) for every s and every generator g, then
    by induction on k, theta(s g1...gk) = theta(s g1...gk-1) theta(gk) =
    theta(s) theta(g1...gk-1) theta(gk) = theta(s) theta(g1...gk).  So the
    cut checks the same condition as all pairs, and a failure still names
    a concrete triple (s, g, x).

    Every check compares whole arrays at once; the composition check
    compares blocks of elements, each holding at most |S| times the
    points cells (or 4096) whatever the number of generators.  A failure
    raises what a scan element by element would: the first failing check
    of the lowest failing element, in that order, then the first
    (s, g, x) whose composite differs.
    """
    if action._validated:
        return
    sg = action.semigroup
    m = action.array
    points = action.points
    defined = action.defined
    if defined[sg.zero].any():
        raise InvalidAction("zero must act as the empty map")
    rows = m[np.array(sg.idempotent_list())]
    moved = ((rows >= 0) & (rows != np.arange(points))).any(axis=1)
    if moved.any():
        e = next(e for e in sg.idempotents if moved[sg.column[e]])
        raise InvalidAction(f"idempotent {e} does not act as the identity")
    if not (rows >= 0).any(axis=0).all():
        raise DomainNotCovering("idempotent domains do not cover the carrier")

    n = len(m)
    elems, xs = np.nonzero(defined)
    cells = elems * points + m[elems, xs]             # (s, y) for y = s x
    hits = np.bincount(cells, minlength=n * points).reshape(n, points)
    inverse = np.full(n * points, -1, dtype=np.int32)
    inverse[cells] = xs
    star, d, r = np.array((sg.star, sg.d, sg.r))
    checks = np.stack((hits > 1,                               # not injective
                       m[star] != inverse.reshape(n, points),  # s* does not invert s
                       defined != defined[d],                  # domain is not s*s's
                       (hits > 0) != defined[r]))              # range is not ss*'s
    if checks.any():
        failing = checks.any(axis=2)
        s = int(failing.any(axis=0).argmax())
        check = failing[:, s].argmax()
        if check == 0:
            raise InvalidAction(f"element {s} does not act injectively")
        if check == 1:
            raise InverseMismatch(s)
        if check == 2:
            raise InvalidAction(f"domain of {s} differs from the domain of s*s")
        raise InvalidAction(f"range of {s} differs from the domain of ss*")

    # (s, j, x): s after generator j at x, against s g_j at x, over blocks
    # of elements holding at most |S| times the points cells, or 4096; the
    # padded last column is all -1, so a gather at -1 gives -1
    padded = np.concatenate((m, np.full((n, 1), -1, dtype=np.int32)), axis=1)
    gen_maps = m[np.array(sg.generators)]
    step = max(1, max(n * points, 4096) // gen_maps.size)
    for lo in range(0, n, step):
        differs = padded[lo:lo + step, gen_maps] != m[sg.right[lo:lo + step]]
        if differs.any():
            s, rest = divmod(int(differs.argmax()), differs[0].size)
            j, x = divmod(rest, points)
            raise CompositionMismatch(lo + s, sg.generators[j], x)
    action._validated = True


# ------------------------------------------------------- standard action

def standard_action(spectrum: TightSpectrum) -> FiniteAction:
    """The action of the semigroup on its tight spectrum.

    The domain of an idempotent e is the set of tight filters containing
    e.  In general an element s sends a filter to the up-closure of the
    conjugates s e s* of its members; a tight point is the up-set of an
    atom e, and that up-closure is the up-set of the atom s e s*, so s
    sends the point of e, when e lies below s*s, to the point of s e s*.
    The result is validated, and a conjugate that is not a tight point
    would mean the tight spectrum is not invariant, which is impossible,
    so it is flagged as a hard error rather than reported.  All images
    come from one gather of the slab at the points' columns, masked by
    s*s: the action's array.
    """
    sg = spectrum.semigroup
    pts = spectrum.points
    if not pts:
        raise EmptySpectrum("cannot act on an empty spectrum")
    mins = np.array([f.min for f in pts])
    point_of = np.full(sg.size, -1, dtype=np.int32)
    point_of[mins] = np.arange(len(pts))
    # s e for every element s and point of e; s acts on the point of e
    # when e <= s*s, that is (s*s) e = e, and sends it to s e s*
    block = sg.slab[:, [sg.column[f.min] for f in pts]]
    d, r = np.array((sg.d, sg.r))
    defined = block[d] == mins
    image = point_of[r[block]]
    lost = defined & (image < 0)
    if lost.any():
        raise TheoremViolation(
            "tight_spectrum_invariance", True, False,
            f"element {lost.any(axis=1).argmax()} pushes a tight filter "
            "outside the spectrum")
    labels = tuple(f"^{sg.name_of(f.min)}" for f in pts)
    action = FiniteAction(sg, len(pts), np.where(defined, image, -1), labels)
    validate_action(action)
    return action


# ---------------------------------------------------------- fixed points

def fixed_points(action: FiniteAction, s: int) -> frozenset:
    """Points of the domain of s that s leaves in place."""
    m = action.maps[s]
    return frozenset(x for x in action.domain(s) if m[x] == x)


def trivial_fixed_points(action: FiniteAction, s: int) -> frozenset:
    """Union of the domains of the idempotents fixed by s.

    A point is trivially fixed when it sits in the domain of some
    idempotent e with s e = e; the union over the fixed ideal of s is
    exactly that set, and it is always contained in the fixed points.
    Row s of ``action.trivial``, ``below_bits`` times idempotent domains.
    """
    return action._trivial_sets[s]


def is_free(action: FiniteAction) -> bool:
    """Every fixed point of every element is trivial."""
    return np.array_equal(action.array == np.arange(action.points), action.trivial)


def is_topologically_free(action: FiniteAction) -> bool:
    """The interior of each fixed point set consists of trivial fixed
    points.  On a discrete carrier the interior is the set itself, so
    this collapses to containment of the full fixed point set; the test
    suite asserts the collapse makes this agree with :func:`is_free`."""
    return not ((action.array == np.arange(action.points)) & ~action.trivial).any()


# --------------------------------------------------------------- orbits

@dataclass(frozen=True)
class OrbitPartition:
    """Trajectory-equivalence classes, each a frozenset of points,
    ordered by smallest member."""

    classes: tuple

    def class_of(self, x: int) -> frozenset:
        for c in self.classes:
            if x in c:
                return c
        raise NotInDomain(f"point {x} not in any class")


def components(points: int, pairs) -> tuple:
    """Connected components of the graph on 0..points-1 with an edge for
    each (x, y) in `pairs`, as frozensets ordered by smallest member."""
    parent = list(range(points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    buckets = {}
    for x in range(points):
        buckets.setdefault(find(x), set()).add(x)
    return tuple(sorted((frozenset(c) for c in buckets.values()), key=min))


def orbit_partition(action: FiniteAction) -> OrbitPartition:
    """Partition the carrier into trajectory classes.

    Two points are equivalent when some element moves one onto the
    other; the relation is already transitive (compose the movers), so
    the components of the graph of the distinct one-step moves are it.
    """
    points = action.points
    elems, xs = np.nonzero(action.defined)
    sources, targets = np.divmod(np.unique(xs * points + action.array[elems, xs]), points)
    return OrbitPartition(components(points, zip(sources.tolist(), targets.tolist())))


def is_irreducible(action: FiniteAction) -> bool:
    """No invariant subset of the carrier except the empty set and the
    whole carrier.  All subsets are open here, so this is the statement
    that the carrier forms a single trajectory class."""
    return len(orbit_partition(action).classes) <= 1


# --------------------------------------------------- local contractiveness

@dataclass(frozen=True)
class ContractionVerdict:
    """Outcome of a local-contractiveness decision.

    `reason` explains a False value: "CardinalityObstruction" for the
    counting argument on finite carriers, "EmptySpectrum" for the
    degenerate empty carrier.
    """

    value: bool
    reason: str

    def __bool__(self) -> bool:
        return self.value


def is_locally_contracting_action(action: FiniteAction) -> ContractionVerdict:
    """Always False on a finite carrier, with the counting argument as
    the reason.  In general one asks that inside every nonempty open U
    there be an open V and an element s with closure(V) inside the domain
    of s*s and the image of closure(V) a proper subset of V.  Here
    closure(V) = V, and the elements act injectively, so the image of any
    finite V has the same cardinality as V and can never be a proper
    subset.  An empty carrier has no nonempty open subset to witness
    anything and is reported through its own reason tag.
    """
    if action.points == 0:
        return ContractionVerdict(False, "EmptySpectrum")
    return ContractionVerdict(False, "CardinalityObstruction")
