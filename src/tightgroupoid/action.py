"""Finite inverse semigroup actions by partial injections.

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


class FiniteAction:
    """An action of a finite inverse semigroup on a finite point set.

    Attributes:
        semigroup: the acting semigroup.
        points: carrier size; points are indices 0..points-1.
        maps: per element, an image tuple over the carrier with None
            where the partial injection is undefined.
        edomains: per idempotent, the (open) set where its map is the
            identity.
        point_labels: optional printable names for carrier points.

    The constructor stores what it is given; :func:`validate_action`
    checks the axioms exhaustively.  :func:`trivial_fixed_points` caches
    its set per element on the action.
    """

    def __init__(self, semigroup: InverseSemigroup, points: int, maps,
                 point_labels=None):
        self.semigroup = semigroup
        self.points = points
        self.maps = {s: tuple(m) for s, m in maps.items()}
        self.point_labels = tuple(point_labels) if point_labels else None
        self._domains = {
            s: frozenset(x for x, y in enumerate(m) if y is not None)
            for s, m in self.maps.items()
        }
        self.edomains = {e: self._domains[e] for e in semigroup.idempotents}
        self._trivial = {}
        self._validated = False

    def __repr__(self):
        return f"FiniteAction(points={self.points}, semigroup_size={self.semigroup.size})"

    def domain(self, s: int) -> frozenset:
        return self._domains[s]

    def apply(self, s: int, x: int) -> int:
        y = self.maps[s][x]
        if y is None:
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

    Composites must agree with the product maps on the largest domain
    where they make sense, the map of s* must invert the map of s with
    domains equal to the domains of s*s and ss*, idempotents must act as
    partial identities with zero acting as the empty map, and the
    idempotent domains must cover the carrier.

    Composition is checked for s in S and t in ``semigroup.generators``
    only.  Every t is a product g1...gk of generators, and if
    theta(s g) = theta(s) theta(g) for every s and every generator g, then
    by induction on k, theta(s g1...gk) = theta(s g1...gk-1) theta(gk) =
    theta(s) theta(g1...gk-1) theta(gk) = theta(s) theta(g1...gk).  So the
    cut checks the same condition as all pairs, and a failure still names
    a concrete triple (s, g, x).
    """
    if action._validated:
        return
    sg = action.semigroup
    maps = action.maps
    if set(maps) != set(sg.elements()):
        raise InvalidAction("maps must be indexed by every semigroup element")

    if action._domains[sg.zero]:
        raise InvalidAction("zero must act as the empty map")
    for e in sg.idempotents:
        if any(maps[e][x] != x for x in action.edomains[e]):
            raise InvalidAction(f"idempotent {e} does not act as the identity")

    covered = set()
    for e in sg.idempotents:
        covered |= action.edomains[e]
    if covered != set(range(action.points)):
        raise DomainNotCovering("idempotent domains do not cover the carrier")

    for s in sg.elements():
        m = maps[s]
        seen = {}
        for x, y in enumerate(m):
            if y is None:
                continue
            if y in seen:
                raise InvalidAction(f"element {s} does not act injectively")
            seen[y] = x
        inv = maps[sg.star[s]]
        expected = tuple(seen.get(x) for x in range(action.points))
        if inv != expected:
            raise InverseMismatch(s)
        if action._domains[s] != action.edomains[sg.d[s]]:
            raise InvalidAction(f"domain of {s} differs from the domain of s*s")
        if frozenset(seen) != action.edomains[sg.r[s]]:
            raise InvalidAction(f"range of {s} differs from the domain of ss*")

    for s in sg.elements():
        ms = maps[s]
        for t, st in zip(sg.generators, sg.right[s]):
            mt = maps[t]
            mst = maps[st]
            for x in range(action.points):
                y = mt[x]
                composite = ms[y] if y is not None else None
                if composite != mst[x]:
                    raise CompositionMismatch(s, t, x)
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
    so it is flagged as a hard error rather than reported.
    """
    sg = spectrum.semigroup
    pts = spectrum.points
    if not pts:
        raise EmptySpectrum("cannot act on an empty spectrum")
    index_of = {f.min: i for i, f in enumerate(pts)}
    maps = {}
    for s in sg.elements():
        ss = sg.d[s]
        row = sg.slab[s]
        out = []
        for filt in pts:
            if ss not in filt.members:
                out.append(None)
                continue
            image = index_of.get(sg.r[row[filt.min]])
            if image is None:
                raise TheoremViolation(
                    "tight_spectrum_invariance", True, False,
                    f"element {s} pushes a tight filter outside the spectrum")
            out.append(image)
        maps[s] = tuple(out)
    labels = tuple(f"^{sg.name_of(f.min)}" for f in pts)
    action = FiniteAction(sg, len(pts), maps, labels)
    validate_action(action)
    return action


# ---------------------------------------------------------- fixed points

def fixed_points(action: FiniteAction, s: int) -> frozenset:
    """Points of the domain of s that s leaves in place."""
    m = action.maps[s]
    return frozenset(x for x in action.domain(s) if m[x] == x)


_NO_POINTS = frozenset()      # shared by the elements with no trivially fixed point


def trivial_fixed_points(action: FiniteAction, s: int) -> frozenset:
    """Union of the domains of the idempotents fixed by s.

    A point is trivially fixed when it sits in the domain of some
    idempotent e with s e = e; the union over the fixed ideal of s is
    exactly that set, and it is always contained in the fixed points.
    Cached per element on the action.
    """
    got = action._trivial.get(s)
    if got is None:
        out = set()
        for e in action.semigroup.fixed_idempotents(s).members:
            out |= action.edomains[e]
        got = action._trivial[s] = frozenset(out) if out else _NO_POINTS
    return got


def is_free(action: FiniteAction) -> bool:
    """Every fixed point of every element is trivial."""
    return all(
        fixed_points(action, s) == trivial_fixed_points(action, s)
        for s in action.semigroup.elements()
    )


def is_topologically_free(action: FiniteAction) -> bool:
    """The interior of each fixed point set consists of trivial fixed
    points.  On a discrete carrier the interior is the set itself, so
    this collapses to containment of the full fixed point set; the test
    suite asserts the collapse makes this agree with :func:`is_free`."""
    return all(
        fixed_points(action, s) <= trivial_fixed_points(action, s)
        for s in action.semigroup.elements()
    )


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
    the components of the graph of all one-step moves are exactly it.
    """
    maps = action.maps
    return OrbitPartition(components(action.points, (
        (x, maps[s][x])
        for s in action.semigroup.elements() for x in action.domain(s))))


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
