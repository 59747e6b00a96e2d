"""Groupoid of germs of a finite action.

A germ is a class of pairs (element, point) where the element is defined;
two pairs at the same point collapse when some idempotent whose domain
holds the point equalizes the elements on the right.  The idempotents
whose domain holds a point x form a filter with a least member m_x, and
any witness e gives s m_x = s e m_x = t e m_x = t m_x, so the germ of s
at x is determined by the product s m_x.  The quotient is built by
keying every defined pair on that product; the pairwise witness search
is kept in the test suite as the oracle it is checked against.

The quotient is stored as one (|S|, points) int32 array of arrow ids,
and the germ of one pair is one cell of it.

The groupoid of a finite discrete action is itself finite and discrete:
every singleton arrow set is a slice, so interiors and closures of arrow
sets are the sets themselves, and the verdicts below use the sets
directly.
"""

from __future__ import annotations

import numpy as np

from .action import (
    ContractionVerdict,
    FiniteAction,
    components,
    validate_action,
)
from .errors import DomainViolation, TheoremViolation


class GermGroupoid:
    """Finite groupoid of germ classes.

    Attributes:
        action: the acting system the groupoid was built from.
        arrows: canonical representatives (element, point), one per germ
            class, the smallest pair of the class in index order, sorted
            by (point, element).
        class_of: the stored form, ``class_of[s, x]`` the arrow of the
            germ of s at x, -1 where s is undefined.
        source, target: per arrow, carrier points.
        units: frozenset of arrow ids forming the unit space.
        unit_at: per carrier point, the unit arrow over it.
    """

    def __init__(self, action: FiniteAction, arrows, class_of, unit_at):
        self.action = action
        self.semigroup = action.semigroup
        self.arrows = tuple(arrows)
        class_of.flags.writeable = False
        self.class_of = class_of
        self.source = tuple(x for _, x in self.arrows)
        self.target = tuple(action.array[[s for s, _ in self.arrows], list(self.source)].tolist())
        self.unit_at = unit_at
        self.units = frozenset(unit_at.values())

    def __repr__(self):
        return f"GermGroupoid(arrows={len(self.arrows)}, units={len(self.units)})"

    # ------------------------------------------------------------ algebra

    def arrow_of(self, s: int, x: int) -> int:
        """Germ class of the element s at the point x."""
        n, points = self.class_of.shape
        k = int(self.class_of[s, x]) if 0 <= s < n and 0 <= x < points else -1
        if k < 0:
            raise DomainViolation(f"point {x} outside the domain of element {s}")
        return k

    def inverse(self, i: int) -> int:
        """[s,x] inverts to [s*, image of x]."""
        s, x = self.arrows[i]
        return self.arrow_of(self.semigroup.star[s], self.action.apply(s, x))

    def slice_arrows(self, s: int, points) -> frozenset:
        """The germs of one element over a point set; always a bisection."""
        pts = frozenset(points)
        if not pts <= self.action.domain(s):
            raise DomainViolation(f"slice points escape the domain of {s}")
        return frozenset(self.arrow_of(s, x) for x in pts)

    # ----------------------------------------------------------- isotropy

    def isotropy_bundle(self) -> frozenset:
        return frozenset(
            i for i in range(len(self.arrows)) if self.source[i] == self.target[i]
        )

    # ----------------------------------------------------------- verdicts

    def is_essentially_principal(self) -> bool:
        """The interior of the isotropy bundle is the unit space.  The
        groupoid is discrete, so the interior is the bundle itself and
        this coincides with principality; the agreement is asserted by
        the test suite rather than silently assumed."""
        return self.isotropy_bundle() == self.units

    def is_hausdorff(self) -> bool:
        """Units form a closed set, which over a discrete groupoid always
        holds.  The computational content is the slice identity checked
        along the way: for every element, the unit germs inside its full
        slice are exactly its germs over the trivially fixed region.
        Failure of that identity cannot happen for a groupoid of germs
        and is flagged as a hard error.  The germs of s at distinct
        points are distinct, so the identity is one mask equality: unit
        cells against the trivially fixed mask, the lowest failing s
        raising what a scan of its slices would."""
        class_of, defined, trivial = self.class_of, self.action.defined, self.action.trivial
        units = defined & (np.bincount(list(self.units), minlength=len(self.arrows)) > 0)[class_of]
        failing = (units != trivial).any(axis=1)
        if failing.any():
            s = int(failing.argmax())
            if (trivial[s] & ~defined[s]).any():
                raise DomainViolation(f"slice points escape the domain of {s}")
            raise TheoremViolation(
                "slice_unit_identity", sorted(class_of[s, units[s]].tolist()),
                sorted(class_of[s, trivial[s]].tolist()), f"element {s}")
        return True

    def is_minimal(self) -> bool:
        """No invariant open set of units except the trivial two.  All
        unit sets are open here, so this says the arrows connect the unit
        space into a single block."""
        pairs = zip(self.source, self.target)
        return len(components(self.action.points, pairs)) <= 1

    def locally_contracting_verdict(self) -> ContractionVerdict:
        """Always False for a finite groupoid with nonempty unit space: a
        bisection acts injectively on units, so it cannot push a finite
        set inside a proper subset of itself."""
        if self.action.points == 0:
            return ContractionVerdict(False, "EmptySpectrum")
        return ContractionVerdict(False, "CardinalityObstruction")

    # --------------------------------------------------------- validation

    def verify_axioms(self) -> None:
        """Exhaustive groupoid axioms: source/target bookkeeping,
        two-sided units, inverses, and associativity over every
        composable triple.

        A product [s,z][t,x] = [st,x] is defined when the source of the
        first germ is the target of the second.  Only products of arrow
        representatives occur, so they are read off one block of the
        multiplication table, its columns for the representatives taken
        from the right Cayley graph by
        :meth:`~tightgroupoid.semigroup.InverseSemigroup._columns` along
        the instance's spanning tree, ``parent`` and ``letter``; the
        table itself is never filled.  The checks run in the order of the compose-based
        reading kept in the test suite, so the first violation raised is
        the same.
        """
        n = len(self.arrows)
        source, target, unit_at = self.source, self.target, self.unit_at
        arrows, class_of = self.arrows, self.class_of.tolist()
        sg = self.semigroup
        reps = sorted({s for s, _ in arrows})
        block = sg._columns(reps)[:, reps].T.tolist()
        prod = {a: dict(zip(reps, row)) for a, row in zip(reps, block)}

        def compose(i, j):
            if source[i] != target[j]:
                return None
            t, x = arrows[j]
            st = prod[arrows[i][0]][t]
            k = class_of[st][x]
            return self.arrow_of(st, x) if k < 0 else k

        for x, u in unit_at.items():
            if source[u] != x or target[u] != x:
                raise TheoremViolation("unit_source_target", x, (source[u], target[u]), "unit")
        for i in range(n):
            j = self.inverse(i)
            if source[j] != target[i] or target[j] != source[i]:
                raise TheoremViolation("inverse_source_target", i, j, "inverse")
            if compose(i, j) != unit_at[target[i]]:
                raise TheoremViolation("right_inverse_law", i, j, "inverse")
            if compose(j, i) != unit_at[source[i]]:
                raise TheoremViolation("left_inverse_law", i, j, "inverse")
            if compose(i, unit_at[source[i]]) != i:
                raise TheoremViolation("right_unit_law", i, None, "unit")
            if compose(unit_at[target[i]], i) != i:
                raise TheoremViolation("left_unit_law", i, None, "unit")
        by_source = {}
        for i in range(n):
            by_source.setdefault(source[i], []).append(i)
        for j in range(n):
            for i in by_source.get(target[j], ()):
                ij = compose(i, j)
                if ij is None or source[ij] != source[j] or \
                        target[ij] != target[i]:
                    raise TheoremViolation("composition_bookkeeping", i, j, "compose")
                for k in by_source.get(target[i], ()):
                    left = compose(compose(k, i), j)
                    right = compose(k, ij)
                    if left != right:
                        raise TheoremViolation("associativity", (k, i, j), (left, right), "compose")


def build_germ_groupoid(action: FiniteAction) -> GermGroupoid:
    """Quotient the defined (element, point) pairs by germ equivalence.

    Each pair (s, x) is keyed on (x, s m_x) (see the module docstring),
    which holds for any validated action; the products come from one
    gather of the slab, and one ``np.unique`` over the keys finds each
    class and its first, smallest, pair, its representative.  Arrows are
    sorted by (point, element).
    """
    validate_action(action)
    sg = action.semigroup
    n = sg.size
    idem = np.array(sg.idempotent_list())
    # per point x, the column of m_x: the meet of the idempotents whose
    # domain holds x, so the one among them with the fewest below it
    below = (sg.slab[idem] == idem).sum(axis=1)
    least = np.where(action.defined[idem], below[:, None], len(idem) + 1).argmin(axis=0)
    elems, xs = np.nonzero(action.defined)
    codes = xs * n + sg.slab[elems, least[xs]]
    _, first, key_of = np.unique(codes, return_index=True, return_inverse=True)
    reps, rep_points = elems[first], xs[first]
    order = np.argsort(rep_points * n + reps)
    class_of = np.full(action.array.shape, -1, dtype=np.int32)
    class_of[elems, xs] = np.argsort(order)[key_of]
    arrows = zip(reps[order].tolist(), rep_points[order].tolist())
    # the unit over x is the germ of m_x
    units = class_of[idem[least], np.arange(action.points)]
    return GermGroupoid(action, arrows, class_of, dict(enumerate(units.tolist())))
