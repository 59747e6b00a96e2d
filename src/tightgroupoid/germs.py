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
from .semigroup import _block_rows

# `GermGroupoid.verify_axioms` on at most AXIOM_LOOP_ARROWS arrows runs the
# compose-based loop alone: below six arrows the loop costs less than the
# fixed cost of the array passes (25-51 us against 64-68 us an instance
# on a 2-vCPU host).
AXIOM_LOOP_ARROWS = 5


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
        if not 0 <= i < len(self.arrows):
            raise DomainViolation(f"no arrow {i} among {len(self.arrows)}")
        s, x = self.arrows[i]
        return self.arrow_of(self.semigroup.star[s], self.action.apply(s, x))

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
        first germ is the target of the second.  Cell (i, j) of one (n, n)
        table is the germ of s_i s_j at x_j, gathered once from the
        representatives' columns read at their own rows (``_columns``)
        and ``class_of``; a read cell of -1 raises DomainViolation.  Above
        `AXIOM_LOOP_ARROWS` arrows each family of laws is a whole-array
        pass over that table, bordered by a row and a column of -1 that
        stand for every product the loop below does not return: the unit
        and inverse laws of all arrows are one gather at their inverses,
        read as ``inverse`` reads them, and their units, and composition
        bookkeeping and associativity, C[C[k, i], j] == C[k, C[i, j]], run over the
        composable pairs and triples of blocks of j, a j counted as every
        composable pair by `semigroup._block_rows`.  A pass only marks the
        arrows, or the j, where something fails.  The compose-based loop,
        in the order of the reading kept in the test suite, then runs for
        the marked ones alone, or for all of them on a few arrows, so the
        first violation raised is the same.
        """
        n = len(self.arrows)
        src, tgt, unit_at = self.source, self.target, self.unit_at
        elems, xs = np.array(self.arrows, dtype=np.intp).reshape(n, 2).T
        reps = list(dict.fromkeys(elems.tolist()))            # each once, in arrow order
        row_of = dict(zip(reps, range(len(reps))))
        rows = np.array([row_of[s] for s in elems.tolist()], dtype=np.intp)
        st = self.semigroup._columns(reps, reps)[rows[:, None], rows].T   # (i, j): s_i s_j
        table = self.class_of[st, xs]

        def loop(laws_at, products_at):
            """The laws of the arrows `laws_at`, then bookkeeping and
            associativity at the j of `products_at`, product by product."""
            cells = table.tolist()

            def compose(i, j):
                if src[i] != tgt[j]:
                    return None
                k = cells[i][j]
                if k < 0:
                    raise DomainViolation(f"point {xs[j]} outside the domain of element {st[i, j]}")
                return k

            for i in laws_at:
                j = self.inverse(i)
                if src[j] != tgt[i] or tgt[j] != src[i]:
                    raise TheoremViolation("inverse_source_target", i, j, "inverse")
                if compose(i, j) != unit_at[tgt[i]]:
                    raise TheoremViolation("right_inverse_law", i, j, "inverse")
                if compose(j, i) != unit_at[src[i]]:
                    raise TheoremViolation("left_inverse_law", i, j, "inverse")
                if compose(i, unit_at[src[i]]) != i:
                    raise TheoremViolation("right_unit_law", i, None, "unit")
                if compose(unit_at[tgt[i]], i) != i:
                    raise TheoremViolation("left_unit_law", i, None, "unit")
            by_source = {}
            for i in range(n):
                by_source.setdefault(src[i], []).append(i)
            for j in products_at:
                for i in by_source.get(tgt[j], ()):
                    ij = compose(i, j)
                    if ij is None or src[ij] != src[j] or tgt[ij] != tgt[i]:
                        raise TheoremViolation("composition_bookkeeping", i, j, "compose")
                    for k in by_source.get(tgt[i], ()):
                        left = compose(compose(k, i), j)
                        right = compose(k, ij)
                        if left != right:
                            raise TheoremViolation("associativity", (k, i, j), (left, right),
                                                   "compose")

        for x, u in unit_at.items():
            if src[u] != x or tgt[u] != x:
                raise TheoremViolation("unit_source_target", x, (src[u], tgt[u]), "unit")
        if n <= AXIOM_LOOP_ARROWS:
            return loop(range(n), range(n))
        # compose as one gather: row and column n of `product` hold -1,
        # which as an index reads them again, for every product compose
        # does not return, and arrow -1 has no point for source or target
        source, target = np.array((*src, -1)), np.array((*tgt, -1))
        composable = source[:n, None] == target[:n]
        product = np.full((n + 1, n + 1), -1)
        product[:n, :n] = np.where(composable, table, -1)
        # the four laws of every arrow i at its inverse and its two units;
        # an inverse whose source or target is wrong fails an inverse law
        image = self.action.array[elems, xs]
        inv = self.class_of[self.semigroup._index[0][elems], image]
        unit = np.array([unit_at[x] for x in range(self.action.points)])
        ar, usrc, utgt = np.arange(n), unit[source[:n]], unit[target[:n]]
        laws = product[np.array((ar, inv, ar, utgt)), np.array((inv, ar, usrc, ar))]
        broken = (laws != np.array((utgt, usrc, ar, ar))).any(axis=0) | (image < 0)
        if np.count_nonzero(broken):
            loop(np.flatnonzero(broken).tolist(), ())
        # composable pairs (i, j) and triples (k, i, j) over blocks of j, of
        # at most BLOCK_CELLS (k, (i, j)) cells or one j: no j has more triples than pairs
        step = _block_rows(np.count_nonzero(composable))
        for lo in range(0, n, step):
            i, j = np.nonzero(composable[:, lo:lo + step])
            j += lo
            ij = product[i, j]
            bad = (source[ij] != source[j]) | (target[ij] != target[i])
            k, p = np.nonzero(composable[:, i])
            left = product[product[k, i[p]], j[p]]
            bad_triple = (left != product[k, ij[p]]) | (left < 0)
            if np.count_nonzero(bad) or np.count_nonzero(bad_triple):
                marked = np.bincount(np.concatenate((j[bad], j[p[bad_triple]])), minlength=n)
                loop((), np.flatnonzero(marked).tolist())


def build_germ_groupoid(action: FiniteAction) -> GermGroupoid:
    """Quotient the defined (element, point) pairs by germ equivalence.

    Each pair (s, x) is keyed on (x, s m_x) (see the module docstring),
    which holds for any validated action; the products come from one
    gather of the slab; one ``np.minimum.at`` over the points times |S|
    keys finds each class and its first, smallest, pair, its representative,
    and a ``cumsum`` of the keys hit numbers them.  Arrows are sorted by
    (point, element).
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
    codes = xs * n + sg.slab.take(elems * len(idem) + least.take(xs))
    first = np.full(action.points * n, len(codes))     # per key, its first pair
    np.minimum.at(first, codes, np.arange(len(codes)))
    hit = first < len(codes)
    reps, rep_points = elems[first[hit]], xs[first[hit]]
    order = np.argsort(rep_points * n + reps)
    class_of = np.full(action.array.shape, -1, dtype=np.int32)
    class_of[elems, xs] = np.argsort(order)[(np.cumsum(hit) - 1)[codes]]
    arrows = zip(reps[order].tolist(), rep_points[order].tolist())
    # the unit over x is the germ of m_x
    units = class_of[idem[least], np.arange(action.points)]
    return GermGroupoid(action, arrows, class_of, dict(enumerate(units.tolist())))
