"""Brute-force oracles, kept independent of the library code paths they
check: everything here enumerates straight from the definitions, or runs
the general search the library replaces with a finite closed form."""

from __future__ import annotations

import itertools


def powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def views(cells):
    """Per row of an (|S|, points) int array with -1 where undefined (the
    images of an action, or the arrow ids of a germ quotient): the row as
    a tuple with None at -1, and the set of its other points, as two dicts
    keyed by element."""
    rows = {s: tuple(None if y < 0 else y for y in row)
            for s, row in enumerate(cells.tolist())}
    return rows, {s: frozenset(x for x, y in enumerate(row) if y is not None)
                  for s, row in rows.items()}


def class_pairs(g):
    """The germ quotient of g as a dict from each defined pair (s, x) to
    its arrow."""
    return {(s, x): k for s, row in views(g.class_of)[0].items()
            for x, k in enumerate(row) if k is not None}


def brute_filters(sg):
    """All filters by sweeping every subset of the idempotents."""
    idem = sg.idempotent_list()
    assert len(idem) <= 12, "brute filter sweep meant for small semilattices"
    out = set()
    for subset in powerset(idem):
        if not subset or sg.zero in subset:
            continue
        mem = frozenset(subset)
        meet_closed = all(sg.table[a][b] in mem for a in mem for b in mem)
        up_closed = all(
            f in mem
            for e in mem for f in idem
            if sg.table[e][f] == e
        )
        if meet_closed and up_closed:
            out.add(mem)
    return out


def brute_ultrafilters(sg):
    filters = brute_filters(sg)
    return {f for f in filters if not any(f < g for g in filters)}


def scan_validate_filter(sg, f):
    """The filter axioms checked pair by pair: nonempty, zero-free,
    idempotent members, closed under meets and upward, with `f.min`
    generating them."""
    from tightgroupoid import errors, filter_from_min

    if not f.members or sg.zero in f.members:
        raise errors.ZeroGeneratesNoFilter("filter members must be nonempty and zero-free")
    for e in f.members:
        if e not in sg.idempotents:
            raise errors.NotIdempotent(e)
    for a in f.members:
        for b in f.members:
            if sg.meet(a, b) not in f.members:
                raise errors.NotAnIdeal("filter not closed under meets")
    for a in f.members:
        for b in sg.idempotent_list():
            if sg.meet(a, b) == a and b not in f.members:
                raise errors.NotAnIdeal("filter not upward closed")
    expected = filter_from_min(sg, f.min)
    if expected.members != f.members:
        raise errors.NotAnIdeal("filter members disagree with the up-set of min")


def scan_validate_character(sg, c):
    """The character axioms, multiplicativity checked at every pair
    (e, f) of idempotents."""
    from tightgroupoid import errors

    if not c.ones:
        raise errors.NotInDomain("the zero map is not a character")
    if sg.zero in c.ones:
        raise errors.NotInDomain("a character must vanish at zero")
    for e in c.ones:
        if e not in sg.idempotents:
            raise errors.NotIdempotent(e)
    idem = sg.idempotent_list()
    for e in idem:
        for f, ef in zip(idem, sg.slab[e].tolist()):
            lhs = 1 if ef in c.ones else 0
            if lhs != c(e) * c(f):
                raise errors.NotInDomain(f"character not multiplicative at ({e},{f})")


def scan_filter_of(sg, c):
    """The support of a character, validated by both pairwise scans."""
    from tightgroupoid import Filter

    scan_validate_character(sg, c)
    m = None
    for e in c.ones:
        m = e if m is None else sg.meet(m, e)
    f = Filter(m, frozenset(c.ones))
    scan_validate_filter(sg, f)
    return f


def scan_is_ultrafilter(sg, f):
    """No filter properly contains `f`, by a scan over every filter."""
    from tightgroupoid import all_filters

    for g in all_filters(sg):
        if f.members < g.members:
            return False
    return True


def downclose(sg, seed):
    """Smallest ideal containing the given idempotents."""
    members = {sg.zero}
    for e in seed:
        for f in sg.idempotent_list():
            members.add(sg.table[e][f])
    return members


def is_outer_cover_bruteforce(sg, cover, members):
    return all(
        any(sg.table[f][c] != sg.zero for c in cover)
        for f in members if f != sg.zero
    )


def literal_tight_filters(sg):
    """Tight filters by the full quantifier sweep over (X, Y, Z).

    For every filter, every pair of idempotent subsets X and Y, and
    every finite cover Z of the ideal of idempotents below all of X and
    orthogonal to all of Y: when X sits inside the filter and Y avoids
    it, Z must meet the filter.  Bitmask positions index the idempotent
    list so subset sweeps stay cheap.
    """
    idem = sg.idempotent_list()
    k = len(idem)
    assert k <= 8, "literal sweep meant for at most 8 idempotents"
    pos = {e: i for i, e in enumerate(idem)}
    zero_bit = 1 << pos[sg.zero]
    full = (1 << k) - 1

    meets = []
    below = []
    for e in idem:
        meets.append(sum(1 << pos[f] for f in idem if sg.table[e][f] != sg.zero))
        below.append(sum(1 << pos[f] for f in idem if sg.table[e][f] == f))

    def submasks(m):
        sub = m
        while True:
            yield sub
            if sub == 0:
                return
            sub = (sub - 1) & m

    def constraint_mask(xmask, ymask):
        out = full
        for i in range(k):
            if xmask >> i & 1:
                out &= below[i]
            if ymask >> i & 1:
                out &= ~meets[i] & full | zero_bit
        return out

    from tightgroupoid import all_filters

    tight = set()
    for filt in all_filters(sg):
        xi = sum(1 << pos[e] for e in filt.members)
        ok = True
        for xmask in submasks(xi):
            if not ok:
                break
            for ymask in submasks(full & ~xi & ~zero_bit):
                ideal = constraint_mask(xmask, ymask)
                nonzero = ideal & ~zero_bit
                for z in submasks(ideal):
                    if z & xi:
                        continue
                    covers = True
                    rest = nonzero
                    while rest:
                        i = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        if not meets[i] & z:
                            covers = False
                            break
                    if covers:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            tight.add(filt.members)
    return tight


def direct_trivial_fixed_points(action, s):
    """Per-point search for a fixing idempotent whose domain holds the
    point, without going through the fixed-ideal union."""
    sg = action.semigroup
    domains = views(action.array)[1]
    out = set()
    for x in range(action.points):
        for e in sg.idempotent_list():
            if sg.table[s][e] == e and x in domains[e]:
                out.add(x)
                break
    return frozenset(out)


def image_filter_via_characters(sg, s, filt):
    """Push a filter through the dual character action and come back."""
    from tightgroupoid import Character

    scan_validate_filter(sg, filt)
    phi = Character(filt.members)
    star = sg.star[s]
    ones = frozenset(
        e for e in sg.idempotent_list()
        if sg.table[sg.table[star][e]][s] in phi.ones
    )
    return scan_filter_of(sg, Character(ones))


def orbit_classes_by_bfs(action):
    """Reachability closure per point, ignoring the union-find path."""
    maps = views(action.array)[0]
    classes = []
    seen = set()
    for x0 in range(action.points):
        if x0 in seen:
            continue
        block = {x0}
        frontier = [x0]
        while frontier:
            x = frontier.pop()
            for s in action.semigroup.elements():
                y = maps[s][x]
                if y is not None and y not in block:
                    block.add(y)
                    frontier.append(y)
        seen |= block
        classes.append(frozenset(block))
    return set(classes)


# ------------------------------- definitions the package does not need

def act_on_character(sg, s, c):
    """The dual action on characters: the result sends e to c(s* e s).

    Defined when c(s*s) = 1; the result is never the zero map because it
    takes value 1 at ss*.
    """
    from tightgroupoid.errors import NotInDomain
    from tightgroupoid.spectrum import Character

    scan_validate_character(sg, c)
    star = sg.star[s]
    if sg.table[star][s] not in c.ones:
        raise NotInDomain("character vanishes at s*s")
    ones = frozenset(
        e for e in sg.idempotent_list()
        if sg.table[sg.table[star][e]][s] in c.ones
    )
    return Character(ones)


def germ_equal(sg, domains, s, t, x):
    """Whether s and t have the same germ at x: some idempotent e with x
    in its domain, ``domains[e]``, satisfies s e = t e."""
    table = sg.table
    return any(
        table[s][e] == table[t][e]
        for e in sg.idempotent_list() if x in domains[e]
    )


def isotropy_group(g, x):
    """The arrows of the groupoid g that start and end at the unit x."""
    return frozenset(i for i in g.isotropy_bundle() if g.source[i] == x)


def is_principal(g):
    """The isotropy bundle of the groupoid g is exactly its unit space."""
    return g.isotropy_bundle() == g.units


def ess_principal_and_hausdorff_criterion(sg):
    """Conjunction of the finite-cover condition and the fixed-cover
    condition; matches the groupoid being both Hausdorff and essentially
    principal."""
    from tightgroupoid.criteria import (
        CriterionResult,
        hausdorff_criterion,
        top_free_criterion,
    )

    h = hausdorff_criterion(sg)
    t = top_free_criterion(sg)
    return CriterionResult(h.value and t.value,
                           witness={"hausdorff": h.witness, "top_free": t.witness})


# ------------------------------------------------- general routes (search)

def _default_apart_cap(sg):
    # no cap for small semilattices; depth 8 guards pathological inputs
    return None if len(sg.idempotents) <= 20 else 8


def search_tightness_obstruction(sg, f, max_apart=None):
    """Search for a witness that `f` is not tight.

    A filter fails tightness exactly when some constraint ideal I,
    built from a part of the filter and a set of idempotents outside it,
    is covered by its own nonzero members lying outside the filter.  Two
    reductions shrink the search without losing witnesses:

    * the "below" side collapses to a single idempotent of the filter
      (or nothing), because the constraint ideal only depends on the
      meet of that side and filters are meet-closed;
    * among covers avoiding the filter it suffices to test the largest
      candidate, all nonzero members of I outside the filter, since any
      cover stays a cover after adding more elements of I.

    The "apart" side is explored as a depth-first walk over the distinct
    constraint ideals it can produce, one representative per distinct
    orthogonal-complement ideal, which visits the same ideals the full
    subset sweep would (adding an element that does not shrink the ideal
    never changes any outcome downstream).  `max_apart` caps the number
    of "apart" constraints; None picks a default from the semilattice
    size.

    Returns None when tight, else a triple (below, apart, cover).
    """
    if max_apart is None:
        max_apart = _default_apart_cap(sg)
    zero = sg.zero
    outside = [y for y in sg.idempotent_list() if y != zero and y not in f.members]
    # one representative per distinct orthogonal-complement ideal
    perps = {}
    for y in outside:
        key = sg.ideal_perp(sg.principal_ideal(y)).members
        perps.setdefault(key, y)
    constraints = sorted(perps.items(), key=lambda kv: kv[1])

    def covered_by_outsiders(ideal_members):
        cover = [z for z in ideal_members if z != zero and z not in f.members]
        for g in ideal_members:
            if g == zero or g not in f.members:
                continue
            row = sg.table[g]
            if not any(row[z] != zero for z in cover):
                return None
        return sorted(cover)

    seen = set()

    def walk(ideal_members, apart, budget):
        if ideal_members in seen:
            return None
        seen.add(ideal_members)
        cover = covered_by_outsiders(ideal_members)
        if cover is not None:
            return apart, cover
        if budget == 0:
            return None
        for perp, y in constraints:
            shrunk = ideal_members & perp
            if shrunk == ideal_members:
                continue
            hit = walk(shrunk, apart + (y,), budget - 1)
            if hit is not None:
                return hit
        return None

    budget = max_apart if max_apart is not None else len(constraints)
    full = frozenset(sg.idempotent_list())
    for below in (None, *sorted(f.members)):
        seen.clear()
        base = full if below is None else frozenset(sg.below(below))
        hit = walk(base, (), budget)
        if hit is not None:
            apart, cover = hit
            below_part = () if below is None else (below,)
            return below_part, apart, tuple(cover)
    return None


def search_tight_filters(sg):
    """Minima of the filters the tightness search finds no witness for."""
    from tightgroupoid import all_filters

    return [f.min for f in all_filters(sg)
            if search_tightness_obstruction(sg, f) is None]


def conjugate_filter_maps(spectrum):
    """The standard action's maps by the general route: s sends a filter
    to the up-closure of the conjugates s e s* of its members, located
    among the tight points."""
    from tightgroupoid import Filter

    sg = spectrum.semigroup
    pts = spectrum.points
    idem_list = sg.idempotent_list()
    table = sg.table
    maps = {}
    for s in sg.elements():
        star = sg.star[s]
        ss = table[star][s]
        out = []
        for filt in pts:
            if ss not in filt.members:
                out.append(None)
                continue
            conj = {table[table[s][e]][star] for e in filt.members}
            members = frozenset(
                f for f in idem_list
                if any(table[b][f] == b for b in conj)
            )
            mn = None
            for f in members:
                mn = f if mn is None else table[mn][f]
            out.append(spectrum.points.index(Filter(mn, members)))
        maps[s] = tuple(out)
    return maps


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _idempotents_at(sg, domains, x):
    """Idempotents whose domain contains x, smallest one first.

    The set is a filter of the semilattice (domains intersect along
    meets and grow along the order), so it has a minimum; trying the
    minimum first lets the witness search exit immediately in the
    common case.
    """
    es = [e for e in sg.idempotent_list() if x in domains[e]]
    mn = es[0]
    for e in es[1:]:
        mn = sg.table[mn][e]
    return [mn] + [e for e in es if e != mn]


def union_find_germs(action):
    """Germ classes by the general route: every pair of elements defined
    at a point is compared over all witnesses whose domain holds the
    point, transitivity is delegated to a union-find, representatives
    are the smallest pairs of their class, and a class is a unit when
    its representative has the germ of some idempotent at its point.

    Returns (arrows, class_of, units) laid out as GermGroupoid has them.
    """
    sg = action.semigroup
    domains = views(action.array)[1]
    omega = [
        (s, x) for s in sg.elements() for x in sorted(domains[s])
    ]
    index = {pair: i for i, pair in enumerate(omega)}
    uf = _UnionFind(len(omega))
    table = sg.table
    by_point = {}
    for s, x in omega:
        by_point.setdefault(x, []).append(s)
    for x, elems in by_point.items():
        witnesses = _idempotents_at(sg, domains, x)
        for a in range(len(elems)):
            s = elems[a]
            i = index[(s, x)]
            for b in range(a + 1, len(elems)):
                t = elems[b]
                j = index[(t, x)]
                if uf.find(i) == uf.find(j):
                    continue
                if any(table[s][e] == table[t][e] for e in witnesses):
                    uf.union(i, j)

    reps = {}
    for pair in omega:
        root = uf.find(index[pair])
        if root not in reps or pair < reps[root]:
            reps[root] = pair
    ordered_roots = sorted(reps, key=lambda r: (reps[r][1], reps[r][0]))
    arrow_of_root = {root: i for i, root in enumerate(ordered_roots)}
    class_of = {
        pair: arrow_of_root[uf.find(index[pair])] for pair in omega
    }
    arrows = [reps[root] for root in ordered_roots]
    units = frozenset(
        i for i, (s, x) in enumerate(arrows)
        if any(germ_equal(sg, domains, s, e, x) for e in _idempotents_at(sg, domains, x))
    )
    return arrows, class_of, units


def green_flags(sg):
    """Flags (b) essentially principal and (c) minimal from Green's
    relations at the atoms, sharing no code with the criteria or the germ
    groupoid.

    On a finite carrier the points are the atoms.  The isotropy at the
    point of an atom e is its H-class, the s with s*s = ss* = e, and the
    orbit of that point is the atoms D-related to e, where e D f when
    some s has s*s = e and ss* = f.  So (b) holds when no atom has an
    H-class larger than {e}, and (c) when all atoms lie in one D-class.
    One pass over S gives both: a union-find over the pairs (s*s, ss*),
    and the s != s*s with s*s = ss*.  Atoms are read off the products
    e f, which are 0 or e for every nonzero idempotent f.
    """
    zero = sg.zero
    nonzero = [e for e in sg.idempotent_list() if e != zero]
    atoms = [e for e in nonzero
             if all(sg.slab[e, sg.column[f]] in (zero, e) for f in nonzero)]
    uf = _UnionFind(sg.size)
    nontrivial = set()
    for s in sg.elements():
        e, f = sg.d[s], sg.r[s]
        uf.union(e, f)
        if s != e and e == f:
            nontrivial.add(e)
    return (not any(e in nontrivial for e in atoms),
            len({uf.find(e) for e in atoms}) == 1)


# --------------------------- per-element loops behind the array passes

def dict_slab(sg):
    """The slab in its former layout: per element s, a dict from every
    idempotent e, in index order, to s e."""
    idem = sg.idempotent_list()
    return tuple(dict(zip(idem, row)) for row in sg.slab.tolist())


# ------------------------------- the idempotent semilattice, cell by cell
#
# The ideal, fixed ideal and cover reads of ``InverseSemigroup`` as scans
# of the slab's rows as dicts, the meet table at the idempotents: `slab`
# is :func:`dict_slab` of `sg`, and every result is in the order the
# library gives it.

def first_uncovered(sg, slab, cover, members):
    """The first nonzero idempotent of `members`, in their order, that
    meets no element of `cover`; None when there is none."""
    zero = sg.zero
    for f in members:
        if f == zero:
            continue
        row = slab[f]
        for c in cover:
            if row[c] != zero:
                break
        else:
            return f
    return None


def canonical_cover(sg, slab, members):
    """The maximal nonzero members of an ideal, by testing every pair."""
    nz = [f for f in sorted(members) if f != sg.zero]
    maximal = []
    for f in nz:
        row = slab[f]
        for g in nz:
            if row[g] == f and g != f:
                break
        else:
            maximal.append(f)
    return frozenset(maximal)


def ideal_perp(sg, slab, members):
    """Idempotents orthogonal to every member of an ideal."""
    zero = sg.zero
    out = []
    for f in sg.idempotent_list():
        row = slab[f]
        for e in members:
            if row[e] != zero:
                break
        else:
            out.append(f)
    return frozenset(out)


def constraint_ideal(sg, slab, below, apart):
    """Idempotents below everything in `below` and orthogonal to
    everything in `apart`."""
    out = set(sg.idempotent_list())
    for x in below:
        row = slab[x]
        out = {f for f in out if row[f] == f}
    for y in apart:
        row = slab[y]
        out = {f for f in out if row[f] == sg.zero}
    return frozenset(out)


def fixed_idempotents(sg, slab, s):
    """The idempotents e with s e = e, by scanning the row of s."""
    return frozenset(e for e, se in slab[s].items() if se == e)


def is_e_star_unitary(sg, slab):
    """Whether every non-idempotent fixes zero alone."""
    return all(fixed_idempotents(sg, slab, s) == {sg.zero}
               for s in sg.elements() if s not in sg.idempotents)


def ideal_escape(sg, slab, members):
    """The message ``InverseSemigroup.ideal`` raises for a set of
    idempotents holding zero that is not downward closed, or None when it
    is: the first member in set order, and its first idempotent f in index
    order, whose product escapes the set."""
    for e in members:
        for f, ef in slab[e].items():
            if ef not in members:
                return f"not downward closed: {e}*{f} escapes"
    return None


def member_loop_ideal(sg, members):
    """The members of ``sg.ideal(members)``, validated member by member:
    NotAnIdeal for a set without zero, for its first member in set order
    that is not idempotent, or for its first member e in set order with an
    idempotent f, in index order, whose product e f escapes the set."""
    from tightgroupoid import errors

    mem = frozenset(members)
    if sg.zero not in mem:
        raise errors.NotAnIdeal("an ideal must contain zero")
    for e in mem:
        if e not in sg.idempotents:
            raise errors.NotAnIdeal(f"member {e} is not idempotent")
    for e in mem:
        for f, ef in zip(sg.idempotent_list(), sg.slab[e].tolist()):
            if ef not in mem:
                raise errors.NotAnIdeal(f"not downward closed: {e}*{f} escapes")
    return mem


def per_pair_weakly_fixed(sg, slab, e, s):
    """Whether e (below s*s) is weakly fixed under s, by the per-pair loop
    over the nonzero f below e: each must meet its conjugate s f s*.
    `slab` is :func:`dict_slab` of `sg`."""
    from tightgroupoid.errors import PreconditionViolated

    if e not in sg.idempotents or slab[e][sg.d[s]] != e:
        raise PreconditionViolated(f"idempotent {e} does not lie below s*s for s={s}")
    row, r = slab[s], sg.r
    for f, ef in slab[e].items():
        if ef != f or f == sg.zero:
            continue
        if slab[r[row[f]]][f] == sg.zero:
            return False
    return True


def per_pair_top_free_criterion(sg, weakly_fixed):
    """``top_free_criterion`` walking the pairs (s, e), s in index order
    and e over the idempotents below s*s in index order, and testing each
    nonzero e with ``weakly_fixed(sg, e, s)``; the cover decisions are
    :func:`count_decide_cover`'s."""
    from tightgroupoid import criteria

    zero = sg.zero
    slab = dict_slab(sg)
    failures, covers, memo = [], {}, {}
    for s in sg.elements():
        fixed = fixed_idempotents(sg, slab, s)
        for e in sg.below(sg.d[s]):
            if e == zero or not weakly_fixed(sg, e, s):
                continue
            below = sg.below(e)
            cands = tuple(c for c in below if c != zero and c in fixed)
            got = memo.get((cands, e))
            if got is None:
                got = memo[cands, e] = count_decide_cover(sg, cands, below)
            uncovered, small = got
            if uncovered is None:
                covers[(s, e)] = small
            else:
                failures.append({"s": s, "e": e, "uncovered": uncovered})
    if failures:
        return criteria.CriterionResult(False, witness={"failures": failures})
    return criteria.CriterionResult(True, witness={"fixed_covers": covers})


def conjugator_scan(sg):
    """The conjugation relation of the idempotents, cell by cell: one row
    per idempotent f and in it one cell per idempotent c, both in index
    order, holding the first s, scanning s in index order, with
    s f s* = c, or |S| where there is none."""
    slab, r = dict_slab(sg), sg.r
    idem = sg.idempotent_list()
    rows = []
    for f in idem:
        first = {}
        for s in sg.elements():
            first.setdefault(r[slab[s][f]], s)
        rows.append([first.get(c, sg.size) for c in idem])
    return rows


def dict_standard_action(spectrum):
    """The maps of the standard action, point by point: s sends the point
    of e, when e lies below s*s, to the point of s e s*; a conjugate that
    is no point raises as the library does."""
    from tightgroupoid.errors import TheoremViolation

    sg = spectrum.semigroup
    slab = dict_slab(sg)
    index_of = {f.min: i for i, f in enumerate(spectrum.points)}
    maps = {}
    for s in sg.elements():
        ss = sg.d[s]
        row = slab[s]
        out = []
        for filt in spectrum.points:
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
    return maps


def per_element_validate(sg, points, maps):
    """The axioms of ``validate_action`` element by element on a dict of
    maps (``views(action.array)[0]`` for a built action), raising the
    same exception first: the entries of each map, zero and idempotents,
    covering, then per element injectivity, inverse, domain and range,
    then composition with each generator at each point."""
    from tightgroupoid.errors import (
        CompositionMismatch,
        DomainNotCovering,
        InvalidAction,
        InverseMismatch,
    )

    if set(maps) != set(sg.elements()):
        raise InvalidAction("maps must be indexed by every semigroup element")
    for s in sg.elements():
        if len(maps[s]) != points or any(
                y is not None and (type(y) is not int or not 0 <= y < points)
                for y in maps[s]):
            raise InvalidAction(f"map of element {s} must have {points} "
                                f"entries, each None or an int in range({points})")
    domains = {s: frozenset(x for x, y in enumerate(m) if y is not None)
               for s, m in maps.items()}
    if domains[sg.zero]:
        raise InvalidAction("zero must act as the empty map")
    for e in sg.idempotent_list():
        if any(maps[e][x] != x for x in domains[e]):
            raise InvalidAction(f"idempotent {e} does not act as the identity")
    covered = set()
    for e in sg.idempotents:
        covered |= domains[e]
    if covered != set(range(points)):
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
        expected = tuple(seen.get(x) for x in range(points))
        if inv != expected:
            raise InverseMismatch(s)
        if domains[s] != domains[sg.d[s]]:
            raise InvalidAction(f"domain of {s} differs from the domain of s*s")
        if frozenset(seen) != domains[sg.r[s]]:
            raise InvalidAction(f"range of {s} differs from the domain of ss*")
    for s in sg.elements():
        ms = maps[s]
        for t, st in zip(sg.generators, sg.right[s].tolist()):
            mt = maps[t]
            mst = maps[st]
            for x in range(points):
                y = mt[x]
                composite = ms[y] if y is not None else None
                if composite != mst[x]:
                    raise CompositionMismatch(s, t, x)


def union_trivial_fixed_points(sg, domains, s):
    """The trivial fixed points of s as a set: the union of the domains,
    ``domains[e]``, of the idempotents e in its row of ``below_bits``."""
    out = set()
    for e in sg.members_of(sg.below_bits[s]):
        out |= domains[e]
    return frozenset(out)


def set_freeness(action):
    """Freeness and topological freeness element by element: the fixed
    points of every element equal to, and inside, its trivial ones."""
    sg = action.semigroup
    maps, domains = views(action.array)
    pairs = [(frozenset(x for x in domains[s] if maps[s][x] == x),
              union_trivial_fixed_points(sg, domains, s)) for s in sg.elements()]
    return all(f == t for f, t in pairs), all(f <= t for f, t in pairs)


def pair_orbit_partition(action):
    """Trajectory classes over every one-step move (x, s x) of every
    element, repeats included."""
    from tightgroupoid.action import OrbitPartition, components

    maps, domains = views(action.array)
    return OrbitPartition(components(action.points, (
        (x, maps[s][x])
        for s in action.semigroup.elements() for x in domains[s])))


def dict_germ_quotient(action):
    """The germ quotient pair by pair in dicts: the least idempotent m_x
    of each point as the fold of ``meet`` over the idempotents whose
    domain holds x, each defined pair (s, x) keyed on (x, s m_x), the
    first s of each key its representative.  Returns (arrows, class_of,
    unit_at) laid out as GermGroupoid has them, class_of a dict from each
    defined pair to its arrow."""
    sg = action.semigroup
    domains = views(action.array)[1]
    least = [None] * action.points
    for e in sg.idempotent_list():
        for x in domains[e]:
            m = least[x]
            least[x] = e if m is None else sg.meet(m, e)
    products = sg.slab[:, [sg.column[m] for m in least]].tolist()
    key_of = {
        (s, x): (x, row[x])
        for s, row in enumerate(products) for x in domains[s]
    }
    first = {}
    for (s, _), key in key_of.items():
        first.setdefault(key, s)
    keys = sorted(first, key=lambda key: (key[0], first[key]))
    arrow_of_key = {key: i for i, key in enumerate(keys)}
    class_of = {pair: arrow_of_key[key] for pair, key in key_of.items()}
    arrows = [(first[key], key[0]) for key in keys]
    unit_at = {x: class_of[(m, x)] for x, m in enumerate(least)}
    return arrows, class_of, unit_at


def slice_arrows(g, s, points):
    """The germs of the element s over a point set; always a bisection."""
    from tightgroupoid.errors import DomainViolation

    pts = frozenset(points)
    if not pts <= g.action.domain(s):
        raise DomainViolation(f"slice points escape the domain of {s}")
    return frozenset(g.arrow_of(s, x) for x in pts)


def frozenset_is_hausdorff(g):
    """The slice identity element by element on frozensets of arrows: the
    unit germs in the full slice of s are its germs over the trivially
    fixed region, else the same violation ``is_hausdorff`` raises."""
    from tightgroupoid.errors import TheoremViolation

    sg = g.semigroup
    domains = views(g.action.array)[1]
    for s in sg.elements():
        full = slice_arrows(g, s, domains[s])
        lhs = full & g.units
        rhs = slice_arrows(g, s, union_trivial_fixed_points(sg, domains, s))
        if lhs != rhs:
            raise TheoremViolation(
                "slice_unit_identity", sorted(lhs), sorted(rhs), f"element {s}")
    return True


def count_decide_cover(sg, candidates, members):
    """The cover decision of the criteria by the cell by cell
    :func:`first_uncovered` and a greedy removal pass that counts, per
    member, the chosen candidates meeting it: a stand-in for the
    library's bit-mask version."""
    table = dict_slab(sg)
    uncovered = first_uncovered(sg, table, candidates, members)
    if uncovered is not None:
        return uncovered, None
    zero = sg.zero
    live = [f for f in members if f != zero]
    met = {c: [f for f in live if table[f][c] != zero] for c in candidates}
    count = dict.fromkeys(live, 0)
    for fs in met.values():
        for f in fs:
            count[f] += 1
    kept = []
    for c in sorted(candidates):
        if all(count[f] > 1 for f in met[c]):
            for f in met[c]:
                count[f] -= 1
        else:
            kept.append(c)
    return None, tuple(kept)


def pairwise_minimal_criterion(sg):
    """The minimal criterion deciding each e against each distinct
    conjugate set by :func:`count_decide_cover`, the trimmed cover with
    it, over :func:`conjugator_scan`: the library turns each conjugate
    set into bits once and trims covers only when no pair fails."""
    from tightgroupoid.criteria import CriterionResult

    idem, zero = sg.idempotent_list(), sg.zero
    conjugators = {f: {c: s for c, s in zip(idem, row) if c != zero and s < sg.size}
                   for f, row in zip(idem, conjugator_scan(sg))}
    nz = sg.nonzero_idempotents()
    failures, witnesses = [], {}
    for e in nz:
        below = sg.below(e)
        decided = {}
        for f in nz:
            cands = frozenset(conjugators[f])
            if cands not in decided:
                decided[cands] = count_decide_cover(sg, cands, below)
            uncovered, small = decided[cands]
            if uncovered is not None:
                failures.append({"e": e, "f": f, "uncovered": uncovered})
            else:
                witnesses[(e, f)] = tuple((c, conjugators[f][c]) for c in small)
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    return CriterionResult(True, witness={"conjugate_covers": witnesses})


def per_element_identities(analysis, name="S", seed=0):
    """The identities of ``verify_instance`` after its ``analyze``, element
    by element and pair by pair over the map tuples and domain sets that
    :func:`views` builds from the action's array, raising the same
    TheoremViolation first; returns the dict naming every identity run."""
    import random

    from tightgroupoid import action as action_mod
    from tightgroupoid import criteria, spectrum
    from tightgroupoid.errors import TheoremViolation
    from tightgroupoid.semigroup import Ideal

    sg, act, gpd, spec = (analysis.semigroup, analysis.action, analysis.groupoid,
                          analysis.spectrum)
    maps, domains = views(act.array)
    slab, r = sg.slab, sg.r
    zero = sg.zero
    checks = {}

    def union(members):
        out = set()
        for f in members:
            out |= domains[f]
        return frozenset(out)

    tight = {f.min for f in spec.points}
    ultra = {f.min for f in spectrum.ultrafilters(sg)}
    criteria._identity("tight_equals_ultra", tight, ultra, name)
    checks["tight_equals_ultra"] = True

    for s in sg.elements():
        m = maps[s]
        for e in sg.below(sg.d[s]):
            if e == zero:
                continue
            lhs = criteria.weakly_fixed(sg, e, s)
            rhs = all(m[x] == x for x in domains[e])
            if lhs != rhs:
                raise TheoremViolation("weakly_fixed_vs_fixed_points", lhs, rhs,
                                       f"{name} s={s} e={e}")
    checks["weakly_fixed_vs_fixed_points"] = True

    rng = random.Random(seed)
    idem = sg.idempotent_list()
    ideals = [sg.principal_ideal(e) for e in idem]
    fixed = sorted(map(sg.members_of, set(sg.below_bits)))
    ideals += [Ideal(frozenset(mem)) for mem in fixed]
    ideals += [sg.ideal_perp(sg.principal_ideal(e)) for e in idem]
    for _ in range(3):
        seedset = rng.sample(idem, k=min(len(idem), 3))
        closed = {zero}
        for e in seedset:
            closed.update(sg.below(e))
        ideals.append(sg.ideal(closed))
    dedup = {ideal.members: ideal for ideal in ideals}
    all_nonzero = frozenset(sg.nonzero_idempotents())
    for ideal in dedup.values():
        members = ideal.members
        canonical = sg.canonical_cover(ideal)
        candidates = [canonical, frozenset(), all_nonzero]
        cc = sorted(canonical)
        if cc:
            candidates.append(frozenset(cc[1:]))
        for _ in range(2):
            candidates.append(frozenset(rng.sample(idem, k=min(len(idem), 2))))
        ideal_union = union(members)
        for cov in candidates:
            lhs = sg.is_outer_cover(cov, ideal)
            cov_union = union(cov)
            rhs = ideal_union <= cov_union
            if lhs != rhs:
                raise TheoremViolation("outer_cover_vs_domain_union", lhs, rhs,
                                       f"{name} J={sorted(members)} C={sorted(cov)}")
            if cov <= members:
                # a cover inside J reaches below every atom of J
                lhs = all(any(a in sg.below(c) for c in cov)
                          for a in members if len(sg.below(a)) == 2)
                rhs = ideal_union == cov_union
                if lhs != rhs:
                    raise TheoremViolation("cover_vs_domain_equality", lhs, rhs,
                                           f"{name} J={sorted(members)} C={sorted(cov)}")
    checks["outer_cover_vs_domain_union"] = True
    checks["cover_vs_domain_equality"] = True
    checks["slice_unit_identity"] = True

    for s in sg.elements():
        m = maps[s]
        for f, sf in zip(idem, slab[s].tolist()):
            img = frozenset(m[x] for x in domains[f] & domains[s])
            conj_dom = domains[r[sf]]
            if img != conj_dom:
                raise TheoremViolation("conjugated_domains", img, conj_dom,
                                       f"{name} s={s} f={f}")
    checks["conjugated_domains"] = True

    in_ultra = [p.min in ultra for p in spec.points]
    for s in sg.elements():
        m = maps[s]
        for x in sorted(domains[s]):
            image = r[int(slab[s, sg.column[spec.points[x].min]])]   # s min(x) s*
            if image not in ultra or image != spec.points[m[x]].min:
                raise TheoremViolation("ultrafilter_preserved", True, False,
                                       f"{name} s={s} x={x}")
    checks["ultrafilter_preserved"] = True

    cond_iii = True
    for s in sg.elements():
        tf = action_mod.trivial_fixed_points(act, s)
        fp = frozenset(x for x in domains[s] if maps[s][x] == x)
        if not tf <= fp:
            raise TheoremViolation("trivial_fixed_subset_fixed", False, True,
                                   f"{name} s={s}")
        if cond_iii:
            cond_iii = all(x in tf for x in fp if in_ultra[x])
    checks["trivial_fixed_subset_fixed"] = True

    cond_i = action_mod.is_topologically_free(act)
    cond_ii = analysis.report.essentially_principal.criterion
    criteria._identity("topfree_action_vs_criterion", cond_i, cond_ii, name)
    criteria._identity("topfree_criterion_vs_ultra_condition", cond_ii, cond_iii, name)
    checks["topfree_three_way"] = True

    criteria._identity("free_vs_topologically_free", action_mod.is_free(act),
                       cond_i, name)
    checks["free_vs_topologically_free"] = True

    if sg.is_e_star_unitary():
        criteria._identity("estar_implies_hausdorff",
                           analysis.report.hausdorff.criterion, True, name)
        for s in sg.elements():
            if s in sg.idempotents:
                continue
            tf = action_mod.trivial_fixed_points(act, s)
            if tf:
                raise TheoremViolation("estar_trivial_fixed_empty", tf,
                                       frozenset(), f"{name} s={s}")
    checks["estar_implications"] = True

    nonzero = ~(1 << sg.column[zero])
    for s, fixed in enumerate(sg.below_bits):
        for e in sg.members_of(fixed & sg.below_bits[sg.d[s]] & nonzero):
            lhs = criteria.weakly_fixed(sg, e, s)
            if not lhs:
                raise TheoremViolation("fixed_implies_weakly_fixed", lhs,
                                       True, f"{name} s={s} e={e}")
    checks["fixed_implies_weakly_fixed"] = True

    criteria.easier_loc_contr_criterion(sg)
    checks["easier_implies_main"] = True

    if len(gpd.arrows) <= 2000:
        gpd.verify_axioms()
        checks["groupoid_axioms"] = True
    return checks


# -------------------------------------------------- bit rows, row by row

def loop_row_bits(flags):
    """Each row of a 2-d bool array as one integer, bit j set when cell j
    is True: its packed bytes sliced row by row."""
    import numpy as np

    packed = np.packbits(flags, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)]


# ----------------------------------------- table fixtures, cell by cell

def loop_brandt_table(n):
    """The table of the matrix units e_ij (element 1 + i n + j) and zero:
    e_ij e_kl = e_il when j = k, else 0."""
    size = n * n + 1
    table = [[0] * size for _ in range(size)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j == k:
            table[1 + i * n + j][1 + k * n + l] = 1 + i * n + l
    return table


def loop_cyclic_table(n):
    """The table of the cyclic group of order n with a zero adjoined as
    element 0: g^i g^j = g^(i + j mod n) is element 1 + (i + j) % n."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for i, j in itertools.product(range(n), repeat=2):
        table[i + 1][j + 1] = (i + j) % n + 1
    return table


def loop_subsets_table(k):
    """The table of the subsets of k points, by size then
    lexicographically, under intersection."""
    subsets = [s for r in range(k + 1) for s in itertools.combinations(range(k), r)]
    index = {s: i for i, s in enumerate(subsets)}
    return [[index[tuple(sorted(set(a) & set(b)))] for b in subsets] for a in subsets]


# ------------------------------------- table input, row by row and per element

def row_by_row_parse_spec(text):
    """``parse_spec`` with a table read one row at a time: each row's
    tokens through ``int`` after one ASCII-digit check of the joined row,
    and a row that fails it, or holds an entry of n or more, read token by
    token, its first bad entry raising.  Lines end where
    ``str.splitlines`` ends them.  Texts of any other shape go to
    ``parse_spec``."""
    from tightgroupoid.dsl import SemigroupSpec, _at, parse_spec
    from tightgroupoid.errors import DslRangeError, DslSyntaxError

    def int_token(where, i, what):
        tok = where[2][i]
        digits = tok[1:] if tok[:1] == "-" else tok
        if digits.isascii() and digits.isdigit():
            try:
                return int(tok)
            except ValueError:      # past int()'s limit on decimal digits
                pass
        raise DslSyntaxError(*_at(where, i), f"an integer {what}")

    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.split():
            lines.append((ln, line, line.split()))
    if len(lines) < 2 or lines[0][2][:1] != ["semigroup"] or len(lines[0][2]) != 2 \
            or lines[1][2][0] != "table":
        return parse_spec(text)
    name, decl, rest = lines[0][2][1], lines[1], lines[2:]
    ln, _, toks = decl
    if len(toks) != 4 or toks[2] != "zero":
        raise DslSyntaxError(*_at(decl, 0), "'table <n> zero <k>'")
    n = int_token(decl, 1, "size")
    zero = int_token(decl, 3, "zero index")
    if n < 1:
        raise DslRangeError(*_at(decl, 1), "size must be at least 1")
    if not 0 <= zero < n:
        raise DslRangeError(*_at(decl, 3), f"zero index {zero} outside 0..{n - 1}")
    if len(rest) != n:
        where = rest[-1][0] if rest else ln
        raise DslSyntaxError(where, 1, f"{n} table rows")
    rows = []
    for row_line in rest:
        rtoks = row_line[2]
        if len(rtoks) != n:
            raise DslSyntaxError(*_at(row_line, 0), f"{n} entries in the row")
        digits = "".join(rtoks)
        try:
            row = digits.isascii() and digits.isdigit() and tuple(map(int, rtoks))
        except ValueError:
            row = None
        if not row or max(row) >= n:
            row = []
            for i in range(len(rtoks)):
                v = int_token(row_line, i, "table entry")
                if not 0 <= v < n:
                    raise DslRangeError(*_at(row_line, i), f"entry {v} outside 0..{n - 1}")
                row.append(v)
            row = tuple(row)
        rows.append(row)
    return SemigroupSpec(name, "table", size=n, zero=zero, rows=tuple(rows))


def per_element_inverses(m):
    """The involution of a square table `m`, element by element: s* is
    the unique t with (s t) s = s and (t s) t = t, and the first s with
    none, or with more than one, raises."""
    import numpy as np

    from tightgroupoid.errors import InverseMissing, InverseNotUnique

    ar = np.arange(len(m), dtype=np.int32)
    star = []
    for s in range(len(m)):
        sts = m[m[s], s]          # over t: (s t) s
        tst = m[m[:, s], ar]      # over t: (t s) t
        cand = np.flatnonzero((sts == s) & (tst == ar))
        if cand.size == 0:
            raise InverseMissing(s)
        if cand.size > 1:
            raise InverseNotUnique(s)
        star.append(int(cand[0]))
    return star


def per_row_from_table(table, zero, element_names=None):
    """``from_table`` with its input read row by row through ``int`` and
    checked row by row, a short or long row or an entry out of range
    raising in row order, and the inverses found by
    :func:`per_element_inverses`; the other axiom checks run as the
    library runs them."""
    import numpy as np

    from tightgroupoid import semigroup
    from tightgroupoid.errors import CapExceeded, DegreeMismatch, NotAssociative, NoZero, \
        ZeroNotAbsorbing

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
    m = np.array(rows, dtype=np.int32)
    gens = semigroup._right_generators(m)
    if n * n * len(gens) > semigroup.MAX_TABLE_WORK:
        raise CapExceeded(f"table of {n} elements with {len(gens)} generators "
                          f"needs {n * n * len(gens)} associativity checks, "
                          f"over the cap of {semigroup.MAX_TABLE_WORK}")
    for g in gens:
        lhs, rhs = m[m[:, g], :], m[:, m[g]]
        if not np.array_equal(lhs, rhs):
            x, y = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAssociative(x, g, y)
    star = per_element_inverses(m)
    bad = np.flatnonzero((m[zero] != zero) | (m[:, zero] != zero))
    if bad.size:
        raise ZeroNotAbsorbing(int(bad[0]))
    ar = np.arange(n)
    return semigroup.InverseSemigroup(zero, star, gens, m[star, ar].tolist(),
                                      m[:, gens].tolist(), element_names)


# ------------------------------------------- general route (closure)

def compose_maps(f, g):
    """f after g, defined where the chain is."""
    return tuple(f[y] if (y := g[x]) is not None else None for x in range(len(g)))


def invert_map(f):
    out = [None] * len(f)
    for x, y in enumerate(f):
        if y is not None:
            out[y] = x
    return tuple(out)


def map_name(f):
    """Compact printable form: per-point images, '_' where undefined; the
    empty map is 0, so the identity on one point is 1."""
    if all(v is None for v in f):
        return "0"
    if f == (0,):
        return "1"
    cells = ["_" if v is None else str(v) for v in f]
    sep = "" if len(f) <= 10 else ","
    return sep.join(cells)


def per_map_closure(degree, generators, labels=None):
    """``from_partial_maps`` by a walk map by map: each map found, in walk
    order, is composed with every letter as a tuple of images, and the
    caps are checked at every new map.  The order, the inverses, the
    domains and the asserts are worked out per map on the image tuples."""
    import numpy as np

    from tightgroupoid import semigroup
    from tightgroupoid.errors import CapExceeded, DegreeMismatch

    if degree < 1:
        raise DegreeMismatch("degree must be at least 1")
    gens = []
    for i, g in enumerate(generators):
        label = labels[i] if labels else f"generator {i}"
        gens.append(semigroup._check_partial_map(g, degree, label))

    empty = tuple([None] * degree)
    letters = list(dict.fromkeys(gens + [invert_map(g) for g in gens]))
    found = list(dict.fromkeys([empty, *letters]))
    pos = {f: i for i, f in enumerate(found)}

    def admit():                     # the caps on the maps found so far
        if len(found) > semigroup.MAX_SIZE:
            raise CapExceeded(f"closure exceeded {semigroup.MAX_SIZE} elements")
        if len(found) * degree > semigroup.MAX_SLAB_CELLS:
            raise CapExceeded(f"closure of {len(found)} maps on {degree} points "
                              f"exceeds {semigroup.MAX_SLAB_CELLS} image cells")

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
    if n * idem > semigroup.MAX_SLAB_CELLS:
        raise CapExceeded(f"closure of {n} elements and {idem} "
                          f"idempotents exceeds {semigroup.MAX_SLAB_CELLS} slab cells")

    gen_ids = [rank[pos[a]] for a in letters]
    right = [[rank[k] for k in right[i]] for i in order]
    if empty not in letters and not any(0 in row for row in right[1:]):
        gen_ids.append(0)
        for row in right:
            row.append(0)
    digits = np.array([[0 if v is None else v + 1 for v in f] for f in maps],
                      dtype=np.min_scalar_type(degree)).reshape(n, degree)
    return semigroup.InverseSemigroup(0, star, gen_ids, d, right,
                                      [map_name(f) for f in maps], digits)


def spanning_tree(right, generators) -> dict:
    """The right Cayley graph walked breadth first from the generators:
    each element y to the first edge (p, j), y = p ``generators[j]``,
    that reaches it, and a generator to None."""
    rows = [list(row) for row in right]
    tree = dict.fromkeys(generators)
    walk = list(tree)
    for p in walk:                             # the list grows while walked
        for j, y in enumerate(rows[p]):
            if y not in tree:
                tree[y] = (p, j)
                walk.append(y)
    assert len(walk) == len(rows), "the generators do not reach every element"
    return tree


def two_sided_closure(degree, gens, max_size=None):
    """The set of maps generated by checked partial injections, by the
    round-based closure: invert every new map, compose each frontier map
    on both sides with every generator and generator inverse, and test
    the size cap once per round.  Every map is a word in those letters,
    so extending words at both ends reaches them all; the library walks
    right products only.  Returns the map set, empty map included."""
    from tightgroupoid.errors import CapExceeded

    empty = tuple([None] * degree)
    letters = set(gens) | {invert_map(g) for g in gens}
    elems = set(gens) | {empty}
    frontier = list(elems)
    while frontier:
        fresh = []
        for f in frontier:
            inv = invert_map(f)
            if inv not in elems:
                elems.add(inv)
                fresh.append(inv)
        for f in frontier:
            for a in letters:
                for h in (compose_maps(f, a), compose_maps(a, f)):
                    if h not in elems:
                        elems.add(h)
                        fresh.append(h)
        if max_size is not None and len(elems) > max_size:
            raise CapExceeded(f"closure exceeded {max_size} elements")
        frontier = fresh
    return elems


# ------------------ general route (table, action and groupoid axioms)

def cubic_associativity(table):
    """First triple (a, b, c) with (a b) c != a (b c), or None.  Scans the
    first argument a, comparing the whole (b, c) square for each a."""
    import numpy as np

    m = np.array(table, dtype=np.intp)
    for a in range(len(m)):
        lhs = m[m[a], :]          # (b,c) -> (a b) c
        rhs = m[a][m]             # (b,c) -> a (b c)
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            return a, b, c
    return None


def all_pairs_composition(action):
    """First (s, t, x), over every pair of elements and every point, where
    the map of s t disagrees with the map of s after the map of t; or
    None."""
    sg = action.semigroup
    maps = views(action.array)[0]
    for s in sg.elements():
        ms = maps[s]
        for t in sg.elements():
            mt = maps[t]
            mst = maps[sg.table[s][t]]
            for x in range(action.points):
                y = mt[x]
                if (ms[y] if y is not None else None) != mst[x]:
                    return s, t, x
    return None


def compose(g, i, j):
    """Product of two germs, [s,z][t,x] = [st,x], defined when the source
    of the first is the target of the second; None otherwise.  The
    product of the elements is read off the full table."""
    if g.source[i] != g.target[j]:
        return None
    s, _ = g.arrows[i]
    t, x = g.arrows[j]
    return g.arrow_of(g.semigroup.table[s][t], x)


def compose_verify_axioms(g):
    """The groupoid axioms of ``GermGroupoid.verify_axioms``, every
    product through :func:`compose` and ``inverse``: source/target
    bookkeeping, two-sided units, inverses, and associativity over every
    composable triple, raising the same TheoremViolation first.  Its
    products come from the full table, where the production check reads
    a block of representatives off the Cayley graph."""
    from tightgroupoid.errors import TheoremViolation

    n = len(g.arrows)
    for x, u in g.unit_at.items():
        if g.source[u] != x or g.target[u] != x:
            raise TheoremViolation("unit_source_target", x, (g.source[u], g.target[u]), "unit")
    for i in range(n):
        j = g.inverse(i)
        if g.source[j] != g.target[i] or g.target[j] != g.source[i]:
            raise TheoremViolation("inverse_source_target", i, j, "inverse")
        if compose(g, i, j) != g.unit_at[g.target[i]]:
            raise TheoremViolation("right_inverse_law", i, j, "inverse")
        if compose(g, j, i) != g.unit_at[g.source[i]]:
            raise TheoremViolation("left_inverse_law", i, j, "inverse")
        if compose(g, i, g.unit_at[g.source[i]]) != i:
            raise TheoremViolation("right_unit_law", i, None, "unit")
        if compose(g, g.unit_at[g.target[i]], i) != i:
            raise TheoremViolation("left_unit_law", i, None, "unit")
    by_source = {}
    for i in range(n):
        by_source.setdefault(g.source[i], []).append(i)
    for j in range(n):
        for i in by_source.get(g.target[j], ()):
            ij = compose(g, i, j)
            if ij is None or g.source[ij] != g.source[j] or \
                    g.target[ij] != g.target[i]:
                raise TheoremViolation("composition_bookkeeping", i, j, "compose")
            for k in by_source.get(g.target[i], ()):
                left = compose(g, compose(g, k, i), j)
                right = compose(g, k, ij)
                if left != right:
                    raise TheoremViolation("associativity", (k, i, j), (left, right), "compose")


# ------------------------------------- general route (local contraction)

def search_contraction_action(action):
    """Exhaustive search for the contraction pattern of the definition.

    In general one asks: inside every nonempty open U there are an open V
    and an element s with closure(V) inside the domain of s*s and the
    image of closure(V) a proper subset of V.  Here closure(V) = V, so the
    search enumerates every pair (V, s) with V inside the domain of s and
    the image of V a proper subset of V, then checks that every nonempty
    U contains a workable V.  Returns (verdict, witness_or_failing_U).
    """
    maps, domains = views(action.array)
    workable = []
    for s in action.semigroup.elements():
        dom = sorted(domains[s])
        m = maps[s]
        for r in range(len(dom) + 1):
            for vs in itertools.combinations(dom, r):
                v = frozenset(vs)
                if frozenset(m[x] for x in v) < v:
                    workable.append((v, s))
    if not workable:
        return False, None
    carrier = list(range(action.points))
    for r in range(1, len(carrier) + 1):
        for us in itertools.combinations(carrier, r):
            u = frozenset(us)
            if not any(v <= u for v, _ in workable):
                return False, ("no contraction inside", u)
    return True, workable[0]


def search_contraction_groupoid(g):
    """Exhaustive bisection search for the contraction pattern.

    In general: inside every nonempty open unit set U there are an open
    V and an open bisection S with closure(V) inside the source units of
    S and the conjugate of closure(V) under S a proper subset of V.
    Everything is clopen here, and for a bisection S the source units of
    S are exactly the units covered by S while conjugation moves a unit
    along the one arrow of S starting there.  The search enumerates every
    bisection (arrow sets with injective source and target), collects the
    workable (V, S) pairs, and then checks the for-every-U clause.
    """
    n = len(g.arrows)
    arrow_ids = list(range(n))
    workable = []
    for r in range(n + 1):
        for combo in itertools.combinations(arrow_ids, r):
            srcs = [g.source[i] for i in combo]
            tgts = [g.target[i] for i in combo]
            if len(set(srcs)) != len(combo) or len(set(tgts)) != len(combo):
                continue
            move = dict(zip(srcs, tgts))
            source_units = frozenset(srcs)
            for k in range(len(source_units) + 1):
                for vs in itertools.combinations(sorted(source_units), k):
                    v = frozenset(vs)
                    if frozenset(move[x] for x in v) < v:
                        workable.append((v, frozenset(combo)))
    if not workable:
        return False, None
    carrier = list(range(g.action.points))
    for r in range(1, len(carrier) + 1):
        for us in itertools.combinations(carrier, r):
            u = frozenset(us)
            if not any(v <= u for v, _ in workable):
                return False, ("no contraction inside", u)
    return True, workable[0]


def search_locally_contracting(sg):
    """Search, for every nonzero idempotent e, for an element s and a
    finite family F of nonzero idempotents below e s*s such that F outer
    covers each conjugate s f s* and a designated member annihilates s F.

    Idempotents are visited smallest ideal first, so atoms come first.
    At an atom e the candidate pool is {e} or empty, so the search there
    is exhaustive, and it always refutes: s e s* meeting e forces
    s e s* = e, and then e s e = s e is nonzero.
    """
    from tightgroupoid.criteria import CriterionResult

    table = sg.table
    star = sg.star
    zero = sg.zero
    nz = sorted(sg.nonzero_idempotents(), key=lambda e: (len(sg.below(e)), e))
    if not nz:
        return CriterionResult(True, vacuous=True)
    per_e = {}
    for e in nz:
        found = None
        row_e = table[e]
        for s in sg.elements():
            t = row_e[table[star[s]][s]]
            if t == zero:
                continue
            cands = [f for f in sg.below(t) if f != zero]
            if not cands:
                continue
            found = _contraction_family(sg, s, cands)
            if found is not None:
                found = (s,) + found
                break
        if found is None:
            return CriterionResult(False, witness={"e": e})
        per_e[e] = found
    return CriterionResult(True, witness={"families": per_e})


def search_easier_contraction(sg):
    """Search, for every nonzero idempotent e, for an element s and a
    nested pair f0 <= f1 of nonzero idempotents below e s*s with
    s f1 s* <= f1 and f0 s f1 = 0: the easier contraction pattern, whose
    search the library replaces with one scan at the least atom."""
    from tightgroupoid.criteria import CriterionResult

    slab, col, d, r = sg.slab, sg.column, sg.d, sg.r
    zero = sg.zero
    nz = sg.nonzero_idempotents()
    if not nz:
        return CriterionResult(True, vacuous=True)
    per_e = {}
    for e in nz:
        found = None
        row_e = slab[e].tolist()
        for s in sg.elements():
            t = row_e[col[d[s]]]
            if t == zero:
                continue
            row_s = slab[s].tolist()
            for f1 in sg.below(t):
                if f1 == zero:
                    continue
                conj = r[row_s[col[f1]]]
                if slab[conj, col[f1]] != conj:
                    continue
                for f0 in sg.below(f1):
                    f0s = sg.star[slab[sg.star[s], col[f0]]]   # f0 s = (s* f0)*
                    if f0 != zero and slab[f0s, col[f1]] == zero:
                        found = (s, f0, f1)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return CriterionResult(False, witness={"e": e})
        per_e[e] = found
    return CriterionResult(True, witness={"pairs": per_e})


def _contraction_family(sg, s, cands):
    table = sg.table
    zero = sg.zero
    for size in range(1, len(cands) + 1):
        for family in itertools.combinations(cands, size):
            for f0 in family:
                f0s = table[f0][s]
                if any(table[f0s][fi] != zero for fi in family):
                    continue
                if all(_outer_covers_conjugate(sg, s, fi, family) for fi in family):
                    return (family, f0)
    return None


def _outer_covers_conjugate(sg, s, fi, family):
    table = sg.table
    g = table[table[s][fi]][sg.star[s]]
    for h in sg.below(g):
        if h == sg.zero:
            continue
        if not any(table[h][c] != sg.zero for c in family):
            return False
    return True


def checked_twin(sg, table=None):
    """The instance rebuilt from its full multiplication table through the
    axiom checks of `from_table`, and that table as row tuples.

    A closure-built instance gets its table by composing every pair of
    its maps: a map is looked up by its digits (images plus one, 0 where
    undefined) in a dense array over all (degree + 1)^degree codes, so the
    degree must be small.  A table-built instance must be given the
    `table` it was validated from, since its own table is filled from the
    Cayley graph under test.
    """
    import numpy as np

    from tightgroupoid.semigroup import _checked

    if sg.partial_maps is None:
        rows = [tuple(row) for row in table]
    else:
        degree = len(sg.partial_maps[0])
        assert degree <= 6, "dense code lookup meant for small degrees"
        maps = np.array([[-1 if v is None else v for v in f]
                         for f in sg.partial_maps]).reshape(sg.size, degree)
        shape = (degree + 1,) * degree
        lookup = np.full((degree + 1) ** degree, -1)
        lookup[np.ravel_multi_index(tuple((maps + 1).T), shape)] = np.arange(sg.size)
        padded = np.concatenate([maps, np.full((sg.size, 1), -1)], axis=1)
        rows = []
        for a in range(sg.size):
            ab = padded[a][maps]           # a after every b
            rows.append(tuple(lookup[np.ravel_multi_index(tuple((ab + 1).T), shape)].tolist()))
        assert min(map(min, rows)) >= 0, "a product escapes the closure"
    return _checked(np.array(rows, dtype=np.int32), sg.zero,
                    sg.element_names), rows


def table_free_fields_mismatch(sg, table=None):
    """Where the fields `analyze` reads disagree with the table route of
    :func:`checked_twin`; None when they all agree.  A table-built
    instance is compared against the `table` it was built from.

    Compares the involution, the idempotents, s*s, ss*, the slab's
    columns and every slab cell, each element's row of ``below_bits``,
    e s through `left`, every edge of `right`, and that the generators
    reach every element by right multiplication.  Run it before anything
    fills the table of `sg`, so that `left` reads the slab."""
    ref, t = checked_twin(sg, table)
    if sg.star != ref.star:
        return "star"
    if sg.idempotents != {s for s in range(sg.size) if t[s][s] == s}:
        return "idempotents"
    idem = ref.idempotent_list()
    if sg.column != {e: j for j, e in enumerate(idem)}:
        return "column"
    for s in range(sg.size):
        if sg.d[s] != t[ref.star[s]][s]:
            return f"d[{s}]"
        if sg.r[s] != t[s][ref.star[s]]:
            return f"r[{s}]"
        if sg.slab[s].tolist() != [t[s][e] for e in idem]:
            return f"slab[{s}]"
        if sg.below_bits[s] != sum(1 << j for j, f in enumerate(idem) if t[s][f] == f):
            return f"below_bits[{s}]"
        if any(sg.star[sg.slab[sg.star[s], sg.column[e]]] != t[e][s] for e in idem):
            return f"e s at {s}"
        if sg.right[s].tolist() != [t[s][g] for g in sg.generators]:
            return f"right[{s}]"
    reached = set(sg.generators)
    todo = list(reached)
    for x in todo:
        for g in sg.generators:
            if t[x][g] not in reached:
                reached.add(t[x][g])
                todo.append(t[x][g])
    if reached != set(range(sg.size)):
        return "generators"
    return None


# ------------------------------------- report witnesses, entry by entry

def per_entry_witnesses(analysis) -> dict:
    """The ``witnesses`` of :func:`tightgroupoid.report.build_document`,
    each entry rendered on its own: a fresh list per cover and a fresh
    dict per (cover, via) pair, however often a value repeats."""
    sg, rep = analysis.semigroup, analysis.report

    def names(items):
        return [sg.name_of(i) for i in sorted(items)]

    def failures(witness):
        return {"failures": [{k: sg.name_of(v) for k, v in w.items()}
                             for w in witness["failures"]]}

    hausdorff = rep.hausdorff.witness
    top_free = rep.essentially_principal.witness
    minimal = rep.minimal.witness
    contraction = rep.locally_contracting.witness
    out = {"hausdorff": {"covers": {
        sg.name_of(s): names(cov)
        for s, cov in sorted(hausdorff.get("covers", {}).items())}}}
    if "failures" in top_free:
        out["essentially_principal"] = failures(top_free)
    else:
        out["essentially_principal"] = {"fixed_covers": {
            f"s={sg.name_of(s)} e={sg.name_of(e)}": names(cov)
            for (s, e), cov in sorted(top_free["fixed_covers"].items())}}
    if "failures" in minimal:
        out["minimal"] = failures(minimal)
    else:
        out["minimal"] = {"conjugate_covers": {
            f"e={sg.name_of(e)} f={sg.name_of(f)}": [
                {"cover": sg.name_of(c), "via": sg.name_of(s)} for c, s in pairs]
            for (e, f), pairs in sorted(minimal["conjugate_covers"].items())}}
    crit = contraction.get("criterion", {})
    out["locally_contracting"] = {
        "action_reason": contraction.get("action_reason"),
        "groupoid_reason": contraction.get("groupoid_reason")}
    if "e" in crit:
        out["locally_contracting"]["refuted_at"] = sg.name_of(crit["e"])
    return out
