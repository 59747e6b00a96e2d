"""Algebraic criteria for the four groupoid properties, and the harness
asserting they agree with the direct groupoid-level decisions.

The cover criteria quantify existentially over finite covers.  Those
searches are made exact by a shared canonical-candidate device: outer
covers are monotone (supersets of covers are covers inside the same
ideal), so a cover with some property exists if and only if the largest
candidate set with that property is itself a cover.  Every use of the
device states the candidate next to the search, and the test suite backs
each one with a brute-force sweep on small instances.  Local contraction
searches no families: on a finite semigroup it is refuted at the least
atom, where the only candidate family has one member.

Stored forms each route reads.  Every direct decision reads the
standard action's array (gathered from the ``slab`` columns of the atoms,
found by ``below_bits``, and checked against ``right``) and the germ
groupoid (keyed on ``slab`` cells), and minimality reads nothing else;
the trivially fixed mask behind the direct Hausdorff and essential
principality decisions reads ``below_bits``, and local contraction reads
only the number of points; :func:`analyze` first checks that the order
in ``below_bits`` is reflexive and, on a closure-built instance, the
slab's idempotent rows against the maps.  The criteria read: Hausdorff,
``below_bits`` and ``meet_bits``; essential principality and
minimality, ``slab``, ``below_bits`` and ``meet_bits``; local
contraction, the ``slab`` column of the least atom, found by ``below_bits``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import action as action_mod
from . import germs as germs_mod
from . import spectrum as spectrum_mod
from .errors import PreconditionViolated, TheoremViolation
from .semigroup import Ideal, InverseSemigroup, _bit_rows, _row_bits


@dataclass(frozen=True)
class CriterionResult:
    value: bool
    vacuous: bool = False
    witness: dict = field(default_factory=dict, compare=False)

    def __bool__(self) -> bool:
        return self.value


# ------------------------------------------------------------- hausdorff

def hausdorff_criterion(sg: InverseSemigroup) -> CriterionResult:
    """Every element's fixed ideal admits a finite cover.

    On finite instances the maximal nonzero members always form such a
    cover, so the verdict is True and the value of the operation is the
    witness table plus the agreement assertion against the groupoid-level
    decision made elsewhere.  Elements with one row of ``sg.below_bits``,
    one fixed ideal, share one canonical cover, built and checked once.
    """
    covers = {}
    by_row = {}
    for s, row in enumerate(sg.below_bits):
        cover = by_row.get(row)
        if cover is None:
            ideal = sg.fixed_idempotents(s)
            found = sg.canonical_cover(ideal)
            if not sg.is_cover(found, ideal):
                raise TheoremViolation("canonical_cover", sorted(found), sorted(ideal),
                                       f"element {s}")
            cover = by_row[row] = tuple(sorted(found))
        covers[s] = cover
    return CriterionResult(True, witness={"covers": covers})


# -------------------------------------------------- essential principality

def _weakly_fixed_flags(sg: InverseSemigroup) -> np.ndarray:
    """One pass over the whole slab, made once and kept on the instance:
    a read-only (|S|, |E|) bool array whose cell (s, column[e]) is True
    when e lies below s*s and is weakly fixed under s.

    A nonzero f below s*s is bad for s when its conjugate misses it,
    (s f s*) f = 0, and e is weakly fixed exactly when no bad f lies
    below e; one product of the bad cells with the order of the
    semilattice counts the bad f below each e."""
    if sg._weakly_fixed is None:
        slab, zero = sg.slab, sg.zero
        idem = np.array(sg.idempotent_list())
        below_d = slab[np.array(sg.d)] == idem            # (s, e): e <= s*s
        conj = np.array(sg.r, dtype=np.int32)[slab]       # (s, f): s f s*
        bad = below_d & (idem != zero) & (slab[conj, np.arange(len(idem))] == zero)
        order = (slab[idem] == idem).astype(np.float32)   # (e, f): f <= e
        flags = below_d & (bad.astype(np.float32) @ order.T == 0)
        flags.flags.writeable = False
        sg._weakly_fixed = flags
    return sg._weakly_fixed


def weakly_fixed(sg: InverseSemigroup, e: int, s: int) -> bool:
    """e (below s*s) is weakly fixed under s when every nonzero
    idempotent below e intersects its own conjugate s f s*.  Read off the
    whole-instance pass of :func:`_weakly_fixed_flags`."""
    if not 0 <= s < sg.size:
        raise PreconditionViolated(f"element {s} is outside range({sg.size})")
    j = sg.column.get(e)
    if j is not None:
        if _weakly_fixed_flags(sg)[s, j]:
            return True
        if sg.below_bits[sg.d[s]] >> j & 1:
            return False
    raise PreconditionViolated(f"idempotent {e} does not lie below s*s for s={s}")


def _meet_rows(sg, candidates) -> tuple:
    """The members of `candidates` (bits) in increasing order, each with
    its row of ``sg.meet_bits``, and the union of the rows: what they meet."""
    rows = tuple((c, sg.meet_bits[c]) for c in sg.members_of(candidates))
    met = 0
    for _, bits in rows:
        met |= bits
    return rows, met


def _minimize_cover(rows, members):
    """Greedy removal pass over a cover, the `rows` of
    :func:`_meet_rows`, of the nonzero `members`, as bits; keeps the
    witness small for readability, correctness never depends on the
    result being minimum.

    In increasing order, a candidate c is dropped when every member it
    meets is met by another candidate still chosen, which is exactly when
    the rest still covers: the candidates kept before c and all those
    after it, so the test is one mask against the union of the kept ones
    and a suffix union.
    """
    hits = [bits & members for _, bits in rows]
    after = []                        # after[i]: union of the hits past i
    union = 0
    for hit in reversed(hits):
        after.append(union)
        union |= hit
    after.reverse()
    kept = []
    union = 0
    for (c, _), hit, rest in zip(rows, hits, after):
        if hit & ~(union | rest):     # a member that only c meets
            kept.append(c)
            union |= hit
    return tuple(kept)


def top_free_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For every element s and every idempotent e below s*s that is
    weakly fixed under s, some finite cover of e consists of idempotents
    fixed by s.

    Canonical candidate: all nonzero idempotents below e and fixed by s.
    If any fixed cover exists it sits inside that set, and enlarging a
    cover inside the same ideal keeps it a cover, so testing the full
    candidate set decides existence.  The cover test runs for the weakly
    fixed pairs only, read in (s, e) order off one pass of
    :func:`_weakly_fixed_flags` with the zero left out, once per distinct
    (candidates, e), all of it on bits: the candidates are
    ``sg.below_bits[e] & sg.below_bits[s]``, the first uncovered member
    is the lowest bit of ``sg.below_bits[e]`` outside the bits the
    candidates meet, and a cover is trimmed by :func:`_minimize_cover`,
    both read off one :func:`_meet_rows`.
    """
    idem, below_bits = sg.idempotent_list(), sg.below_bits
    zero_column = sg.column[sg.zero]
    nonzero = ~(1 << zero_column)
    rows, cols = np.nonzero(_weakly_fixed_flags(sg))
    keep = cols != zero_column
    failures = []
    covers = {}
    memo = {}
    for s, j in zip(rows[keep].tolist(), cols[keep].tolist()):
        e = idem[j]
        cands = below_bits[e] & below_bits[s] & nonzero
        got = memo.get((cands, e))
        if got is None:
            meets, met = _meet_rows(sg, cands)
            missed = below_bits[e] & nonzero & ~met
            if missed:
                got = (idem[(missed & -missed).bit_length() - 1], None)
            else:
                got = (None, _minimize_cover(meets, below_bits[e] & nonzero))
            memo[cands, e] = got
        uncovered, small = got
        if uncovered is None:
            covers[(s, e)] = small
        else:
            failures.append({"s": s, "e": e, "uncovered": uncovered})
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    return CriterionResult(True, witness={"fixed_covers": covers})


# ------------------------------------------------------------- minimality

def _conjugators(sg: InverseSemigroup) -> np.ndarray:
    """The conjugation relation of the idempotents as one (|E|, |E|)
    int32 array: cell (column[f], column[c]) holds the first s with
    s f s* = c, or |S| where there is none.  The slab cell (s, f) is s f,
    whose range is s f s*; one ``np.minimum.at`` scatters every s onto
    the cell of its (f, s f s*), keeping the least, with no sort."""
    n, width = sg.slab.shape
    column_of = np.zeros(n, dtype=np.int32)
    column_of[list(sg.idempotent_list())] = np.arange(width)
    conj = column_of[np.array(sg.r)][sg.slab]         # (s, f): column of s f s*
    via = np.full(width * width, n, dtype=np.int32)
    np.minimum.at(via, conj + np.arange(0, width * width, width, dtype=np.int32),
                  np.arange(n, dtype=np.int32)[:, None])
    return via.reshape(width, width)


def minimal_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For all nonzero idempotents e and f, the conjugates of f form an
    outer cover for e.

    Canonical candidate: the family of all nonzero conjugates s f s*.
    Outer covers are monotone, so some finite subfamily works exactly
    when the full family does; a small subfamily is extracted afterwards
    as the witness.  f enters only through the set of its conjugates, its
    row of :func:`_conjugators` read as bits, so each distinct conjugate
    set is read once into its :func:`_meet_rows`, and each e is decided
    against the bits they meet for all its members at once: the first
    member of the ideal below e that they miss, the lowest set bit of
    ``sg.below_bits[e]`` outside them, is uncovered.  The witness covers
    are trimmed only when no pair fails, each conjugate c of f paired with
    its cell of :func:`_conjugators`, and the (e, f) with one trimmed cover
    and one f share one tuple of (cover, via) pairs, built once.
    """
    nz, idem = sg.nonzero_idempotents(), sg.idempotent_list()
    column, below_bits = sg.column, sg.below_bits
    via = _conjugators(sg)
    nonzero = ~(1 << column[sg.zero])
    conjugates = [bits & nonzero for bits in _row_bits(via < sg.size)]
    meets = {bits: _meet_rows(sg, bits) for bits in set(conjugates)}
    reach = [meets[conjugates[column[f]]][1] for f in nz]
    failures = []
    for e in nz:
        below = below_bits[e] & nonzero
        for f, hit in zip(nz, reach):
            missed = below & ~hit
            if missed:
                uncovered = idem[(missed & -missed).bit_length() - 1]
                failures.append({"e": e, "f": f, "uncovered": uncovered})
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    witnesses = {}
    made = {}                         # (trimmed cover, f) -> its (cover, via) pairs
    for e in nz:
        below = below_bits[e] & nonzero
        trimmed = {}
        for f in nz:
            cands = conjugates[column[f]]
            small = trimmed.get(cands)
            if small is None:
                small = trimmed[cands] = _minimize_cover(meets[cands][0], below)
            pairs = made.get((small, f))
            if pairs is None:
                row = via[column[f]]
                pairs = made[small, f] = tuple([(c, int(row[column[c]])) for c in small])
            witnesses[(e, f)] = pairs
    return CriterionResult(True, witness={"conjugate_covers": witnesses})


# --------------------------------------------------- local contractiveness

def _refute_at_least_atom(sg: InverseSemigroup, check: str,
                          qualifies) -> CriterionResult:
    """Refute a contraction pattern at the least atom e, or hold it
    vacuously when every idempotent is 0.  An s with e s*s nonzero
    qualifies when e s e = 0 and ``qualifies(c, c e)`` for c = s e s*,
    which no inverse semigroup allows, so it raises."""
    d, r, star, zero = sg.d, sg.r, sg.star, sg.zero
    e = next((f for f in sg.nonzero_idempotents() if spectrum_mod._is_atom(sg, f)), None)
    if e is None:
        return CriterionResult(True, vacuous=True)
    times_e = sg.slab[:, sg.column[e]].tolist()      # x -> x e
    for s in sg.elements():
        # e s*s, then (e s) e with e s = (s* e)*
        if times_e[d[s]] == zero or times_e[star[times_e[star[s]]]] != zero:
            continue
        conj = r[times_e[s]]
        if qualifies(conj, times_e[conj]):
            raise TheoremViolation(check, True, False, f"atom e={e} with s={s}")
    return CriterionResult(False, witness={"e": e})


def locally_contracting_criterion(sg: InverseSemigroup) -> CriterionResult:
    """Every nonzero idempotent e needs an element s and a finite family
    F of nonzero idempotents below e s*s such that F outer covers each
    conjugate s f s* and a designated member annihilates s F.

    Take the least atom e.  For each s with e s*s nonzero, the only
    nonzero idempotent below e s*s is e, so F = {e} is the only family
    and e its designated member.  It qualifies exactly when e s e = 0
    and s e s* meets e.  It never does: conjugation by s carries the
    atom e to the atom s e s*, so meeting e forces s e s* = e, and then
    e s e = s e s* s e = s e is nonzero.  A qualifying family therefore
    means the table is not an inverse semigroup, and raises.
    """
    return _refute_at_least_atom(sg, "locally_contracting_criterion",
                                 lambda conj, meet: meet != sg.zero)


def easier_loc_contr_criterion(sg: InverseSemigroup) -> CriterionResult:
    """Stronger but simpler contraction pattern: a nested pair f0 <= f1
    of nonzero idempotents below e s*s with s f1 s* <= f1 and
    f0 s f1 = 0, for every nonzero idempotent e.  Whenever this holds the
    full criterion holds with the two-member family.

    At the least atom e the only pair is f0 = f1 = e, which qualifies
    exactly when e s e = 0 and s e s* <= e; as above, it never does.
    """
    return _refute_at_least_atom(sg, "easier_loc_contr_criterion",
                                 lambda conj, meet: meet == conj)


# ------------------------------------------------------------ full report

@dataclass(frozen=True)
class PropertyPair:
    criterion: bool
    direct: bool
    witness: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class PropertyReport:
    """The four verdict pairs plus the final-theorem flags.

    Pair equality is enforced at construction time by
    :func:`analyze`; a mismatch raises instead of being stored.
    """

    hausdorff: PropertyPair
    essentially_principal: PropertyPair
    minimal: PropertyPair
    locally_contracting: PropertyPair
    cstar_flags: dict
    conclusions: tuple


def _conclusions(flags: dict) -> tuple:
    out = ["countability and second countability hold by finiteness"]
    if flags["a"]:
        out.append("(a): the tight groupoid is Hausdorff")
    if flags["a"] and flags["b"]:
        out.append("(a)+(b): every nonzero ideal of the reduced groupoid "
                   "C*-algebra meets the diagonal of functions on the unit "
                   "space (reported, not constructed)")
    if flags["a"] and flags["b"] and flags["c"]:
        out.append("(a)+(b)+(c): the reduced groupoid C*-algebra is simple "
                   "(reported, not constructed)")
    if flags["a"] and flags["b"] and flags["c"] and flags["d"]:
        out.append("(a)+(b)+(c)+(d): the reduced groupoid C*-algebra is "
                   "purely infinite simple (reported, not constructed)")
    return tuple(out)


def _identity(check: str, lhs, rhs, instance: str) -> None:
    if lhs != rhs:
        raise TheoremViolation(check, lhs, rhs, instance)


def _pair(name: str, instance: str, criterion: bool, direct: bool,
          witness: dict) -> PropertyPair:
    _identity(name, criterion, direct, instance)
    return PropertyPair(criterion, direct, witness)


@dataclass(frozen=True)
class Analysis:
    """One instance analyzed end to end: spectrum, standard action, germ
    groupoid, and the agreed verdict pairs."""

    semigroup: InverseSemigroup
    spectrum: object
    action: object
    groupoid: object
    report: PropertyReport


def analyze(sg: InverseSemigroup, name: str = "S") -> Analysis:
    """Build the whole pipeline for one semigroup and compute the report,
    asserting pairwise agreement of every criterion with its direct
    groupoid-level counterpart."""
    # both routes read the order as stored: each idempotent is below itself
    _identity("reflexive_order", [], [e for e in sg.idempotent_list()
                                      if not sg.below_bits[e] >> sg.column[e] & 1], name)
    # a closure-built instance keeps its maps, a second source for the
    # slab's idempotent rows: e f is the identity on dom e ∩ dom f, so its
    # digits are the lesser of e's and f's (x + 1 on a domain, else 0).  A
    # table-built instance keeps no second source for this check
    if sg._digits is not None:
        idem = list(sg.idempotent_list())
        ids = sg._digits[idem]
        bad = (sg._digits[sg.slab[idem]] != np.minimum(ids[:, None], ids)).any(axis=2)
        if bad.any():
            i, j = _first(bad)
            raise TheoremViolation("idempotent_products", [], [(idem[i], idem[j])], name)
    spec = spectrum_mod.tight_spectrum(sg)    # refuses E(S) = {0}
    # every nonzero idempotent lies above an atom, so some point is tight
    _identity("nonempty_spectrum", bool(spec.points), len(sg.idempotents) > 1, name)
    act = action_mod.standard_action(spec)
    gpd = germs_mod.build_germ_groupoid(act)

    h_crit = hausdorff_criterion(sg)
    h_pair = _pair("hausdorff", name, h_crit.value, gpd.is_hausdorff(), h_crit.witness)

    tf_crit = top_free_criterion(sg)
    _identity("topological_freeness", tf_crit.value,
              action_mod.is_topologically_free(act), name)
    e_pair = _pair("essentially_principal", name, tf_crit.value,
                   gpd.is_essentially_principal(), tf_crit.witness)

    m_crit = minimal_criterion(sg)
    _identity("irreducibility", m_crit.value, action_mod.is_irreducible(act), name)
    m_pair = _pair("minimal", name, m_crit.value, gpd.is_minimal(), m_crit.witness)

    lc_crit = locally_contracting_criterion(sg)
    lc_action = action_mod.is_locally_contracting_action(act)
    lc_gpd = gpd.locally_contracting_verdict()
    _identity("locally_contracting_action", lc_crit.value, lc_action.value, name)
    lc_pair = _pair("locally_contracting", name, lc_crit.value,
                    lc_gpd.value,
                    {"criterion": lc_crit.witness,
                     "action_reason": lc_action.reason,
                     "groupoid_reason": lc_gpd.reason})

    flags = {"a": h_pair.criterion, "b": e_pair.criterion,
             "c": m_pair.criterion, "d": lc_pair.criterion}
    report = PropertyReport(h_pair, e_pair, m_pair, lc_pair, flags,
                            _conclusions(flags))
    return Analysis(sg, spec, act, gpd, report)


# ------------------------------------------------------ identity harness

def _first(failing: np.ndarray) -> tuple:
    """The first True cell (row, column) of a 2-d bool array, row by row."""
    return divmod(int(failing.argmax()), failing.shape[1])


def verify_instance(sg: InverseSemigroup, name: str = "S", seed: int = 0):
    """Run every theorem-backed identity on one instance.

    Raises TheoremViolation on the first failure; returns the Analysis
    together with a dict naming every identity that ran.  The identities
    re-derive both sides independently instead of reusing each other's
    intermediate values wherever the two sides have distinct mechanisms.

    The identities over elements, pairs (s, e) and points are whole-array
    passes over the action's array, its domain and trivially fixed masks,
    the fixed mask ``array == arange(points)``, the weakly fixed flags and
    the slab; the one over (s, f, x) runs in blocks of elements holding at
    most |S| times the points cells, or 4096.  Each reads both sides at
    its first failing cell, in (s, e) or (s, x) order, and formats its
    instance label (``s=...``, ``J=... C=...``) only then, so it raises
    what a loop element by element would; the test suite keeps that loop
    as its oracle.
    """
    analysis = analyze(sg, name)
    act = analysis.action
    gpd = analysis.groupoid
    spec = analysis.spectrum
    zero = sg.zero
    idem = sg.idempotent_list()
    rows = np.array(idem)
    array, defined, trivial = act.array, act.defined, act.trivial
    domains = defined[rows]                                     # (e, x): x in the domain of e
    fixed = array == np.arange(act.points)
    flags = _weakly_fixed_flags(sg)
    below = _bit_rows(sg.below_bits, len(idem))                 # (s, e): s e = e
    below_d = below[np.array(sg.d)] & (rows != zero)            # (s, e): 0 != e <= s*s
    checks = {}

    # finite collapse: the tight points are exactly the ultrafilters
    tight = {f.min for f in spec.points}
    ultra = {f.min for f in spectrum_mod.ultrafilters(sg)}
    _identity("tight_equals_ultra", tight, ultra, name)
    checks["tight_equals_ultra"] = True

    # weakly fixed idempotents match pointwise-fixed domains: s moves no
    # point of the domain of e
    pointwise = (~fixed).astype(np.float32) @ domains.T.astype(np.float32) == 0
    failing = below_d & (flags != pointwise)
    if failing.any():
        s, j = _first(failing)
        raise TheoremViolation("weakly_fixed_vs_fixed_points", bool(flags[s, j]),
                               bool(pointwise[s, j]), f"{name} s={s} e={idem[j]}")
    checks["weakly_fixed_vs_fixed_points"] = True

    # outer covers match inclusions of domain unions; each idempotent's
    # domain row packed into one int, a union is one OR per member
    domain_bits = dict(zip(idem, _row_bits(domains)))

    def union(members):
        out = 0
        for f in members:
            out |= domain_bits[f]
        return out

    rng = random.Random(seed)
    ideals = [sg.principal_ideal(e) for e in idem]
    fixed_ideals = sorted(map(sg.members_of, set(sg.below_bits)))
    ideals += [Ideal(frozenset(mem)) for mem in fixed_ideals]
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
            rhs = not ideal_union & ~cov_union
            if lhs != rhs:
                raise TheoremViolation("outer_cover_vs_domain_union", lhs, rhs,
                                       f"{name} J={sorted(members)} C={sorted(cov)}")
            if cov <= members:
                lhs = sg.is_cover(cov, ideal)
                rhs = ideal_union == cov_union
                if lhs != rhs:
                    raise TheoremViolation("cover_vs_domain_equality", lhs, rhs,
                                           f"{name} J={sorted(members)} C={sorted(cov)}")
    checks["outer_cover_vs_domain_union"] = True
    checks["cover_vs_domain_equality"] = True

    # the slice identity ran inside the direct Hausdorff decision that
    # analyze() paired with the criterion on this groupoid
    checks["slice_unit_identity"] = True

    # conjugation carries domains onto domains: s sends the points of the
    # domain of f inside its own onto the domain of s f s*, over (s, f, x)
    # in blocks of elements holding at most |S| times the points cells
    n, points = array.shape
    conj = np.array(sg.r, dtype=np.int32)[sg.slab]               # (s, f): s f s*
    step = max(1, max(n * points, 4096) // domains.size)
    for lo in range(0, n, step):
        inside = domains & defined[lo:lo + step, None]
        b, f, x = np.nonzero(inside)
        image = np.zeros_like(inside)
        image[b, f, array[lo + b, x]] = True
        failing = (image != defined[conj[lo:lo + step]]).any(axis=2)
        if failing.any():
            s, j = _first(failing)
            raise TheoremViolation("conjugated_domains",
                                   frozenset(array[lo + s, inside[s, j]].tolist()),
                                   act.domain(int(conj[lo + s, j])),
                                   f"{name} s={lo + s} f={idem[j]}")
    checks["conjugated_domains"] = True

    # the action preserves ultrafilters, read off the slab, not the point list
    mins = np.array([p.min for p in spec.points])
    image = conj[:, [sg.column[a] for a in mins.tolist()]]      # (s, x): s min(x) s*
    is_ultra = np.zeros(n, dtype=bool)
    is_ultra[list(ultra)] = True
    failing = defined & ~(is_ultra[image] & (image == mins[array]))
    if failing.any():
        s, x = _first(failing)
        raise TheoremViolation("ultrafilter_preserved", True, False, f"{name} s={s} x={x}")
    checks["ultrafilter_preserved"] = True

    # trivial fixed points are fixed points; the ultrafilter reading of
    # topological freeness: every fixed ultrafilter is trivially fixed
    failing = (trivial & ~fixed).any(axis=1)
    if failing.any():
        raise TheoremViolation("trivial_fixed_subset_fixed", False, True,
                               f"{name} s={int(failing.argmax())}")
    cond_iii = not (fixed & is_ultra[mins] & ~trivial).any()
    checks["trivial_fixed_subset_fixed"] = True

    # three equivalent readings of topological freeness
    cond_i = action_mod.is_topologically_free(act)
    cond_ii = analysis.report.essentially_principal.criterion
    _identity("topfree_action_vs_criterion", cond_i, cond_ii, name)
    _identity("topfree_criterion_vs_ultra_condition", cond_ii, cond_iii, name)
    checks["topfree_three_way"] = True

    # free and topologically free coincide on a discrete carrier
    _identity("free_vs_topologically_free", action_mod.is_free(act),
              cond_i, name)
    checks["free_vs_topologically_free"] = True

    # material implications
    if sg.is_e_star_unitary():
        _identity("estar_implies_hausdorff",
                  analysis.report.hausdorff.criterion, True, name)
        failing = trivial.any(axis=1)
        failing[rows] = False
        if failing.any():
            s = int(failing.argmax())
            raise TheoremViolation("estar_trivial_fixed_empty",
                                   action_mod.trivial_fixed_points(act, s),
                                   frozenset(), f"{name} s={s}")
    checks["estar_implications"] = True

    failing = below & below_d & ~flags
    if failing.any():
        s, j = _first(failing)
        raise TheoremViolation("fixed_implies_weakly_fixed", False, True,
                               f"{name} s={s} e={idem[j]}")
    checks["fixed_implies_weakly_fixed"] = True

    # never met at the least atom (else it raises); vacuous with no atom
    easier_loc_contr_criterion(sg)
    checks["easier_implies_main"] = True

    # groupoid axioms, exhaustively, within the size budget
    if len(gpd.arrows) <= 2000:
        gpd.verify_axioms()
        checks["groupoid_axioms"] = True

    return analysis, checks
