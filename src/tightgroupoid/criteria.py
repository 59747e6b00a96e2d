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
in ``below_bits`` is reflexive.  The criteria read: Hausdorff,
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
from .semigroup import Ideal, InverseSemigroup


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
    j = sg.column.get(e)
    if j is not None:
        if _weakly_fixed_flags(sg)[s, j]:
            return True
        if sg.below_bits[sg.d[s]] >> j & 1:
            return False
    raise PreconditionViolated(f"idempotent {e} does not lie below s*s for s={s}")


def _minimize_cover(sg, candidates, ideal_members):
    """Greedy removal pass over a cover of the ideal; keeps the witness
    small for readability, correctness never depends on the result being
    minimum.

    In increasing order, a candidate c is dropped when every member it
    meets is met by another element still chosen, which is exactly when
    the rest still covers.  The others still chosen are the candidates
    kept before c and all those after it, so with the members each
    candidate meets as bits (its row of ``sg.meet_bits``), the test is one
    mask against the union of the kept ones and a suffix union.
    """
    member_bits = sg.bits(ideal_members) & ~(1 << sg.column[sg.zero])
    order = sorted(candidates)
    hits = [sg.meet_bits[c] & member_bits for c in order]
    after = []                        # after[i]: union of the hits past i
    union = 0
    for hit in reversed(hits):
        after.append(union)
        union |= hit
    after.reverse()
    kept = []
    union = 0
    for c, hit, rest in zip(order, hits, after):
        if hit & ~(union | rest):     # a member that only c meets
            kept.append(c)
            union |= hit
    return tuple(kept)


def _decide_cover(sg, candidates, members):
    """Whether the idempotents `candidates` cover the idempotents
    `members`: the first nonzero member they leave uncovered, by
    ``sg.first_uncovered``, and None, or None and the cover trimmed by
    :func:`_minimize_cover`."""
    uncovered = sg.first_uncovered(candidates, members)
    if uncovered is not None:
        return uncovered, None
    return None, _minimize_cover(sg, candidates, members)


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
    (candidates, e), the candidates ``sg.below_bits[e] & sg.below_bits[s]``.
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
            got = memo[cands, e] = _decide_cover(sg, sg.members_of(cands), sg.below(e))
        uncovered, small = got
        if uncovered is None:
            covers[(s, e)] = small
        else:
            failures.append({"s": s, "e": e, "uncovered": uncovered})
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    return CriterionResult(True, witness={"fixed_covers": covers})


# ------------------------------------------------------------- minimality

def _conjugators(sg: InverseSemigroup) -> dict:
    """Per nonzero idempotent f, a dict from each nonzero conjugate
    s f s* to the first s giving it, in order of that s.  One
    ``np.unique`` over the (column, conjugate) keys of the whole slab
    finds the first position of every key; sorted, the positions run
    column by column and, within a column, by s."""
    n, zero = sg.size, sg.zero
    conj = np.array(sg.r, dtype=np.int32)[sg.slab.T]  # (f, s): s f s*
    keys = np.arange(len(conj), dtype=np.int32)[:, None] * n + conj
    _, first = np.unique(keys, return_index=True)
    first.sort()
    idem = sg.idempotent_list()
    out = {f: {} for f in idem if f != zero}
    cols, elems = np.divmod(first, n)
    for j, s, c in zip(cols.tolist(), elems.tolist(), conj.ravel()[first].tolist()):
        if c != zero and idem[j] != zero:
            out[idem[j]][c] = s
    return out


def minimal_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For all nonzero idempotents e and f, the conjugates of f form an
    outer cover for e.

    Canonical candidate: the family of all nonzero conjugates s f s*.
    Outer covers are monotone, so some finite subfamily works exactly
    when the full family does; a small subfamily is extracted afterwards
    as the witness.  f enters only through the set of its conjugates, so
    each distinct conjugate set is turned once into the bits of the
    idempotents it meets, the union of its members' ``sg.meet_bits``
    rows, and each e is decided against those bits for all its members
    at once: the first member of the ideal below e that they miss, the
    lowest set bit of ``sg.below_bits[e]`` outside them, is uncovered.
    The witness covers are trimmed only when no pair fails, and the
    (e, f) with one trimmed cover and one f share one tuple of
    (cover, via) pairs, built once.
    """
    nz = sg.nonzero_idempotents()
    conjugators = _conjugators(sg)
    conjugate_sets = {f: frozenset(seen) for f, seen in conjugators.items()}
    idem = sg.idempotent_list()
    met = {}                          # conjugate set -> bits of what it meets
    for cands in conjugate_sets.values():
        if cands not in met:
            bits = 0
            for c in cands:
                bits |= sg.meet_bits[c]
            met[cands] = bits
    nonzero = ~(1 << sg.column[sg.zero])
    failures = []
    for e in nz:
        below = sg.below_bits[e] & nonzero
        for f in nz:
            missed = below & ~met[conjugate_sets[f]]
            if missed:
                uncovered = idem[(missed & -missed).bit_length() - 1]
                failures.append({"e": e, "f": f, "uncovered": uncovered})
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    witnesses = {}
    made = {}                         # (trimmed cover, f) -> its (cover, via) pairs
    for e in nz:
        below = sg.below(e)
        trimmed = {}
        for f in nz:
            cands = conjugate_sets[f]
            small = trimmed.get(cands)
            if small is None:
                small = trimmed[cands] = _minimize_cover(sg, cands, below)
            pairs = made.get((small, f))
            if pairs is None:
                seen = conjugators[f]
                pairs = made[small, f] = tuple([(c, seen[c]) for c in small])
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

def _domain_union(act, members) -> frozenset:
    out = set()
    for f in members:
        out |= act.edomains[f]
    return frozenset(out)


def verify_instance(sg: InverseSemigroup, name: str = "S", seed: int = 0):
    """Run every theorem-backed identity on one instance.

    Raises TheoremViolation on the first failure; returns the Analysis
    together with a dict naming every identity that ran.  The identities
    re-derive both sides independently instead of reusing each other's
    intermediate values wherever the two sides have distinct mechanisms.
    An identity checked once per element, pair or cover compares first
    and formats its instance label (``s=...``, ``J=... C=...``) only when
    it fails.
    """
    analysis = analyze(sg, name)
    act = analysis.action
    gpd = analysis.groupoid
    spec = analysis.spectrum
    slab, r = sg.slab, sg.r
    zero = sg.zero
    checks = {}

    # finite collapse: the tight points are exactly the ultrafilters
    tight = {f.min for f in spec.points}
    ultra = {f.min for f in spectrum_mod.ultrafilters(sg)}
    _identity("tight_equals_ultra", tight, ultra, name)
    checks["tight_equals_ultra"] = True

    # weakly fixed idempotents match pointwise-fixed domains
    for s in sg.elements():
        m = act.maps[s]
        for e in sg.below(sg.d[s]):
            if e == zero:
                continue
            lhs = weakly_fixed(sg, e, s)
            rhs = all(m[x] == x for x in act.edomains[e])
            if lhs != rhs:
                raise TheoremViolation("weakly_fixed_vs_fixed_points", lhs, rhs,
                                       f"{name} s={s} e={e}")
    checks["weakly_fixed_vs_fixed_points"] = True

    # outer covers match inclusions of domain unions
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
        ideal_union = _domain_union(act, members)
        for cov in candidates:
            lhs = sg.is_outer_cover(cov, ideal)
            cov_union = _domain_union(act, cov)
            rhs = ideal_union <= cov_union
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

    # conjugation carries domains onto domains
    for s in sg.elements():
        dom = act.domain(s)
        for f, sf in zip(idem, slab[s].tolist()):
            img = act.image(s, act.edomains[f] & dom)
            conj_dom = act.edomains[r[sf]]
            if img != conj_dom:
                raise TheoremViolation("conjugated_domains", img, conj_dom,
                                       f"{name} s={s} f={f}")
    checks["conjugated_domains"] = True

    # the action preserves ultrafilters
    in_ultra = [p.min in ultra for p in spec.points]
    for s in sg.elements():
        m = act.maps[s]
        for x in act.domain(s):
            if in_ultra[x] and not in_ultra[m[x]]:
                raise TheoremViolation("ultrafilter_preserved", True, False,
                                       f"{name} s={s} x={x}")
    checks["ultrafilter_preserved"] = True

    # trivial fixed points are fixed points; the same pass collects the
    # ultrafilter reading of topological freeness
    cond_iii = True
    for s in sg.elements():
        tf = action_mod.trivial_fixed_points(act, s)
        fp = action_mod.fixed_points(act, s)
        if not tf <= fp:
            raise TheoremViolation("trivial_fixed_subset_fixed", False, True,
                                   f"{name} s={s}")
        if cond_iii:
            cond_iii = all(x in tf for x in fp if in_ultra[x])
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
            lhs = weakly_fixed(sg, e, s)
            if not lhs:
                raise TheoremViolation("fixed_implies_weakly_fixed", lhs,
                                       True, f"{name} s={s} e={e}")
    checks["fixed_implies_weakly_fixed"] = True

    # never met at the least atom (else it raises); vacuous with no atom
    easier_loc_contr_criterion(sg)
    checks["easier_implies_main"] = True

    # groupoid axioms, exhaustively, within the size budget
    if len(gpd.arrows) <= 2000:
        gpd.verify_axioms()
        checks["groupoid_axioms"] = True

    return analysis, checks
