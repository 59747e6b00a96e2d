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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import action as action_mod
from . import germs as germs_mod
from . import spectrum as spectrum_mod
from .errors import EmptySpectrum, PreconditionViolated, TheoremViolation
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
    decision made elsewhere.
    """
    covers = {}
    for s in sg.elements():
        ideal = sg.fixed_idempotents(s)
        cover = sg.canonical_cover(ideal)
        if not sg.is_cover(cover, ideal):
            raise TheoremViolation("canonical_cover", sorted(cover), sorted(ideal), f"element {s}")
        covers[s] = tuple(sorted(cover))
    return CriterionResult(True, witness={"covers": covers})


# -------------------------------------------------- essential principality

def weakly_fixed(sg: InverseSemigroup, e: int, s: int) -> bool:
    """e (below s*s) is weakly fixed under s when every nonzero
    idempotent below e intersects its own conjugate s f s*."""
    slab = sg.slab
    if e not in sg.idempotents or slab[e][sg.d[s]] != e:
        raise PreconditionViolated(f"idempotent {e} does not lie below s*s for s={s}")
    row, r = slab[s], sg.r
    for f in sg.below(e):
        if f == sg.zero:
            continue
        if slab[r[row[f]]][f] == sg.zero:
            return False
    return True


def _minimize_cover(sg, candidates, ideal_members):
    """Greedy removal pass over a cover of the ideal; keeps the witness
    small for readability, correctness never depends on the result being
    minimum.

    In increasing order, a candidate c is dropped when every member it
    meets is met by another element still chosen, which is exactly when
    the rest still covers.  Per member, a count of the chosen elements it
    meets makes that test one pass over the members c meets.
    """
    zero = sg.zero
    slab = sg.slab
    members = [f for f in ideal_members if f != zero]
    met = {c: [f for f in members if slab[f][c] != zero] for c in candidates}
    count = dict.fromkeys(members, 0)
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
    return tuple(kept)


def top_free_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For every element s and every idempotent e below s*s that is
    weakly fixed under s, some finite cover of e consists of idempotents
    fixed by s.

    Canonical candidate: all nonzero idempotents below e and fixed by s.
    If any fixed cover exists it sits inside that set, and enlarging a
    cover inside the same ideal keeps it a cover, so testing the full
    candidate set decides existence.
    """
    zero = sg.zero
    failures = []
    covers = {}
    for s in sg.elements():
        row = sg.slab[s]
        for e in sg.below(sg.d[s]):
            if e == zero or not weakly_fixed(sg, e, s):
                continue
            fixed_cands = [c for c in sg.below(e) if c != zero and row[c] == c]
            uncovered = sg.first_uncovered(fixed_cands, sg.below(e))
            if uncovered is None:
                covers[(s, e)] = _minimize_cover(sg, fixed_cands, sg.below(e))
            else:
                failures.append({"s": s, "e": e, "uncovered": uncovered})
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    return CriterionResult(True, witness={"fixed_covers": covers})


# ------------------------------------------------------------- minimality

def minimal_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For all nonzero idempotents e and f, the conjugates of f form an
    outer cover for e.

    Canonical candidate: the family of all nonzero conjugates s f s*.
    Outer covers are monotone, so some finite subfamily works exactly
    when the full family does; a small subfamily is extracted afterwards
    as the witness.  f enters only through the set of its conjugates, so
    each e is decided once per distinct conjugate set.
    """
    slab, r = sg.slab, sg.r
    zero = sg.zero
    nz = sg.nonzero_idempotents()
    conjugators = {}
    for f in nz:
        seen = {}
        for s in sg.elements():
            c = r[slab[s][f]]
            if c != zero and c not in seen:
                seen[c] = s
        conjugators[f] = seen
    conjugate_sets = {f: frozenset(seen) for f, seen in conjugators.items()}
    failures = []
    witnesses = {}
    for e in nz:
        decided = {}
        for f in nz:
            cands = conjugate_sets[f]
            if cands not in decided:
                uncovered = sg.first_uncovered(cands, sg.below(e))
                small = None
                if uncovered is None:
                    small = _minimize_cover(sg, cands, sg.below(e))
                decided[cands] = (uncovered, small)
            uncovered, small = decided[cands]
            if uncovered is not None:
                failures.append({"e": e, "f": f, "uncovered": uncovered})
            else:
                seen = conjugators[f]
                witnesses[(e, f)] = tuple((c, seen[c]) for c in small)
    if failures:
        return CriterionResult(False, witness={"failures": failures})
    return CriterionResult(True, witness={"conjugate_covers": witnesses})


# --------------------------------------------------- local contractiveness

def _refute_at_least_atom(sg: InverseSemigroup, check: str,
                          qualifies) -> CriterionResult:
    """Refute a contraction pattern at the least atom e, or hold it
    vacuously when every idempotent is 0.  An s with e s*s nonzero
    qualifies when e s e = 0 and ``qualifies(c, c e)`` for c = s e s*,
    which no inverse semigroup allows, so it raises."""
    slab, d, r, zero = sg.slab, sg.d, sg.r, sg.zero
    e = next((f for f in sg.nonzero_idempotents() if len(sg.below(f)) == 2), None)
    if e is None:
        return CriterionResult(True, vacuous=True)
    row_e = slab[e]
    for s in sg.elements():
        if row_e[d[s]] == zero or slab[sg.left(e, s)][e] != zero:
            continue
        conj = r[slab[s][e]]
        if qualifies(conj, slab[conj][e]):
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


def _pair(name: str, instance: str, criterion: bool, direct: bool,
          witness: dict) -> PropertyPair:
    if criterion != direct:
        raise TheoremViolation(name, criterion, direct, instance)
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
    spec = spectrum_mod.tight_spectrum(sg)
    if not spec.points:
        raise EmptySpectrum(f"instance {name} has spectrum of size 0")
    act = action_mod.standard_action(spec)
    gpd = germs_mod.build_germ_groupoid(act)

    h_crit = hausdorff_criterion(sg)
    h_pair = _pair("hausdorff", name, h_crit.value, gpd.is_hausdorff(), h_crit.witness)

    tf_crit = top_free_criterion(sg)
    topo_free = action_mod.is_topologically_free(act)
    if tf_crit.value != topo_free:
        raise TheoremViolation("topological_freeness", tf_crit.value, topo_free, name)
    e_pair = _pair("essentially_principal", name, tf_crit.value,
                   gpd.is_essentially_principal(), tf_crit.witness)

    m_crit = minimal_criterion(sg)
    irred = action_mod.is_irreducible(act)
    if m_crit.value != irred:
        raise TheoremViolation("irreducibility", m_crit.value, irred, name)
    m_pair = _pair("minimal", name, m_crit.value, gpd.is_minimal(), m_crit.witness)

    lc_crit = locally_contracting_criterion(sg)
    lc_action = action_mod.is_locally_contracting_action(act)
    lc_gpd = gpd.locally_contracting_verdict()
    if lc_crit.value != lc_action.value:
        raise TheoremViolation("locally_contracting_action", lc_crit.value,
                               lc_action.value, name)
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

def _identity(check: str, lhs, rhs, instance: str) -> None:
    if lhs != rhs:
        raise TheoremViolation(check, lhs, rhs, instance)


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
    fixed = {sg.fixed_idempotents(s).members for s in sg.elements()}
    ideals += [Ideal(mem) for mem in sorted(fixed, key=sorted)]
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
        row = slab[s]
        for f in idem:
            img = act.image(s, act.edomains[f] & dom)
            conj_dom = act.edomains[r[row[f]]]
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

    for s in sg.elements():
        row = slab[s]
        for e in sg.below(sg.d[s]):
            if e != zero and row[e] == e:
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
