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
``below_bits`` and ``meet_bits``; essential principality, those and the
weakly fixed flags, ``_weakly_fixed``; minimality, those and the column of
s f s* per slab cell, ``_conjugation``, both arrays made from the ``slab``
by the constructor; local contraction, the ``slab`` column of the least
atom, found by ``below_bits``.  Of the harness's cover identities, the
outer one reads ``meet_bits`` and the one inside the ideal
``below_bits``, each against the action's domains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import action as action_mod
from . import germs as germs_mod
from . import spectrum as spectrum_mod
from .errors import PreconditionViolated, TheoremViolation
from .semigroup import InverseSemigroup, _bit_rows, _block_rows, _first, _row_bits


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
    one fixed ideal, share one canonical cover, ``sg._maximal`` of the
    row, built and checked once on bits.
    """
    covers, by_row, nonzero = {}, {}, ~(1 << sg.column[sg.zero])
    for s, row in enumerate(sg.below_bits):
        cover = by_row.get(row)
        if cover is None:
            found = sg._maximal(row)
            if found & ~row or row & nonzero & ~sg._met(found):
                raise TheoremViolation("canonical_cover", list(sg.members_of(found)),
                                       list(sg.members_of(row)), f"element {s}")
            cover = by_row[row] = sg.members_of(found)
        covers[s] = cover
    return CriterionResult(True, witness={"covers": covers})


# -------------------------------------------------- essential principality

def weakly_fixed(sg: InverseSemigroup, e: int, s: int) -> bool:
    """e (below s*s) is weakly fixed under s when every nonzero
    idempotent below e intersects its own conjugate s f s*.  Read off the
    instance's weakly fixed flags, ``sg._weakly_fixed``."""
    sg._require_element(s)
    j = sg.column.get(e)
    if j is not None:
        if sg._weakly_fixed[s, j]:
            return True
        if sg.below_bits[sg.d[s]] >> j & 1:
            return False
    raise PreconditionViolated(f"idempotent {e} does not lie below s*s for s={s}")


def _minimize_cover(sg, candidates, members, rows):
    """Greedy removal pass over a cover, the `candidates`, of the nonzero
    `members`, both bits; keeps the witness small for readability,
    correctness never depends on the result being minimum.  `rows` keeps
    each candidate set's members with their ``sg.meet_bits`` rows.

    In increasing order, a candidate c is dropped when every member it
    meets is met by another candidate still chosen, which is exactly when
    the rest still covers: the candidates kept before c and all those
    after it, so the test is one mask against the union of the kept ones
    and a suffix union.
    """
    got = rows.get(candidates)
    if got is None:
        cands = sg.members_of(candidates)
        got = rows[candidates] = cands, [sg.meet_bits[sg.column[c]] for c in cands]
    cands, meets = got
    hits = [bits & members for bits in meets]
    after = []                        # after[i]: union of the hits past i
    union = 0
    for hit in reversed(hits):
        after.append(union)
        union |= hit
    after.reverse()
    kept = []
    union = 0
    for c, hit, rest in zip(cands, hits, after):
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
    fixed pairs only, read in (s, e) order off ``sg._weakly_fixed`` with
    the zero left out, once per distinct (candidates, e), all of it on
    bits: the candidates are ``sg.below_bits[e] & sg.below_bits[s]``, the
    first uncovered member is the lowest bit of ``sg.below_bits[e]``
    outside what the candidates meet, ``sg._met``, and a cover is trimmed
    by :func:`_minimize_cover`.
    """
    idem, below_bits = sg.idempotent_list(), sg.below_bits
    zero_column = sg.column[sg.zero]
    nonzero = ~(1 << zero_column)
    rows, cols = np.nonzero(sg._weakly_fixed)
    keep = cols != zero_column
    failures, covers, memo, trim = [], {}, {}, {}
    for s, j in zip(rows[keep].tolist(), cols[keep].tolist()):
        e = idem[j]
        cands = below_bits[e] & below_bits[s] & nonzero
        got = memo.get((cands, e))
        if got is None:
            missed = below_bits[e] & nonzero & ~sg._met(cands)
            if missed:
                got = (idem[(missed & -missed).bit_length() - 1], None)
            else:
                got = (None, _minimize_cover(sg, cands, below_bits[e] & nonzero, trim))
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
    s f s* = c, or |S| where there is none.  One ``np.minimum.at``
    scatters every s onto the cell of its (f, s f s*), read off
    ``sg._conjugation``, keeping the least, with no sort.  Its indices and
    values are both 1-d: NumPy's fast path (from 1.25) takes no broadcast."""
    n, width = sg.slab.shape
    cells = sg._conjugation + np.arange(0, width * width, width, dtype=np.int32)
    via = np.full(width * width, n, dtype=np.int32)
    np.minimum.at(via, cells.ravel(), np.arange(n, dtype=np.int32).repeat(width))
    return via.reshape(width, width)


def minimal_criterion(sg: InverseSemigroup) -> CriterionResult:
    """For all nonzero idempotents e and f, the conjugates of f form an
    outer cover for e.

    Canonical candidate: the family of all nonzero conjugates s f s*.
    Outer covers are monotone, so some finite subfamily works exactly
    when the full family does; a small subfamily is extracted afterwards
    as the witness.  f enters only through the set of its conjugates, its
    row of :func:`_conjugators` read as bits, so what each distinct
    conjugate set meets is read once, ``sg._met``, and each e is decided
    against it for all its members at once: the first
    member of the ideal below e that they miss, the lowest set bit of
    ``sg.below_bits[e]`` outside them, is uncovered.  The witness covers
    are trimmed only when no pair fails, each conjugate c of f paired with
    its cell of :func:`_conjugators`, and the (e, f) with one trimmed cover
    and one f share one tuple of (cover, via) pairs, built once.
    """
    nz, idem = sg.nonzero_idempotents(), sg.idempotent_list()
    column, below_bits = sg.column, sg.below_bits
    via = _conjugators(sg)
    rows = via.tolist()
    nonzero = ~(1 << column[sg.zero])
    conjugates = [bits & nonzero for bits in _row_bits(via < sg.size)]
    met = {bits: sg._met(bits) for bits in set(conjugates)}
    reach = [met[conjugates[column[f]]] for f in nz]
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
    witnesses, trim = {}, {}
    made = {}                         # (trimmed cover, f) -> its (cover, via) pairs
    for e in nz:
        below = below_bits[e] & nonzero
        trimmed = {}
        for f in nz:
            cands = conjugates[column[f]]
            small = trimmed.get(cands)
            if small is None:
                small = trimmed[cands] = _minimize_cover(sg, cands, below, trim)
            pairs = made.get((small, f))
            if pairs is None:
                row = rows[column[f]]
                pairs = made[small, f] = tuple([(c, row[column[c]]) for c in small])
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

def verify_instance(sg: InverseSemigroup, name: str = "S", seed: int = 0):
    """Run every theorem-backed identity on one instance.

    Raises TheoremViolation on the first failure; returns the Analysis
    together with a dict naming every identity that ran.  The identities
    re-derive both sides independently instead of reusing each other's
    intermediate values wherever the two sides have distinct mechanisms.

    Each identity family costs a fixed number of whole-instance passes.
    Those over elements, pairs (s, e) and points read the action's array,
    its domain and trivially fixed masks, the fixed mask
    ``array == arange(points)``, the weakly fixed flags and the slab.  The
    conjugated domains identity over (s, f) compares two point sets packed
    into float64 words of 52 points: the image of dom f inside dom s, one
    product of the powers 2^(s x) with the domain masks, and the packed
    domain of s f s*; it and the weakly fixed pass run in blocks of
    elements, ``_block_rows`` of |E| cells.  Each pass reads both sides at
    its first failing cell, in (s, e), (s, f) or (s, x) order, and formats
    its instance label (``s=...``, ``J=... C=...``) only then, so it raises
    what a loop element by element would; the test suite keeps that loop
    as its oracle.  The cover identities hold each ideal J and candidate C
    as a bit row, and members only in a message; one `_met` of packed rows
    gives what a set meets, its domain union, its below-union and what lies
    strictly below its members, once per distinct ideal and candidate.
    The outer identity reads what C meets, ``meet_bits``; for C inside J,
    ``below_bits`` alone, every atom of J below a member of C.  The seeded
    draws of the candidates and of three closed ideals keep their order.
    The groupoid axioms are :meth:`GermGroupoid.verify_axioms`.
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
    flags = sg._weakly_fixed
    below = _bit_rows(sg.below_bits, len(idem))                 # (s, e): s e = e
    below_d = below[sg._index[1]] & (rows != zero)            # (s, e): 0 != e <= s*s
    checks = {}

    # finite collapse: the tight points are exactly the ultrafilters
    tight = {f.min for f in spec.points}
    ultra = set(spectrum_mod._maximal_filter_mins(sg))
    _identity("tight_equals_ultra", tight, ultra, name)
    checks["tight_equals_ultra"] = True

    # weakly fixed idempotents match pointwise-fixed domains: s moves no
    # point of the domain of e, in blocks of elements
    n, width = flags.shape
    step = _block_rows(width)
    moved, over = (~fixed).astype(np.float32), domains.T.astype(np.float32)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        pointwise = moved[block] @ over == 0
        failing = below_d[block] & (flags[block] != pointwise)
        if np.count_nonzero(failing):
            s, j = _first(failing)
            raise TheoremViolation("weakly_fixed_vs_fixed_points", bool(flags[lo + s, j]),
                                   bool(pointwise[s, j]), f"{name} s={lo + s} e={idem[j]}")
    checks["weakly_fixed_vs_fixed_points"] = True

    # outer covers match inclusions of domain unions; C inside J covers J,
    # every atom of J below a member of C, when their unions are equal.
    # Each idempotent's column packs, from bit 0 up, its row of meet_bits,
    # its domain, its down-set and its strict down-set, so one `_met` of a
    # set of idempotents reads what they meet, their domain union, their
    # below-union and what lies strictly below them; the canonical cover
    # of J, its maximal nonzero members, is J outside the last
    points = act.points
    everything, zero_bit = (1 << width) - 1, 1 << sg.column[zero]
    nonzero, all_points = ~zero_bit, (1 << points) - 1
    down_at, strict = width + points, 2 * width + points
    idem_below = [sg.below_bits[e] for e in idem]
    packed = [met | dom << width | down << down_at | (down & ~(1 << j)) << strict
              for j, (met, dom, down) in enumerate(zip(sg.meet_bits, _row_bits(domains), idem_below))]
    atoms = sg.bits(e for e in idem if spectrum_mod._is_atom(sg, e))
    rng = random.Random(seed)
    ideals = idem_below + sorted(set(sg.below_bits).difference(idem_below), key=sg.members_of)
    ideals += [everything & ~sg._met(bits) for bits in idem_below]
    # three closed ideals, each an OR of rows of below_bits, checked
    # against the slab in one pass: no idempotent the slab puts below a
    # member, f with e f = f, escapes
    slab_below, column = _row_bits(sg.slab[rows] == rows), sg.column
    for pick in [rng.sample(idem, k=min(width, 3)) for _ in range(3)]:
        closed = zero_bit
        for e in pick:
            closed |= idem_below[column[e]]
        if sg._met(closed, slab_below) & ~closed:
            sg.ideal({zero}.union(*map(sg.below, pick)))   # raises NotAnIdeal
        ideals.append(closed)

    ideals = list(dict.fromkeys(ideals))
    draws = [1 << column[a] | 1 << column[b]            # width >= 2: 0 and an atom
             for a, b in (rng.sample(idem, k=min(width, 2)) for _ in range(2 * len(ideals)))]
    seen = {}                            # candidate -> its `_met` of the packed rows
    for t, ideal in enumerate(ideals):
        held = sg._met(ideal, packed)
        ideal_union = held >> width & all_points
        inside, atoms_in = ideal & nonzero, ideal & atoms
        canonical = inside & ~(held >> strict)
        trimmed = (canonical & (canonical - 1),) if canonical else ()   # lowest dropped
        for cov in (canonical, 0, everything & nonzero, *trimmed, draws[2 * t], draws[2 * t + 1]):
            held = seen.get(cov)
            if held is None:
                held = seen[cov] = sg._met(cov, packed)
            check = "outer_cover_vs_domain_union"
            lhs = not inside & ~held
            rhs = not ideal_union & ~(held >> width)
            if lhs == rhs and not cov & ~ideal:
                check = "cover_vs_domain_equality"
                lhs = not atoms_in & ~(held >> down_at)
                rhs = ideal_union == held >> width & all_points
            if lhs != rhs:
                raise TheoremViolation(check, lhs, rhs, f"{name} J={list(sg.members_of(ideal))} "
                                       f"C={list(sg.members_of(cov))}")
    checks["outer_cover_vs_domain_union"] = True
    checks["cover_vs_domain_equality"] = True

    # the slice identity ran inside the direct Hausdorff decision that
    # analyze() paired with the criterion on this groupoid
    checks["slice_unit_identity"] = True

    # conjugation carries domains onto domains: s sends the points of the
    # domain of f inside its own onto the domain of s f s*.  Both sides are
    # point sets packed into float64, 52 image points a word: the left one
    # product over x of 2^(s x) with the domain masks, exact since analyze
    # validated the action, so each map is injective and the sum of its
    # distinct powers of two is their OR; the right one the packed domain
    # of r[t] gathered at t = s f, in the weakly fixed pass's blocks
    r = np.array(sg.r, dtype=np.int32)
    weights, over = defined.astype(float), domains.T.astype(float)
    word, bit = np.divmod(array, 52)
    owns = [(weights[:, lo:lo + 52] @ np.ldexp(1.0, np.arange(min(points - lo, 52))))[r]
            for lo in range(0, points, 52)]                    # word c of the domain of r[t]
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        failing = False
        for c, own in enumerate(owns):
            image = np.ldexp(word[block] == c, bit[block], dtype=float) @ over
            failing = failing | (image != own[sg.slab[block]])
        if np.count_nonzero(failing):
            s, j = _first(failing)
            raise TheoremViolation("conjugated_domains",
                                   frozenset(array[lo + s, domains[j] & defined[lo + s]].tolist()),
                                   act.domain(sg.r[sg.slab[lo + s, j]]),
                                   f"{name} s={lo + s} f={idem[j]}")
    checks["conjugated_domains"] = True

    # the action preserves ultrafilters, read off the slab, not the point list
    mins = np.array([p.min for p in spec.points])
    image = r[sg.slab[:, [sg.column[a] for a in mins.tolist()]]]  # (s, x): s min(x) s*
    is_ultra = np.zeros(n, dtype=bool)
    is_ultra[list(ultra)] = True
    failing = defined & ~(is_ultra[image] & (image == mins[array]))
    if np.count_nonzero(failing):
        s, x = _first(failing)
        raise TheoremViolation("ultrafilter_preserved", True, False, f"{name} s={s} x={x}")
    checks["ultrafilter_preserved"] = True

    # trivial fixed points are fixed points; the ultrafilter reading of
    # topological freeness: every fixed ultrafilter is trivially fixed
    failing = (trivial & ~fixed).any(axis=1)
    if np.count_nonzero(failing):
        raise TheoremViolation("trivial_fixed_subset_fixed", False, True,
                               f"{name} s={int(failing.argmax())}")
    cond_iii = not np.count_nonzero(fixed & is_ultra[mins] & ~trivial)
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
        if np.count_nonzero(failing):
            s = int(failing.argmax())
            raise TheoremViolation("estar_trivial_fixed_empty",
                                   action_mod.trivial_fixed_points(act, s),
                                   frozenset(), f"{name} s={s}")
    checks["estar_implications"] = True

    failing = below & below_d & ~flags
    if np.count_nonzero(failing):
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
