from __future__ import annotations

import pytest

import tightgroupoid as tg
from tightgroupoid import errors

import oracles

SAMPLE_NAMES = ("I2", "B2", "Z2z", "E4", "Pow(3)", "In(3)")


def make(name):
    sg = tg.build_fixture(name)
    return sg, tg.standard_action(tg.tight_spectrum(sg))


def point_named(sg, act, min_name):
    for x in range(act.points):
        if act.label_of(x) == f"^{min_name}":
            return x
    raise AssertionError(min_name)


# -------------------------------------------------------- standard action

def test_matrix_unit_moves_point():
    sg, act = make("B2")
    byname = {sg.name_of(s): s for s in sg.elements()}
    src = point_named(sg, act, "e22")
    dst = point_named(sg, act, "e11")
    assert act.apply(byname["e12"], src) == dst


def test_idempotents_act_identically():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        for e in sg.idempotents:
            assert all(act.apply(e, x) == x for x in act.domain(e))


def test_swap_exchanges_the_two_points():
    sg, act = make("I2")
    byname = {sg.name_of(s): s for s in sg.elements()}
    src = point_named(sg, act, "0_")
    dst = point_named(sg, act, "_1")
    assert act.apply(byname["10"], src) == dst
    assert act.apply(byname["10"], dst) == src


def test_standard_actions_validate():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        act._validated = False
        tg.validate_action(act)


# ------------------------------------------------------------- validation

def _e4_flat_action():
    sg = tg.build_fixture("E4")
    maps = {0: (None, None), 1: (0, None), 2: (None, 1), 3: (0, 1)}
    return sg, maps


def test_validate_action_accepts_sound_maps():
    sg, maps = _e4_flat_action()
    tg.validate_action(tg.FiniteAction(sg, 2, maps))


def test_nonempty_zero_map_rejected():
    sg, maps = _e4_flat_action()
    maps[0] = (0, None)
    with pytest.raises(errors.InvalidAction):
        tg.validate_action(tg.FiniteAction(sg, 2, maps))


def test_uncovered_carrier_rejected():
    sg, maps = _e4_flat_action()
    maps = {s: m + (None,) for s, m in maps.items()}
    with pytest.raises(errors.DomainNotCovering):
        tg.validate_action(tg.FiniteAction(sg, 3, maps))


def test_composition_mismatch_detected():
    sg, maps = _e4_flat_action()
    maps[1] = (0, 1)   # the a-domain now overlaps the b-domain
    with pytest.raises(errors.CompositionMismatch):
        tg.validate_action(tg.FiniteAction(sg, 2, maps))


def test_inverse_mismatch_detected():
    z2z = tg.build_fixture("Z2z")
    # a three-cycle is injective but its inverse is not itself
    maps = {0: (None,) * 3, 1: (0, 1, 2), 2: (1, 2, 0)}
    with pytest.raises(errors.InverseMismatch):
        tg.validate_action(tg.FiniteAction(z2z, 3, maps))


def test_lowest_idempotent_not_acting_as_identity_is_named():
    # In(4)'s idempotents 4 (___3) and 34 (_1__) each hold one point of
    # the standard action; each now sends it to the next point.  The set
    # of idempotents iterates 34 before 4
    sg, act = make("In(4)")
    maps = act.array.copy()
    for e in (34, 4):
        (x,) = act.domain(e)
        maps[e, x] = (x + 1) % act.points
    lowest = "^idempotent 4 does not act as the identity$"
    with pytest.raises(errors.InvalidAction, match=lowest):
        tg.validate_action(tg.FiniteAction(sg, act.points, maps))
    with pytest.raises(errors.InvalidAction, match=lowest):
        oracles.per_element_validate(sg, act.points, oracles.views(maps)[0])


# ----------------------------------------------------- character action

def test_character_action_of_idempotent_is_identity():
    for name in SAMPLE_NAMES:
        sg, _ = make(name)
        for f in tg.all_filters(sg):
            phi = tg.char_of(sg, f)
            for e in sg.idempotents:
                if phi(e):
                    assert oracles.act_on_character(sg, e, phi) == phi


def test_character_action_examples():
    z2z = tg.build_fixture("Z2z")
    phi = tg.char_of(z2z, tg.filter_from_min(z2z, 1))
    assert oracles.act_on_character(z2z, 2, phi) == phi
    b2 = tg.build_fixture("B2")
    byname = {b2.name_of(s): s for s in b2.elements()}
    src = tg.char_of(b2, tg.filter_from_min(b2, byname["e22"]))
    dst = tg.char_of(b2, tg.filter_from_min(b2, byname["e11"]))
    assert oracles.act_on_character(b2, byname["e12"], src) == dst


def test_character_action_outside_domain():
    b2 = tg.build_fixture("B2")
    byname = {b2.name_of(s): s for s in b2.elements()}
    phi = tg.char_of(b2, tg.filter_from_min(b2, byname["e11"]))
    with pytest.raises(errors.NotInDomain):
        oracles.act_on_character(b2, byname["e12"], phi)


def test_action_agrees_with_character_route():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        spec = tg.tight_spectrum(sg)
        for s in sg.elements():
            for x in act.domain(s):
                via_chars = oracles.image_filter_via_characters(
                    sg, s, spec.points[x])
                assert spec.points[act.apply(s, x)] == via_chars


# ------------------------------------------------------------ fixed points

def test_trivial_fixed_points_examples():
    sg, act = make("Z2z")
    assert tg.trivial_fixed_points(act, 2) == frozenset()
    assert tg.fixed_points(act, 2) == frozenset({0})
    sg, act = make("I2")
    byname = {sg.name_of(s): s for s in sg.elements()}
    assert tg.trivial_fixed_points(act, byname["10"]) == frozenset()
    assert tg.fixed_points(act, byname["10"]) == frozenset()
    for e in sg.idempotents:
        assert tg.fixed_points(act, e) == act.domain(e)
        assert tg.trivial_fixed_points(act, e) == act.domain(e)


def test_trivial_fixed_points_match_pointwise_search():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        for s in sg.elements():
            assert tg.trivial_fixed_points(act, s) == \
                oracles.direct_trivial_fixed_points(act, s)
            assert tg.trivial_fixed_points(act, s) <= tg.fixed_points(act, s)


def test_freeness_fixtures():
    _, act = make("I2")
    assert tg.is_topologically_free(act)
    _, act = make("Z2z")
    assert not tg.is_topologically_free(act)
    _, act = make("E4")
    assert tg.is_free(act)


def test_free_equals_topologically_free_here():
    for name in SAMPLE_NAMES:
        _, act = make(name)
        assert tg.is_free(act) == tg.is_topologically_free(act)


def test_e_star_unitary_fixed_point_form():
    # for these semigroups freeness reduces to empty fixed sets away from
    # idempotents
    for name in ("I2", "B2", "Z2z", "E4"):
        sg, act = make(name)
        assert sg.is_e_star_unitary()
        empty_away = all(
            not tg.fixed_points(act, s)
            for s in sg.elements() if s not in sg.idempotents
        )
        assert tg.is_topologically_free(act) == empty_away
        for s in sg.elements():
            if s not in sg.idempotents:
                assert tg.trivial_fixed_points(act, s) == frozenset()


# ----------------------------------------------------------------- orbits

def test_irreducibility_fixtures():
    for name in ("B2", "Z2z", "I2"):
        _, act = make(name)
        assert tg.is_irreducible(act)
    _, act = make("E4")
    assert not tg.is_irreducible(act)


def test_two_component_sum_is_not_irreducible():
    # two copies of the order-two group glued at zero
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 0, 0],
        [0, 2, 1, 0, 0],
        [0, 0, 0, 3, 4],
        [0, 0, 0, 4, 3],
    ]
    sg = tg.from_table(table, 0)
    act = tg.standard_action(tg.tight_spectrum(sg))
    part = tg.orbit_partition(act)
    assert len(part.classes) == 2
    assert not tg.is_irreducible(act)


def test_orbits_match_reachability():
    for name in SAMPLE_NAMES:
        _, act = make(name)
        assert set(tg.orbit_partition(act).classes) == \
            oracles.orbit_classes_by_bfs(act)
        for x in range(act.points):
            assert x in tg.orbit_partition(act).class_of(x)


# ------------------------------------------------------ local contraction

def test_contraction_always_refuted():
    for name in SAMPLE_NAMES:
        _, act = make(name)
        verdict = tg.is_locally_contracting_action(act)
        assert not verdict
        assert verdict.reason == "CardinalityObstruction"


def test_contraction_search_agrees():
    for name in ("I2", "B2", "Z2z", "E4"):
        _, act = make(name)
        assert act.points <= 6
        found, _ = oracles.search_contraction_action(act)
        assert found is False


def test_single_point_carrier():
    _, act = make("Z2z")
    assert act.points == 1
    assert not tg.is_locally_contracting_action(act)


def test_empty_carrier_reported():
    trivial = tg.from_table([[0]], 0)
    act = tg.FiniteAction(trivial, 0, {0: ()})
    verdict = tg.is_locally_contracting_action(act)
    assert not verdict
    assert verdict.reason == "EmptySpectrum"
    # the same carrier validates, and its germ groupoid, which has no
    # arrows, passes both readings of the axioms vacuously
    tg.validate_action(act)
    g = tg.build_germ_groupoid(act)
    assert g.arrows == () and g.units == frozenset()
    g.verify_axioms()
    oracles.compose_verify_axioms(g)


# ------------------------------------------------------------- invariants

def test_ultrafilters_preserved():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        spec = tg.tight_spectrum(sg)
        for s in sg.elements():
            for x in act.domain(s):
                assert tg.is_ultrafilter(sg, spec.points[act.apply(s, x)])


def test_conjugation_carries_domains():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        for s in sg.elements():
            dom = act.domain(s)
            for f in sg.idempotents:
                img = frozenset(act.apply(s, x) for x in act.domain(f) & dom)
                conj = sg.table[sg.table[s][f]][sg.star[s]]
                assert img == act.domain(conj)


def test_covers_match_domain_unions():
    for name in SAMPLE_NAMES:
        sg, act = make(name)
        idem = sg.idempotent_list()
        for e in idem:
            ideal = sg.principal_ideal(e)
            for cov in oracles.powerset(idem):
                cov = frozenset(cov)
                union = set()
                for c in cov:
                    union |= act.domain(c)
                lhs = sg.is_outer_cover(cov, ideal)
                assert lhs == (act.domain(e) <= union)
                if cov <= ideal.members:
                    assert sg.is_cover(cov, ideal) == (act.domain(e) == union)
