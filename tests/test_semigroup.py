from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightgroupoid as tg
from tightgroupoid import errors, semigroup
from tightgroupoid.fixtures import random_partial_injection

import oracles

Z2Z_TABLE = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]

SAMPLES = [
    tg.build_fixture("I2"),
    tg.build_fixture("B2"),
    tg.build_fixture("Z2z"),
    tg.build_fixture("E4"),
    tg.build_fixture("Pow(3)"),
    tg.build_fixture("In(3)"),
]


def names_of(sg, items):
    return {sg.name_of(i) for i in items}


# ----------------------------------------------------------- from_table

def test_z2z_table_valid():
    sg = tg.from_table(Z2Z_TABLE, 0)
    assert sg.star == (0, 1, 2)
    assert sg.idempotents == {0, 1}


def test_trivial_semigroup():
    sg = tg.from_table([[0]], 0)
    assert sg.size == 1 and sg.idempotents == {0}


def test_left_zero_semigroup_rejected():
    # ab = a, ba = b: both elements satisfy x y x = x, so neither inverse
    # is unique
    with pytest.raises(errors.InverseNotUnique):
        tg.from_table([[0, 0], [1, 1]], 0)


def test_not_associative_rejected():
    with pytest.raises(errors.NotAssociative):
        tg.from_table([[0, 1, 0], [1, 2, 0], [0, 0, 0]], 2)


def test_zero_not_absorbing_rejected():
    with pytest.raises(errors.ZeroNotAbsorbing):
        tg.from_table([[0, 1], [1, 0]], 0)


def test_bad_zero_index():
    with pytest.raises(errors.NoZero):
        tg.from_table([[0]], 3)
    # any integer type is an index; a non-integer, or a NumPy integer out
    # of range, is refused with the message of an index out of range
    sg = tg.from_table([[0, 0], [0, 1]], np.int64(0))
    assert sg.zero == 0 and type(sg.zero) is int
    for zero in (np.int64(2), np.int32(-1), 0.0, "0", None):
        message = re.escape(f"zero index {zero!r} out of range")
        with pytest.raises(errors.NoZero, match=message):
            tg.from_table([[0, 0], [0, 1]], zero)


# ---------------------------------------------------- from_partial_maps

def test_partial_injection_closure_gives_seven_elements():
    swap = (1, 0)
    id0 = (0, None)
    sg = tg.from_partial_maps(2, [swap, id0])
    assert sg.size == 7
    assert len(sg.idempotents) == 4


def test_identity_only_closure():
    sg = tg.from_partial_maps(1, [(0,)])
    assert sg.size == 2


def test_matrix_unit_like_closure():
    sg = tg.from_partial_maps(2, [(1, None)])
    assert sg.size == 5
    assert len(sg.idempotents) == 3


def test_non_injective_generator_rejected():
    with pytest.raises(errors.NotInjective):
        tg.from_partial_maps(2, [(0, 0)])


def test_degree_mismatch_rejected():
    with pytest.raises(errors.DegreeMismatch):
        tg.from_partial_maps(2, [(0, 1, None)])


def closure_or_cap(build):
    try:
        return set(build())
    except errors.CapExceeded:
        return "CapExceeded"


def three_generators(n):
    """The n-cycle, the transposition (0 1) and the rank n-1 partial
    identity, which generate all partial injections of n points."""
    gens = [tuple((x + 1) % n for x in range(n)),
            tuple(range(n - 1)) + (None,)]
    if n > 1:
        gens.append((1, 0) + tuple(range(2, n)))
    return gens


def test_closure_matches_two_sided_oracle(monkeypatch):
    # degree 1 with cap 1 exceeds its cap before any product is formed
    default = semigroup.MAX_SIZE
    cases = [(2, [(1, 0), (0, None)], default), (1, [(0,)], 1),
             (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 1, 2, 3, None)],
              default)]
    cases += [(n, three_generators(n), default) for n in range(1, 5)]
    rng = random.Random(0)
    for _ in range(500):
        degree = rng.randint(1, 5)
        gens = [random_partial_injection(rng, degree)
                for _ in range(rng.randint(1, 3))]
        cases.append((degree, gens, rng.choice([default, 20, 50, 300])))
    for degree, gens, cap in cases:
        monkeypatch.setattr(semigroup, "MAX_SIZE", cap)
        got = closure_or_cap(lambda: tg.from_partial_maps(
            degree, gens).partial_maps)
        want = closure_or_cap(lambda: oracles.two_sided_closure(
            degree, gens, cap))
        assert got == want, (degree, gens, cap)


def test_high_degree_closures_match_per_map_definitions(monkeypatch):
    # at degrees 15-24 a map coded as one base (degree + 1) number would
    # not fit in 64 bits; every field is checked against its definition
    # on the maps themselves
    monkeypatch.setattr(semigroup, "MAX_SIZE", 2000)
    rng = random.Random(1408)
    checked = 0
    while checked < 10:
        degree = rng.randint(15, 24)
        gens = [random_partial_injection(rng, degree)
                for _ in range(rng.randint(1, 2))]
        try:
            sg = tg.from_partial_maps(degree, gens)
        except errors.CapExceeded:
            continue
        checked += 1
        maps = sg.partial_maps
        assert maps == tuple(sorted(
            oracles.two_sided_closure(degree, gens),
            key=lambda f: tuple(-1 if v is None else v for v in f))), gens
        index = {f: i for i, f in enumerate(maps)}
        compose = oracles.compose_maps
        for s, f in enumerate(maps):
            inv = oracles.invert_map(f)
            assert sg.star[s] == index[inv]
            assert sg.d[s] == index[compose(inv, f)]
            assert sg.r[s] == index[compose(f, inv)]
            assert (s in sg.idempotents) == (compose(f, f) == f)
            assert sg.slab[s].tolist() == [
                index[compose(f, maps[e])] for e in sg.idempotent_list()]


def test_wide_identity_closure_stays_small():
    # one generator on 10,000 points closes to two maps; the build must
    # not grow with anything but |S| times the degree
    import tracemalloc

    identity = tuple(range(10_000))
    tracemalloc.start()
    try:
        sg = tg.from_partial_maps(10_000, [identity])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sg.size == 2 and sg.partial_maps[1] == identity
    assert peak < 16 * 2 ** 20, peak


def test_closure_stops_at_first_map_past_cap(product_count, monkeypatch):
    gens = three_generators(6)
    letters = set(gens) | {oracles.invert_map(g) for g in gens}
    monkeypatch.setattr(semigroup, "MAX_SIZE", 50)
    with pytest.raises(errors.CapExceeded):
        tg.from_partial_maps(6, gens)
    # a product for every map past the letters and the empty map
    assert 51 - 1 - len(letters) <= product_count[0] <= 51 * len(letters)


def test_table_fill_composes_only_along_the_walk(product_count):
    # In(4) has 209 elements and 4 distinct letters: one product per edge
    # of the right Cayley graph, none per table cell
    sg = tg.from_partial_maps(4, three_generators(4))
    assert sg.size == 209
    assert product_count[0] == 209 * 4


# ----------------------------------------------------------------- order

def test_zero_below_everything():
    for sg in SAMPLES:
        assert all(sg.nat_leq(sg.zero, s) for s in sg.elements())


def test_order_on_i2():
    sg = tg.build_fixture("I2")
    byname = {sg.name_of(s): s for s in sg.elements()}
    assert sg.nat_leq(byname["0_"], byname["01"])       # id on {0} below id
    assert not sg.nat_leq(byname["10"], byname["01"])   # swap not below id


def test_order_on_z2z():
    sg = tg.build_fixture("Z2z")
    assert not sg.nat_leq(1, 2)  # 1 != g*1*1 = g


def test_meet_examples():
    e4 = tg.build_fixture("E4")
    assert e4.meet(1, 1) == 1
    assert e4.meet(1, 2) == 0    # a and b meet at zero
    assert e4.meet(3, 1) == 1    # top meets a at a
    with pytest.raises(errors.NotIdempotent):
        tg.build_fixture("Z2z").meet(2, 1)


def test_idempotent_arguments_are_checked():
    # the slab has a cell for each idempotent only; a non-idempotent
    # argument is refused, not looked up
    for sg in (tg.build_fixture("Z2z"), tg.symmetric_inverse_monoid(2)):
        s = next(x for x in sg.elements() if x not in sg.idempotents)
        e = max(sg.idempotents)
        whole = sg.principal_ideal(e)
        for call in (lambda: sg.meet(s, e), lambda: sg.meet(e, s),
                     lambda: sg.is_outer_cover({s}, whole),
                     lambda: sg.first_uncovered((s,), whole)):
            with pytest.raises(errors.NotIdempotent):
                call()


def test_orthogonality_examples():
    e4 = tg.build_fixture("E4")
    assert e4.orthogonal(1, 0)
    assert e4.orthogonal(1, 2)
    assert not e4.orthogonal(1, 3)
    b2 = tg.build_fixture("B2")
    byname = {b2.name_of(s): s for s in b2.elements()}
    assert b2.orthogonal(byname["e11"], byname["e22"])


# ---------------------------------------------------------------- ideals

def test_principal_ideals():
    e4 = tg.build_fixture("E4")
    assert e4.principal_ideal(0).members == {0}
    assert e4.principal_ideal(3).members == {0, 1, 2, 3}
    b2 = tg.build_fixture("B2")
    byname = {b2.name_of(s): s for s in b2.elements()}
    assert b2.principal_ideal(byname["e11"]).members == {0, byname["e11"]}


def test_ideal_perp():
    e4 = tg.build_fixture("E4")
    assert e4.ideal_perp(e4.principal_ideal(0)).members == set(e4.idempotents)
    assert e4.ideal_perp(e4.principal_ideal(1)).members == {0, 2}
    assert e4.ideal_perp(e4.principal_ideal(3)).members == {0}


def test_constraint_ideal():
    e4 = tg.build_fixture("E4")
    assert e4.constraint_ideal((), ()).members == set(e4.idempotents)
    assert e4.constraint_ideal((3,), (1,)).members == {0, 2}
    assert e4.constraint_ideal((1,), (1,)).members == {0}


def test_fixed_idempotents():
    z2z = tg.build_fixture("Z2z")
    assert z2z.members_of(z2z.below_bits[2]) == (0,)
    i2 = tg.build_fixture("I2")
    byname = {i2.name_of(s): s for s in i2.elements()}
    assert i2.members_of(i2.below_bits[byname["10"]]) == (i2.zero,)
    for sg in SAMPLES:
        for e in sg.idempotents:
            assert set(sg.members_of(sg.below_bits[e])) == sg.principal_ideal(e).members


def test_ideal_validation():
    e4 = tg.build_fixture("E4")
    with pytest.raises(errors.NotAnIdeal):
        e4.ideal({1, 3})      # missing zero
    with pytest.raises(errors.NotAnIdeal):
        e4.ideal({0, 3})      # not downward closed


# ---------------------------------------------------------------- covers

def test_cover_examples():
    e4 = tg.build_fixture("E4")
    j1 = e4.principal_ideal(3)
    assert e4.is_cover((), e4.principal_ideal(0))
    assert e4.is_cover({1, 2}, j1)
    assert not e4.is_cover({1}, j1)          # witness f = b
    ja = e4.principal_ideal(1)
    assert e4.is_outer_cover({3}, ja)
    assert not e4.is_cover({3}, ja)          # top is not inside the ideal


def test_canonical_cover():
    e4 = tg.build_fixture("E4")
    assert e4.canonical_cover(e4.principal_ideal(0)) == frozenset()
    assert e4.canonical_cover(e4.principal_ideal(3)) == {3}
    assert e4.canonical_cover(e4.constraint_ideal((3,), (1,))) == {2}


def test_e_star_unitary():
    assert tg.build_fixture("E4").is_e_star_unitary()
    assert tg.build_fixture("Z2z").is_e_star_unitary()
    assert tg.build_fixture("I2").is_e_star_unitary()
    # I3 has a non-idempotent fixing a point: it fixes 0 and swaps 1, 2,
    # so the identity on {0} is a nonzero idempotent below it
    assert not tg.build_fixture("In(3)").is_e_star_unitary()


# ------------------------------------------------------------ invariants

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_characterizations_agree(data):
    sg = data.draw(st.sampled_from(SAMPLES))
    s = data.draw(st.integers(0, sg.size - 1))
    t = data.draw(st.integers(0, sg.size - 1))
    alt = s == sg.table[sg.table[s][sg.star[s]]][t]
    assert sg.nat_leq(s, t) == alt
    if sg.nat_leq(s, t):
        assert sg.nat_leq(sg.table[sg.star[s]][s], sg.table[sg.star[t]][t])
        assert sg.nat_leq(sg.table[s][sg.star[s]], sg.table[t][sg.star[t]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ideal_family_closure(data):
    sg = data.draw(st.sampled_from(SAMPLES))
    idem = sg.idempotent_list()
    seed_a = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    seed_b = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    a = sg.ideal(oracles.downclose(sg, seed_a))
    b = sg.ideal(oracles.downclose(sg, seed_b))
    sg.ideal(a.members | b.members)
    sg.ideal(a.members & b.members)
    sg.ideal(sg.ideal_perp(a).members)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constraint_ideal_reduces_to_meet(data):
    sg = data.draw(st.sampled_from(SAMPLES))
    idem = sg.idempotent_list()
    below = data.draw(st.sets(st.sampled_from(idem), min_size=1, max_size=3))
    apart = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    x0 = None
    for x in below:
        x0 = x if x0 is None else sg.meet(x0, x)
    assert sg.constraint_ideal(below, apart).members == \
        sg.constraint_ideal((x0,), apart).members


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_cover_is_cover(data):
    sg = data.draw(st.sampled_from(SAMPLES))
    seed = data.draw(st.sets(st.sampled_from(sg.idempotent_list()), max_size=4))
    ideal = sg.ideal(oracles.downclose(sg, seed))
    assert sg.is_cover(sg.canonical_cover(ideal), ideal)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_outer_cover_monotone(data):
    sg = data.draw(st.sampled_from(SAMPLES))
    idem = sg.idempotent_list()
    seed = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    ideal = sg.ideal(oracles.downclose(sg, seed))
    small = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    extra = data.draw(st.sets(st.sampled_from(idem), max_size=3))
    if sg.is_outer_cover(small, ideal):
        assert sg.is_outer_cover(small | extra, ideal)


def test_outer_cover_matches_bruteforce():
    for sg in SAMPLES:
        idem = sg.idempotent_list()
        if len(idem) > 5:
            continue
        for seed in oracles.powerset(idem):
            ideal = sg.ideal(oracles.downclose(sg, seed))
            for cov in oracles.powerset(idem):
                assert sg.is_outer_cover(cov, ideal) == \
                    oracles.is_outer_cover_bruteforce(sg, cov, ideal.members)
