from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightgroupoid as tg
from tightgroupoid import errors

import oracles

SAMPLES = [
    tg.build_fixture("I2"),
    tg.build_fixture("B2"),
    tg.build_fixture("Z2z"),
    tg.build_fixture("E4"),
    tg.build_fixture("Pow(3)"),
    tg.build_fixture("In(3)"),
]


# ---------------------------------------------------------------- filters

def test_filter_from_min_examples():
    e4 = tg.build_fixture("E4")
    assert tg.filter_from_min(e4, 3).members == {3}
    assert tg.filter_from_min(e4, 1).members == {1, 3}
    with pytest.raises(errors.ZeroGeneratesNoFilter):
        tg.filter_from_min(e4, 0)


def test_all_filters_counts():
    assert len(tg.all_filters(tg.build_fixture("E4"))) == 3
    assert len(tg.all_filters(tg.build_fixture("B2"))) == 2
    assert len(tg.all_filters(tg.build_fixture("Z2z"))) == 1


def test_empty_spectrum_raises():
    trivial = tg.from_table([[0]], 0)
    with pytest.raises(errors.EmptySpectrum):
        tg.all_filters(trivial)
    with pytest.raises(errors.EmptySpectrum):
        tg.tight_spectrum(trivial)


def test_filters_match_bruteforce():
    for sg in SAMPLES:
        got = {f.members for f in tg.all_filters(sg)}
        assert got == oracles.brute_filters(sg)


def test_every_filter_is_an_up_set():
    # normal form: any member set passing the axioms is the up-set of its
    # meet
    for sg in SAMPLES:
        for members in oracles.brute_filters(sg):
            mn = None
            for e in members:
                mn = e if mn is None else sg.meet(mn, e)
            assert members == tg.filter_from_min(sg, mn).members


# ------------------------------------------------------------- characters

def test_char_of_indicator():
    e4 = tg.build_fixture("E4")
    up_a = tg.filter_from_min(e4, 1)
    phi = tg.char_of(e4, up_a)
    assert phi.values(e4) == {0: 0, 1: 1, 2: 0, 3: 1}


def test_char_filter_roundtrip():
    for sg in SAMPLES:
        for f in tg.all_filters(sg):
            assert tg.filter_of(sg, tg.char_of(sg, f)) == f


def test_char_multiplicative():
    e4 = tg.build_fixture("E4")
    phi = tg.char_of(e4, tg.filter_from_min(e4, 1))
    for e in e4.idempotent_list():
        for f in e4.idempotent_list():
            assert phi(e4.meet(e, f)) == phi(e) * phi(f)


def test_bad_characters_rejected():
    e4 = tg.build_fixture("E4")
    with pytest.raises(errors.NotInDomain):
        tg.filter_of(e4, tg.Character(frozenset()))
    with pytest.raises(errors.NotInDomain):
        tg.filter_of(e4, tg.Character(frozenset({0, 3})))
    with pytest.raises(errors.NotInDomain):
        tg.filter_of(e4, tg.Character(frozenset({1, 2, 3})))  # a*b = 0


# ------------------------------------------------------------ ultrafilters

def test_ultrafilter_examples():
    e4 = tg.build_fixture("E4")
    assert tg.is_ultrafilter(e4, tg.filter_from_min(e4, 1))
    assert not tg.is_ultrafilter(e4, tg.filter_from_min(e4, 3))
    z2z = tg.build_fixture("Z2z")
    assert tg.is_ultrafilter(z2z, tg.all_filters(z2z)[0])
    i2 = tg.build_fixture("I2")
    assert {i2.name_of(f.min) for f in tg.ultrafilters(i2)} == {"0_", "_1"}


def test_ultrafilters_match_bruteforce():
    for sg in SAMPLES:
        got = {f.members for f in tg.ultrafilters(sg)}
        assert got == oracles.brute_ultrafilters(sg)


def test_ultrafilter_characterizations_agree():
    for sg in SAMPLES:
        for f in tg.all_filters(sg):
            direct = tg.is_ultrafilter(sg, f)
            # contains everything meeting all of its members
            by_meets = all(
                g in f.members
                for g in sg.nonzero_idempotents()
                if all(sg.intersects(g, e) for e in f.members)
            )
            # minimality of the minimum among nonzero idempotents
            by_min = not any(
                e != f.min and sg.leq_e(e, f.min)
                for e in sg.nonzero_idempotents()
            )
            assert direct == by_meets == by_min


def test_basic_open_examples():
    e4 = tg.build_fixture("E4")
    assert len(tg.basic_open(e4, (), ())) == 3
    got = {f.min for f in tg.basic_open(e4, {3}, {1})}
    assert got == {3, 2}
    assert tg.basic_open(e4, {1}, {3}) == []


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ultrafilter_neighborhood_basis(data):
    # for an ultrafilter and any basic open set around it, some single
    # member gives a smaller basic neighborhood; the witness is the meet
    # of the "inside" part with orthogonal companions of the "outside"
    # part
    sg = data.draw(st.sampled_from(SAMPLES))
    xi = data.draw(st.sampled_from(tg.ultrafilters(sg)))
    inside = data.draw(st.sets(st.sampled_from(sorted(xi.members)), max_size=3))
    outside_pool = [y for y in sg.idempotent_list() if y not in xi.members]
    outside = data.draw(st.sets(st.sampled_from(outside_pool), max_size=3)
                        if outside_pool else st.just(set()))
    e = xi.min
    for x in inside:
        e = sg.meet(e, x)
    for y in outside:
        partner = next(f for f in xi.members if sg.orthogonal(f, y))
        e = sg.meet(e, partner)
    hood = tg.basic_open(sg, {e}, ())
    assert xi in hood
    assert set(hood) <= set(tg.basic_open(sg, inside, outside))


# -------------------------------------------------------------- tightness

def test_ultrafilters_are_tight():
    for sg in SAMPLES:
        for f in tg.ultrafilters(sg):
            assert tg.is_tight_filter(sg, f)


def test_non_tight_filter_with_witness():
    e4 = tg.build_fixture("E4")
    top = tg.filter_from_min(e4, 3)
    assert not tg.is_tight_filter(e4, top)
    below, apart, cover = tg.tightness_obstruction(e4, top)
    ideal = e4.constraint_ideal(below, apart)
    assert e4.is_cover(cover, ideal)
    assert set(below) <= top.members
    assert not set(apart) & top.members
    assert not set(cover) & top.members


def test_single_filter_is_tight():
    z2z = tg.build_fixture("Z2z")
    assert tg.is_tight_filter(z2z, tg.all_filters(z2z)[0])


def test_tight_spectrum_fixtures():
    e4 = tg.build_fixture("E4")
    assert {f.min for f in tg.tight_spectrum(e4).points} == {1, 2}
    i2 = tg.build_fixture("I2")
    assert len(tg.tight_spectrum(i2).points) == 2
    b2 = tg.build_fixture("B2")
    assert len(tg.tight_spectrum(b2).points) == 2


def test_tightness_three_mechanisms_agree():
    # closed form (atoms), literal sweep, ultrafilter equality
    for sg in SAMPLES:
        if len(sg.idempotents) > 8:
            continue
        reduced = {f.members for f in tg.tight_spectrum(sg).points}
        literal = oracles.literal_tight_filters(sg)
        ultra = {f.members for f in tg.ultrafilters(sg)}
        assert reduced == literal == ultra


def test_tight_spectrum_sorted_and_indexed():
    for sg in SAMPLES:
        spec = tg.tight_spectrum(sg)
        mins = [f.min for f in spec.points]
        assert mins == sorted(mins)
        for i, f in enumerate(spec.points):
            assert spec.index(f) == i


def test_character_roundtrip_other_direction():
    for sg in SAMPLES:
        for f in tg.all_filters(sg):
            c = tg.char_of(sg, f)
            assert tg.char_of(sg, tg.filter_of(sg, c)) == c
