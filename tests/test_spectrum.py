from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightgroupoid as tg
from tightgroupoid import errors, spectrum

import oracles
from conftest import CORPUS_COUNT, CORPUS_SEED
from test_array_passes import NINE_FIXTURES

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


# -------------------------------------- closed forms against their scans

def outcome(check, *args):
    """What a check returns, a filter as (min, members), or the type of
    the error it raises."""
    try:
        got = check(*args)
    except errors.TightGroupoidError as exc:
        return type(exc)
    return (got.min, got.members) if isinstance(got, tg.Filter) else got


def candidate_filters(sg, rng):
    """(min, members) pairs: every filter, each with a wrong min, zero
    and a non-idempotent as min, a member dropped or added, zero or a
    non-idempotent added; orthogonal pairs; random sets."""
    idem, nonzero = sg.idempotent_list(), sg.nonzero_idempotents()
    others = [s for s in sg.elements() if s not in sg.idempotents]
    for f in tg.all_filters(sg):
        yield f.min, f.members
        yield rng.choice(idem), f.members
        yield sg.zero, f.members
        for member in rng.sample(sorted(f.members), min(2, len(f.members))):
            yield f.min, f.members - {member}
        yield f.min, f.members | {rng.choice(nonzero)}
        yield f.min, f.members | {sg.zero}
        if others:
            yield rng.choice(others), f.members
            yield f.min, f.members | {rng.choice(others)}
    pairs = [(e, g) for e in nonzero for g in nonzero if e < g and sg.orthogonal(e, g)]
    for e, g in rng.sample(pairs, min(5, len(pairs))):
        yield e, frozenset({e, g})
    for _ in range(10):
        yield rng.choice(idem), frozenset(rng.sample(idem, rng.randint(0, len(idem))))


def test_closed_form_checks_match_their_scans():
    # each check decides as the pairwise scan it replaced: the same value,
    # or the same exception type, on valid and invalid inputs alike
    named = [(name, tg.build_fixture(name)) for name in NINE_FIXTURES]
    seen = set()
    for name, sg in named + tg.corpus(CORPUS_COUNT, CORPUS_SEED):
        rng = random.Random(name)
        for m, members in candidate_filters(sg, rng):
            f, c = tg.Filter(m, members), tg.Character(members)
            valid = outcome(oracles.scan_validate_filter, sg, f)
            assert outcome(spectrum.validate_filter, sg, f) == valid, (name, m, members)
            assert outcome(tg.is_ultrafilter, sg, f) == (
                valid if valid else oracles.scan_is_ultrafilter(sg, f)), (name, m, members)
            character = outcome(oracles.scan_validate_character, sg, c)
            support = outcome(tg.filter_of, sg, c)
            assert (None if isinstance(support, tuple) else support) == character, \
                (name, members)
            assert support == outcome(oracles.scan_filter_of, sg, c), (name, members)
            seen |= {valid, (character, "character")}
            if valid is errors.NotAnIdeal:
                with pytest.raises(errors.NotAnIdeal) as exc:
                    oracles.scan_validate_filter(sg, f)
                seen.add(str(exc.value))
    # every verdict of both scans occurs, and each way of not being a filter
    assert seen >= {None, errors.NotAnIdeal, errors.ZeroGeneratesNoFilter,
                           errors.NotIdempotent, (None, "character"),
                           (errors.NotInDomain, "character"),
                           (errors.NotIdempotent, "character"),
                           "filter not closed under meets", "filter not upward closed",
                           "filter members disagree with the up-set of min"}, seen


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
                if not any(sg.orthogonal(g, e) for e in f.members)
            )
            # minimality of the minimum among nonzero idempotents
            by_min = not any(
                e != f.min and sg.meet(e, f.min) == e
                for e in sg.nonzero_idempotents()
            )
            assert direct == by_meets == by_min == oracles.scan_is_ultrafilter(sg, f)


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
            assert spec.points.index(f) == i


def test_character_roundtrip_other_direction():
    for sg in SAMPLES:
        for f in tg.all_filters(sg):
            c = tg.char_of(sg, f)
            assert tg.char_of(sg, tg.filter_of(sg, c)) == c
