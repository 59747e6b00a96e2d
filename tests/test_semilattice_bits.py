"""Every read of the idempotent semilattice and of the fixed ideals, the
bit tests of ``InverseSemigroup`` on ``below_bits`` and ``meet_bits``,
against the cell by cell scans of the slab kept in `oracles`, values,
order and error messages included."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

import tightgroupoid as tg
from tightgroupoid import errors, semigroup

import oracles
from test_array_passes import NINE_FIXTURES


def semilattice_instances():
    for name in (*NINE_FIXTURES, "In(5)", "Pow(6)"):
        yield name, tg.build_fixture(name)
    for seed in (7, 5278):
        yield from tg.corpus(500, seed)


def random_ideal(sg, rng):
    """The down-closure of up to three random idempotents."""
    idem = sg.idempotent_list()
    seed = rng.sample(idem, k=rng.randint(0, min(3, len(idem))))
    return frozenset(oracles.downclose(sg, seed))


def not_an_ideal(sg, call):
    with pytest.raises(errors.NotAnIdeal) as exc:
        call()
    return str(exc.value)


def test_semilattice_bits_match_the_meet_table():
    escapes = covered = uncovered = 0
    for name, sg in semilattice_instances():
        rng = random.Random(name)
        slab = oracles.dict_slab(sg)
        idem = sg.idempotent_list()
        zero = sg.zero

        for e in idem:
            for f in idem:
                ef = slab[e][f]
                assert sg.meet(e, f) == ef and type(sg.meet(e, f)) is int, (name, e, f)
                assert sg.orthogonal(e, f) is (ef == zero), (name, e, f)
            assert sg.below(e) == tuple(f for f, ef in slab[e].items() if ef == f), \
                (name, e)
        for s in sg.elements():
            assert frozenset(sg.members_of(sg.below_bits[s])) == \
                oracles.fixed_idempotents(sg, slab, s), (name, s)
        assert sg.is_e_star_unitary() is oracles.is_e_star_unitary(sg, slab), name

        ideals = {frozenset(sg.below(e)) for e in idem}
        ideals |= {random_ideal(sg, rng) for _ in range(4)}
        ideals |= {oracles.ideal_perp(sg, slab, m) for m in list(ideals)}
        for members in sorted(ideals, key=sorted):
            ideal = sg.ideal(members)
            assert ideal.members == members, name
            assert sg.ideal_perp(ideal).members == \
                oracles.ideal_perp(sg, slab, members), (name, members)
            assert sg.canonical_cover(ideal) == \
                oracles.canonical_cover(sg, slab, members), (name, members)
            for _ in range(4):
                cover = frozenset(rng.sample(idem, k=rng.randint(0, len(idem))))
                order = rng.sample(sorted(members), k=len(members))
                want = oracles.first_uncovered(sg, slab, cover, order)
                assert sg.first_uncovered(cover, order) == want, (name, members, cover)
                assert sg.is_outer_cover(cover, ideal) is (want is None), name
                assert sg.is_cover(cover, ideal) is (cover <= members and want is None), \
                    name
                covered += want is None
                uncovered += want is not None

            # the same members with one idempotent added, which escapes
            # unless the set is still downward closed
            for extra in rng.sample(idem, k=min(3, len(idem))):
                grown = members | {extra}
                message = oracles.ideal_escape(sg, slab, grown)
                if message is None:
                    assert sg.ideal(grown).members == grown, name
                else:
                    escapes += 1
                    assert not_an_ideal(sg, lambda: sg.ideal(grown)) == message, \
                        (name, grown)
            if len(members) > 1:
                assert not_an_ideal(sg, lambda: sg.ideal(members - {zero})) == \
                    "an ideal must contain zero", name

        for _ in range(6):
            below = tuple(rng.sample(idem, k=rng.randint(0, min(3, len(idem)))))
            apart = tuple(rng.sample(idem, k=rng.randint(0, min(3, len(idem)))))
            assert sg.constraint_ideal(below, apart).members == \
                oracles.constraint_ideal(sg, slab, below, apart), (name, below, apart)

        s = next((s for s in sg.elements() if s not in sg.idempotents), None)
        if s is not None:
            assert not_an_ideal(sg, lambda: sg.ideal({zero, s})) == \
                f"member {s} is not idempotent", name
            with pytest.raises(errors.NotAnIdeal, match="expected an Ideal"):
                sg.ideal_perp(frozenset({zero}))
    # no outcome is vacuous
    assert min(escapes, covered, uncovered) > 1000, (escapes, covered, uncovered)


def test_row_bits_match_the_row_loop():
    # one conversion of the packed rows, widths that are not whole bytes
    # included, as the loop that sliced the packed bytes row by row
    rng = np.random.default_rng(5278)
    for width in range(1, 131):
        for rows in (1, 2, 9):
            flags = rng.random((rows, width)) < rng.random()
            got = semigroup._row_bits(flags)
            assert got == oracles.loop_row_bits(flags), (rows, width)
            assert all(type(bits) is int for bits in got), (rows, width)


def ideal_outcome(call, members):
    """The members `call` returns for `members`, or its NotAnIdeal message."""
    try:
        got = call(members)
    except errors.NotAnIdeal as exc:
        return str(exc)
    return getattr(got, "members", got)


def test_ideal_gather_raises_as_the_member_loop():
    """``InverseSemigroup.ideal``'s one gather against the member-by-member
    loop: random closed sets, closed sets grown by random idempotents,
    random sets of idempotents with and without zero, and sets holding
    an element that is not idempotent."""
    instances = [(name, tg.build_fixture(name)) for name in ("In(4)", "Pow(5)")]
    outcomes = set()
    for name, sg in instances + tg.corpus(100, 7):
        rng = random.Random(name)
        idem = sg.idempotent_list()
        others = [s for s in sg.elements() if s not in sg.idempotents]
        for _ in range(12):
            closed = random_ideal(sg, rng)
            grown = closed | set(rng.sample(idem, k=rng.randint(1, min(3, len(idem)))))
            loose = set(rng.sample(idem, k=rng.randint(1, len(idem))))
            sets = [closed, grown, loose | {sg.zero}, loose - {sg.zero}]
            if others:
                sets.append(closed | {rng.choice(others)})
            for members in sets:
                want = ideal_outcome(lambda m: oracles.member_loop_ideal(sg, m), members)
                assert ideal_outcome(sg.ideal, members) == want, (name, members)
                outcomes.add(re.sub(r"\d+", "#", want) if isinstance(want, str) else "ideal")
    # no outcome is vacuous
    assert outcomes == {"ideal", "an ideal must contain zero", "member # is not idempotent",
                        "not downward closed: #*# escapes"}, outcomes
