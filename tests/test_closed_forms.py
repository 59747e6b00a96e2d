"""The closed forms the library computes on finite instances against the
general routes they replace (kept in oracles.py): tight points and
tightness witnesses, the standard action, the germ quotient, and the
two local-contraction criteria."""

from __future__ import annotations

import pytest

import tightgroupoid as tg

import oracles

NAMES = ("I2", "B2", "Z2z", "E4", "In(3)", "Bn(8)", "Pow(5)")


@pytest.fixture(scope="module")
def instances(corpus100):
    return [(name, tg.build_fixture(name)) for name in NAMES] + list(corpus100)


def test_tight_points_match_search(instances):
    for name, sg in instances:
        got = [f.min for f in tg.tight_spectrum(sg).points]
        assert got == oracles.search_tight_filters(sg), name


def test_tightness_witnesses_match_search(instances):
    for name, sg in instances:
        for f in tg.all_filters(sg):
            assert tg.tightness_obstruction(sg, f) == \
                oracles.search_tightness_obstruction(sg, f), (name, f.min)


def carriers(sg):
    """The tight spectrum, and the space of all filters, on which the same
    conjugation formula acts; there the least idempotent at a point need
    not be an atom."""
    yield "tight", tg.tight_spectrum(sg)
    yield "filters", tg.TightSpectrum(sg, tuple(tg.all_filters(sg)))


def test_standard_action_matches_conjugate_filters(instances):
    for name, sg in instances:
        for carrier, spec in carriers(sg):
            act = tg.standard_action(spec)
            assert oracles.views(act.array)[0] == oracles.conjugate_filter_maps(spec), \
                (name, carrier)


def test_germ_quotient_matches_union_find(instances):
    for name, sg in instances:
        for carrier, spec in carriers(sg):
            act = tg.standard_action(spec)
            g = tg.build_germ_groupoid(act)
            arrows, class_of, units = oracles.union_find_germs(act)
            assert list(g.arrows) == arrows, (name, carrier)
            assert g.units == units, (name, carrier)
            for s in sg.elements():
                for x in act.domain(s):
                    assert g.arrow_of(s, x) == class_of[(s, x)], \
                        (name, carrier, s, x)


def test_contraction_criterion_matches_family_search(instances):
    for name, sg in instances:
        got = tg.locally_contracting_criterion(sg)
        want = oracles.search_locally_contracting(sg)
        assert (got.value, got.witness) == (want.value, want.witness), name


def test_easier_criterion_matches_pair_search():
    names = ("I2", "B2", "Z2z", "E4", "In(3)", "In(4)", "Bn(8)", "Pow(5)", "Cz(7)")
    instances = [(name, tg.build_fixture(name)) for name in names]
    instances += tg.corpus(500, 7) + tg.corpus(500, 5278)
    instances.append(("trivial", tg.from_table([[0]], 0)))     # vacuous
    for name, sg in instances:
        got = tg.easier_loc_contr_criterion(sg)
        want = oracles.search_easier_contraction(sg)
        assert (got.value, got.vacuous) == (want.value, want.vacuous), name
