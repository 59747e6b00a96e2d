"""Acceptance suite: one test per criterion, each printing a PASS line.

All expectations are exact; the ground-truth values were derived with
the brute-force oracles in oracles.py before the main implementation
existed and are frozen here as literals.
"""

from __future__ import annotations

import json

import tightgroupoid as tg
from tightgroupoid import cli, report

import oracles
from conftest import record_acceptance


def is_pair_groupoid(g):
    units = len(g.units)
    if len(g.arrows) != units * units:
        return False
    seen = {(g.source[i], g.target[i]) for i in range(len(g.arrows))}
    return len(seen) == len(g.arrows)


def test_acceptance_1_fixture_ground_truth(named_fixtures, analyses):
    expected = {
        "I2": dict(size=7, idem=4, spectrum=2, flags={"a": True, "b": True,
                                                      "c": True, "d": False}),
        "B2": dict(size=5, idem=3, spectrum=2, flags={"a": True, "b": True,
                                                      "c": True, "d": False}),
        "Z2z": dict(size=3, idem=2, spectrum=1, flags={"a": True, "b": False,
                                                       "c": True, "d": False}),
        "E4": dict(size=4, idem=4, spectrum=2, flags={"a": True, "b": True,
                                                      "c": False, "d": False}),
    }
    for name, want in expected.items():
        sg = named_fixtures[name]
        analysis = analyses[name]
        assert sg.size == want["size"]
        assert len(sg.idempotents) == want["idem"]
        assert len(analysis.spectrum.points) == want["spectrum"]
        assert analysis.report.cstar_flags == want["flags"]
    for name in ("I2", "B2"):
        g = analyses[name].groupoid
        assert len(g.arrows) == 4 and len(g.units) == 2
        assert is_pair_groupoid(g)
    g = analyses["Z2z"].groupoid
    assert len(g.arrows) == 2 and len(g.units) == 1
    loop = next(i for i in range(2) if i not in g.units)
    assert oracles.compose(g, loop, loop) == next(iter(g.units))
    record_acceptance(1, "fixture ground truth")


def test_acceptance_2_equivalence_harness(corpus_verifications):
    rows, elapsed = corpus_verifications
    corpus_rows = [r for r in rows if r[0].startswith("corpus-")]
    assert len(corpus_rows) >= 100
    must_run = {
        "tight_equals_ultra",
        "weakly_fixed_vs_fixed_points",
        "outer_cover_vs_domain_union",
        "cover_vs_domain_equality",
        "slice_unit_identity",
        "conjugated_domains",
        "ultrafilter_preserved",
        "topfree_three_way",
    }
    for name, sg, analysis, checks in rows:
        assert sg.size <= 300 and len(sg.idempotents) <= 40
        assert must_run <= set(checks)
        rep = analysis.report
        for pair in (rep.hausdorff, rep.essentially_principal,
                     rep.minimal, rep.locally_contracting):
            assert pair.criterion == pair.direct
    assert elapsed < 300.0
    record_acceptance(
        2, f"equivalence harness on {len(rows)} instances in {elapsed:.1f}s")


def test_acceptance_3_tightness_triple_agreement(corpus_verifications):
    extra = [("Pow(3)", tg.build_fixture("Pow(3)")),
             ("In(2)", tg.build_fixture("In(2)")),
             ("Bn(3)", tg.build_fixture("Bn(3)"))]
    rows, _ = corpus_verifications
    pool = [(name, sg) for name, sg, _, _ in rows] + extra
    checked = 0
    for name, sg in pool:
        if len(sg.idempotents) > 8:
            continue
        reduced = {f.members for f in tg.tight_spectrum(sg).points}
        literal = oracles.literal_tight_filters(sg)
        ultra = {f.members for f in tg.ultrafilters(sg)}
        assert reduced == literal == ultra, name
        checked += 1
    assert checked >= 50
    record_acceptance(3, f"tightness triple agreement on {checked} instances")


def test_acceptance_4_no_local_contraction(corpus_verifications, named_fixtures):
    rows, _ = corpus_verifications
    searched_actions = searched_groupoids = 0
    for name, sg, analysis, _ in rows:
        act, gpd = analysis.action, analysis.groupoid
        averdict = tg.is_locally_contracting_action(act)
        gverdict = gpd.locally_contracting_verdict()
        assert averdict.value is False
        assert averdict.reason == "CardinalityObstruction"
        assert gverdict.value is False
        assert gverdict.reason == "CardinalityObstruction"
        if act.points <= 6:
            found, _w = oracles.search_contraction_action(act)
            assert found is False
            searched_actions += 1
        if len(gpd.arrows) <= 10:
            found, _w = oracles.search_contraction_groupoid(gpd)
            assert found is False
            searched_groupoids += 1
    assert searched_actions and searched_groupoids
    for name, sg in named_fixtures.items():
        res = tg.locally_contracting_criterion(sg)
        assert res.value is False
    record_acceptance(
        4, f"no local contraction (searched {searched_actions} actions, "
           f"{searched_groupoids} groupoids)")


def test_acceptance_5_implication_suite(corpus_verifications):
    rows, _ = corpus_verifications
    for name, sg, analysis, checks in rows:
        assert {"estar_implications", "fixed_implies_weakly_fixed",
                "easier_implies_main", "trivial_fixed_subset_fixed"} <= set(checks)
        # recompute the headline implication directly
        if sg.is_e_star_unitary():
            assert tg.hausdorff_criterion(sg).value
    record_acceptance(5, f"implication suite on {len(rows)} instances")


def test_acceptance_6_groupoid_axioms(corpus_verifications):
    rows, _ = corpus_verifications
    covered = 0
    for name, sg, analysis, checks in rows:
        assert len(analysis.groupoid.arrows) <= 2000
        assert checks.get("groupoid_axioms"), name
        covered += 1
    record_acceptance(6, f"groupoid axioms verified on {covered} instances")


def test_acceptance_7_parser_and_report_stability(tmp_path, named_fixtures,
                                                  capsys):
    for name, sg in named_fixtures.items():
        spec = cli.spec_of_semigroup(sg, name)
        assert tg.parse_spec(tg.format_spec(spec)) == spec
        rebuilt = tg.build_semigroup(spec)
        assert rebuilt.table == sg.table
        analysis = tg.analyze(sg, name=name)
        once = report.emit_report(report.build_document(analysis, name))
        again = report.emit_report(
            report.build_document(tg.analyze(sg, name=name), name))
        assert once == again
        json.loads(once)
    first = tmp_path / "c1.json"
    second = tmp_path / "c2.json"
    assert cli.run_cli(["analyze", "--corpus", "8", "--seed", "7",
                        "--json", str(first)]) == 0
    assert cli.run_cli(["analyze", "--corpus", "8", "--seed", "7",
                        "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    record_acceptance(7, "parser round trip and byte-stable reports")
