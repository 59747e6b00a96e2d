"""The benchmark in perfbench/ times the package by wrapping named public
functions from outside it; a rename here would turn every benchmark
operation into a failure, so the names it relies on are pinned."""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path

import tightgroupoid as tg

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def resolve(module_name, qualname):
    owner = import_module(f"tightgroupoid.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_names_resolve():
    for module_name, qualname in tracer.TRACED:
        assert callable(resolve(module_name, qualname)), (module_name, qualname)


def test_recorder_restores_originals():
    before = {key: resolve(*key) for key in tracer.TRACED}
    exported = tg.analyze
    with tracer.Recorder().installed():
        assert all(resolve(*key) is not fn for key, fn in before.items())
    assert all(resolve(*key) is fn for key, fn in before.items())
    assert tg.analyze is exported


def test_analyze_records_every_layer():
    recorder = tracer.Recorder()
    with recorder.installed():
        from tightgroupoid import criteria

        criteria.analyze(tg.build_fixture("B2"), name="B2")
    names = {span.name for span in recorder.spans}
    assert {
        "spectrum.tight_spectrum",
        "action.standard_action",
        "action.validate_action",
        "germs.build_germ_groupoid",
        "criteria.hausdorff_criterion",
        "criteria.top_free_criterion",
        "criteria.minimal_criterion",
        "criteria.locally_contracting_criterion",
    } <= names
    assert not any(span.error for span in recorder.spans)
