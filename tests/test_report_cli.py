from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import tightgroupoid as tg
from tightgroupoid import cli, fixtures, report, semigroup
from tightgroupoid.errors import InvalidAction, TheoremViolation

import oracles
from test_json_emitter import NINE_FIXTURES

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json")
    .read_text())


def doc_for(name):
    sg = tg.build_fixture(name)
    analysis = tg.analyze(sg, name=name)
    return report.build_document(analysis, name)


# ----------------------------------------------------------------- reports

def test_reports_validate_against_schema():
    for name in ("I2", "B2", "Z2z", "E4"):
        payload = json.loads(report.emit_report(doc_for(name)))
        jsonschema.validate(payload, SCHEMA)


def test_error_document_validates():
    payload = report.error_payload("tiny", "EmptySpectrum", "no filters",
                                   elements=1, idempotents=1)
    jsonschema.validate(payload, SCHEMA)


def test_report_byte_stability():
    for name in ("I2", "E4"):
        assert report.emit_report(doc_for(name)) == report.emit_report(doc_for(name))


def test_timing_kept_out_by_default():
    # emitted exactly when the document carries one, as build_document
    # attaches it only on request
    assert "timing" not in json.loads(report.emit_report(doc_for("Z2z")))
    analysis = tg.analyze(tg.build_fixture("Z2z"), name="Z2z")
    doc = report.build_document(analysis, "Z2z", {"analyze_s": 0.5})
    assert json.loads(report.emit_report(doc))["timing"] == {"analyze_s": 0.5}


def test_report_numbers():
    payload = doc_for("I2")
    inst = payload["instance"]
    assert inst["spectrum_size"] == 2
    assert inst["groupoid"] == {"arrows": 4, "units": 2}
    assert payload["properties"]["hausdorff"] == {"criterion": True, "direct": True}


def test_witnesses_render_each_distinct_value_once():
    """The witnesses equal the entry-by-entry oracle's and write the same
    bytes, while equal covers share one object: on I5 one list per
    distinct Hausdorff, fixed and conjugate cover."""
    cases = [(name, tg.build_fixture(name)) for name in (*NINE_FIXTURES, "In(5)")]
    cases += fixtures.corpus(20, 7)
    docs = {}
    for name, sg in cases:
        analysis = tg.analyze(sg, name=name)
        doc = docs[name] = report.build_document(analysis, name)
        unshared = dict(doc, witnesses=oracles.per_entry_witnesses(analysis))
        assert doc == unshared, name
        assert report.json_text(doc) == report.json_text(unshared), name
    witnesses = docs["In(5)"]["witnesses"]
    for covers, distinct in ((witnesses["hausdorff"]["covers"], 32),
                             (witnesses["essentially_principal"]["fixed_covers"], 31),
                             (witnesses["minimal"]["conjugate_covers"], 391)):
        assert len({json.dumps(v) for v in covers.values()}) == distinct
        assert len({id(v) for v in covers.values()}) == distinct


# --------------------------------------------------------------------- dot

def count_dot(text):
    nodes = sum(1 for line in text.splitlines() if "shape=circle" in line)
    edges = sum(1 for line in text.splitlines() if "->" in line)
    return nodes, edges


def test_dot_counts():
    sg = tg.build_fixture("B2")
    analysis = tg.analyze(sg, name="B2")
    nodes, edges = count_dot(report.emit_dot(analysis.groupoid, "B2"))
    assert (nodes, edges) == (2, 2)
    sg = tg.build_fixture("E4")
    analysis = tg.analyze(sg, name="E4")
    nodes, edges = count_dot(report.emit_dot(analysis.groupoid, "E4"))
    assert (nodes, edges) == (2, 0)
    sg = tg.build_fixture("Z2z")
    analysis = tg.analyze(sg, name="Z2z")
    nodes, edges = count_dot(report.emit_dot(analysis.groupoid, "Z2z"))
    assert (nodes, edges) == (1, 1)


# --------------------------------------------------------------------- cli

def test_cli_single_check(capsys):
    assert cli.run_cli(["analyze", "--fixture", "Z2z", "--check", "esspr"]) == 0
    out = capsys.readouterr().out
    assert "essentially_principal: criterion=false direct=false" in out
    assert "s=g" in out and "e=1" in out


def test_cli_json_and_dot(tmp_path, capsys):
    jpath = tmp_path / "i2.json"
    dpath = tmp_path / "i2.dot"
    code = cli.run_cli(["analyze", "--fixture", "I2",
                        "--json", str(jpath), "--dot", str(dpath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["instance"]["name"] == "I2"
    assert "digraph" in dpath.read_text()


def test_cli_reads_isg_files(tmp_path, capsys):
    path = tmp_path / "z2z.isg"
    path.write_text("semigroup Z2z\ntable 3 zero 0\n0 0 0\n0 1 2\n0 2 1\n")
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert "Z2z" in capsys.readouterr().out


def test_cli_empty_spectrum_document(tmp_path, capsys):
    path = tmp_path / "tiny.isg"
    path.write_text("semigroup tiny\ntable 1 zero 0\n0\n")
    jpath = tmp_path / "tiny.json"
    assert cli.run_cli(["analyze", str(path), "--json", str(jpath)]) == 0
    payload = json.loads(jpath.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["error"]["code"] == "EmptySpectrum"


def test_cli_usage_errors(capsys):
    assert cli.run_cli(["analyze"]) == 2
    assert cli.run_cli(["analyze", "x.isg", "--fixture", "I2"]) == 2
    assert cli.run_cli(["analyze", "--corpus", "2", "--fixture", "I2"]) == 2
    assert cli.run_cli(["nonsense"]) == 2


def test_cli_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.isg"
    path.write_text("semigroup bad\npoints 2\ngen a = 0 0\n")
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert cli.run_cli(["analyze", str(tmp_path / "missing.isg")]) == 1


def test_cli_corpus_reproducible(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.run_cli(["analyze", "--corpus", "6", "--seed", "3",
                        "--json", str(first)]) == 0
    out1 = capsys.readouterr().out
    assert cli.run_cli(["analyze", "--corpus", "6", "--seed", "3",
                        "--json", str(second)]) == 0
    out2 = capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()
    assert out1 == out2
    assert "6/6 equivalence checks passed" in out1


def test_cli_corpus_refuses_dot(tmp_path, capsys):
    # a corpus has no one groupoid to export, so --dot is a usage error
    # rather than a flag that silently writes nothing
    dot = tmp_path / "out.dot"
    assert cli.run_cli(["analyze", "--corpus", "2", "--dot", str(dot)]) == 2
    assert "--corpus excludes --dot" in capsys.readouterr().err
    assert not dot.exists()


def test_cli_corpus_has_no_jobs_flag(capsys):
    assert cli.run_cli(["analyze", "--corpus", "2", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def corpus_peak(count, *argv):
    """The peak traced allocation of ``analyze --corpus count *argv``."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.run_cli(["analyze", "--corpus", str(count), *argv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_cli_corpus_holds_one_instance_at_a_time():
    # without --json, corpus mode drops each instance and its report once
    # its line is printed, so the peak allocation is set by the largest
    # instance, under 1 MB, not by the count: holding them, the 60 more
    # instances of the larger run would add about 40 KB each, 2.4 MB
    corpus_peak(2)                    # imports and first-call caches
    small, large = corpus_peak(20), corpus_peak(80)
    assert large - small < 1_500_000, (small, large)


def test_cli_corpus_json_holds_one_report_at_a_time(tmp_path):
    # with --json, each report is dropped once its entry is written too
    path = str(tmp_path / "corpus.json")
    corpus_peak(2, "--json", path)
    small, large = corpus_peak(20, "--json", path), corpus_peak(80, "--json", path)
    assert large - small < 1_500_000, (small, large)


@pytest.mark.parametrize("count", [30, 0])
def test_corpus_json_is_the_held_document(count, tmp_path, capsys):
    # the streamed file is byte for byte the document of every report
    # held at once, as json_text writes it
    path = tmp_path / "corpus.json"
    assert cli.run_cli(["analyze", "--corpus", str(count), "--seed", "7",
                        "--json", str(path)]) == 0
    instances = [report.build_document(tg.verify_instance(sg, name, seed=i)[0], name)
                 for i, (name, sg) in enumerate(tg.corpus(count, 7))]
    body = {"schema_version": report.SCHEMA_VERSION,
            "corpus": {"seed": 7, "count": count}, "instances": instances}
    assert path.read_bytes() == report.json_text(body).encode()
    assert f"{count}/{count} equivalence checks passed" in capsys.readouterr().out


def test_corpus_mismatch_leaves_no_json(tmp_path, monkeypatch, capsys):
    # the third instance fails after two entries are written: exit 3
    # with its reproducer, and no JSON file
    monkeypatch.chdir(tmp_path)
    verify_instance = tg.verify_instance

    def failing_third(sg, name, seed):
        if seed == 2:
            raise TheoremViolation("demo", True, False, "forced for the test")
        return verify_instance(sg, name, seed=seed)

    monkeypatch.setattr(cli.criteria, "verify_instance", failing_third)
    path = tmp_path / "corpus.json"
    assert cli.run_cli(["analyze", "--corpus", "5", "--seed", "7",
                        "--json", str(path)]) == 3
    assert "reproducer written to violation-corpus-7-002.json" in capsys.readouterr().err
    assert not path.exists()


def test_corpus_instance_error_is_a_defect(tmp_path, monkeypatch, capsys):
    # a generated instance is valid, so any instance error, not only a
    # verdict mismatch, ends in exit 3 with a reproducer naming it
    monkeypatch.chdir(tmp_path)
    verify_instance = tg.verify_instance

    def failing_second(sg, name, seed):
        if seed == 1:
            raise InvalidAction("forced for the test")
        return verify_instance(sg, name, seed=seed)

    monkeypatch.setattr(cli.criteria, "verify_instance", failing_second)
    assert cli.run_cli(["analyze", "--corpus", "3", "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert "InvalidAction on corpus-7-001: forced for the test" in err
    assert "Traceback" not in err
    body = json.loads((tmp_path / "violation-corpus-7-001.json").read_text())
    assert (body["error"], body["message"]) == ("InvalidAction", "forced for the test")
    assert tg.build_semigroup(tg.parse_spec(body["isg"])).size == \
        tg.corpus(2, 7)[1][1].size


def test_corpus_reproducer_records_verdicts_as_single_mode(tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.chdir(tmp_path)
    is_minimal = tg.GermGroupoid.is_minimal
    monkeypatch.setattr(tg.GermGroupoid, "is_minimal",
                        lambda self: not is_minimal(self))
    bodies = {}
    for argv in (["--fixture", "B2"], ["--corpus", "1", "--seed", "7"]):
        assert cli.run_cli(["analyze", *argv]) == 3
        err = capsys.readouterr().err
        assert "criterion verdict True != direct verdict False" in err
        path = tmp_path / err.rsplit("reproducer written to ", 1)[1].strip()
        bodies[argv[0]] = json.loads(path.read_text())
    for body in bodies.values():
        assert body["property"] == "minimal"
        assert (body["criterion"], body["direct"]) == ("True", "False")
    rebuilt = tg.build_semigroup(tg.parse_spec(bodies["--corpus"]["isg"]))
    assert rebuilt.size == tg.corpus(1, 7)[0][1].size


def test_slab_defect_while_building_a_table_file_exits_3(tmp_path, monkeypatch, capsys):
    # a table file whose slab, read along the spanning tree, differs from
    # the table's idempotent columns is a defect, not invalid input: exit
    # 3 with a reproducer naming the first cell; the file reproduces it
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "z2z.isg"
    path.write_text(tg.format_spec(cli.spec_of_semigroup(tg.build_fixture("Z2z"), "Z2z")))
    columns = tg.InverseSemigroup._columns

    def shifted(self, wanted):
        return columns(self, wanted)[:, [*range(1, self.size), 0]]

    monkeypatch.setattr(tg.InverseSemigroup, "_columns", shifted)
    assert cli.run_cli(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert "verdict mismatch while building: slab_columns:" in err
    # each column's cells moved up by one: e = 0's column is all 0, so the
    # first cell that differs is 0 * 1 read as 1 * 1
    assert "criterion verdict 1 != direct verdict 0 on instance table s=0 e=1" in err
    body = json.loads((tmp_path / "violation-Z2z.json").read_text())
    assert body["property"] == "slab_columns" and "isg" not in body


@pytest.mark.parametrize("name, size", [("B2", 5), ("Bn(8)", 65)])
def test_inverse_search_that_finds_one_inverse_each_is_a_defect(tmp_path, monkeypatch,
                                                                 capsys, name, size):
    # a table in which every element has exactly one inverse is inverse,
    # where the derivation along the spanning tree holds; with the
    # derivation failed, the search is the only source of s* left, and it
    # only raises: finding one inverse each is a defect, exit 3
    monkeypatch.chdir(tmp_path)
    sg = tg.build_fixture(name)
    path = tmp_path / "table.isg"
    path.write_text(tg.format_spec(cli.spec_of_semigroup(sg, "table")))
    monkeypatch.setattr(semigroup, "_derived_inverses", lambda m, gens, tree: None)
    want = (f"inverse_search: criterion verdict False != direct verdict True on "
            f"instance table of {size} elements, each with one inverse")
    with pytest.raises(TheoremViolation) as caught:
        tg.from_table(sg.table, sg.zero)
    assert str(caught.value) == want
    assert cli.run_cli(["analyze", str(path)]) == 3
    assert want in capsys.readouterr().err


def test_closure_defect_while_building_exits_3_in_both_modes(tmp_path, monkeypatch,
                                                             capsys):
    # the inverse layer of the sorted maps, broken at its last row, sends
    # every point to 0, a map outside the closure: the lookup check refuses
    # the build, with or without python -O, as a defect with a reproducer
    # named after the instance, in fixture and in corpus mode
    monkeypatch.chdir(tmp_path)
    inverses_and_domains = semigroup._inverses_and_domains
    calls = itertools.count(1)

    def broken(maps):
        out = inverses_and_domains(maps)
        if next(calls) % 2 == 0:    # a build's second call: the sorted maps
            out[0, -1] = 1
        return out

    monkeypatch.setattr(semigroup, "_inverses_and_domains", broken)
    for argv, name in ((["--fixture", "In(3)"], "In_3_"),
                       (["--corpus", "20", "--seed", "7"], "corpus-7-000")):
        assert cli.run_cli(["analyze", *argv]) == 3
        err = capsys.readouterr().err
        assert "closure_lookup:" in err and "Traceback" not in err, err
        assert f"reproducer written to violation-{name}.json" in err
        body = json.loads((tmp_path / f"violation-{name}.json").read_text())
        assert body["property"] == "closure_lookup" and "isg" not in body


def test_violation_reproducer_round_trips(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sg = tg.build_fixture("Z2z")
    exc = TheoremViolation("demo", True, False, "forced for the test")
    path = cli._dump_violation(sg, "Z2z", exc)
    body = json.loads(Path(path).read_text())
    assert body["property"] == "demo"
    rebuilt = tg.build_semigroup(tg.parse_spec(body["isg"]))
    assert rebuilt.table == sg.table


def test_family_cap_flag_is_gone(capsys):
    # the contraction criterion refutes at an atom with an exhaustive
    # one-member search, so there is no family cap left to set
    assert cli.run_cli(["analyze", "--fixture", "E4", "--max-F", "5"]) == 2
    assert "--max-F" in capsys.readouterr().err


def test_cli_undecodable_input(tmp_path, capsys):
    path = tmp_path / "binary.isg"
    path.write_bytes(b"\xff\xfe")
    assert cli.run_cli(["analyze", str(path)]) == 1
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--fixture", "B2", "--json", "/nonexistent/x.json"],
                                  ["--fixture", "B2", "--dot", "/nonexistent/x.dot"],
                                  ["--corpus", "1", "--json", "/nonexistent/x.json"]])
def test_cli_unwritable_output(args):
    # an output path that cannot be opened ends the run with exit 1 and a
    # message naming it, as an unreadable input does, not a traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "tightgroupoid.cli", "analyze", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert f"cannot write output: [Errno 2] No such file or directory: '{args[-1]}'" \
        in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, name", [(["--fixture", "B2"], "B2"),
                                        (["--corpus", "1", "--seed", "7"], "corpus-7-000")])
def test_unwritable_reproducer_still_exits_3(tmp_path, monkeypatch, capsys, argv, name):
    # a directory where the reproducer goes: the mismatch is reported with
    # the path that failed, and the run still exits 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"violation-{name}.json").mkdir()
    is_minimal = tg.GermGroupoid.is_minimal
    monkeypatch.setattr(tg.GermGroupoid, "is_minimal",
                        lambda self: not is_minimal(self))
    assert cli.run_cli(["analyze", *argv]) == 3
    err = capsys.readouterr().err
    assert "criterion verdict True != direct verdict False" in err
    assert f"cannot write output: [Errno 21] Is a directory: 'violation-{name}.json'" \
        in err and "reproducer written" not in err


def test_cli_rejects_negative_counts(capsys):
    assert cli.run_cli(["analyze", "--corpus", "-1"]) == 2
    assert "--corpus must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--corpus", "20", "--seed", "7"],
                                  ["--fixture", "In(3)"]])
def test_cli_stops_quietly_when_stdout_closes(args):
    # stdout is a pipe whose reader has already gone, as when the output
    # is piped into `head -1`: the first write fails, and the run must end
    # with exit 0 and nothing on stderr, not a BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    try:
        done = subprocess.run([sys.executable, "-m", "tightgroupoid.cli", "analyze", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_run_never_imports_numpy_ma():
    # numpy.ma costs about 10 ms to import, which a one-shot `analyze`
    # would pay on every run: np.unique imports it on first use.  The
    # harness, the JSON report and the DOT graph of fixtures and corpus
    # instances, each in a fresh interpreter, must leave it unimported
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = (
        "import sys\n"
        "import tightgroupoid as tg\n"
        "from tightgroupoid import report\n"
        "named = [(n, tg.build_fixture(n)) for n in ('In(4)', 'B2', 'Bn(8)', 'Pow(4)')]\n"
        "for name, sg in named + tg.corpus(20, 7):\n"
        "    analysis, _ = tg.verify_instance(sg, name)\n"
        "    report.emit_report(report.build_document(analysis, name))\n"
        "    report.emit_dot(analysis.groupoid, name)\n"
        "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
