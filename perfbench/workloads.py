"""The three workloads: their inputs, one round of each through the calls
`tightgroupoid analyze` makes, and the checks on what a round emits.

A round is the unit the benchmark repeats: one instance from `.isg` text
to emitted JSON and DOT for `monoid5` and `brandt15`, and one generated
corpus of `CORPUS_COUNT` instances through the identity harness for
`corpus`.  Every round of a run gets the same input, so its work counts
must repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from math import comb, factorial

from tightgroupoid import criteria, dsl, fixtures, report, spectrum

WORKLOADS = ("monoid5", "brandt15", "corpus")

# I5, the symmetric inverse monoid on 5 points: the 5-cycle a and the
# transposition b generate S5, and the rank-4 partial identity c adds
# every partial bijection of smaller rank.
MONOID5_POINTS = 5
MONOID5_TEXT = """semigroup monoid5
points 5
gen a = 1 2 3 4 0
gen b = 1 0 2 3 4
gen c = 0 1 2 3 _
"""
BRANDT_N = 15
CORPUS_COUNT = 500

# Share of each workload's time that is memory-bound: the NumPy table
# scans of `semigroup.from_table`, as the traced runs measure them.  It
# weighs the memory part of the reference probe (refclock.py).
MEMORY_SHARE = {"monoid5": 0.52, "brandt15": 0.01, "corpus": 0.07}

# Every identity `verify_instance` runs; the groupoid axioms only run up
# to AXIOM_ARROW_LIMIT arrows.
IDENTITIES = frozenset({
    "tight_equals_ultra", "weakly_fixed_vs_fixed_points",
    "outer_cover_vs_domain_union", "cover_vs_domain_equality",
    "slice_unit_identity", "conjugated_domains", "ultrafilter_preserved",
    "trivial_fixed_subset_fixed", "topfree_three_way",
    "free_vs_topologically_free", "estar_implications",
    "fixed_implies_weakly_fixed", "easier_implies_main", "groupoid_axioms",
})
AXIOM_ARROW_LIMIT = 2000

FLAGS = {"a": True, "b": True, "c": True, "d": False}

COUNT_NAMES = ("semigroup.elements", "semigroup.table_cells",
               "spectrum.filters_tested", "spectrum.tight_points",
               "action.domain_pairs", "germs.arrows", "criteria.identities_run",
               "report.json_bytes", "report.dot_bytes")


def brandt_text(n: int) -> str:
    """B_n as `.isg` table text: 0 and the matrix units (i, j), where
    (i, j)(k, l) = (i, l) when j = k and 0 otherwise."""
    size = n * n + 1
    lines = [f"semigroup brandt{n}", f"table {size} zero 0", " ".join(["0"] * size)]
    for i in range(n):
        for j in range(n):
            row = ["0"]
            for k in range(n):
                row += [str(1 + i * n + m) if k == j else "0" for m in range(n)]
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def render_input(workload: str) -> str | None:
    """The `.isg` text a workload analyzes; the corpus is generated by the
    program inside each round, as `analyze --corpus` does."""
    if workload == "monoid5":
        return MONOID5_TEXT
    if workload == "brandt15":
        return brandt_text(BRANDT_N)
    return None


@dataclass
class Instance:
    """One analyzed instance: what the program returned and emitted, or
    the traceback of the exception it raised."""

    name: str
    seconds: float
    analysis: object = None
    checks: dict | None = None
    json_text: str = ""
    dot_text: str = ""
    error: str | None = None


@dataclass
class Round:
    seconds: float
    instances: list


def _analyze_text(text: str):
    spec = dsl.parse_spec(text)
    sg = dsl.build_semigroup(spec)
    analysis = criteria.analyze(sg, name=spec.name)
    doc = report.build_document(analysis, spec.name)
    return (analysis, None, report.emit_report(doc),
            report.emit_dot(analysis.groupoid, spec.name))


def _verify(sg, name: str, index: int):
    analysis, checks = criteria.verify_instance(sg, name, seed=index)
    return (analysis, checks,
            report.emit_report(report.build_document(analysis, name)), "")


def _timed(clock, name: str, call, *args) -> Instance:
    start = clock()
    try:
        analysis, checks, json_text, dot_text = call(*args)
    except Exception:
        return Instance(name, clock() - start, error=traceback.format_exc())
    return Instance(name, clock() - start, analysis, checks,
                    json_text, dot_text)


def corpus_order(seed: int) -> list:
    """The order in which a round takes the corpus instances, drawn from
    the run's seed; each instance keeps its index-derived name and harness
    seed, so the reports do not depend on the order."""
    order = list(range(CORPUS_COUNT))
    random.Random(seed).shuffle(order)
    return order


def run_round(workload: str, text: str | None, corpus_seed: int,
              order: list, clock=time.perf_counter,
              mark=lambda trace: None) -> Round:
    """One round timed by `clock`; `mark` is told the trace id before
    each instance.  Instances are listed in corpus index order whatever
    `order` is."""
    start = clock()
    if workload == "corpus":
        mark(f"corpus-{corpus_seed}")
        try:
            pairs = fixtures.corpus(CORPUS_COUNT, corpus_seed)
        except Exception:
            error = traceback.format_exc()
            instances = [Instance(f"corpus-{corpus_seed}-{i:03d}", 0.0, error=error)
                         for i in range(CORPUS_COUNT)]
        else:
            instances = [None] * len(pairs)
            for index in order:
                name, sg = pairs[index]
                mark(name)
                instances[index] = _timed(clock, name, _verify, sg, name, index)
    else:
        mark(workload)
        instances = [_timed(clock, workload, _analyze_text, text)]
    return Round(clock() - start, instances)


# ---------------------------------------------------------------- checks

def _closed_form(workload: str, sg) -> dict:
    """Instance counts known without the program's spectrum or germs.

    On a finite carrier the tight points are the atoms (minimal nonzero
    idempotents) and the arrows are the elements t whose t*t is an atom.
    """
    if workload == "monoid5":
        n = MONOID5_POINTS
        return {"elements": sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1)),
                "idempotents": 2 ** n, "spectrum_size": n, "arrows": n * n,
                "units": n}
    if workload == "brandt15":
        n = BRANDT_N
        return {"elements": n * n + 1, "idempotents": n + 1, "spectrum_size": n,
                "arrows": n * n, "units": n}
    table, zero = sg.table, sg.zero
    idem = [e for e in range(sg.size) if table[e][e] == e]
    atoms = {e for e in idem
             if e != zero and all(table[e][f] in (e, zero) for f in idem)}
    arrows = sum(1 for t in range(sg.size) if table[sg.star[t]][t] in atoms)
    return {"elements": sg.size, "idempotents": len(idem),
            "spectrum_size": len(atoms), "arrows": arrows, "units": len(atoms)}


def instance_problems(workload: str, inst: Instance, digests: dict) -> list:
    """What is wrong with one instance's output; empty when it is right."""
    if inst.error is not None:
        return [f"{inst.name}: raised\n{inst.error}"]
    try:
        payload = json.loads(inst.json_text)
        meta = payload["instance"]
        seen = {"elements": meta["elements"], "idempotents": meta["idempotents"],
                "spectrum_size": meta["spectrum_size"],
                "arrows": meta["groupoid"]["arrows"],
                "units": meta["groupoid"]["units"]}
        properties = payload["properties"]
        flags = payload["cstar_flags"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{inst.name}: malformed report: {exc!r}"]
    problems = []
    want = _closed_form(workload, inst.analysis.semigroup)
    if seen != want:
        problems.append(f"{inst.name}: counts {seen}, closed form {want}")
    for prop, pair in properties.items():
        if pair["criterion"] != pair["direct"]:
            problems.append(f"{inst.name}: {prop} verdicts disagree: {pair}")
    if workload == "corpus":
        if flags["d"]:
            problems.append(f"{inst.name}: flag (d) set on a finite carrier")
        want_ids = IDENTITIES if want["arrows"] <= AXIOM_ARROW_LIMIT \
            else IDENTITIES - {"groupoid_axioms"}
        if set(inst.checks) != want_ids:
            problems.append(f"{inst.name}: identities run {sorted(inst.checks)}")
    else:
        if flags != FLAGS:
            problems.append(f"{inst.name}: flags {flags}, expected {FLAGS}")
        for key, text in (("json_sha256", inst.json_text), ("dot_sha256", inst.dot_text)):
            if sha256(text) != digests.get(key):
                problems.append(f"{inst.name}: {key} {sha256(text)}, "
                                f"recorded {digests.get(key)}")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def round_digest(rnd: Round) -> str:
    """Digest of every JSON report a round emitted, in order."""
    return sha256("".join(inst.json_text for inst in rnd.instances))


def work_counts(rnd: Round) -> dict:
    """Work done in a round, read from the program's return values only."""
    c = dict.fromkeys(COUNT_NAMES, 0)
    for inst in rnd.instances:
        if inst.analysis is None:
            continue
        a = inst.analysis
        sg = a.semigroup
        c["semigroup.elements"] += sg.size
        c["semigroup.table_cells"] += sg.size ** 2
        c["spectrum.filters_tested"] += len(spectrum.all_filters(sg))
        c["spectrum.tight_points"] += len(a.spectrum.points)
        c["action.domain_pairs"] += sum(len(a.action.domain(s)) for s in sg.elements())
        c["germs.arrows"] += len(a.groupoid.arrows)
        c["criteria.identities_run"] += len(inst.checks or ())
        c["report.json_bytes"] += len(inst.json_text.encode())
        c["report.dot_bytes"] += len(inst.dot_text.encode())
    return c
