"""Benchmark of tightgroupoid: three workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload monoid5|brandt15|corpus \
        --seed N --seconds S --trace 0|1

Run from any directory; the package under test is the `src/` tree next
to this directory.  The run repeats rounds of one workload (see
workloads.py) for about `--seconds`, checks every round's output, prints
a readable summary, and prints as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the
`end_to_end` metrics of BENCHMARK.json with `--trace 0`, its `per_layer`
metrics with `--trace 1`.  A traced run alternates untraced and traced
rounds, so it also reports the tracing overhead, and writes its spans to
`.bench_out/`.  Every reported time is at reference speed (refclock.py):
the measured time scaled by how fast a fixed probe ran during the run.
perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import program

program.import_path()

import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
MANIFEST = program.ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
SPAN_DIR = program.ROOT / ".bench_out"
SETUP_RUNS = 7


@dataclass
class RoundResult:
    traced: bool
    seconds: float
    instance_seconds: list
    attempted: int
    failed: int
    problems: list
    counts: dict
    digest: str
    spans: list


def _args(argv, default_corpus_seed: int):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="order in which corpus instances are taken "
                        "(monoid5 and brandt15 have fixed inputs)")
    p.add_argument("--corpus-seed", type=int, default=default_corpus_seed,
                   help="the corpus: `analyze --corpus 500 --seed` this")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time to measure; a round that alone takes longer "
                        "still runs once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over fresh interpreters of the time to import the package
    and render the workload's input, and the factor to reference speed
    from probes run around them."""
    clock = refclock.Clock()
    times = []
    for _ in range(SETUP_RUNS):
        clock.bracket(1)
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                       check=True)
        times.append(time.perf_counter() - start)
        clock.bracket(1)
    # starting an interpreter and importing is interpreter work
    return statistics.median(times), clock.factor(memory_share=0.0)


def _recorded(expected: dict, workload: str, corpus_seed: int) -> dict:
    """Digests and counts recorded for this workload (and corpus seed)."""
    if workload == "corpus":
        return expected["corpus"].get(str(corpus_seed), {})
    return expected[workload]


def evaluate(workload: str, rnd, recorded: dict, spans: list | None) -> RoundResult:
    problems = []
    failed = 0
    for inst in rnd.instances:
        found = workloads.instance_problems(workload, inst, recorded)
        if found:
            failed += 1
            problems += found
    digest = workloads.round_digest(rnd)
    if workload == "corpus" and "json_sha256" in recorded \
            and digest != recorded["json_sha256"]:
        problems.append(f"corpus reports digest {digest} != {recorded['json_sha256']}")
        failed = len(rnd.instances)
    return RoundResult(spans is not None, rnd.seconds,
                       [i.seconds for i in rnd.instances], len(rnd.instances),
                       failed, problems, workloads.work_counts(rnd), digest,
                       spans or [])


def measure(args, text, recorded: dict, clock: refclock.Clock) -> list:
    """Rounds until the run is as close to `args.seconds` long as whole
    rounds allow, and at least one; a traced run alternates untraced and traced rounds
    and has at least one of each.  Rounds are timed by `clock`, which
    must be running."""
    results = []
    order = workloads.corpus_order(args.seed)
    start = time.perf_counter()
    while True:
        if args.trace == 1 and len(results) % 2 == 1:
            recorder = tracer.Recorder(clock.now)
            with recorder.installed():
                rnd = workloads.run_round(args.workload, text, args.corpus_seed,
                                          order, clock.now, recorder.mark)
            spans = recorder.spans
        else:
            rnd = workloads.run_round(args.workload, text, args.corpus_seed,
                                      order, clock.now)
            spans = None
        results.append(evaluate(args.workload, rnd, recorded, spans))
        del rnd  # so that peak RSS holds one round's analyses, not two
        # stop where the run ends closest to `args.seconds`
        half_round = statistics.median(r.seconds for r in results) / 2
        if time.perf_counter() - start + half_round > args.seconds \
                and (args.trace == 0 or len(results) >= 2):
            return results


def repeat_problems(results: list, recorded: dict) -> list:
    """Counts and digests must repeat exactly between rounds, and match
    what is recorded for this input."""
    problems = []
    first = results[0]
    for r in results[1:]:
        if r.counts != first.counts or r.digest != first.digest:
            problems.append("a round's work counts or output digest differ "
                            "from the first round's")
            r.failed = r.attempted
    want = recorded.get("counts")
    if want is not None and first.counts != want:
        problems.append(f"work counts {first.counts} != recorded {want}")
        for r in results:
            r.failed = r.attempted
    return problems


def end_to_end(results: list, setup_s: float, factor: float) -> dict:
    """Times multiplied by `factor`, rates divided by it; `setup_s` comes
    already scaled."""
    plain = [r for r in results if not r.traced]
    return {
        "latency_s": statistics.median(
            statistics.fmean(r.instance_seconds) for r in plain) * factor,
        "instances_per_s": statistics.median(
            (r.attempted - r.failed) / r.seconds for r in plain) / factor,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(results: list, factor: float) -> tuple[dict, list]:
    """Median over traced rounds of each layer time, multiplied by
    `factor`; every count, ratio and error count must repeat exactly,
    and is reported as it reads."""
    rows = []
    for r in results:
        if not r.traced:
            continue
        row = tracer.layer_metrics(r.spans)
        row.update(r.counts)
        row["spectrum.tight_ratio"] = _ratio(row["spectrum.tight_points"],
                                             row["spectrum.filters_tested"])
        row["germs.arrow_ratio"] = _ratio(row["germs.arrows"],
                                          row["action.domain_pairs"])
        rows.append(row)
    out = {}
    problems = []
    for name in rows[0]:
        if name in tracer.LAYER_TIMES:
            out[name] = statistics.median(row[name] for row in rows) * factor
            continue
        out[name] = rows[0][name]
        if any(row[name] != out[name] for row in rows):
            problems.append(f"{name} differs between traced rounds")
    return out, problems


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _result_metrics(values: dict, declared: list) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(f"benchmark: metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def _print_summary(args, results, e2e, layers, manifest, clock, factor: float,
                   setup_raw: float) -> None:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    plain = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced]
    print(f"workload {args.workload}  seed {args.seed}  corpus seed "
          f"{args.corpus_seed}  rounds {len(plain)} "
          f"untraced + {len(traced)} traced  instances/round {results[0].attempted}")
    print("round seconds as measured, probes left out: " + " ".join(
        f"{r.seconds:.4g}{'T' if r.traced else ''}" for r in results))
    interp, memory = clock.slowdowns()
    print(f"reference probe: {len(clock.probes)} runs, median over nominal "
          f"{interp:.4g} (interpreter), {memory:.4g} (memory); memory share "
          f"{workloads.MEMORY_SHARE[args.workload]}, factor {factor:.4g}; "
          f"setup as measured {setup_raw:.4g} s")
    print(f"output digest (sha256 of the round's JSON reports) {results[0].digest}")
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    print("end to end (untraced rounds, at reference speed):")
    for name, value in e2e.items():
        print(f"  {name:34s} {value:12.6g} {units[name]}")
    print(f"  {'error_rate':34s} {failed / attempted:12.6g} failed/attempted "
          f"({failed}/{attempted})")
    if layers is None:
        return
    # the first round also pays first-use costs; leave it out when possible
    warm = plain[1:] or plain
    round_s = statistics.median(r.seconds for r in traced) * factor
    overhead = round_s - statistics.median(r.seconds for r in warm) * factor
    print(f"per layer (median over traced rounds, at reference speed; "
          f"share of a {round_s:.4g} s round):")
    for name in (m["name"] for m in manifest["per_layer"]):
        value = layers[name]
        share = f"{100 * value / round_s:6.2f}%" if units[name] == "s" else ""
        print(f"  {name:34s} {value:12.6g} {units[name]:6s} {share}")
    print(f"tracing overhead: {overhead:+.4g} s per round "
          f"({100 * overhead / (round_s - overhead):+.2f}%)")


def main(argv=None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    expected = json.loads(EXPECTED.read_text())
    args = _args(argv, expected["corpus_seeds"]["default"])
    recorded = _recorded(expected, args.workload, args.corpus_seed)
    text = workloads.render_input(args.workload)
    setup_raw, setup_factor = setup_seconds(args.workload)
    refclock.probe()  # warm the probe up before it counts
    clock = refclock.Clock()
    clock.bracket(2)
    clock.start()
    try:
        origin = clock.now()
        results = measure(args, text, recorded, clock)
    finally:
        clock.stop()
    factor = clock.factor(workloads.MEMORY_SHARE[args.workload])

    problems = repeat_problems(results, recorded)
    for r in results:
        problems += r.problems
    e2e = end_to_end(results, setup_raw * setup_factor, factor)
    layers = None
    if args.trace:
        layers, found = per_layer(results, factor)
        problems += found
    for line in problems[:20]:
        print(line, file=sys.stderr)
    _print_summary(args, results, e2e, layers, manifest, clock, factor, setup_raw)
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}-{args.seed}-{args.corpus_seed}.json"
        spans = [dict(row, round=i) for i, r in enumerate(results)
                 for row in tracer.dump(r.spans, origin)]
        path.write_text(json.dumps(spans) + "\n")
        print(f"{len(spans)} spans written to {path}")
        metrics = _result_metrics(layers, manifest["per_layer"])
    else:
        metrics = _result_metrics(e2e, manifest["end_to_end"])
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
