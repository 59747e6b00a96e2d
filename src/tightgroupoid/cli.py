"""Command line front end.

Exit codes: 0 on success (including the documented empty-spectrum error
document, and a run whose standard output closes early, as when it is
piped into ``head``, which stops quietly), 1 on input errors and on output
files that cannot be written, 2 on usage errors, 3, with a reproducer file
written, when two provably equal verdicts disagree, a stored form fails its
check (while built, too) or, in corpus mode, an instance raises any error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import criteria, fixtures, report
from .dsl import SemigroupSpec, build_semigroup, format_spec, parse_spec
from .errors import EmptySpectrum, InvariantViolation, TheoremViolation, TightGroupoidError
from .semigroup import InverseSemigroup, _images

CHECK_NAMES = {
    "hausdorff": "hausdorff",
    "esspr": "essentially_principal",
    "minimal": "minimal",
    "loccontr": "locally_contracting",
}


def spec_of_semigroup(sg: InverseSemigroup, name: str) -> SemigroupSpec:
    """Spec reproducing the instance exactly, its table never filled.  A
    closure-built instance is given by the partial maps of its generators,
    read off their digit rows, whose closure has the same elements in the
    same order; any other by its table, every column at once, transposed."""
    if sg._digits is not None:
        gens = _images(sg._digits[list(sg.generators)])
        return SemigroupSpec(name, "generators", degree=sg._digits.shape[1],
                             generators=tuple((f"g{j}", g) for j, g in enumerate(gens)))
    return SemigroupSpec(name, "table", size=sg.size, zero=sg.zero,
                         rows=sg._columns(range(sg.size)).T)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightgroupoid",
        description="Analyze finite inverse semigroups with zero: tight "
                    "spectrum, groupoid of germs, and the four structure "
                    "properties with agreeing verdict pairs.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze one instance or a random corpus")
    an.add_argument("file", nargs="?", help="path to an .isg input file")
    an.add_argument("--fixture", help="named instance: I2, B2, Z2z, E4, "
                                      "In(n), Bn(n), Cz(n), Pow(k); the "
                                      "size caps admit In(6), Bn(37), "
                                      "Cz(1413) and Pow(10) at most")
    an.add_argument("--json", dest="json_path", help="write the JSON report here")
    an.add_argument("--dot", dest="dot_path", help="write the groupoid as DOT here")
    an.add_argument("--check", choices=[*CHECK_NAMES, "all"], default="all")
    an.add_argument("--seed", type=int, default=0, help="corpus random seed")
    an.add_argument("--corpus", type=int, default=None, metavar="N",
                    help="analyze N seeded random instances instead of a file")
    an.add_argument("--timing", action="store_true",
                    help="include wall-clock timings in JSON output")
    return parser


def _write(path: str | None, text: str) -> int:
    """`text` to `path`, or to stdout; 1, and a message, if it fails."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _summary(payload: dict) -> str:
    inst = payload["instance"]
    return (f"{inst['name']}: |S|={inst['elements']} |E|={inst['idempotents']} "
            f"spectrum={inst['spectrum_size']} "
            f"arrows={inst['groupoid']['arrows']}")


def _flags(payload: dict) -> str:
    return " ".join(f"({k})={str(v).lower()}"
                    for k, v in sorted(payload["cstar_flags"].items()))


def _print_property(payload: dict, name: str) -> None:
    verdict = payload["properties"][name]
    print(f"{name}: criterion={str(verdict['criterion']).lower()} "
          f"direct={str(verdict['direct']).lower()}")
    witness = payload["witnesses"][name]
    if witness.get("failures"):
        parts = ", ".join(f"{k}={v}" for k, v in witness["failures"][0].items())
        print(f"  witness: {parts}")
    if "refuted_at" in witness:
        print(f"  refuted at e={witness['refuted_at']}")


def _violation_path(name: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return f"violation-{safe}.json"


def _dump_violation(sg: InverseSemigroup | None, name: str,
                    exc: TightGroupoidError) -> str | None:
    path = _violation_path(name)
    body = {"instance": name, "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InvariantViolation):
        body |= {"property": exc.property, "found": repr(exc.found),
                 "expected": repr(exc.expected), "detail": exc.instance}
    elif isinstance(exc, TheoremViolation):
        body |= {"property": exc.property, "criterion": repr(exc.criterion),
                 "direct": repr(exc.direct), "detail": exc.instance}
    if sg is not None:      # else it failed while building, from its input
        body["isg"] = format_spec(spec_of_semigroup(sg, name))
    return None if _write(path, report.json_text(body)) else path


def _report_violation(sg, name, exc, where="") -> None:
    """A verdict mismatch, invariant violation or other defect, and where
    its reproducer went, on stderr."""
    kind = ("invariant violation" if isinstance(exc, InvariantViolation) else
            "verdict mismatch" if isinstance(exc, TheoremViolation) else type(exc).__name__)
    print(f"{kind}{where}: {exc}", file=sys.stderr)
    if path := _dump_violation(sg, name, exc):
        print(f"reproducer written to {path}", file=sys.stderr)


def _analyze_single(args) -> int:
    if args.file and args.fixture:
        print("give either a file or --fixture, not both", file=sys.stderr)
        return 2
    if not args.file and not args.fixture:
        print("need an input file or --fixture", file=sys.stderr)
        return 2
    try:
        if args.fixture:
            name = args.fixture
            sg = fixtures.build_fixture(name)
        else:
            with open(args.file, encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
            name = spec.name
            sg = build_semigroup(spec)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:     # a stored form that fails its check
        _report_violation(None, name, exc, " while building")
        return 3
    except TightGroupoidError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        analysis = criteria.analyze(sg, name)
    except EmptySpectrum as exc:
        payload = report.error_payload(name, "EmptySpectrum", str(exc),
                                       elements=sg.size,
                                       idempotents=len(sg.idempotents))
        code = _write(args.json_path, report.json_text(payload))
        print(f"{name}: EmptySpectrum: {exc}")
        return code
    except TightGroupoidError as exc:   # raised on a valid instance: a defect
        _report_violation(sg, name, exc)
        return 3
    timing = {"analyze_s": round(time.perf_counter() - start, 6)}
    payload = report.build_document(analysis, name,
                                    timing if args.timing else None)
    print(_summary(payload))
    if args.check == "all":
        for pname in payload["properties"]:
            _print_property(payload, pname)
        print("flags: " + _flags(payload))
        for line in payload["conclusions"]:
            print(f"  {line}")
    else:
        _print_property(payload, CHECK_NAMES[args.check])

    code = _write(args.json_path, report.json_text(payload)) if args.json_path else 0
    if args.dot_path:
        code = _write(args.dot_path, report.emit_dot(analysis.groupoid, name)) or code
    return code


def _corpus_payloads(args):
    """The report of each corpus instance in turn, once its summary line
    is printed.  Generated instances are valid, so any error one raises,
    while it is built too, is a defect: it writes its reproducer and
    propagates."""
    instances = fixtures.iter_corpus(args.corpus, args.seed)
    for index in range(args.corpus):
        name, sg = f"corpus-{args.seed}-{index:03d}", None
        try:
            name, sg = next(instances)
            analysis, checks = criteria.verify_instance(sg, name, seed=index)
        except TightGroupoidError as exc:
            _report_violation(sg, name, exc, f" on {name}")
            raise
        payload = report.build_document(analysis, name)
        print(f"[{index:3d}] {_summary(payload)} {_flags(payload)} "
              f"identities={len(checks)} ok")
        yield payload


def _write_corpus_json(args, payloads) -> None:
    """The corpus document, written to the --json path one instance at a
    time as each passes; a run that stops before the end removes it."""
    with open(args.json_path, "w", encoding="utf-8") as fh:
        try:
            report._write_corpus(fh, args.seed, args.corpus, payloads)
        except BaseException:
            fh.close()
            os.remove(args.json_path)
            raise


def _analyze_corpus(args) -> int:
    if args.file or args.fixture:
        print("--corpus excludes a file or --fixture", file=sys.stderr)
        return 2
    if args.dot_path:
        print("--corpus excludes --dot", file=sys.stderr)
        return 2
    if args.json_path and _write(args.json_path, ""):   # before any instance runs
        return 1
    payloads = _corpus_payloads(args)
    try:
        if args.json_path:
            _write_corpus_json(args, payloads)
        else:
            for _ in payloads:
                pass
    except TightGroupoidError:
        return 3
    # a defect returns above, so every instance passed
    print(f"{args.corpus}/{args.corpus} equivalence checks passed")
    return 0


def run_cli(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.corpus is not None and args.corpus < 0:
            parser.error("--corpus must be at least 0")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.corpus is not None:
            code = _analyze_corpus(args)
        else:
            code = _analyze_single(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at the null device so
        # that the flush at exit does not fail again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
