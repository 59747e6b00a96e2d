"""Command line front end.

Exit codes: 0 on success (including the documented empty-spectrum error
document, and a run whose standard output closes early, as when it is
piped into ``head``, which stops quietly), 1 on input errors, 2 on usage
errors, 3 when two provably equal verdicts disagree, in which case a
reproducer file is written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import criteria, fixtures, report
from .dsl import SemigroupSpec, build_semigroup, format_spec, parse_spec
from .errors import EmptySpectrum, TheoremViolation, TightGroupoidError
from .semigroup import InverseSemigroup

CHECK_NAMES = {
    "hausdorff": "hausdorff",
    "esspr": "essentially_principal",
    "minimal": "minimal",
    "loccontr": "locally_contracting",
}


def spec_of_semigroup(sg: InverseSemigroup, name: str) -> SemigroupSpec:
    """Spec reproducing the instance exactly.  A closure-built instance
    is given by the partial maps of its generators, whose closure has the
    same elements in the same order, so its table is never filled; any
    other instance by its table."""
    if sg.partial_maps is not None:
        gens = tuple((f"g{j}", sg.partial_maps[g])
                     for j, g in enumerate(sg.generators))
        return SemigroupSpec(name, "generators",
                             degree=len(sg.partial_maps[0]), generators=gens)
    return SemigroupSpec(name, "table", size=sg.size, zero=sg.zero,
                         rows=sg.table)


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


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _dump_violation(sg: InverseSemigroup, name: str, exc: TheoremViolation) -> str:
    path = _violation_path(name)
    body = {
        "instance": name,
        "property": exc.property,
        "criterion": repr(exc.criterion),
        "direct": repr(exc.direct),
        "detail": exc.instance,
        "isg": format_spec(spec_of_semigroup(sg, name)),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.json_text(body))
    return path


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
        _write(args.json_path, report.json_text(payload))
        print(f"{name}: EmptySpectrum: {exc}")
        return 0
    except TheoremViolation as exc:
        path = _dump_violation(sg, name, exc)
        print(f"verdict mismatch: {exc}\nreproducer written to {path}",
              file=sys.stderr)
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

    if args.json_path:
        _write(args.json_path, report.json_text(payload))
    if args.dot_path:
        _write(args.dot_path, report.emit_dot(analysis.groupoid, name))
    return 0


def _analyze_corpus(args) -> int:
    if args.file or args.fixture:
        print("--corpus excludes a file or --fixture", file=sys.stderr)
        return 2
    if args.dot_path:
        print("--corpus excludes --dot", file=sys.stderr)
        return 2
    instances = fixtures.corpus(args.corpus, args.seed)
    payloads = []
    for index, (name, sg) in enumerate(instances):
        try:
            analysis, checks = criteria.verify_instance(sg, name, seed=index)
        except TheoremViolation as exc:
            path = _dump_violation(sg, name, exc)
            print(f"verdict mismatch on {name}: {exc}\n"
                  f"reproducer written to {path}", file=sys.stderr)
            return 3
        payload = report.build_document(analysis, name)
        print(f"[{index:3d}] {_summary(payload)} {_flags(payload)} "
              f"identities={len(checks)} ok")
        payloads.append(payload)
    print(f"{len(payloads)}/{len(instances)} equivalence checks passed")
    if args.json_path:
        body = {
            "schema_version": report.SCHEMA_VERSION,
            "corpus": {"seed": args.seed, "count": args.corpus},
            "instances": payloads,
        }
        _write(args.json_path, report.json_text(body))
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
