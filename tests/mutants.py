"""Mutation check: every mutant of the package must make its named tests fail.

A mutant is one (file, old text, new text) patch of ``src/tightgroupoid``
with the tests that must catch it.  Each is applied to its own temporary
copy of ``src/``, and the named tests run with that copy first on the
import path.  A mutant is killed when pytest reports failed tests (exit
code 1).  It survives when the tests pass, and it is an error when its
old text does not occur exactly once or pytest ends any other way (no
such test, a collection error), since neither shows that a test caught
it.  The script exits 1 if any mutant survives or errs, else 0.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

The file name keeps it out of the test suite's own collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/tightgroupoid, old text, new text, tests)
MUTANTS = {
    # the cover routine ORs every member's row but the last
    "met_skips_a_row": (
        "semigroup.py",
        "        while bits:\n            low = bits & -bits\n            out |= rows",
        "        while bits & (bits - 1):\n            low = bits & -bits\n            out |= rows",
        ["tests/test_semilattice_bits.py::test_semilattice_bits_match_the_meet_table"]),
    # the maximal members of an ideal keep the zero
    "maximal_keeps_zero": (
        "semigroup.py",
        "return bits & ~strictly_below & ~(1 << self.column[self.zero])",
        "return bits & ~strictly_below",
        ["tests/test_semigroup.py::test_canonical_cover"]),
    # the atoms are the rows of below_bits of popcount 1, not 2
    "atom_at_popcount_1": (
        "spectrum.py",
        "return sg.below_bits[e].bit_count() == 2",
        "return sg.below_bits[e].bit_count() == 1",
        ["tests/test_criteria.py::test_harness_failures_keep_their_messages"]),
    # the trimmed canonical candidate drops its highest member, not its lowest
    "trimmed_candidate_drops_highest": (
        "criteria.py",
        "(canonical & (canonical - 1),)",
        "(canonical & ~(1 << canonical.bit_length() - 1),)",
        ["tests/test_criteria.py::test_harness_failures_keep_their_messages"]),
    # the slab of a table-built instance is checked against the table's
    # idempotent rows, read as columns: s e against e s
    "slab_check_reads_rows": (
        "semigroup.py",
        "bad = sg.slab != np.take(m, el, axis=1)",
        "bad = sg.slab != np.take(m.T, el, axis=1)",
        ["tests/test_fixtures.py::test_named_fixture_cardinalities"]),
    # the JSON writer's plainness check lets every float through to orjson,
    # which writes 1e-07 as 1e-7 and NaN as null
    "float_text_unchecked": (
        "report.py",
        "if list(map(orjson.dumps, floats)) != [repr(x).encode() for x in floats]:",
        "if False:",
        ["tests/test_json_emitter.py::test_floats_deep_in_a_witness_are_written_as_the_stdlib_does"]),
    # orjson's text is kept though it holds non-ASCII text or DEL
    "escape_pass_skipped": (
        "report.py",
        'return text.replace("\\x7f", "\\\\u007f").encode("ascii", _ESCAPE).decode()',
        "return text",
        ["tests/test_json_emitter.py::test_text_that_is_not_printable_ascii_is_escaped_as_the_stdlib_does"]),
    # a value holding a type outside _PLAIN (a subclass, an Enum, a
    # datetime) goes to orjson anyway
    "foreign_type_to_orjson": (
        "report.py",
        "        if not found <= _PLAIN:\n            return False\n",
        "",
        ["tests/test_json_emitter.py::test_subclasses_and_foreign_types_are_left_to_the_stdlib"]),
    # the groupoid-axiom table reads each product's germ at the arrow's
    # target point, not at its own point
    "table_at_target_point": (
        "germs.py",
        "table = self.class_of[st, xs]\n",
        "table = self.class_of[st, list(tgt)]\n",
        ["tests/test_germs.py::test_verify_axioms_agrees_with_compose_oracle"]),
    # the conjugators' values laid out f by f, not s by s: the conjugate
    # sets stay right, but each via cell names the wrong element
    "conjugator_values_tiled": (
        "criteria.py",
        "np.arange(n, dtype=np.int32).repeat(width)",
        "np.tile(np.arange(n, dtype=np.int32), width)",
        ["tests/test_array_passes.py::test_array_passes_match_per_element_loops"]),
    # the inverses derived along the spanning tree as p* g*, not g* p*:
    # the check refuses them, and the search, finding one inverse each,
    # raises; the table families of test_table_input.py are built as it is
    # collected, so its tests end in a collection error, not a failure
    "derived_inverse_reversed": (
        "semigroup.py",
        "star[y] = rows[letter[y]][star[parent[y]]]",
        "star[y] = int(m[star[parent[y]], inverse[letter[y]]])",
        ["tests/test_fixtures.py::test_named_fixture_cardinalities"]),
    # the table parse forgets which tokens are still running: a token
    # takes digits of the token before, and the row reader reads the text
    "parse_drops_running_tokens": (
        "dsl.py",
        "longer = longer[digit[ends[longer] - k - 1]]",
        "longer = np.flatnonzero(digit[ends - k - 1])",
        ["tests/test_table_input.py::test_the_byte_pass_reads_brandt15_and_tokens_of_up_to_w_digits"]),
    # the germ quotient keeps the last pair of each class as its
    # representative, not the first
    "germ_keeps_last_pair": (
        "germs.py",
        "np.minimum.at(first, codes, np.arange(len(codes)))",
        "first[codes] = np.arange(len(codes))",
        ["tests/test_germs.py::test_canonical_representatives_are_minimal"]),
    # the constructor's weakly fixed pass reads e <= ss*, not e <= s*s
    "weakly_fixed_below_range": (
        "semigroup.py",
        "below_d = below[self._index[1]]",
        "below_d = below[self._index[2]]",
        ["tests/test_array_passes.py::test_array_passes_match_per_element_loops"]),
    # meet_bits packed from the order block, f <= e, not from e f != 0
    "meet_bits_from_order": (
        "semigroup.py",
        "self.meet_bits = tuple(_row_bits(meets != zero))",
        "self.meet_bits = tuple(_row_bits(below[rows]))",
        ["tests/test_semilattice_bits.py::test_semilattice_bits_match_the_meet_table"]),
    # the closure no longer looks up every inverse and domain among its
    # maps: one outside the closure reaches the constructor
    "closure_lookup_dropped": (
        "semigroup.py",
        "    if miss.size:\n",
        "    if False:\n",
        ["tests/test_report_cli.py::test_closure_defect_while_building_exits_3_in_both_modes"]),
    # the groupoid axioms' associativity pass skips its last block of j,
    # which on a groupoid of one block is every j
    "associativity_skips_last_block": (
        "germs.py",
        "for lo in range(0, n, step):",
        "for lo in range(0, n - step, step):",
        ["tests/test_germs.py::test_wide_groupoids_agree_with_compose_oracle_clean_and_corrupted"]),
    # the laws pass marks an arrow only for its right inverse law
    "laws_pass_reads_one_law": (
        "germs.py",
        "broken = (laws != np.array((utgt, usrc, ar, ar))).any(axis=0)",
        "broken = (laws != np.array((utgt, usrc, ar, ar)))[0]",
        ["tests/test_germs.py::test_wide_groupoids_agree_with_compose_oracle_clean_and_corrupted"]),
    # the conjugated domains pass reads only the first 52-point word
    "conjugation_reads_first_word": (
        "criteria.py",
        "for lo in range(0, points, 52)]",
        "for lo in range(0, min(points, 52), 52)]",
        ["tests/test_array_passes.py::test_conjugated_domains_reads_every_52_point_word"]),
    # a candidate's met set, domain union and below-union are read off the
    # ideal's members, cached under the candidate's key
    "candidate_held_under_ideal": (
        "criteria.py",
        "held = seen[cov] = sg._met(cov, packed)",
        "held = seen[cov] = sg._met(ideal, packed)",
        ["tests/test_criteria.py::test_harness_failures_keep_their_messages"]),
    # the three closed ideals go unchecked against the slab
    "closed_ideals_unchecked": (
        "criteria.py",
        "        if sg._met(closed, slab_below) & ~closed:\n",
        "        if False:\n",
        ["tests/test_array_passes.py::test_harness_passes_fail_as_the_per_element_loops"]),
    # the weakly fixed pass names the element's row in its block, not in
    # the instance
    "weakly_fixed_label_drops_block_offset": (
        "criteria.py",
        "s={lo + s} e=",
        "s={s} e=",
        ["tests/test_block_budget.py::test_blocked_passes_fail_first_as_at_the_default_budget"]),
    # the groupoid axioms' pair and triple pass reads every block of j as
    # the first
    "axiom_pairs_drop_block_offset": (
        "germs.py",
        "            j += lo\n",
        "",
        ["tests/test_block_budget.py::test_blocked_passes_fail_first_as_at_the_default_budget"]),
    # Light's test names the failing row x in its block, not in the table
    "associativity_drops_row_offset": (
        "semigroup.py",
        "raise NotAssociative(lo + x, g, y)",
        "raise NotAssociative(x, g, y)",
        ["tests/test_block_budget.py::test_blocked_passes_fail_first_as_at_the_default_budget"]),
    # a filter counts as inside another when its row equals that one's:
    # every filter lies in itself, and none is maximal
    "filter_inside_itself": (
        "spectrum.py",
        "if not any(row & ~other == 0 and row != other for other in rows)]",
        "if not any(row & ~other == 0 for other in rows)]",
        ["tests/test_spectrum.py::test_ultrafilters_match_bruteforce"]),
}


def run(tests: list, patch: tuple = None):
    """The pytest exit code of `tests` on a copy of ``src/`` with `patch`,
    (file, old text, new text), applied, and pytest's output; or None and
    a message if the patch does not apply or the copy is not imported."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if patch is not None:
            file, old, new = patch
            path = src / "tightgroupoid" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return None, f"its old text occurs {text.count(old)} times in {file}"
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        where = subprocess.run(
            [sys.executable, "-c", "import tightgroupoid; print(tightgroupoid.__file__)"],
            env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            return None, f"the tests would import {where or 'nothing'}, not the copy"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    return result.returncode, result.stdout[-2000:]


def outcome(name: str) -> str:
    """'killed', 'survived' or an error, for one mutant."""
    file, old, new, tests = MUTANTS[name]
    code, output = run(tests, (file, old, new))
    if code == 1:
        return "killed"
    if code == 0:
        return "survived"
    return f"error: {output}" if code is None else f"error: pytest exited {code}\n{output}"


def main(argv: list) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    # the named tests must pass on the source as it is, or a failure
    # would show nothing about a mutant
    tests = list(dict.fromkeys(t for n in names for t in MUTANTS[n][3]))
    code, output = run(tests)
    if code != 0:
        print(f"the named tests do not pass unpatched:\n{output}", file=sys.stderr)
        return 1
    bad = 0
    for name in names:
        start = time.perf_counter()
        result = outcome(name)
        bad += result != "killed"
        print(f"{name}: {result} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(names) - bad} of {len(names)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
