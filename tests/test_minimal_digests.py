"""Frozen SHA-256 digests of the JSON report on the two paths of the
minimal criterion at scale.

In(5) holds the criterion: its 961 conjugate covers, one per pair of
nonzero idempotents (e, f), share 391 tuples of (cover, via) pairs.
Pow(8) fails it, and its 5.9 MB report lists every failing pair.  Both
reports must stay byte for byte as they were when this test was added,
except that Pow(8)'s was pinned again when its subsets were named by
letters, so that the singleton {0} no longer shares the zero's name 0.
"""

from __future__ import annotations

import hashlib

import pytest

from tightgroupoid import cli

# fixture -> digest of the JSON of `analyze --fixture NAME --json PATH`
MINIMAL_DIGESTS = {
    "In(5)": "27499e4527cf92beeeae5fabad4d6caa49088ba82acd11b63f607c1add5bce9e",
    "Pow(8)": "05ba347ed660b57229c141f3726dcb2ceac53ed5cdc2a197317ee3749e993ed9",
}


@pytest.mark.parametrize("name", sorted(MINIMAL_DIGESTS))
def test_minimal_criterion_reports_are_frozen(name, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.run_cli(["analyze", "--fixture", name, "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MINIMAL_DIGESTS[name]
