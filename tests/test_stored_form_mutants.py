"""Defects in the stored forms of an instance end in exit 3.

Each mutant corrupts one bit-row form that the `InverseSemigroup`
constructor stores, applied to every instance as it is built.  `analyze`
on a named fixture and `analyze --corpus` must then end in exit 3 with a
reproducer: a defect is never reported as a verdict or an empty
spectrum, and never escapes as a traceback."""

from __future__ import annotations

import numpy as np
import pytest

from tightgroupoid import cli, semigroup


def meet_drops_own_idempotent(sg):
    sg.meet_bits = {e: bits & ~(1 << sg.column[e]) for e, bits in sg.meet_bits.items()}


def below_marks_zero_products(sg):
    # f <= s also whenever s f = 0
    idem = np.array(sg.idempotent_list())
    sg.below_bits = tuple(semigroup._row_bits((sg.slab == idem) | (sg.slab == sg.zero)))


def below_drops_highest_column(sg):
    keep = ~(1 << (len(sg.idempotents) - 1))
    sg.below_bits = tuple(bits & keep for bits in sg.below_bits)


MUTANTS = (meet_drops_own_idempotent, below_marks_zero_products,
           below_drops_highest_column)
RUNS = (["--fixture", "B2"], ["--fixture", "E4"], ["--fixture", "I2"],
        ["--fixture", "Z2z"], ["--fixture", "Cz(40)"],
        ["--corpus", "20", "--seed", "7"])
# Known survivors, open defects.  None is left: the highest-column
# mutant once survived on E4 and I2, whose highest idempotent column is
# the identity's, because losing it changed only the Hausdorff and
# fixed-cover witnesses, never a verdict; `analyze` now checks that every
# idempotent's row of `below_bits` holds its own column.
SURVIVORS = set()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
def test_stored_form_mutants_exit_3(mutant, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    init = semigroup.InverseSemigroup.__init__

    def mutated(self, *args, **kwargs):
        init(self, *args, **kwargs)
        mutant(self)

    monkeypatch.setattr(semigroup.InverseSemigroup, "__init__", mutated)
    for argv in RUNS:
        code = cli.run_cli(["analyze", *argv])
        err = capsys.readouterr().err
        if (mutant.__name__, argv[1]) in SURVIVORS:
            assert code == 0, argv
            continue
        assert code == 3, (argv, err)
        assert "reproducer written to violation-" in err, argv
        assert "Traceback" not in err, argv
