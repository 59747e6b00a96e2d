"""Defects in the stored forms of an instance end in exit 3.

Each mutant corrupts one form that the `InverseSemigroup` constructor
stores, applied to every instance as it is built: a bit-row form once
the constructor has filled it, the breadth-first tree (``parent`` and
``letter``) before the constructor reads columns along it, the columns
read along it, or the packing of bit rows itself.  `analyze` on a named
fixture and `analyze --corpus` must then end in exit 3 with a
reproducer: a defect is never reported as a verdict or an empty
spectrum, and never escapes as a traceback.  What catches a tree mutant
on a closure-built instance is the check of the slab's idempotent rows
against the instance's maps; what catches a column mutant on a
table-built one (B2, E4, Z2z, Cz(40), Bn(8), Pow(5)) is the check of the
slab against the table's idempotent columns while the table is built."""

from __future__ import annotations

import numpy as np
import pytest

from tightgroupoid import cli, semigroup

ROW_BITS = semigroup._row_bits
COLUMNS = semigroup.InverseSemigroup._columns


def meet_drops_own_idempotent(sg):
    sg.meet_bits = tuple(bits & ~(1 << j) for j, bits in enumerate(sg.meet_bits))


def below_marks_zero_products(sg):
    # f <= s also whenever s f = 0
    idem = np.array(sg.idempotent_list())
    sg.below_bits = tuple(ROW_BITS((sg.slab == idem) | (sg.slab == sg.zero)))


def below_drops_highest_column(sg):
    keep = ~(1 << (len(sg.idempotents) - 1))
    sg.below_bits = tuple(bits & keep for bits in sg.below_bits)


def parent_moved_up(sg, parent, letter):
    # the highest idempotent off the generators hangs off its grandparent,
    # or off the next generator when its parent is one: the tree stays a
    # tree, but that slab column is taken through the wrong element
    off = [e for e in sg.idempotent_list() if parent[e] >= 0]
    if off:
        e, gens = off[-1], sg.generators
        p = parent[e]
        parent[e] = parent[p] if parent[p] >= 0 else gens[(gens.index(p) + 1) % len(gens)]


def parent_skips_a_level(sg, parent, letter):
    # the highest idempotent two levels deep hangs off its grandparent
    deep = [e for e in sg.idempotent_list() if parent[e] >= 0 and parent[parent[e]] >= 0]
    if deep:
        parent[deep[-1]] = parent[parent[deep[-1]]]


def letter_off_by_one(sg, parent, letter):
    # the highest idempotent off the generators takes the next letter
    off = [e for e in sg.idempotent_list() if letter[e] >= 0]
    if off:
        letter[off[-1]] = (letter[off[-1]] + 1) % len(sg.generators)


def column_one_gather_short(sg, wanted, out):
    # the highest wanted element off the generators is given its parent's
    # column, x -> x p, in place of x -> x p g
    off = [i for i, y in enumerate(wanted) if sg.parent[y] >= 0]
    if off:
        out[off[-1]] = COLUMNS(sg, [int(sg.parent[wanted[off[-1]]])])[0]


def row_bits_off_by_one(flags):
    # bit j + 1 set when cell j is True
    return [bits << 1 for bits in ROW_BITS(flags)]


def after_construction(corrupt):
    def apply(mp):
        init = semigroup.InverseSemigroup.__init__

        def mutated(self, *args, **kwargs):
            init(self, *args, **kwargs)
            corrupt(self)

        mp.setattr(semigroup.InverseSemigroup, "__init__", mutated)
    return corrupt.__name__, apply


def in_the_tree(corrupt):
    def apply(mp):
        columns = semigroup.InverseSemigroup._columns

        def mutated(self, wanted):
            if not hasattr(self, "slab"):     # the constructor's first read
                parent, letter = self.parent.copy(), self.letter.copy()
                corrupt(self, parent, letter)
                self.parent, self.letter = parent, letter
            return columns(self, wanted)

        mp.setattr(semigroup.InverseSemigroup, "_columns", mutated)
    return corrupt.__name__, apply


def in_the_columns(corrupt):
    def apply(mp):
        def mutated(self, wanted):
            out = COLUMNS(self, wanted)
            corrupt(self, list(wanted), out)
            return out

        mp.setattr(semigroup.InverseSemigroup, "_columns", mutated)
    return corrupt.__name__, apply


def in_the_packing(packing):
    return packing.__name__, lambda mp: mp.setattr(semigroup, "_row_bits", packing)


MUTANTS = dict([after_construction(meet_drops_own_idempotent),
                after_construction(below_marks_zero_products),
                after_construction(below_drops_highest_column),
                in_the_tree(parent_moved_up),
                in_the_tree(parent_skips_a_level),
                in_the_tree(letter_off_by_one),
                in_the_columns(column_one_gather_short),
                in_the_packing(row_bits_off_by_one)])
RUNS = (["--fixture", "B2"], ["--fixture", "E4"], ["--fixture", "I2"],
        ["--fixture", "Z2z"], ["--fixture", "Cz(40)"], ["--fixture", "In(3)"],
        ["--fixture", "In(4)"], ["--fixture", "In(5)"], ["--fixture", "Bn(8)"],
        ["--fixture", "Pow(5)"],
        ["--corpus", "20", "--seed", "7"])
# Known survivors, where a mutant changes nothing: on B2, E4 and Z2z no
# idempotent lies two levels deep in the tree, so the level-skipping
# mutant leaves every column as it was.  Where a mutant changes only
# witnesses or the report, never a verdict, `analyze` checks the stored
# forms themselves: that every idempotent's row of `below_bits` holds
# its own column (the highest-column mutant on E4 and I2), and the
# slab's idempotent rows of a closure-built instance against its maps
# (the level-skipping mutant on In(3), In(4) and In(5); on In(4) it
# takes the column of element 88, the partial identity on {0, 1, 3},
# through the wrong element).  A table-built instance has its slab
# checked against the table's idempotent columns while it is built.
SURVIVORS = {("parent_skips_a_level", run) for run in ("B2", "E4", "Z2z")}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_stored_form_mutants_exit_3(mutant, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    MUTANTS[mutant](monkeypatch)
    for argv in RUNS:
        code = cli.run_cli(["analyze", *argv])
        err = capsys.readouterr().err
        if (mutant, argv[1]) in SURVIVORS:
            assert code == 0, argv
            continue
        assert code == 3, (argv, err)
        assert "reproducer written to violation-" in err, argv
        assert "Traceback" not in err, argv
