"""Named example semigroups and the seeded random instance generator."""

from __future__ import annotations

import itertools
import math
import random
import re
from typing import Iterator

import numpy as np

from . import semigroup
from .errors import CapExceeded, DegreeMismatch
from .semigroup import InverseSemigroup, from_partial_maps, from_table

RANDOM_MIN_IDEMPOTENTS = 2


def _check_cells(side: int) -> None:
    """Refuse a family member, before anything is allocated, whose side^2
    cells pass `semigroup.MAX_SLAB_CELLS`: the n x n table of a table
    family, or the slab of In(n), at least (2^n)^2 cells since its 2^n
    idempotents are also elements."""
    if side * side > semigroup.MAX_SLAB_CELLS:
        raise CapExceeded(f"fixture needs over {semigroup.MAX_SLAB_CELLS} "
                          "table or slab cells")


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """All partial injections of an n point set.

    The n-cycle and the transposition (0 1) generate the symmetric group,
    and with the partial identity of rank n-1 they generate every partial
    injection.  The element count is the sum over k of C(n,k)^2 k!, which
    grows fast: the closure stops at `semigroup.MAX_SIZE` from n = 7.
    """
    if n < 1:
        raise DegreeMismatch("need at least one point")
    _check_cells(n)             # first, so 2^n is formed only for a small n
    _check_cells(2 ** n)
    gens = [tuple((x + 1) % n for x in range(n)),
            tuple(range(n - 1)) + (None,)]
    if n > 1:
        gens.append((1, 0) + tuple(range(2, n)))
    sg = from_partial_maps(n, gens)
    expected = sum(math.comb(n, k) ** 2 * math.factorial(k)
                   for k in range(n + 1))
    assert sg.size == expected
    assert len(sg.idempotents) == 2 ** n
    return sg


def brandt_semigroup(n: int) -> InverseSemigroup:
    """Matrix units e_ij for i,j in an n point set, plus zero.

    Products follow e_ij e_kl = e_il when j = k and vanish otherwise.
    """
    if n < 1:
        raise DegreeMismatch("need at least one matrix unit index")
    size = n * n + 1
    _check_cells(size)

    ar = np.arange(n, dtype=np.int32)
    units = 1 + ar[:, None] * n + ar          # units[i, j] is e_ij
    blocks = np.zeros((n, n, n, n), dtype=np.int32)   # [i, j, k, l]: e_ij e_kl
    blocks[:, ar, ar, :] = units[:, None, :]  # e_ij e_jl = e_il, else 0
    table = np.zeros((size, size), dtype=np.int32)
    table[1:, 1:] = blocks.reshape(n * n, n * n)
    names = ["0"] + [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    sg = from_table(table, 0, names)
    assert sg.size == n * n + 1
    assert len(sg.idempotents) == n + 1
    return sg


def group_with_zero(table, names=None) -> InverseSemigroup:
    """Adjoin an absorbing zero to a finite group given by its table.

    The input must really be a group; after validation the table is
    checked to have an identity that every nonzero element inverts to.
    """
    g = np.array(table, dtype=np.int64)
    n = len(g)
    size = n + 1
    out = np.zeros((size, size), dtype=np.int64)
    out[1:, 1:] = g + 1
    if names is not None:
        names = ["0", *names]
    sg = from_table(out, 0, names)
    idents = [u for u in sg.nonzero_idempotents()
              if (out[u] == np.arange(size)).all() and (out[:, u] == out[u]).all()]
    if len(idents) != 1:
        raise DegreeMismatch("input table is not a group: no two-sided identity")
    u = idents[0]
    for s in range(1, size):
        if sg.r[s] != u:
            raise DegreeMismatch("input table is not a group: missing inverses")
    return sg


def cyclic_group_with_zero(n: int) -> InverseSemigroup:
    if n < 1:
        raise DegreeMismatch("cyclic group order must be positive")
    _check_cells(n + 1)
    ar = np.arange(n, dtype=np.int32)
    table = (ar[:, None] + ar) % n
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return group_with_zero(table, names[:n])


def meet_semilattice_of_subsets(k: int) -> InverseSemigroup:
    """Subsets of a k point set under intersection, empty set as zero."""
    _check_cells(k)             # first, so 2^k is formed only for a small k
    _check_cells(2 ** k)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(k), r) for r in range(k + 1)))
    masks = np.array([sum(1 << x for x in s) for s in subsets], dtype=np.int32)
    at = np.empty(len(subsets), dtype=np.int32)     # mask -> index
    at[masks] = np.arange(len(subsets), dtype=np.int32)
    table = at[masks[:, None] & masks]
    names = ["0" if not s else "".join(map(str, s)) for s in subsets]
    return from_table(table, 0, names)


def diamond_semilattice() -> InverseSemigroup:
    """Four idempotents 0 < a, b < 1 with a and b orthogonal."""
    table = [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]
    return from_table(table, 0, ["0", "a", "b", "1"])


_PARAM = re.compile(r"(?P<head>[A-Za-z_]+)\((?P<arg>[0-9]+)\)")


def build_fixture(name: str) -> InverseSemigroup:
    """Build a named instance.

    Plain names: I2 (partial injections of two points), B2 (two by two
    matrix units with zero), Z2z (order two group with zero), E4 (the
    diamond semilattice).  Parameterized: In(n), Bn(n), Cz(n) for the
    cyclic group of order n with zero, Pow(k) for the subset semilattice.
    """
    flat = {
        "I2": lambda: symmetric_inverse_monoid(2),
        "B2": lambda: brandt_semigroup(2),
        "Z2z": lambda: cyclic_group_with_zero(2),
        "E4": diamond_semilattice,
    }
    if name in flat:
        return flat[name]()
    m = _PARAM.fullmatch(name)
    param = {
        "In": symmetric_inverse_monoid,
        "Bn": brandt_semigroup,
        "Cz": cyclic_group_with_zero,
        "Pow": meet_semilattice_of_subsets,
    }
    if m and m.group("head") in param:
        try:
            arg = int(m.group("arg"))
        except ValueError:      # past int()'s limit on decimal digits
            raise CapExceeded(f"fixture argument of {len(m.group('arg'))} "
                              "digits") from None
        return param[m.group("head")](arg)
    raise DegreeMismatch(f"unknown fixture {name!r}")


# ------------------------------------------------------- random instances

def random_partial_injection(rng: random.Random, degree: int) -> tuple:
    density = rng.uniform(0.3, 1.0)
    targets = list(range(degree))
    rng.shuffle(targets)
    out = [None] * degree
    for x in range(degree):
        if rng.random() < density:
            out[x] = targets.pop()
    return tuple(out)


def random_instance(rng: random.Random) -> InverseSemigroup:
    """One random generator-closed instance.

    Degree 2..4, one to three generators; draws with fewer than
    `RANDOM_MIN_IDEMPOTENTS` idempotents (an empty spectrum) are
    resampled so the result always supports the full analysis pipeline.
    """
    while True:
        degree = rng.choice([2, 3, 4])
        gens = [random_partial_injection(rng, degree)
                for _ in range(rng.randint(1, 3))]
        sg = from_partial_maps(degree, gens)
        if len(sg.idempotents) < RANDOM_MIN_IDEMPOTENTS:
            continue
        return sg


def iter_corpus(count: int, seed: int) -> Iterator[tuple]:
    """Deterministic (name, semigroup) pairs for a seed, each drawn only
    when asked for, so a caller can hold one instance at a time."""
    rng = random.Random(seed)
    for i in range(count):
        yield f"corpus-{seed}-{i:03d}", random_instance(rng)


def corpus(count: int, seed: int) -> list:
    """The pairs of :func:`iter_corpus` as one list."""
    return list(iter_corpus(count, seed))
