"""Filters, characters, and the tight spectrum of the idempotent
semilattice.

On a finite semilattice every filter is the up-set of its minimum, so a
filter is stored as that minimum plus the derived member set, and two
filters over the same semigroup compare equal exactly when their minima
do.  Enumeration outputs are always sorted by minimum index so results
are deterministic regardless of evaluation order.

Every check is decided in closed form: a set of idempotents is a
filter, and a {0,1} map a character, exactly when it or its support is
the up-set of its meet; the ultrafilters, which on a finite semilattice
are the tight filters, are the up-sets of the atoms.  The general scans
and searches these replace are the test suite's oracles for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import EmptySpectrum, NotInDomain, ZeroGeneratesNoFilter
from .semigroup import InverseSemigroup
from . import errors


@dataclass(frozen=True)
class Filter:
    """Nonempty, zero-free, meet- and up-closed set of idempotents.

    `min` is the meet of the members and determines the filter; `members`
    is derived and excluded from comparison and hashing.
    """

    min: int
    members: frozenset = field(compare=False, hash=False)

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Character:
    """Nonzero multiplicative {0,1} map on the idempotents, zero at 0.

    `ones` is the support; the indicator of a filter and nothing else
    survives validation, which is how characters and filters end up in
    bijection.
    """

    ones: frozenset

    def __call__(self, e: int) -> int:
        return 1 if e in self.ones else 0

    def values(self, sg: InverseSemigroup) -> Mapping[int, int]:
        return {e: self(e) for e in sg.idempotent_list()}


@dataclass(frozen=True)
class TightSpectrum:
    """The finite carrier of tight filters, in min-index order."""

    semigroup: InverseSemigroup
    points: tuple

    def __len__(self) -> int:
        return len(self.points)

    def index(self, f: Filter) -> int:
        try:
            return self._index[f]
        except KeyError:
            raise NotInDomain(f"filter with min {f.min} is not a tight point")

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})


# ------------------------------------------------------------ filters

def filter_from_min(sg: InverseSemigroup, e: int) -> Filter:
    """The up-set of a nonzero idempotent, as a filter."""
    if e == sg.zero:
        raise ZeroGeneratesNoFilter("the up-set of zero contains zero")
    return Filter(*_meet_and_up_set(sg, (e,)))


def _meet_and_up_set(sg: InverseSemigroup, members) -> tuple:
    """The meet m of nonempty idempotents and the up-set of m, every
    idempotent when m is 0: a zero-free set of idempotents is a filter
    exactly when it equals that up-set."""
    for e in members:
        if e not in sg.idempotents:
            raise errors.NotIdempotent(e)
    m = functools.reduce(sg.meet, members)
    row = sg.slab[m].tolist()                 # f -> m f
    return m, frozenset(f for f, mf in zip(sg.idempotent_list(), row) if mf == m)


def all_filters(sg: InverseSemigroup) -> list:
    """Every filter, one per nonzero idempotent."""
    nz = sg.nonzero_idempotents()
    if not nz:
        raise EmptySpectrum("the semilattice is {0}")
    return [filter_from_min(sg, e) for e in nz]


def validate_filter(sg: InverseSemigroup, f: Filter) -> None:
    """Raise unless the members are the up-set of their meet and of min."""
    if not f.members or sg.zero in f.members:
        raise ZeroGeneratesNoFilter("filter members must be nonempty and zero-free")
    if _meet_and_up_set(sg, f.members)[1] != f.members:
        raise errors.NotAnIdeal("filter members are not the up-set of their meet")
    if filter_from_min(sg, f.min).members != f.members:
        raise errors.NotAnIdeal("filter members disagree with the up-set of min")


def char_of(sg: InverseSemigroup, f: Filter) -> Character:
    """Indicator character of a filter."""
    validate_filter(sg, f)
    return Character(f.members)


def filter_of(sg: InverseSemigroup, c: Character) -> Filter:
    """The support of a character, as a filter.  A nonzero {0,1} map
    vanishing at 0 is multiplicative exactly when its support is a
    filter, the up-set of the support's meet."""
    if not c.ones:
        raise NotInDomain("the zero map is not a character")
    if sg.zero in c.ones:
        raise NotInDomain("a character must vanish at zero")
    m, up = _meet_and_up_set(sg, c.ones)
    if up != c.ones:
        raise NotInDomain("character not multiplicative: its support is "
                          "not the up-set of its meet")
    return Filter(m, up)


def validate_character(sg: InverseSemigroup, c: Character) -> None:
    """Raise unless `c` is a character; see :func:`filter_of`."""
    filter_of(sg, c)


# -------------------------------------------------------- ultrafilters

def is_ultrafilter(sg: InverseSemigroup, f: Filter) -> bool:
    """A filter no other filter properly contains: an atom's up-set."""
    validate_filter(sg, f)
    return _is_atom(sg, f.min)


def ultrafilters(sg: InverseSemigroup) -> list:
    """Every filter no other filter properly contains, by a scan over
    one enumeration of the filters.  The identity harness holds it
    against the closed-form tight spectrum (``tight_equals_ultra``)."""
    filters = all_filters(sg)
    return [f for f in filters
            if not any(f.members < g.members for g in filters)]


def basic_open(sg: InverseSemigroup, contains: Iterable[int],
               avoids: Iterable[int]) -> list:
    """Filters containing everything in `contains` and nothing in `avoids`.

    These are the basic open sets of the filter topology; for nonempty
    `contains` the set only depends on the meet of `contains`.
    """
    contains = frozenset(contains)
    avoids = frozenset(avoids)
    for x in contains | avoids:
        if x not in sg.idempotents:
            raise errors.NotIdempotent(x)
    return [
        f for f in all_filters(sg)
        if contains <= f.members and not (avoids & f.members)
    ]


# ----------------------------------------------------------- tightness

def _is_atom(sg: InverseSemigroup, e: int) -> bool:
    """A nonzero idempotent with nothing but zero strictly below it."""
    return sg.below_bits[e].bit_count() == 2


def tightness_obstruction(sg: InverseSemigroup, f: Filter):
    """A witness that `f` is not tight, or None when it is.

    A filter fails tightness exactly when some constraint ideal I, built
    from a part of the filter and a set of idempotents outside it, is
    covered by nonzero members of I lying outside the filter.  On a
    finite semilattice the tight filters are the ultrafilters, the
    up-sets of atoms.  When `f.min` is not an atom, some atom lies
    strictly below it and so outside `f`, and every member of `f` meets
    that atom; the empty constraint (I = all idempotents) is then
    covered by the nonzero idempotents outside `f`.

    Returns None when tight, else a triple (below, apart, cover).
    """
    if _is_atom(sg, f.min):
        return None
    return (), (), tuple(e for e in sg.nonzero_idempotents()
                         if e not in f.members)


def is_tight_filter(sg: InverseSemigroup, f: Filter) -> bool:
    """True when no finite cover of a compatible constraint ideal avoids
    the filter; see :func:`tightness_obstruction`."""
    return tightness_obstruction(sg, f) is None


def tight_spectrum(sg: InverseSemigroup) -> TightSpectrum:
    """All tight filters, the up-sets of the atoms, sorted by minimum
    index."""
    nz = sg.nonzero_idempotents()
    if not nz:
        raise EmptySpectrum("the semilattice is {0}")
    points = tuple(filter_from_min(sg, e) for e in nz if _is_atom(sg, e))
    return TightSpectrum(sg, points)
