"""Exception types shared across the package.

Every semantic failure has its own class so callers can react to the
exact axiom or precondition that broke, and so tests can assert on the
failure mode rather than on message text.
"""

from __future__ import annotations


class TightGroupoidError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- tables

class NotAssociative(TightGroupoidError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"(s{a}*s{b})*s{c} != s{a}*(s{b}*s{c})")
        self.triple = (a, b, c)


class NoZero(TightGroupoidError):
    """The declared zero index is missing or out of range."""


class ZeroNotAbsorbing(TightGroupoidError):
    def __init__(self, s: int):
        super().__init__(f"element {s} does not absorb into the declared zero")
        self.element = s


class InverseMissing(TightGroupoidError):
    def __init__(self, s: int):
        super().__init__(f"element {s} has no generalized inverse")
        self.element = s


class InverseNotUnique(TightGroupoidError):
    def __init__(self, s: int):
        super().__init__(f"element {s} has more than one generalized inverse")
        self.element = s


class NotIdempotent(TightGroupoidError):
    def __init__(self, e: int):
        super().__init__(f"element {e} is not idempotent")
        self.element = e


class NotAnIdeal(TightGroupoidError):
    """A member set is not an ideal, or a filter not a filter."""


# ---------------------------------------------------------- partial maps

class NotInjective(TightGroupoidError):
    def __init__(self, label: str):
        super().__init__(f"partial map {label} is not injective")
        self.label = label


class DegreeMismatch(TightGroupoidError):
    """A partial map does not fit the declared number of points."""


# -------------------------------------------------------------- spectrum

class EmptySpectrum(TightGroupoidError):
    """The idempotent semilattice is {0}, so no filters exist."""


class ZeroGeneratesNoFilter(TightGroupoidError):
    """The up-set of 0 would contain 0 and is not a filter."""


class NotInDomain(TightGroupoidError):
    """A character or point lies outside the domain of the acting element."""


# --------------------------------------------------------------- actions

class InvalidAction(TightGroupoidError):
    """An action axiom failed; subclasses say which one."""


class CompositionMismatch(InvalidAction):
    def __init__(self, s: int, t: int, x: int):
        super().__init__(f"map of s{s}*s{t} disagrees with the composite at point {x}")
        self.where = (s, t, x)


class DomainNotCovering(InvalidAction):
    """The idempotent domains fail to cover the carrier."""


class InverseMismatch(InvalidAction):
    def __init__(self, s: int):
        super().__init__(f"map of s{s}* is not the inverse of the map of s{s}")
        self.element = s


class DomainViolation(TightGroupoidError):
    """A slice was requested over points outside the element's domain."""


# -------------------------------------------------------------- criteria

class PreconditionViolated(TightGroupoidError):
    """An operation's stated precondition does not hold for the inputs."""


class TheoremViolation(TightGroupoidError):
    """Two provably-equal verdicts disagreed; always a bug, never a report state."""

    def __init__(self, prop: str, criterion: object, direct: object, instance: str):
        super().__init__(
            f"{prop}: criterion verdict {criterion!r} != direct verdict {direct!r} "
            f"on instance {instance}"
        )
        self.property = prop
        self.criterion = criterion
        self.direct = direct
        self.instance = instance


class InvariantViolation(TheoremViolation):
    """A stored form, or a builder's result, differs from what it is
    checked against; a defect like any TheoremViolation, named as a check
    with what was found and what was expected, not as two verdicts."""

    def __init__(self, check: str, found: object, expected: object, where: str):
        super().__init__(check, found, expected, where)
        self.args = (f"{check}: found {found!r}, expected {expected!r} at {where}",)
        self.found = found
        self.expected = expected


# -------------------------------------------------------------- frontend

class CapExceeded(TightGroupoidError):
    """An instance would pass a size cap of the builders, one of the
    ``MAX_*`` constants of :mod:`tightgroupoid.semigroup`."""


class DslSyntaxError(TightGroupoidError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"line {line}, column {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class DslRangeError(TightGroupoidError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DuplicateName(TightGroupoidError):
    def __init__(self, name: str, line: int | None = None):
        super().__init__(("" if line is None else f"line {line}: ") + f"duplicate name {name!r}")
        self.name = name
        self.line = line
