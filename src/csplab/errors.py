"""Exception types shared across the package.

Every error a caller might want to branch on lives here; modules raise
these rather than bare ValueErrors so the command line front end can map
them onto exit codes.
"""

from typing import Callable


class CspLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(CspLabError, ValueError):
    """An argument violates a documented precondition."""


class InexactDivision(CspLabError, ArithmeticError):
    """Polynomial division left a nonzero remainder.

    Raised when a closed formula that should produce a polynomial was
    mis-instantiated; never expected from the built-in constructors.
    """


class NonIntegerEvaluation(CspLabError, ArithmeticError):
    """A root-of-unity evaluation is not a rational integer.

    Signals that the residue modulo the cyclotomic polynomial is
    non-constant, i.e. the candidate polynomial cannot count fixed points.
    The message may be given as a function of no arguments, called when
    str(), repr() or pickling first reads it, so a caller that only catches
    the error never computes the residue; until then ``args`` is empty.
    """

    def __init__(self, message: str | Callable[[], str]) -> None:
        self._message = message
        super().__init__(*(() if callable(message) else (message,)))

    def __str__(self) -> str:
        if not self.args:
            self.args, self._message = (self._message(),), None
        return super().__str__()

    def __repr__(self) -> str:
        str(self)
        return super().__repr__()

    def __reduce__(self):
        return type(self), (str(self),)


class NegativeExponent(CspLabError, ArithmeticError):
    """A substitution left a nonzero term at a negative power of q."""


class CapExceeded(CspLabError):
    """An enumeration request is larger than the configured cap."""


# A value with this many digits or more is not printed: it may be too long
# for Python to convert to a string.
SHOWN_DIGITS = 30


def check_cap(what: str, value: int, cap: int) -> int:
    """Return value, or raise CapExceeded when it is above cap; every cap
    message in the package is this one.  Neither the value nor the cap is
    printed when it has ``SHOWN_DIGITS`` digits or more.

    >>> check_cap("group order", 10**40, 10_000)
    Traceback (most recent call last):
    ...
    csplab.errors.CapExceeded: group order of 30 or more digits exceeds the cap 10000
    >>> check_cap("instance size", 10**50, 10**40)
    Traceback (most recent call last):
    ...
    csplab.errors.CapExceeded: instance size of 30 or more digits exceeds the cap of 30 or more digits
    """
    if value > cap:
        raise CapExceeded(f"{what} {_shown(value)} exceeds the cap {_shown(cap)}")
    return value


def _shown(value: int) -> int | str:
    return value if value < 10**SHOWN_DIGITS else f"of {SHOWN_DIGITS} or more digits"


class UnknownFamily(CspLabError, KeyError):
    """Requested sieving family is not registered."""


class NotNearlyFree(CspLabError, ValueError):
    """Supplied generator has a cycle structure that is neither free nor
    nearly free, so the subset/multiset sieving theorems do not apply."""


class NonCommutingActions(CspLabError, ValueError):
    """The two generators of a bicyclic check do not commute."""


class InternalInvariantError(CspLabError, AssertionError):
    """An internal consistency check failed (a bug, not a usage error)."""
