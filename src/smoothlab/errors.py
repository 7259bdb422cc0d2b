"""Exception types shared across the package, and the rules for integers, q, x, y and T.

An input outside an entry's domain raises ValueError.  The package's own
types say why a valid input has no answer: a count past its enumeration or
lattice bound, an Euler factor near a zero, a solver that did not settle,
or a file that could not be written.
"""

import math
import numbers


class SmoothLabError(Exception):
    """Base class for errors raised by this package."""


class ThresholdExceededError(SmoothLabError):
    """A count lies past the enumeration ceiling or the lattice bounds."""


class NearPoleError(SmoothLabError):
    """An Euler factor is within the guard band of a zero."""


class NoConvergenceError(SmoothLabError):
    """Iterative solver exhausted its iteration cap."""


class ExportError(SmoothLabError):
    """Result export failed; message carries the offending path."""


def check_integer(value, name: str) -> None:
    """Refuse a value that is not an integer (a bool is not one)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_modulus(q) -> None:
    """Refuse a modulus q that is not an integer >= 1."""
    check_integer(q, "modulus q")
    if q < 1:
        raise ValueError("modulus q must be >= 1")


def check_smoothness_bound(y) -> None:
    """Refuse a smoothness bound y that is not finite and >= 2."""
    if not 2 <= y < math.inf:
        raise ValueError("smoothness bound y must be finite and >= 2")


def check_threshold(x) -> None:
    """Refuse a threshold x that is None, or not finite and >= 1."""
    if x is None or not 1 <= x < math.inf:
        raise ValueError("threshold x must be finite and >= 1")


def check_truncation_height(T) -> None:
    """Refuse a contour truncation height T that is not finite and >= 1."""
    if not 1 <= T < math.inf:
        raise ValueError("truncation height T must be finite and >= 1")
