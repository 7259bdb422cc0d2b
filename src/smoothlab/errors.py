"""Exception types shared across the package."""


class SmoothLabError(Exception):
    """Base class for errors raised by this package."""


class ThresholdExceededError(SmoothLabError):
    """Requested enumeration limit lies above the exact-enumeration ceiling."""


class InvalidResidueError(SmoothLabError):
    """Residue class a with gcd(a, q) > 1 was requested."""


class ModulusMismatchError(SmoothLabError):
    """Character modulus disagrees with the query modulus."""


class ModulusTooLargeError(SmoothLabError):
    """Modulus exceeds the character-table construction bound."""


class TooManyPrimesError(SmoothLabError):
    """Huge-x lattice count requested with too many primes below y."""


class NearPoleError(SmoothLabError):
    """An Euler factor is within the guard band of a zero."""


class NoConvergenceError(SmoothLabError):
    """Iterative solver exhausted its iteration cap."""


class MajorantHypothesisError(SmoothLabError):
    """Coefficient sequence violates the |a_n| <= A_n hypothesis."""


class ExportError(SmoothLabError):
    """Result export failed; message carries the offending path."""
