"""Truncated Euler products over primes up to y, at a point and on a line grid.

The product over p <= y of (1 - chi(p) p^-s)^-1 equals the Dirichlet series
over y-smooth integers for Re(s) > 0; its factor-wise principal-branch
logarithm and logarithmic derivative are carried alongside the value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletCharacter
from .errors import NearPoleError
from .primes import primes_upto

POLE_GUARD = 1e-12
# (prime, row, offset) terms per block of euler_product_many.  Only one
# block's arrays are alive at once, so memory does not grow with the number
# of rows, and at 1 MB of complex per array a block stays in cache: at
# y = 10^4 this runs twice as fast as blocks of a fixed 16 rows.
_BLOCK = 1 << 16
# Relative slack on a bound of |terms|, for the rounding of the computed terms.
_BOUND_SLACK = 1e-15


@dataclass(frozen=True)
class EulerProductValue:
    value: complex
    log_value: complex
    log_deriv: complex


def _support(chi: DirichletCharacter, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Primes p <= y with chi(p) != 0, and the corresponding character values."""
    ps = primes_upto(y)
    cs = chi.values(ps)
    keep = cs != 0
    return ps[keep], cs[keep]


def _guarded(
    terms: np.ndarray, out: np.ndarray | None = None, max_modulus: float | None = None
) -> np.ndarray:
    """Factors 1 - terms, written to out when given; raises NearPoleError
    when one lies within POLE_GUARD of zero.

    max_modulus, when given, bounds |terms|: if 1 - max_modulus (with a
    rounding slack) clears POLE_GUARD, no factor can come near zero and the
    factors are not scanned one by one.
    """
    factors = np.subtract(1.0, terms, out=out)
    if max_modulus is not None and 1.0 - max_modulus * (1 + _BOUND_SLACK) >= POLE_GUARD:
        return factors
    if np.min(np.abs(factors), initial=np.inf) < POLE_GUARD:
        raise NearPoleError(f"Euler factor within {POLE_GUARD:g} of zero")
    return factors


def _factor_matrices(
    s: complex | np.ndarray, ps: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of c_p p^-s and 1 - c_p p^-s over (s, p), for s of any shape."""
    terms = cs * np.exp(-np.multiply.outer(s, np.log(ps)))
    return terms, _guarded(terms)


def euler_product(s: complex, chi: DirichletCharacter, y: float) -> EulerProductValue:
    """Product, factor-wise log, and L'/L of the truncated Euler product at s."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValueError("truncated Euler product requires finite s with Re(s) > 0")
    ps, cs = _support(chi, y)
    if ps.size == 0:
        return EulerProductValue(1 + 0j, 0j, 0j)
    terms, factors = _factor_matrices(s, ps, cs)
    value = complex(np.prod(1.0 / factors))
    log_value = complex(-np.sum(np.log(factors)))
    log_deriv = complex(-np.sum(np.log(ps) * terms / factors))
    return EulerProductValue(value, log_value, log_deriv)


def euler_product_many(
    c: float, ts: np.ndarray, chi: DirichletCharacter, y: float, offsets: np.ndarray
) -> np.ndarray:
    """Values at s = c + i(ts[k] + offsets[i]), as a (len(ts), len(offsets)) array.

    p^-s = p^-(c + i ts[k]) * p^(-i offsets[i]) separates, so the row and the
    offset exponentials are formed once and each (node, prime) term costs one
    complex multiply.  The rows are walked in blocks of about _BLOCK terms,
    laid out prime-major, so the product over the primes multiplies whole
    (row, offset) planes together.  Every term of prime p has modulus
    |chi(p)| p^-c, so the pole guard scans the factors only when
    1 - max_p |chi(p)| p^-c comes within POLE_GUARD of zero (c below about
    1e-12).
    """
    ts = np.asarray(ts, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if not (0 < c < math.inf and np.isfinite(ts).all() and np.isfinite(offsets).all()):
        raise ValueError("truncated Euler product requires finite s with Re(s) > 0")
    ps, cs = _support(chi, y)
    log_p = np.log(ps)
    spin = np.exp(-1j * np.multiply.outer(log_p, offsets))[:, None, :]  # (prime, 1, offset)
    scale = (cs * np.exp(-c * log_p))[:, None]
    max_modulus = float(np.max(np.abs(scale), initial=0.0))
    out = np.empty((ts.size, offsets.size), dtype=complex)
    step = max(1, _BLOCK // max(1, spin.size))
    for k in range(0, ts.size, step):
        rows = scale * np.exp(-1j * np.multiply.outer(log_p, ts[k : k + step]))
        terms = rows[:, :, None] * spin  # (prime, row, offset)
        # the factors overwrite the terms: with one more block-sized
        # temporary, malloc handed the heap top back to the system after
        # every block, and faulting it in again doubled this loop's time
        out[k : k + step] = np.prod(_guarded(terms, out=terms, max_modulus=max_modulus), axis=0)
    return 1.0 / out
