"""Truncated Euler products over primes up to y, at a point and along a line.

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


@dataclass(frozen=True)
class EulerProductValue:
    value: complex
    log_value: complex
    log_deriv: complex


def _support(chi: DirichletCharacter, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Primes p <= y with chi(p) != 0, and the corresponding character values."""
    ps = np.array(primes_upto(y), dtype=np.int64)
    cs = chi.values(ps)
    keep = cs != 0
    return ps[keep].astype(float), cs[keep]


def _factor_matrices(
    s: complex | np.ndarray, ps: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of c_p p^-s and 1 - c_p p^-s over (s, p), for s of any shape.

    Raises NearPoleError when a factor 1 - c_p p^-s lies within POLE_GUARD of zero.
    """
    terms = cs * np.exp(-np.multiply.outer(s, np.log(ps)))
    factors = 1.0 - terms
    if factors.size and np.min(np.abs(factors)) < POLE_GUARD:
        raise NearPoleError(f"Euler factor within {POLE_GUARD:g} of zero")
    return terms, factors


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
    c: float, ts: np.ndarray, chi: DirichletCharacter, y: float
) -> np.ndarray:
    """Values of the truncated product along the vertical line Re(s) = c."""
    ts = np.asarray(ts, dtype=float)
    if not (0 < c < math.inf and np.isfinite(ts).all()):
        raise ValueError("truncated Euler product requires finite s with Re(s) > 0")
    ps, cs = _support(chi, y)
    factors = _factor_matrices(c + 1j * ts, ps, cs)[1]
    return np.prod(1.0 / factors, axis=1)

