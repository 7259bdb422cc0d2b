"""Truncated Euler products over primes up to y, and the prime sums built on them.

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
from .errors import KRangeError, NearPoleError
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
    cs = chi.value_table()[ps % chi.modulus]
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


# -- smoothed Chebyshev sums -------------------------------------------------


@dataclass(frozen=True)
class ChebyshevSum:
    value: complex
    cutoff: float  # the R in the support bound n <= R*y


def chebyshev_weight(n: float, y: float, cutoff: float) -> float:
    """Trapezoid-in-log weight: 1 up to y, linear in log(n/y) down to 0 at R*y."""
    if n <= y:
        return 1.0
    if n >= cutoff * y:
        return 0.0
    return 1.0 - math.log(n / y) / math.log(cutoff)


def chebyshev_cutoff(y: float, k: float, q_for_cutoff: int) -> float:
    """R = max(2, y ** (y ** (-k / (2 log q)))): y at k=0, decaying to 2."""
    return max(2.0, y ** (y ** (-k / (2.0 * math.log(q_for_cutoff)))))


def smoothed_chebyshev(
    s: complex,
    chi: DirichletCharacter,
    y: float,
    k: float,
    q_for_cutoff: int,
) -> ChebyshevSum:
    """Finite sum of w(n) Lambda(n) chi(n) n^-s over prime powers n <= R*y."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError("need Re(s) > 0")
    if y < 2:
        raise ValueError("need y >= 2")
    if q_for_cutoff < 3:
        raise ValueError("cutoff modulus must be >= 3")
    cutoff = chebyshev_cutoff(y, k, q_for_cutoff)
    limit = cutoff * y
    total = 0j
    for p in primes_upto(limit):
        log_p = math.log(p)
        n = p
        while n <= limit:
            w = chebyshev_weight(n, y, cutoff)
            if w > 0:
                total += w * log_p * chi(n) * n ** (-s)
            n *= p
    return ChebyshevSum(total, cutoff)


# -- prime deficit sums -------------------------------------------------------

WEIGHT_LOGP_OVER_P = "logp_over_p"
WEIGHT_P_ALPHA = "p_to_minus_alpha"


def prime_deficit_sum(
    chi: DirichletCharacter,
    t: float,
    y: float,
    lo: float = 2.0,
    weight: str = WEIGHT_LOGP_OVER_P,
    alpha: float | None = None,
) -> float:
    """sum over primes lo <= p <= y, p not dividing q, of
    (1 - Re(chi(p) p^-it)) * weight(p).

    weight is log p / p, or p^-alpha when weight=WEIGHT_P_ALPHA.
    """
    if not (2 <= lo <= y):
        raise ValueError("need 2 <= lo <= y")
    if weight == WEIGHT_P_ALPHA:
        if alpha is None:
            raise ValueError("p_to_minus_alpha weight needs alpha")
    elif weight != WEIGHT_LOGP_OVER_P:
        raise ValueError(f"unknown weight {weight!r}")
    total = 0.0
    for p in primes_upto(y):
        if p < lo:
            continue
        a = chi.angle(p)
        if a is None:  # p divides the modulus
            continue
        log_p = math.log(p)
        deficit = 1.0 - math.cos(2 * math.pi * float(a) - t * log_p)
        wt = log_p / p if weight == WEIGHT_LOGP_OVER_P else p ** (-alpha)
        total += deficit * wt
    return total


@dataclass(frozen=True)
class OrderRestrictedDeficit:
    """Deficit sum over [sqrt(y), y] with the order flag and its reference line."""

    value: float
    order_exceeds: bool
    reference_line: float


def rodosskii2_sum(
    chi: DirichletCharacter, t: float, y: float, order_threshold: int
) -> OrderRestrictedDeficit:
    """Deficit sum with weight log p / p over sqrt(y) <= p <= y, flagged by
    whether the character order exceeds the threshold B; the reference line
    log y / (5 (B+1)^2) is reported, never asserted.
    """
    value = prime_deficit_sum(chi, t, y, lo=max(2.0, math.sqrt(y)))
    return OrderRestrictedDeficit(
        value=value,
        order_exceeds=chi.order > order_threshold,
        reference_line=math.log(y) / (5.0 * (order_threshold + 1) ** 2),
    )


def log_L_variation(
    chi: DirichletCharacter, y: float, alpha: float, sigma: float, t: float
) -> float:
    """|log L(sigma+it) - log L(alpha+it)| from the factor-wise logarithms."""
    if not (0 < sigma <= alpha):
        raise ValueError("need 0 < sigma <= alpha")
    lo = euler_product(sigma + 1j * t, chi, y).log_value
    hi = euler_product(alpha + 1j * t, chi, y).log_value
    return abs(lo - hi)


# -- range classification ------------------------------------------------------

RANGE_BASIC = "basic"
RANGE_RODOSSKII = "rodosskii"
RANGE_PROBLEM = "problem"


def range_partition(k: float, u: float, q: int, A: float, D: float) -> str:
    """Classify k against the cut points sqrt(u) and 4A log A + D.

    Ties go to the higher range (basic over rodosskii over problem); k above
    (log q)/2 is out of range.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if u < 0:
        raise ValueError("need u >= 0")
    if q < 2:
        raise ValueError("need q >= 2")
    upper = math.log(q) / 2.0
    if k > upper:
        raise KRangeError(f"k={k:g} exceeds (log q)/2 = {upper:g}")
    low_cut = 4.0 * A * math.log(A) + D if A > 0 else D
    if k >= math.sqrt(u):
        return RANGE_BASIC
    if k >= low_cut:
        return RANGE_RODOSSKII
    return RANGE_PROBLEM
