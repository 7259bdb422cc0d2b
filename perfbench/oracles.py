"""Reference computations that share no code with smoothlab.

They run after the timed phase: a largest-prime-factor sieve for exact
(class) counts of smooth numbers, the saddle equation summed with math.fsum,
and the majorant mean square by direct mpmath quadrature.
"""

from __future__ import annotations

import math

import numpy as np


def prime_list(n: int) -> np.ndarray:
    """Primes <= n by an Eratosthenes boolean sieve."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


class LargestPrimeFactor:
    """gpf[n] = largest prime factor of n for 1 <= n <= limit (gpf[1] = 1)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.primes = prime_list(limit)
        gpf = np.ones(limit + 1, dtype=np.int32)
        for p in self.primes.tolist():  # ascending: the last write is the largest
            gpf[p::p] = p
        self.gpf = gpf

    def smooth(self, x: float, y: float, q: int) -> np.ndarray:
        """The y-smooth n <= x coprime to q, ascending."""
        n = np.arange(1, math.floor(x) + 1)
        keep = (self.gpf[1 : n.size + 1] <= y) & (np.gcd(n, q) == 1)
        return n[keep]


def smoothstep_weight(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """1 on [0, lo], 0 on [hi, inf), the order-9 smoothstep S(u) of
    u = (hi - t) / (hi - lo) between, with
    S(u) = u^10 sum_{k=0}^{9} C(9+k, k) C(19, 9-k) (-u)^k and S(u) = 1 - S(1-u)."""
    coeffs = [math.comb(9 + k, k) * math.comb(19, 9 - k) * (-1) ** k for k in range(10)]
    u = np.clip((hi - np.asarray(t, dtype=float)) / (hi - lo), 0.0, 1.0)
    z = np.minimum(u, 1.0 - u)
    s = z**10 * np.polynomial.polynomial.polyval(z, coeffs)
    return np.where(u > 0.5, 1.0 - s, s)


def saddle_residual(x: float, y: float, alpha: float, primes: np.ndarray) -> float:
    """|sum_{p <= y} log p / (p^alpha - 1) - log x|, summed exactly rounded."""
    terms = (math.log(p) / math.expm1(alpha * math.log(p)) for p in primes[primes <= y].tolist())
    return abs(math.fsum(terms) - math.log(x))


def mean_square_quad(lambdas: np.ndarray, coeffs: np.ndarray, T: float) -> float:
    """int_{-T}^{T} |sum_n c_n e^(2 pi i lambda_n t)|^2 dt by Gauss-Legendre
    quadrature in mpmath, on unit subintervals so each holds few oscillations."""
    import mpmath  # here, so that set-up probes do not pay for it

    cs = [mpmath.mpc(complex(c)) for c in coeffs]
    ls = [mpmath.mpf(float(v)) for v in lambdas]

    def f(t):
        return abs(mpmath.fsum(c * mpmath.expjpi(2 * lam * t) for c, lam in zip(cs, ls))) ** 2

    pts = mpmath.linspace(-T, T, max(2, math.ceil(2 * T)) + 1)
    return float(mpmath.quad(f, pts, method="gauss-legendre"))
