"""Saddle-point abscissa balancing x^s against the smooth Euler product.

alpha(x, y) is the positive root of sum_{p <= y} log p / (p^alpha - 1) =
log x; with a modulus given, primes dividing it are dropped from the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, check_modulus, check_smoothness_bound
from .primes import primes_upto

NEWTON_CAP = 200
BRACKET_LO = 1e-6
BRACKET_HI = 2.0
RESIDUAL_REL = 1e-12


@dataclass(frozen=True)
class SaddlePoint:
    alpha: float
    residual: float
    regime: str  # "y>logx" or "y<=logx"
    u: float
    v: float
    w: float


def saddle_alpha(x: float, y: float, q: int | None = None) -> SaddlePoint:
    """Solve the saddle equation by bracketed Newton iteration.

    The bracket (1e-6, 2] always contains the root for float-representable
    x >= y >= 2; the recorded residual is |sum - log x| at the returned point.
    A modulus q, when given, must be an integer >= 1.
    """
    check_smoothness_bound(y)
    if not y <= x < math.inf:
        raise ValueError("need finite x >= y")
    if q is not None:
        check_modulus(q)
    plist = [p for p in primes_upto(y).tolist() if q is None or q % p != 0]
    if not plist:
        raise NoConvergenceError(
            f"no primes <= {y} coprime to {q}; saddle equation has no solution"
        )
    logp = np.log(np.array(plist, dtype=float))
    log_x = math.log(x)

    def value(a: float) -> float:
        return float(np.sum(logp / np.expm1(a * logp)))

    def derivative(a: float) -> float:
        ealp = np.exp(a * logp)
        return float(-np.sum(logp * logp * ealp / np.expm1(a * logp) ** 2))

    lo, hi = BRACKET_LO, BRACKET_HI
    a = min(1.0, 0.5 * (lo + hi))
    tol = RESIDUAL_REL * max(1.0, log_x)
    for _ in range(NEWTON_CAP):
        f = value(a) - log_x
        if abs(f) <= tol:
            break
        if f > 0:  # sum too large: root lies to the right
            lo = a
        else:
            hi = a
        nxt = a - f / derivative(a)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if nxt == a:
            break
        a = nxt
    else:
        raise NoConvergenceError(f"saddle iteration did not converge for x={x:g}, y={y:g}")

    log_y = math.log(y)
    u = log_x / log_y
    v = log_x / math.log(q) if q is not None and q >= 2 else math.inf
    return SaddlePoint(
        alpha=a,
        residual=abs(f),
        regime="y>logx" if y > log_x else "y<=logx",
        u=u,
        v=v,
        w=min(v, y),
    )
