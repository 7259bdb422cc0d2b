"""Compactly supported C^9 cutoff weight and its Mellin transform.

The weight equals 1 on [0, lo], 0 on [hi, infinity), and crosses the
transition with the order-9 polynomial smoothstep (degree 19), so nine
derivatives vanish at both junction points and the Mellin transform decays
like |s|^-11 on vertical lines.

Twenty integrations by parts give the transform exactly, as ten Pochhammer
terms in 1/(s)_(j+1), j = 10..19.  mellin_many routes each ordinate t by
itself: the closed form where |t| >= H, a height derived from (lo, hi) at
which its rounding falls to 1e-16 hi^c, and composite Gauss-Legendre
quadrature of the transition below H.  So no ordinate is refused for its
height: far up the line the transform underflows to 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_STEP_ORDER = 9

# S(u) = u^10 * sum_k c_k u^k with integer c_k; S has 9 vanishing derivatives
# at u=0 and u=1, S(0)=0, S(1)=1, and S(u) + S(1-u) = 1.
_STEP_COEFFS = [
    (-1) ** k * math.comb(_STEP_ORDER + k, k) * math.comb(2 * _STEP_ORDER + 1, _STEP_ORDER - k)
    for k in range(_STEP_ORDER + 1)
]
_STEP_DESC = np.array(_STEP_COEFFS[::-1], dtype=float)

# Terms per block of mellin_many: (ordinate, panel) in the quadrature,
# (ordinate, Pochhammer term) in the closed form; only one block's arrays are
# alive at once, so memory beyond the output does not grow with the ordinates.
_BLOCK = 1 << 16

# Largest panel count of one composite rule: about 56 times the contour's
# count at T = 640 and x = 1e5 (1173 panels of [0, T]), far below counts
# whose node arrays would exhaust memory.
MAX_PANELS = 1 << 16

# An abscissa whose hi^c times the decay constant, or whose Gauss factor
# e^(c xi) in the quadrature, passes this is refused.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


_gauss = lru_cache(maxsize=64)(leggauss)


def panel_grid(
    a: float, b: float, n_panels: int, orders: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rules on n_panels equal panels of [a, b].

    Returns the panel edges and midpoints, and the Gauss offsets and weights
    of the rule of each order side by side: node (p, j) is mid[p] + offsets[j]
    with weight weights[j].  The flat nodes of one order are
    np.add.outer(mid, offsets).ravel(), their weights np.tile(weights, n_panels).
    A panel count outside [1, MAX_PANELS] raises ValueError before any array
    is built.
    """
    if not 1 <= n_panels <= MAX_PANELS:
        raise ValueError(f"panel count {n_panels} outside [1, {MAX_PANELS}]")
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    offsets = np.concatenate([half * _gauss(order)[0] for order in orders])
    weights = np.concatenate([half * _gauss(order)[1] for order in orders])
    return edges, 0.5 * (edges[:-1] + edges[1:]), offsets, weights


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """S(u) for u in [0, 1], evaluated on the mirrored half to limit cancellation."""
    w = np.clip(u, 0.0, 1.0)
    upper = w > 0.5
    z = np.where(upper, 1.0 - w, w)
    core = np.polyval(_STEP_DESC, z) * z**10
    return np.where(upper, 1.0 - core, core)


def _smoothstep_exact(u: Fraction) -> Fraction:
    """S(u) for u in (0, 1), in exact rational arithmetic."""
    acc = Fraction(0)
    for c in reversed(_STEP_COEFFS):
        acc = acc * u + c
    return acc * u**10


# Terms j = 10..19 of the closed form of the Mellin transform: the degree-19
# transition gives twenty terms, and the first ten vanish at both junctions.
_POCHHAMMER_TERMS = _STEP_ORDER + 1


@lru_cache(maxsize=8)
def _pochhammer_coeffs(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """alpha_j and beta_j of SmoothingKernel._pochhammer_sum, j = 10..19,
    exact in Fraction and rounded once, the height H above which the
    closed form replaces the quadrature, and D of decay_constant.

    With u = (hi - t) / (hi - lo), phi^(j)(t) = (-1 / (hi - lo))^j S^(j)(u),
    so alpha_j = (-1)^j phi^(j)(hi) hi^j = S^(j)(0) (hi / (hi - lo))^j and
    beta_j = -(-1)^j phi^(j)(lo) lo^j = -S^(j)(1) (lo / (hi - lo))^j.  As
    |(s)_(j+1)| >= |t|^(j+1), the closed form rounds by at most
    2.2e-16 hi^c sum_j (|alpha_j| + |beta_j|) / |t|^(j+1); H is the |t|
    where that bound, without hi^c, falls to 1e-16.
    """
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    first = _STEP_ORDER + 1
    alpha, beta = [], []
    for j in range(first, first + _POCHHAMMER_TERMS):
        # S^(j)(u) = sum_k c_k (10 + k)! / (10 + k - j)! u^(10 + k - j)
        at_one = sum(c * math.perm(first + k, j) for k, c in enumerate(_STEP_COEFFS))
        alpha.append(_STEP_COEFFS[j - first] * math.factorial(j) * (hi_q / (hi_q - lo_q)) ** j)
        beta.append(-at_one * (lo_q / (hi_q - lo_q)) ** j)
    moduli = [float(abs(a) + abs(b)) for a, b in zip(alpha, beta)]

    def rounding(height: float) -> float:
        return 2.2e-16 * sum(m / height ** (first + 1 + j) for j, m in enumerate(moduli))

    low, high = 1.0, 2.0
    while rounding(high) > 1e-16:
        low, high = high, 2.0 * high
    for _ in range(60):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if rounding(mid) > 1e-16 else (low, mid)
    decay = sum(m * high ** -j for j, m in enumerate(moduli))
    return np.array(alpha, dtype=float), np.array(beta, dtype=float), high, decay


@dataclass(frozen=True)
class SmoothingKernel:
    """Weight that is 1 on [0, lo], 0 on [hi, inf), C^9 smoothstep between."""

    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.lo < self.hi < math.inf):
            raise ValueError(f"need 0 < lo < hi < inf, got lo={self.lo}, hi={self.hi}")

    # -- direct evaluation -------------------------------------------------

    def phi(self, t: float) -> float:
        """Kernel value at t >= 0, inf included; exactly 1 below lo and 0 above hi."""
        if not t >= 0:  # also refuses NaN
            raise ValueError(f"kernel argument must be nonnegative, got {t!r}")
        return float(self.phi_many(t))

    def phi_many(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        u = (self.hi - t) / (self.hi - self.lo)
        return _smoothstep(u)

    def phi_exact(self, t: Fraction) -> Fraction:
        """Exact rational kernel value, for finite-difference smoothness checks."""
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        if t <= lo:
            return Fraction(1)
        if t >= hi:
            return Fraction(0)
        return _smoothstep_exact((hi - t) / (hi - lo))

    # -- Mellin transform --------------------------------------------------

    def mellin(self, s: complex) -> complex:
        """Mellin transform at one s with Re(s) > 0 (scalar view of mellin_many)."""
        s = complex(s)
        return complex(self.mellin_many(s.real, np.array([s.imag]))[0])

    def mellin_many(self, c: float, ts: np.ndarray) -> np.ndarray:
        """Transform at s = c + i ts, finite c > 0, for ts of any shape, in that shape.

        Each ordinate is routed by itself, in blocks: |t| >= H takes the
        closed form (_pochhammer_sum), every other one the quadrature
        (_quadrature), on one panel count that follows the largest |t| below
        H.  H is the height from which the closed form's rounding stays
        below 1e-16 hi^c absolute (23.5 for the default kernel, 156.5 for
        lo = 0.9, hi = 1); below it the quadrature is accurate to about
        1e-14.  Far up the line the closed form underflows to 0, so every
        finite ordinate gets a value; one whose phase t log lo or t log hi
        overflows a float is refused with a ValueError, and so is an
        abscissa past the float range (_hi_power), or past the range of the
        quadrature's Gauss factors (_quadrature).
        """
        self._hi_power(c)
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape, dtype=complex)
        if not ts.size:
            return out
        # min and max show a NaN, an inf and the largest |t| with no temporary
        low, high = float(ts.min()), float(ts.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("Mellin transform requires finite s with Re(s) > 0")
        if max(-low, high) * max(-math.log(self.lo), math.log(self.hi)) == math.inf:
            raise ValueError("Mellin ordinates overflow a float in t log u")
        height = _pochhammer_coeffs(self.lo, self.hi)[2]
        flat, values = ts.reshape(-1), out.reshape(-1)
        below = []
        step = _BLOCK // _POCHHAMMER_TERMS
        for k in range(0, flat.size, step):
            block = flat[k : k + step]
            above = np.abs(block) >= height
            below.append(k + np.flatnonzero(~above))
            values[k : k + step][above] = self._pochhammer_sum(c + 1j * block[above])
        below = np.concatenate(below)
        if below.size:
            values[below] = self._quadrature(c, flat[below])
        return out

    def _pochhammer_sum(self, s: np.ndarray) -> np.ndarray:
        """M(s) = hi^s sum_j alpha_j / (s)_(j+1) + lo^s sum_j beta_j / (s)_(j+1),
        j = 10..19, exact for every s (twenty integrations by parts of the
        degree-19 transition, whose first nine derivatives vanish at lo and
        hi; the j = 0 term at lo cancels the plateau lo^s / s).

        Horner in 1/(s + j + 1), then a division by each of s, s + 1, ...,
        s + 10 in turn, so that a huge |t| underflows to 0 instead of
        overflowing (s)_11.
        """
        alpha, beta, _, _ = _pochhammer_coeffs(self.lo, self.hi)
        acc_hi = np.full(s.shape, alpha[-1], dtype=complex)
        acc_lo = np.full(s.shape, beta[-1], dtype=complex)
        for j in range(_POCHHAMMER_TERMS - 2, -1, -1):
            # alpha[j] is the coefficient of 1/(s)_(j+11), so divide by s + j + 11
            shifted = s + (_STEP_ORDER + 2 + j)
            acc_hi /= shifted
            acc_hi += alpha[j]
            acc_lo /= shifted
            acc_lo += beta[j]
        acc_hi *= np.exp(s * math.log(self.hi))
        acc_lo *= np.exp(s * math.log(self.lo))
        acc_hi += acc_lo
        for i in range(_STEP_ORDER + 2):
            acc_hi /= s + i
        return acc_hi

    def _quadrature(self, c: float, ts: np.ndarray) -> np.ndarray:
        """The transform at the nonempty flat ordinates ts by quadrature.

        The [0, lo] piece is the closed form lo^s / s.  The transition piece
        is integrated over v = log u, as the integral of phi(e^v) e^(vs) over
        [log lo, log hi], on n composite order-24 Gauss-Legendre panels whose
        count is tied to the largest |t| of ts, so the oscillation e^(ivt)
        is resolved and the result is accurate to about 1e-14 absolute.  A
        node is v = mid_p + xi_i (the panel_grid layout), so with s = c + it
        the exponential e^(vs) = e^(s mid_p) * e^(s xi_i) separates: each
        ordinate costs n + 24 complex exponentials, and the sum over xi_i is
        one matrix product with the 24 coefficients w_i phi(e^v) of each
        panel.  The ordinates are walked in blocks of about _BLOCK terms.  An
        abscissa c whose e^(c xi_i) would overflow, c times the half-panel
        past the float range, is refused with a ValueError before any
        exponential.
        """
        log_lo = math.log(self.lo)
        n_panels = self._base_panels(max(-float(ts.min()), float(ts.max())))
        # e^(c xi_i) must stay a float for every Gauss offset, |xi_i| < half
        half = math.log(self.hi / self.lo) / (2 * n_panels)
        if c * half > _LOG_FLOAT_MAX:
            raise ValueError(
                f"abscissa c={c:g} too large for the kernel quadrature (lo={self.lo:g}, "
                f"hi={self.hi:g}): c times the half-panel {half:.4g} exceeds {_LOG_FLOAT_MAX:.4g}"
            )
        _, mid, xi, wi = panel_grid(log_lo, math.log(self.hi), n_panels, (24,))
        # complex like the exponentials, so the product is one complex GEMM on any numpy
        coeff = (wi[:, None] * self.phi_many(np.exp(mid[None, :] + xi[:, None]))).astype(complex)
        out = np.empty(ts.size, dtype=complex)
        step = max(1, _BLOCK // (mid.size + xi.size))
        for k in range(0, ts.size, step):
            s = c + 1j * ts[k : k + step]
            inner = np.exp(np.multiply.outer(s, xi)) @ coeff  # (ordinate, panel)
            np.multiply(np.exp(np.multiply.outer(s, mid)), inner, out=inner)
            out[k : k + step] = np.exp(s * log_lo) / s + np.sum(inner, axis=1)
        return out

    def _base_panels(self, tmax: float) -> int:
        # periods of e^(ivt) across [log lo, log hi]
        periods = tmax * math.log(self.hi / self.lo) / (2 * math.pi)
        return max(6, int(math.ceil(2.5 * periods)) + 2)

    def _hi_power(self, c: float) -> float:
        """hi^c for a finite c > 0 whose hi^c D (D = decay_constant()) is a
        float, else a ValueError: the closed form holds at most hi^c D before
        dividing by (s)_11, so no value overflows on the way."""
        if not 0 < c < math.inf:
            raise ValueError("Mellin transform requires finite s with Re(s) > 0")
        limit = _LOG_FLOAT_MAX - math.log(_pochhammer_coeffs(self.lo, self.hi)[3])
        if c * math.log(self.hi) > limit:
            raise ValueError(
                f"abscissa c={c:g} too large for the kernel (lo={self.lo:g}, hi={self.hi:g}): "
                f"c log hi exceeds {limit:.4g}"
            )
        return self.hi**c

    def mellin_tail(self, c: float, T: float) -> float:
        """Proved bound on (1/pi) int_T^inf |M(c + it)| dt for T > 0: with
        S = max(T, H) and A_j(c) = |alpha_j| hi^c + |beta_j| lo^c, j = 10..19,
        (1/pi) (hi^c log(S/T) + sum_j A_j(c) / (j S^j)).  Below S one integration
        by parts gives |M(s)| <= hi^c / |t| (phi falls from 1 to 0); above it
        the closed form with |(s)_(j+1)| >= |t|^(j+1)."""
        if not 0 < T < math.inf:
            raise ValueError("tail height T must be finite and positive")
        alpha, beta, height, _ = _pochhammer_coeffs(self.lo, self.hi)
        top = max(T, height)
        j = np.arange(_STEP_ORDER + 1.0, _STEP_ORDER + 1.0 + _POCHHAMMER_TERMS)
        terms = top**-j / j  # S^-j, not S^j, so that a huge T underflows to 0
        hi_c = self._hi_power(c)
        tail = hi_c * (math.log(top / T) + abs(alpha) @ terms) + self.lo**c * (abs(beta) @ terms)
        return float(tail) / math.pi

    def decay_constant(self) -> float:
        """D = sum_j (|alpha_j| + |beta_j|) H^(10 - j): |M(c + it)| <= hi^c D
        |t|^-11 for |t| >= H and every c > 0 (5.58e14 for the default kernel)."""
        return _pochhammer_coeffs(self.lo, self.hi)[3]
