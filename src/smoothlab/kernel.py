"""Compactly supported C^9 cutoff weight and its Mellin transform.

The weight equals 1 on [0, lo], 0 on [hi, infinity), and crosses the
transition with the order-9 polynomial smoothstep (degree 19), so nine
derivatives vanish at both junction points and the Mellin transform decays
like |s|^-9 on vertical lines.
"""

from __future__ import annotations

import math
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

# (row, offset, panel) terms per block of mellin_many; only one block's
# arrays are alive at once, so memory does not grow with the number of rows.
_BLOCK = 1 << 16

# Largest panel count of one composite rule: about 28 times the largest count
# in use (2346, a contour at T = 640 and x = 1e5), far below counts whose
# node arrays would exhaust memory.
MAX_PANELS = 1 << 16


@lru_cache(maxsize=64)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(order)
    return nodes, weights


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
    if u <= 0:
        return Fraction(0)
    if u >= 1:
        return Fraction(1)
    acc = Fraction(0)
    for c in reversed(_STEP_COEFFS):
        acc = acc * u + c
    return acc * u**10


@dataclass(frozen=True)
class SmoothingKernel:
    """Weight that is 1 on [0, lo], 0 on [hi, inf), C^9 smoothstep between."""

    lo: float = 0.5
    hi: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.lo < self.hi):
            raise ValueError(f"need 0 < lo < hi, got lo={self.lo}, hi={self.hi}")

    # -- direct evaluation -------------------------------------------------

    def phi(self, t: float) -> float:
        """Kernel value at t >= 0; exactly 1 below lo and 0 above hi."""
        if t < 0:
            raise ValueError("kernel argument must be nonnegative")
        if t <= self.lo:
            return 1.0
        if t >= self.hi:
            return 0.0
        u = (self.hi - t) / (self.hi - self.lo)
        return float(_smoothstep(np.asarray(u)))

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
        return complex(self.mellin_many(s.real, np.array([s.imag]), (0.0,))[0, 0])

    def mellin_many(self, c: float, ts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Transform at s = c + i(ts[k] + offsets[j]), finite c > 0, as a
        (len(ts), len(offsets)) array; flat ordinates pass offsets=(0.0,),
        which skips the offset exponentials (each is e^0 = 1).

        The [0, lo] piece is the closed form lo^s / s.  The transition piece
        is integrated over v = log u, as the integral of phi(e^v) e^(vs) over
        [log lo, log hi], on n composite order-24 Gauss-Legendre panels whose
        count is tied to the largest |t| of the grid, so the oscillation
        e^(ivt) is resolved and the result is accurate to about 1e-14
        absolute.  A node is v = mid_p + xi_i (the panel_grid layout), so
        with s_k = c + i ts[k] the exponential
        e^(vs) = e^(s_k mid_p) * e^(s_k xi_i) * e^(i offsets[j] v)
        separates: each row costs n + 24 complex exponentials, the offsets
        n + 24 each once, and the sum over xi_i is a matrix product with
        24 rows.  The rows are walked in blocks of about _BLOCK terms.
        """
        ts = np.asarray(ts, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if not (0 < c < math.inf and np.isfinite(ts).all() and np.isfinite(offsets).all()):
            raise ValueError("Mellin transform requires finite s with Re(s) > 0")
        log_lo = math.log(self.lo)
        # the largest |ts[k] + offsets[j]| lies at a corner of the grid; the
        # sums are taken in Python floats, which overflow to inf silently
        tmax = 0.0
        if ts.size and offsets.size:
            tmax = max(
                abs(float(ts.max()) + float(offsets.max())),
                abs(float(ts.min()) + float(offsets.min())),
            )
        if tmax == math.inf:
            raise ValueError("Mellin ordinates ts + offsets overflow a float")
        n_panels = self._base_panels(tmax)
        _, mid, xi, wi = panel_grid(log_lo, math.log(self.hi), n_panels, (24,))
        # coeff[i, p] = w_i * phi(e^(mid_p + xi_i))
        coeff = wi[:, None] * self.phi_many(np.exp(mid[None, :] + xi[:, None]))
        spin = not (offsets.size == 1 and offsets[0] == 0.0)
        if spin:
            spin_mid = np.exp(1j * np.multiply.outer(offsets, mid))  # (offset, panel)
            spin_xi = np.exp(1j * np.multiply.outer(offsets, xi))  # (offset, xi)
        out = np.empty((ts.size, offsets.size), dtype=complex)
        step = max(1, _BLOCK // max(1, offsets.size * (mid.size + xi.size)))
        for k in range(0, ts.size, step):
            rows = ts[k : k + step]
            s = c + 1j * np.add.outer(rows, offsets)
            sk = c + 1j * rows
            row_xi = np.exp(np.multiply.outer(sk, xi))[:, None, :]
            if spin:
                row_xi = row_xi * spin_xi
            inner = (row_xi.reshape(-1, xi.size) @ coeff).reshape(rows.size, offsets.size, mid.size)
            if spin:
                inner *= spin_mid  # (row, offset, panel)
            # exp times inner, in this operand order, so that flat ordinates
            # get the values of a one-axis engine bit for bit
            np.multiply(np.exp(np.multiply.outer(sk, mid))[:, None, :], inner, out=inner)
            out[k : k + step] = np.exp(s * log_lo) / s + np.sum(inner, axis=2)
        return out

    def _base_panels(self, tmax: float) -> int:
        # periods of e^(ivt) across [log lo, log hi]
        periods = tmax * math.log(self.hi / self.lo) / (2 * math.pi)
        n_panels = max(6, int(math.ceil(2.5 * periods)) + 2)
        if n_panels > MAX_PANELS:
            # panel_grid would refuse it too, but print a count of hundreds of digits
            raise ValueError(
                f"panel count {n_panels:.3g} outside [1, {MAX_PANELS}] "
                f"for Mellin ordinates up to |t| = {tmax:.3g}"
            )
        return n_panels

    # -- measured decay constant --------------------------------------------

    def decay_constant(self) -> float:
        """Measured sup of |mellin(s)| * |s| * (|s|+1)^8 over vertical strips.

        Used as the constant in contour tail bounds; cached per (lo, hi).
        """
        return _measured_decay_constant(self.lo, self.hi)


@lru_cache(maxsize=8)
def _measured_decay_constant(lo: float, hi: float) -> float:
    kernel = SmoothingKernel(lo, hi)
    best = 0.0
    for n_sigma, n_t in ((8, 160), (16, 320)):
        for sigma in np.linspace(0.1, 1.5, n_sigma):
            ts = np.geomspace(1.0, 400.0, n_t)
            vals = kernel.mellin_many(float(sigma), ts, (0.0,))[:, 0]
            mod_s = np.hypot(sigma, ts)
            prod = np.abs(vals) * mod_s * (mod_s + 1.0) ** 8
            best = max(best, float(prod.max()))
    return best

