"""Contour reconstruction of weighted smooth counts.

The weighted count equals (1/2pi) int_{-inf}^{inf} L(c+it) x^(c+it)
mellin(c+it) dt for any c > 0; here the integral is truncated at height T,
approximated by composite Gauss-Legendre panels narrow enough to resolve the
x^(it) oscillation, and the dropped tail is bounded, for every c > 0, by
x^c L(c, chi0; y) times the kernel's proved mellin_tail(c, T).

The integrand is conjugate-symmetric: L(c-it, chi) = conj L(c+it, conj chi),
and mellin(c-it) x^(c-it) = conj mellin(c+it) x^(c+it) for the real kernel.
So only [0, T] is laid out, in panels of its own (_line_grid, which also
lays out oscillating_integral's [t0, t1]), and the integral is
A(chi) + conj A(conj chi), where A is the sum over that half grid.

Everything but L depends on the cell (x, y, q) and the spec alone, not on
the character: the abscissa, the half grid, the weighted phase
weight * mellin(s) * x^s / 2pi on it, and the tail bound.  It is computed
once per cell (_cell) and shared by all characters mod q, together with a
memo of each character's half sums, so over a cell every character's Euler
products are formed once, on the half grid: a real character serves itself
and a complex one its conjugate.  The Mellin factor of the phase comes from
the kernel's closed form on the panels above its height H (23.5 for the
default kernel, so all but the lowest 23.5 of the T units at T = 160) and
from quadrature below it; no truncation height is refused for the Mellin
factor's sake, only for the panel count of the grid itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirichlet import DirichletCharacter, principal_character
from .errors import check_smoothness_bound, check_threshold
from .kernel import _LOG_FLOAT_MAX, SmoothingKernel, panel_grid
from .lseries import euler_product, euler_product_many
from .saddle import saddle_alpha
from .smooth_core import SmoothCountQuery, count_smooth_weighted

DEFAULT_ORDER = 16


@dataclass(frozen=True)
class ContourSpec:
    """Truncation height T (at least 1) and abscissa c.

    c defaults to the saddle abscissa alpha(x, y).  The rule is fixed: order
    DEFAULT_ORDER, with the half-order rule on the same panels for the error
    estimate, on panels of width min(1, 2pi/log x), so each panel sees at
    most one oscillation period.
    """

    T: float
    c: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.T < math.inf:
            raise ValueError("truncation height T must be finite and >= 1")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError("abscissa must be finite and positive")


@dataclass(frozen=True)
class ContourResult:
    """The truncated integral, a proved bound on the dropped tail, and an error estimate.

    quadrature_error_estimate is |rule(16) - rule(8)| on the same panels, so
    it measures the coarse rule and overstates the error of value, which the
    order-16 rule gives.  For the characters mod 7 at x = 1e5 and y = 1e4 it
    reads 4.0e-6 at T = 40 and 4.3e-6 at T = 160, while the order-16 value
    is within 9.8e-11 of the order-32 rule on the same panels.
    """

    value: complex
    tail_bound: float
    quadrature_error_estimate: float


# Eight entries, as _class_weights keeps: callers that take the characters of
# a few cells in turn (the contour benchmark interleaves four) still hit, and
# cells that never come back do not pile up.
@lru_cache(maxsize=8)
def _cell(
    kernel: SmoothingKernel, x: float, y: float, q: int, spec: ContourSpec
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float, dict]:
    """What every character of a cell shares: the abscissa c, the panel
    midpoints of [0, T] and the Gauss offsets of the full- and half-order
    rules side by side (_line_grid), the (panel, offset) phase
    weight * mellin(s) * x^s / 2pi at s = c + i(mid + offset), the tail
    bound (arrays read-only), and the memo of half sums that contour_psi
    fills: character exponents -> the sum of phase * L over each rule's
    columns."""
    c = spec.c if spec.c is not None else saddle_alpha(x, y).alpha
    # the tail bound first: it refuses an abscissa past the kernel's float
    # range, and then one past the contour's, before any grid is built
    chi0_value = euler_product(c, principal_character(q), y).value.real
    tail_bound = truncation_bound(c, spec.T, chi0_value, x, kernel)
    scale = _x_power(x, c, kernel) / (2 * math.pi)
    # Both rules use the same panels, so one grid of Mellin values and one of
    # Euler products serve them; the rules' offsets sit side by side.
    orders = (DEFAULT_ORDER, DEFAULT_ORDER // 2)
    mid, offsets, phase = _line_grid(kernel, x, c, 0.0, spec.T, orders)
    phase *= scale
    for arr in (mid, offsets, phase):
        arr.setflags(write=False)
    return c, mid, offsets, phase, tail_bound, {}


def _line_grid(
    kernel: SmoothingKernel, x: float, c: float, t0: float, t1: float, orders: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel midpoints, Gauss offsets of the given orders side by side, and
    the phase weight * mellin(c + it) * x^(it) at t = mid + offset, on
    max(4, ceil((t1 - t0) / w)) panels of [t0, t1], where w = 2pi / max(log x,
    2pi) is the widest panel that sees at most one period of x^(it)."""
    width = 2 * math.pi / max(math.log(x), 2 * math.pi)
    _, mid, offsets, weights = panel_grid(t0, t1, max(4, math.ceil((t1 - t0) / width)), orders)
    ts = np.add.outer(mid, offsets)
    return mid, offsets, weights * kernel.mellin_many(c, ts) * np.exp(1j * math.log(x) * ts)


def _x_power(x: float, c: float, kernel: SmoothingKernel) -> float:
    """x^c, refused with a ValueError when c log x, or c log(x hi), lies past
    the float range: the phase x^c mellin(s) and the tail x^c
    mellin_tail(c, T) carry the kernel's hi^c beside x^c."""
    try:
        power = x**c
    except OverflowError:
        raise ValueError(f"abscissa c={c:g} too large for x={x:g}: x^c overflows a float") from None
    if c * math.log(x * kernel.hi) > _LOG_FLOAT_MAX:
        raise ValueError(
            f"abscissa c={c:g} too large for x={x:g} and hi={kernel.hi:g}: "
            "x^c hi^c overflows a float"
        )
    return power


def contour_psi(
    x: float,
    chi: DirichletCharacter,
    y: float,
    kernel: SmoothingKernel,
    spec: ContourSpec,
) -> ContourResult:
    """Truncated contour approximation of the chi-weighted smooth count.

    Needs 1 <= x < inf, 2 <= y < inf and x^c hi^c inside the float range (a
    ValueError names c and x otherwise).  The tail beyond height T is bounded
    by truncation_bound.  The quadrature error is estimated by comparing the
    order-16 rule with the order-8 rule on the same panels; that
    difference is the coarse rule's error, so it overstates the error of the
    returned value (see ContourResult).  Both rules read one (panel, offset)
    grid on [0, T], and each rule's value is A(chi) + conj A(conj chi), with
    A the sum of phase * L over that half grid.  The abscissa, the weighted
    phase weight * mellin(s) * x^s / 2pi, the tail bound and the memo of the
    sums A come from one cache entry per (kernel, x, y, q, spec), which
    every character mod q shares; a character whose A is not in the memo
    adds one euler_product_many call on the half grid, so a real character
    costs one call, a conjugate pair two between them, and the result for
    conj chi is the conjugate of the result for chi, bit for bit.
    """
    check_threshold(x)
    check_smoothness_bound(y)
    c, mid, offsets, phase, tail_bound, half_sums = _cell(kernel, x, y, chi.modulus, spec)
    sums = []
    for char in (chi, chi.conjugate()):
        if char.exponents not in half_sums:
            terms = phase * euler_product_many(c, mid, char, y, offsets)
            half_sums[char.exponents] = [
                complex(np.sum(rule)) for rule in np.split(terms, [DEFAULT_ORDER], axis=1)
            ]
        sums.append(half_sums[char.exponents])
    fine, coarse = (own + mirror.conjugate() for own, mirror in zip(*sums))
    return ContourResult(
        value=fine, tail_bound=tail_bound, quadrature_error_estimate=abs(fine - coarse)
    )


def truncation_bound(
    c: float, T: float, chi0_value: float, x: float, kernel: SmoothingKernel
) -> float:
    """Bound x^c L(c, chi0; y) kernel.mellin_tail(c, T) on the dropped |t| > T
    tail for every c > 0, as |L(c+it, chi)| <= L(c, chi0; y) = chi0_value.

    An abscissa past the kernel's float range is refused by mellin_tail, and
    then one whose x^c hi^c passes it by _x_power, both with a ValueError."""
    if not 1 <= T < math.inf:
        raise ValueError("need finite T >= 1")
    tail = kernel.mellin_tail(c, T)
    return _x_power(x, c, kernel) * chi0_value * tail


def oscillating_integral(
    t0: float, t1: float, x: float, beta: float, kernel: SmoothingKernel
) -> complex:
    """int_{t0}^{t1} x^(ir) mellin(beta + ir) dr, the sum of the phase of the
    contour's order-16 line grid on [t0, t1] (_line_grid).

    |value| * log x stays bounded as x grows; that is for measurement and
    never asserted here.
    """
    if not (0 <= t0 <= t1 < math.inf):
        raise ValueError("need finite 0 <= t0 <= t1")
    if not (0.75 <= beta <= 1.5):
        raise ValueError("need beta in [0.75, 1.5]")
    if not 0 < x < math.inf:
        raise ValueError("need finite x > 0")
    _, _, phase = _line_grid(kernel, x, beta, t0, t1, (DEFAULT_ORDER,))
    return complex(np.sum(phase))


def main_term_ratio(x: float, y: float, q: int, kernel: SmoothingKernel) -> float:
    """Exact weighted principal-character count divided by its saddle-point
    main term x^alpha L(alpha, chi0; y) mellin(alpha) / sqrt(2 pi (1 + log
    x / y) log x log y)."""
    chi0 = principal_character(q)
    direct = count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=q), kernel, chi=chi0)
    alpha = saddle_alpha(x, y).alpha
    lval = euler_product(alpha, chi0, y).value.real
    mell = kernel.mellin(alpha).real
    log_x = math.log(x)
    denom = (x**alpha) * lval * mell / math.sqrt(
        2 * math.pi * (1 + log_x / y) * log_x * math.log(y)
    )
    return direct.value.real / denom

