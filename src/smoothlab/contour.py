"""Contour reconstruction of weighted smooth counts.

The weighted count equals (1/2pi) int_{-inf}^{inf} L(c+it) x^(c+it)
mellin(c+it) dt for any c > 0; here the integral is truncated at height T,
approximated by composite Gauss-Legendre panels narrow enough to resolve the
x^(it) oscillation, and the dropped tail is bounded, for every c > 0, by
x^c L(c, chi0; y) times the kernel's proved mellin_tail(c, T).

Everything but L depends on the cell (x, y, q) and the spec alone, not on
the character: the abscissa, the panel grid, the weighted phase
weight * mellin(s) * x^s / 2pi on it, and the tail bound.  It is computed
once per cell (_cell) and shared by all characters mod q, so a character
costs one grid of Euler products and two sums.  The Mellin factor of the
phase comes from the kernel's closed form on the panels above its height H
(23.5 for the default kernel, so all but the middle 47 of the 2T units at
T = 160) and from quadrature below it; no truncation height is refused for
the Mellin factor's sake, only for the panel count of the grid itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirichlet import DirichletCharacter, principal_character
from .kernel import SmoothingKernel, panel_grid
from .lseries import euler_product, euler_product_many
from .saddle import saddle_alpha
from .smooth_core import SmoothCountQuery, count_smooth_weighted

DEFAULT_ORDER = 16
# Largest quadrature order a spec accepts: eight times the default and four
# times the order-32 reference rule, far below orders whose Gauss-Legendre
# tables would exhaust memory (leggauss builds an order x order matrix).
MAX_ORDER = 128


@dataclass(frozen=True)
class ContourSpec:
    """Abscissa, truncation height (at least 1), panel width and quadrature
    order (2 to MAX_ORDER).

    c defaults to the saddle abscissa alpha(x, y); panel_width defaults to
    min(1, 2pi/log x) so each panel sees at most one oscillation period.
    """

    T: float
    c: float | None = None
    panel_width: float | None = None
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        if not 1 <= self.T < math.inf:
            raise ValueError("truncation height T must be finite and >= 1")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError("abscissa must be finite and positive")
        if self.panel_width is not None and not 0 < self.panel_width < math.inf:
            raise ValueError("panel width must be finite and positive")
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"quadrature order must lie in [2, {MAX_ORDER}]")


@dataclass(frozen=True)
class ContourResult:
    """The truncated integral, a proved bound on the dropped tail, and an error estimate.

    quadrature_error_estimate is |rule(order) - rule(order // 2)| on the same
    panels, so it measures the coarse rule and overstates the error of value,
    which the full-order rule gives.  For one character mod 7 at x = 1e5,
    y = 1e4 and T = 40 or 160 it reads 4.3e-6, while the order-16 value is
    within 6.4e-11 of the order-32 one.
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
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """What every character of a cell shares: the abscissa c, the panel
    midpoints of [-T, T], the Gauss offsets of the full- and half-order
    rules side by side, the (panel, offset) phase weight * mellin(s) * x^s /
    2pi at s = c + i(mid + offset), and the tail bound; arrays read-only."""
    c = spec.c if spec.c is not None else saddle_alpha(x, y).alpha
    scale = _x_power(x, c) / (2 * math.pi)
    n_panels = _resolve_panels(x, spec.T, spec)
    # Both rules use the same panels, so one grid of Mellin values and one of
    # Euler products serve them; the rules' offsets sit side by side.
    orders = (spec.order, max(2, spec.order // 2))
    _, mid, offsets, weights = panel_grid(-spec.T, spec.T, n_panels, orders)
    mell = kernel.mellin_many(c, mid, offsets)
    phase = scale * weights * mell * np.exp(1j * math.log(x) * np.add.outer(mid, offsets))
    chi0_value = euler_product(c, principal_character(q), y).value.real
    for arr in (mid, offsets, phase):
        arr.setflags(write=False)
    return c, mid, offsets, phase, truncation_bound(c, spec.T, chi0_value, x, kernel)


def _max_panel_width(x: float) -> float:
    """min(1, 2pi/log x): the widest panel that sees at most one period of x^(it)."""
    return min(1.0, 2 * math.pi / math.log(x)) if x > 1 else 1.0


def _resolve_panels(x: float, T: float, spec: ContourSpec) -> int:
    max_width = _max_panel_width(x)
    width = spec.panel_width if spec.panel_width is not None else max_width
    if width > max_width * (1 + 1e-12):
        raise ValueError(
            f"panel width {width:g} too coarse to resolve x^(it); need <= {max_width:g}"
        )
    return max(1, int(math.ceil(2 * T / width)))


def _x_power(x: float, c: float) -> float:
    """x^c, refused with a ValueError when c log x lies past the float range."""
    try:
        return x**c
    except OverflowError:
        raise ValueError(f"abscissa c={c:g} too large for x={x:g}: x^c overflows a float") from None


def contour_psi(
    x: float,
    chi: DirichletCharacter,
    y: float,
    kernel: SmoothingKernel,
    spec: ContourSpec,
) -> ContourResult:
    """Truncated contour approximation of the chi-weighted smooth count.

    Needs 1 <= x < inf, 2 <= y < inf and x^c inside the float range (a
    ValueError names c and x otherwise).  The tail beyond height T is bounded
    by truncation_bound.  The quadrature error is estimated by comparing the
    order-spec.order rule with the half-order rule on the same panels; that
    difference is the coarse rule's error, so it overstates the error of the
    returned value (see ContourResult).  Both rules read one (panel, offset)
    grid.  The abscissa, the weighted phase weight * mellin(s) * x^s / 2pi
    and the tail bound come from one cache entry per (kernel, x, y, q,
    spec), which every character mod q shares; the character adds one
    euler_product_many call on the grid.
    """
    if not 1 <= x < math.inf:
        raise ValueError("threshold x must be finite and >= 1")
    if not 2 <= y < math.inf:
        raise ValueError("smoothness bound y must be finite and >= 2")
    c, mid, offsets, phase, tail_bound = _cell(kernel, x, y, chi.modulus, spec)
    terms = phase * euler_product_many(c, mid, chi, y, offsets)
    fine, coarse = (complex(np.sum(rule)) for rule in np.split(terms, [spec.order], axis=1))
    return ContourResult(
        value=fine, tail_bound=tail_bound, quadrature_error_estimate=abs(fine - coarse)
    )


def truncation_bound(
    c: float, T: float, chi0_value: float, x: float, kernel: SmoothingKernel
) -> float:
    """Bound x^c L(c, chi0; y) kernel.mellin_tail(c, T) on the dropped |t| > T
    tail for every c > 0, as |L(c+it, chi)| <= L(c, chi0; y) = chi0_value."""
    if not 1 <= T < math.inf:
        raise ValueError("need finite T >= 1")
    return _x_power(x, c) * chi0_value * kernel.mellin_tail(c, T)


@dataclass(frozen=True)
class OscillationResult:
    value: complex
    decay_product: float  # |value| * log x


def oscillating_integral(
    t0: float,
    t1: float,
    x: float,
    beta: float,
    kernel: SmoothingKernel,
    n_panels: int | None = None,
) -> OscillationResult:
    """int_{t0}^{t1} x^(ir) mellin(beta + ir) dr with its decay report.

    The product |value| * log x stays bounded as x grows; it is returned for
    measurement and never asserted here.
    """
    if not (0 <= t0 <= t1 < math.inf):
        raise ValueError("need finite 0 <= t0 <= t1")
    if not (0.75 <= beta <= 1.5):
        raise ValueError("need beta in [0.75, 1.5]")
    if not 0 < x < math.inf:
        raise ValueError("need finite x > 0")
    if t0 == t1:
        return OscillationResult(0j, 0.0)
    if n_panels is None:
        n_panels = max(4, int(math.ceil((t1 - t0) / _max_panel_width(x))))
    _, mid, offsets, weights = panel_grid(t0, t1, n_panels, (DEFAULT_ORDER,))
    nodes, weights = np.add.outer(mid, offsets).ravel(), np.tile(weights, n_panels)
    mell = kernel.mellin_many(beta, nodes, (0.0,))[:, 0]
    value = complex(np.sum(weights * np.exp(1j * nodes * math.log(x)) * mell))
    return OscillationResult(value, abs(value) * math.log(x))


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

