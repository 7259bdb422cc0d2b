"""Property-based numerical verification of proved inequalities.

Each check computes both sides of one inequality at full precision and emits
an InequalityReport; these are proved statements, so any violation beyond
the quadrature tolerance indicates a bug somewhere in this package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergenceError, check_integer
from .kernel import SmoothingKernel, panel_grid
from .lseries import _factor_matrices, _guarded
from .primes import primes_upto

TOL_REL = 1e-6
TOL_ABS = 1e-9

MAX_MAJORANT_TERMS = 30
MAX_EULER_Y = 60.0


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """One verified instance: lhs <= rhs up to the fixed tolerance policy.

    degenerate marks a lemma instance whose Euler product has no primes
    (y < 2): G = 1, so both sides are the same integral and rhs/lhs is 1 up
    to rounding, which says nothing about the bound's headroom.
    """

    lhs: float
    rhs: float
    slack: float
    holds: bool
    seed: int
    label: str = ""
    degenerate: bool = False


def _report(
    lhs: float, rhs: float, seed: int, label: str, degenerate: bool = False
) -> InequalityReport:
    lhs, rhs = float(lhs), float(rhs)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        holds=bool(lhs <= rhs * (1 + TOL_REL) + TOL_ABS),
        seed=seed,
        label=label,
        degenerate=degenerate,
    )


# -- random Euler products -----------------------------------------------------

G_RULE_UNIT_PHASE = "unit_phase"
G_RULE_DISC = "disc"


@dataclass(frozen=True)
class RandomEulerSpec:
    """Seeded Euler product over primes <= y with coefficients |g(p)| <= 1."""

    y: float
    beta: float
    r: float
    seed: int
    rule: str = G_RULE_UNIT_PHASE

    def __post_init__(self) -> None:
        check_integer(self.seed, "seed")
        if self.y > MAX_EULER_Y:
            raise ValueError(f"need y <= {MAX_EULER_Y}")
        if not (0.75 <= self.beta <= 1.3):
            raise ValueError("need beta in [0.75, 1.3]")
        if not (0 < self.r <= 6):
            raise ValueError("need r in (0, 6]")
        if self.rule not in (G_RULE_UNIT_PHASE, G_RULE_DISC):
            raise ValueError(f"unknown coefficient rule {self.rule!r}")

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(primes, g values) arrays; the modulus of every g(p) is <= 1."""
        ps = primes_upto(self.y)
        rng = np.random.default_rng(self.seed)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, ps.size))
        if self.rule == G_RULE_DISC:
            phases = phases * rng.uniform(0.0, 1.0, ps.size)
        return ps, phases


# -- test functions on the vertical segment -------------------------------------


@dataclass(frozen=True)
class MellinPowerF:
    """F(s) = x^s * mellin(s), the integrand the contour method uses."""

    x: float
    kernel: SmoothingKernel

    def values(self, beta: float, ts: np.ndarray) -> np.ndarray:
        s = beta + 1j * np.asarray(ts, dtype=float)
        return np.exp(s * math.log(self.x)) * self.kernel.mellin_many(beta, ts)


@dataclass(frozen=True)
class PolyExpF:
    """F(s) = (sum_j c_j s^j) * exp(-rate * s)."""

    coeffs: tuple[complex, ...]
    rate: float

    def values(self, beta: float, ts: np.ndarray) -> np.ndarray:
        s = beta + 1j * np.asarray(ts, dtype=float)
        poly = np.zeros(s.shape, dtype=complex)
        for c in reversed(self.coeffs):
            poly = poly * s + c
        # In place, so that poly is the left operand at every size: given a
        # large temporary on the right, numpy reuses it and swaps the
        # operands, which moves the last bit of the complex products.
        poly *= np.exp(-self.rate * s)
        return poly


# -- segment quadrature ----------------------------------------------------------

_SEG_ORDER = 12
_SEG_TOL = 1e-8
_SEG_START = 64
_SEG_CAP = 8192


def _node_terms(
    lead: np.ndarray, log_p: np.ndarray, mid: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """lead * p^(-i(mid[k] + offsets[j])), node (k, j) by prime, node-major:
    rows p^(-i mid) times spins p^(-i offsets), not one exponential per node."""
    rows = lead * np.exp(-1j * np.multiply.outer(mid, log_p))
    spins = np.exp(-1j * np.multiply.outer(offsets, log_p))
    return (rows[:, None, :] * spins).reshape(mid.size * offsets.size, log_p.size)


def _segment_quantities(
    spec: RandomEulerSpec, F, split_at: float
) -> tuple[float, float, float, float, float]:
    """Refining quadrature of the segment integrals entering the bounds.

    Returns (lhs, sup_term, gg_integral, g2_integral, g_at_beta) where the
    sup_term is M* (tail product over p > split_at folded into the
    supremum; M when the tail is empty), and g2/g_at_beta use the head
    product over p <= split_at.

    Panels double until lhs, gg_integral and g2_integral settle; reaching
    _SEG_CAP raises NoConvergenceError. sup_term is then read once, on the
    panel boundaries of the settled rule: a maximum over a subset of the
    segment, so a lower bound for M*, and lhs <= rhs with it implies the
    bound with the true supremum.
    """
    ps, gs = spec.coefficients()
    head = ps <= split_at
    beta, r = spec.beta, spec.r
    log_p = np.log(ps)
    lead = gs * np.exp(-beta * log_p)
    max_modulus = float(np.max(np.abs(lead), initial=0.0))

    prev: tuple[float, float, float] | None = None
    m = _SEG_START
    while True:
        edges, mid, offsets, weights = panel_grid(0.0, r, m, (_SEG_ORDER,))
        nodes, weights = np.add.outer(mid, offsets).ravel(), np.tile(weights, m)
        terms = _node_terms(lead, log_p, mid, offsets)
        factors = _guarded(terms, max_modulus=max_modulus)
        # G'/G from g(p) p^-s log p / (1 - g(p) p^-s), formed in place and
        # released so that at most two node-by-prime matrices are alive.
        terms *= log_p
        terms /= factors
        logderiv = -np.sum(terms, axis=1)
        del terms
        inverse = np.divide(1.0, factors, out=factors)
        g_full = np.prod(inverse, axis=1)
        g_head = np.prod(inverse[:, head], axis=1)
        fvals = F.values(beta, nodes)

        lhs = abs(np.sum(weights * g_full * fvals))
        gg = float(np.sum(weights * np.abs(logderiv) ** 2))
        g2 = float(np.sum(weights * np.abs(g_head) ** 2))

        cur = (lhs, gg, g2)
        if prev is not None:
            scale = max(1.0, *(abs(v) for v in cur))
            if max(abs(a - b) for a, b in zip(cur, prev)) <= _SEG_TOL * scale:
                break
        if m >= _SEG_CAP:
            raise NoConvergenceError(f"segment quadrature did not settle within {_SEG_CAP} panels")
        prev = cur
        m *= 2

    # Suffix integrals of F at the panel boundaries give the supremum grid.
    per_panel = (weights * fvals).reshape(m, _SEG_ORDER).sum(axis=1)
    suffix = np.concatenate([np.cumsum(per_panel[::-1])[::-1], [0.0 + 0j]])
    tail_factors = _factor_matrices(beta + 1j * edges, ps[~head], gs[~head])[1]
    tail_prod = np.prod(1.0 / np.abs(tail_factors), axis=1)
    sup_term = float(np.max(np.abs(suffix) * tail_prod))

    beta_factors = _factor_matrices(complex(beta), ps, gs)[1]
    g_at_beta = float(abs(np.prod(1.0 / beta_factors[head])))
    return lhs, sup_term, gg, g2, g_at_beta


def _check_lemma(spec: RandomEulerSpec, F, split_at: float, label: str) -> InequalityReport:
    lhs, m_sup, gg, g2, g_beta = _segment_quantities(spec, F, split_at)
    rhs = m_sup * (g_beta + math.sqrt(gg * g2))
    return _report(lhs, rhs, spec.seed, label, degenerate=spec.y < 2)


def check_lemma1(spec: RandomEulerSpec, F) -> InequalityReport:
    """|int G F| <= M (|G(beta)| + sqrt(int |G'/G|^2 int |G|^2)) on the segment,
    M the supremum of sub-segment integrals of F.

    M is read on the panel boundaries of the settled quadrature rule; that
    maximum is a lower bound for M, so the check can only be stricter.
    """
    return _check_lemma(spec, F, math.inf, "lemma1")


def check_lemma2(spec: RandomEulerSpec, F) -> InequalityReport:
    """Variant with the head product over p <= sqrt(y) and the tail product
    over sqrt(y) < p <= y folded into the supremum factor."""
    return _check_lemma(spec, F, math.sqrt(spec.y), "lemma2")


# -- majorant principle -----------------------------------------------------------


def mean_square_trig(lambdas: np.ndarray, coeffs: np.ndarray, T: float) -> float:
    """Closed-form int_{-T}^{T} |sum_n c_n e^(2 pi i lambda_n t)|^2 dt.

    The cross kernel is sin(2 pi T delta)/(pi delta), 2T on the diagonal, so
    the result is exact up to floating rounding (no quadrature).
    """
    return _mean_squares(lambdas, T, coeffs)[0]


def _mean_squares(lambdas: np.ndarray, T: float, *rows: np.ndarray) -> list[float]:
    """mean_square_trig of each coefficient row, all read from one (n, n) kernel."""
    delta = lambdas[:, None] - lambdas[None, :]
    kernel = 2.0 * T * np.sinc(2.0 * T * delta)
    return [float(np.real(c @ kernel @ np.conj(c))) for c in rows]


def check_majorant(
    n: int,
    lambdas: np.ndarray,
    a: np.ndarray,
    big_a: np.ndarray,
    T: float,
    seed: int = 0,
) -> InequalityReport:
    """Mean square of a trigonometric sum against 3x that of its majorant."""
    lambdas, big_a = np.asarray(lambdas, dtype=float), np.asarray(big_a, dtype=float)
    a = np.asarray(a, dtype=complex)
    check_integer(n, "n")
    if not (1 <= n <= MAX_MAJORANT_TERMS):
        raise ValueError(f"need 1 <= n <= {MAX_MAJORANT_TERMS}")
    if not (lambdas.size == a.size == big_a.size == n):
        raise ValueError("lambdas, a, big_a must all have length n")
    if not (math.isfinite(T) and all(np.isfinite(v).all() for v in (lambdas, a, big_a))):
        raise ValueError("lambdas, a, big_a and T must be finite")
    if T <= 0:
        raise ValueError("need T > 0")
    if np.any(big_a < 0):
        raise ValueError("majorant coefficients must be nonnegative")
    if np.any(np.abs(a) > big_a * (1 + 1e-12)):
        raise ValueError("|a_n| <= A_n violated")
    lhs, rhs = _mean_squares(lambdas, T, a, big_a.astype(complex))
    return _report(lhs, 3.0 * rhs, seed, "majorant")


# -- pointwise factor chain --------------------------------------------------------


def pointwise_product_chain(
    p: int, chi_p: complex, t: float, alpha: float
) -> tuple[float, float, float]:
    """(|1 + (1-z)/(p^a - 1)|, 1 + (1-Re z)/(p^a - 1), exp((1-Re z)/p^a))
    with z = chi_p p^-it; the first dominates the second dominates the third.
    A non-finite chi_p, t or alpha is refused with a ValueError naming it."""
    for name, value in (("chi_p", chi_p), ("t", t), ("alpha", alpha)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    check_integer(p, "p")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if alpha <= 0:
        raise ValueError("need alpha > 0 so p^alpha > 1")
    z = chi_p * complex(math.cos(t * math.log(p)), -math.sin(t * math.log(p)))
    pa = p**alpha
    product_side = abs(1 + (1 - z) / (pa - 1))
    series_side = 1 + (1 - z.real) / (pa - 1)
    exp_side = math.exp((1 - z.real) / pa)
    return product_side, series_side, exp_side


def check_pointwise_product(
    p: int, chi_p: complex, t: float, alpha: float, seed: int = 0
) -> InequalityReport:
    """Both links of the factor chain; the reported pair is the binding link."""
    if chi_p != 0 and abs(abs(chi_p) - 1.0) > 1e-9:
        raise ValueError("chi_p must be 0 or unit modulus")
    q1, q2, q3 = pointwise_product_chain(p, chi_p, t, alpha)
    first = _report(q2, q1, seed, "pointwise")
    second = _report(q3, q2, seed, "pointwise")
    binding = first if first.slack <= second.slack else second
    return replace(binding, holds=first.holds and second.holds)


# -- elementary calculus bound ------------------------------------------------------


def check_calculus(c: float, t: float, seed: int = 0) -> InequalityReport:
    """(1 + t)^c <= 1 + c t for t >= 0 and c in [0, 1]."""
    if not (0 <= c <= 1):
        raise ValueError("need c in [0, 1]")
    if not 0 <= t < math.inf:
        raise ValueError("need finite t >= 0")
    return _report((1.0 + t) ** c, 1.0 + c * t, seed, "calculus")


def calculus_grid() -> list[InequalityReport]:
    """The calculus bound on a 100 x 100 grid of c in [0, 1] and t in [0, 20]."""
    out = []
    for i, c in enumerate(np.linspace(0.0, 1.0, 100)):
        for j, t in enumerate(np.linspace(0.0, 20.0, 100)):
            out.append(check_calculus(float(c), float(t), seed=i * 100 + j))
    return out


# -- seeded corpus driver -------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    reports: list[InequalityReport]
    violations: int
    degenerate: int  # reports marked degenerate, left out of min_ratio
    min_ratio: float | None  # smallest rhs/lhs seen (majorant headroom record)


def _draw_euler_instance(rng: np.random.Generator, seed: int) -> tuple[RandomEulerSpec, object]:
    y = float(rng.uniform(0.0, MAX_EULER_Y))
    spec = RandomEulerSpec(
        y=y,
        beta=float(rng.uniform(0.75, 1.3)),
        r=float(rng.uniform(0.2, 6.0)),
        seed=seed,
        rule=G_RULE_UNIT_PHASE if seed % 2 == 0 else G_RULE_DISC,
    )
    if rng.uniform() < 0.5:
        F = MellinPowerF(x=float(10 ** rng.uniform(1.0, 4.0)), kernel=SmoothingKernel())
    else:
        coeffs = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
        F = PolyExpF(coeffs=coeffs, rate=float(rng.uniform(0.0, 2.0)))
    return spec, F


def _draw_majorant(rng: np.random.Generator, seed: int) -> InequalityReport:
    n = int(rng.integers(1, MAX_MAJORANT_TERMS + 1))
    lambdas = rng.uniform(-5.0, 5.0, n)
    big_a = np.abs(rng.normal(size=n))
    shrink = np.where(rng.uniform(size=n) < 0.5, rng.uniform(0.0, 1.0, n), 1.0)
    a = big_a * shrink * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return check_majorant(n, lambdas, a, big_a, float(rng.uniform(0.1, 10.0)), seed)


def _draw_pointwise(rng: np.random.Generator, seed: int) -> InequalityReport:
    ps = primes_upto(10_000)
    p = int(ps[rng.integers(0, len(ps))])
    chi_p = 0j if rng.uniform() < 0.05 else complex(np.exp(2j * np.pi * rng.uniform()))
    return check_pointwise_product(
        p, chi_p, float(rng.uniform(-50.0, 50.0)), float(rng.uniform(0.3, 1.5)), seed
    )


# One seeded draw and check per suite.  The draws call the checks through this
# module's globals, so that a wrapper installed there sees every call.
_DRAWS = {
    "lemma1": lambda rng, seed: check_lemma1(*_draw_euler_instance(rng, seed)),
    "lemma2": lambda rng, seed: check_lemma2(*_draw_euler_instance(rng, seed)),
    "majorant": _draw_majorant,
    "pointwise": _draw_pointwise,
    "calculus": lambda rng, seed: check_calculus(
        float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 50.0)), seed
    ),
}
SUITES = tuple(_DRAWS)


def run_suite(suite: str, count: int, seed_base: int = 0) -> SuiteResult:
    """Run `count` >= 0 instances of one suite, seeded from `seed_base` >= 0 up, in seed order."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    for name, value in (("seed count", count), ("seed base", seed_base)):
        check_integer(value, name)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    draw = _DRAWS[suite]
    reports = [draw(np.random.default_rng(s), s) for s in range(seed_base, seed_base + count)]
    violations = sum(1 for rep in reports if not rep.holds)
    ratios = [rep.rhs / rep.lhs for rep in reports if rep.lhs > 0 and not rep.degenerate]
    return SuiteResult(
        suite=suite,
        reports=reports,
        violations=violations,
        degenerate=sum(1 for rep in reports if rep.degenerate),
        min_ratio=float(min(ratios)) if ratios else None,
    )
