"""Inequality harness: degenerate cases, oracles, seeded mini-corpora."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlab import (
    MellinPowerF,
    PolyExpF,
    RandomEulerSpec,
    SmoothingKernel,
    check_calculus,
    check_lemma1,
    check_lemma2,
    check_majorant,
    check_pointwise_product,
    pointwise_product_chain,
    run_suite,
)
from smoothlab.errors import NoConvergenceError
from smoothlab.inequalities import _draw_euler_instance, _segment_quantities, mean_square_trig
from smoothlab.kernel import panel_grid
from smoothlab.lseries import _factor_matrices

KERNEL = SmoothingKernel()

# F identically zero.
ZERO_F = PolyExpF(coeffs=(0j,), rate=0.0)


@dataclass(frozen=True)
class ZeroEulerSpec(RandomEulerSpec):
    """g(p) = 0 at every prime p <= y, so G is identically 1."""

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        ps, gs = super().coefficients()
        return ps, np.zeros_like(gs)


@dataclass(frozen=True)
class ScaledF:
    """factor * F."""

    F: object
    factor: float

    def values(self, beta: float, ts: np.ndarray) -> np.ndarray:
        return self.factor * self.F.values(beta, ts)


# -- calculus -------------------------------------------------------------------


def test_calculus_equality_cases():
    assert check_calculus(1.0, 7.3).slack == pytest.approx(0.0, abs=1e-12)
    assert check_calculus(0.0, 5.0).slack == pytest.approx(0.0, abs=1e-12)
    rep = check_calculus(0.5, 3.0)
    assert rep.lhs == pytest.approx(2.0) and rep.rhs == pytest.approx(2.5)
    assert rep.holds


@given(c=st.floats(min_value=0, max_value=1), t=st.floats(min_value=0, max_value=1e6))
def test_calculus_holds_everywhere(c, t):
    assert check_calculus(c, t).holds


def test_calculus_domain_errors():
    with pytest.raises(ValueError):
        check_calculus(1.5, 1.0)
    with pytest.raises(ValueError):
        check_calculus(0.5, -1.0)


# -- pointwise factor chain ---------------------------------------------------------


def test_pointwise_equality_case():
    q1, q2, q3 = pointwise_product_chain(5, 1 + 0j, 0.0, 1.0)
    assert q1 == q2 == q3 == 1.0


def test_pointwise_hand_value():
    q1, q2, q3 = pointwise_product_chain(2, -1 + 0j, 0.0, 1.0)
    assert q1 == pytest.approx(3.0)
    assert q2 == pytest.approx(3.0)
    assert q3 == pytest.approx(math.e)
    assert check_pointwise_product(2, -1 + 0j, 0.0, 1.0).holds


@given(
    p=st.sampled_from([2, 3, 5, 7, 97, 9973]),
    theta=st.floats(min_value=0, max_value=1),
    t=st.floats(min_value=-50, max_value=50),
    alpha=st.floats(min_value=0.3, max_value=1.5),
)
def test_pointwise_chain_holds(p, theta, t, alpha):
    chi_p = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    rep = check_pointwise_product(p, chi_p, t, alpha)
    assert rep.holds
    q1, q2, q3 = pointwise_product_chain(p, chi_p, t, alpha)
    assert q1 >= q2 * (1 - 1e-12)
    assert q2 >= q3 * (1 - 1e-12)


def test_pointwise_zero_value_allowed():
    assert check_pointwise_product(11, 0j, 2.0, 0.8).holds


def test_pointwise_rejects_non_unit():
    with pytest.raises(ValueError):
        check_pointwise_product(5, 0.5 + 0j, 0.0, 1.0)


# -- majorant principle ----------------------------------------------------------------


def test_majorant_single_term():
    rep = check_majorant(1, np.array([0.7]), np.array([0.4 + 0.3j]), np.array([0.5]), 3.0)
    assert rep.lhs == pytest.approx(2 * 3.0 * 0.25, rel=1e-12)
    assert rep.rhs == pytest.approx(3 * 2 * 3.0 * 0.25, rel=1e-12)
    assert rep.holds


def test_majorant_equality_up_to_factor_three():
    lam = np.array([0.1, 0.9, -2.0])
    a = np.array([0.3, 1.1, 0.7])
    rep = check_majorant(3, lam, a.astype(complex), a, 2.5)
    assert rep.rhs == pytest.approx(3 * rep.lhs, rel=1e-12)


def test_mean_square_matches_quadrature_oracle():
    lam = np.array([-1.3, 0.2, 2.8])
    coeff = np.array([0.5 + 0.1j, -0.7j, 0.9])
    T = 1.7
    closed = mean_square_trig(lam, coeff, T)
    ts = np.linspace(-T, T, 200001)
    sums = np.abs(coeff[None, :] @ np.exp(2j * np.pi * np.outer(lam, ts))) ** 2
    w = np.ones(ts.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    quad = float(np.sum(w * sums.ravel()) * (ts[1] - ts[0]) / 3.0)
    assert closed == pytest.approx(quad, rel=1e-9)


def test_majorant_hypothesis_violation():
    with pytest.raises(ValueError, match=r"\|a_n\| <= A_n violated"):
        check_majorant(2, np.array([0.0, 1.0]), np.array([1.5, 0.2]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="majorant coefficients must be nonnegative"):
        check_majorant(1, np.array([0.0]), np.array([0.0]), np.array([-1.0]), 1.0)


def test_majorant_bit_identical_rerun():
    a = run_suite("majorant", 25, seed_base=11)
    b = run_suite("majorant", 25, seed_base=11)
    assert a.reports == b.reports
    assert a.min_ratio == b.min_ratio


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_majorant_random_instances_hold(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    lam = rng.uniform(-5, 5, n)
    big = np.abs(rng.normal(size=n))
    a = big * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    assert check_majorant(n, lam, a, big, float(rng.uniform(0.1, 10))).holds


# -- segment bounds ----------------------------------------------------------------


def test_lemma1_zero_test_function():
    spec = RandomEulerSpec(y=30.0, beta=1.0, r=2.0, seed=3)
    rep = check_lemma1(spec, ZERO_F)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds


def test_lemma1_empty_product():
    spec = RandomEulerSpec(y=1.0, beta=0.9, r=3.0, seed=5)
    F = MellinPowerF(x=50.0, kernel=KERNEL)
    rep = check_lemma1(spec, F)
    # G identically 1: the bound reduces to sup-domination |int F| <= M
    assert rep.holds
    assert rep.lhs <= rep.rhs + 1e-12


def test_lemma2_degenerate_head():
    spec = RandomEulerSpec(y=3.5, beta=0.8, r=2.0, seed=9)  # no primes <= sqrt(y)
    rep = check_lemma2(spec, PolyExpF(coeffs=(1.0, 0.5j), rate=0.3))
    assert rep.holds


def test_lemma2_zero_coefficients():
    spec = ZeroEulerSpec(y=30.0, beta=1.0, r=2.5, seed=4)
    F = PolyExpF(coeffs=(0.7, -0.2), rate=0.5)
    r1 = check_lemma1(spec, F)
    r2 = check_lemma2(spec, F)
    # g == 0 makes G == 1, so both reduce to |int F| vs the sup factor
    assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
    assert r1.holds and r2.holds


def test_lemma_reports_scale_with_test_function():
    spec = RandomEulerSpec(y=25.0, beta=0.9, r=3.0, seed=21)
    F = MellinPowerF(x=200.0, kernel=KERNEL)
    base = check_lemma1(spec, F)
    scaled = check_lemma1(spec, ScaledF(F, 7.0))
    assert scaled.lhs == pytest.approx(7.0 * base.lhs, rel=1e-9)
    assert scaled.rhs == pytest.approx(7.0 * base.rhs, rel=1e-9)
    assert scaled.holds == base.holds


class FastOscillationF:
    """F(t) = exp(1e7 i t): far too many periods for any rule below the panel cap."""

    def values(self, beta: float, ts: np.ndarray) -> np.ndarray:
        return np.exp(1e7j * np.asarray(ts, dtype=float))


def test_lemma_panel_cap_raises():
    spec = RandomEulerSpec(y=1.0, beta=1.0, r=6.0, seed=0)
    with pytest.raises(NoConvergenceError):
        check_lemma1(spec, FastOscillationF())


def _boundary_sup(spec: RandomEulerSpec, F, split_at: float, panels: int) -> float:
    """max over the panel boundaries t_k of |int_{t_k}^r F| times the tail product."""
    ps, gs = spec.coefficients()
    tail = ps > split_at
    _, mid, offsets, weights = panel_grid(0.0, spec.r, panels, (12,))
    nodes, weights = np.add.outer(mid, offsets).ravel(), np.tile(weights, panels)
    per_panel = (weights * F.values(spec.beta, nodes)).reshape(panels, 12).sum(axis=1)
    suffix = np.append(np.cumsum(per_panel[::-1])[::-1], 0.0)
    bounds = np.linspace(0.0, spec.r, panels + 1)
    tail_factors = _factor_matrices(spec.beta + 1j * bounds, ps[tail], gs[tail])[1]
    return float(np.max(np.abs(suffix) / np.prod(np.abs(tail_factors), axis=1)))


@pytest.mark.parametrize(
    "suite, seed",
    [("lemma1", 700), ("lemma1", 943)] + [("lemma2", s) for s in (277, 317, 896, 925)],
)
def test_lemma_sup_is_a_lower_bound(suite, seed):
    spec, F = _draw_euler_instance(np.random.default_rng(seed), seed)
    split_at = math.inf if suite == "lemma1" else math.sqrt(spec.y)
    sup_term = _segment_quantities(spec, F, split_at)[1]
    assert sup_term <= _boundary_sup(spec, F, split_at, 4096) * (1 + 1e-9)
    rep = (check_lemma1 if suite == "lemma1" else check_lemma2)(spec, F)
    assert rep.lhs <= rep.rhs


@pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
def test_lemma_mini_corpus(suite):
    result = run_suite(suite, 60, seed_base=0)
    assert result.violations == 0
    assert len(result.reports) == 60


@pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
def test_degenerate_lemma_draws_counted_apart(suite):
    # seeds 32-35 and 52-54 hold the draws 34 and 53 with y < 2: no primes,
    # so rhs/lhs is 1 up to rounding and says nothing about headroom
    for base, count in ((32, 4), (52, 3)):
        result = run_suite(suite, count, seed_base=base)
        marked = [rep.seed for rep in result.reports if rep.degenerate]
        seeds = range(base, base + count)
        draws = [_draw_euler_instance(np.random.default_rng(s), s)[0] for s in seeds]
        assert marked == [spec.seed for spec in draws if spec.y < 2]
        assert result.degenerate == len(marked) == 1
        kept = [rep.rhs / rep.lhs for rep in result.reports if not rep.degenerate]
        assert result.min_ratio == min(kept) > 1.0


def test_suite_reports_deterministic():
    a = run_suite("lemma1", 10, seed_base=40)
    b = run_suite("lemma1", 10, seed_base=40)
    assert a.reports == b.reports


def test_spec_validation():
    with pytest.raises(ValueError):
        RandomEulerSpec(y=80.0, beta=1.0, r=1.0, seed=0)
    with pytest.raises(ValueError):
        RandomEulerSpec(y=10.0, beta=0.5, r=1.0, seed=0)
    with pytest.raises(ValueError):
        RandomEulerSpec(y=10.0, beta=1.0, r=7.0, seed=0)
    with pytest.raises(ValueError):
        RandomEulerSpec(y=10.0, beta=1.0, r=1.0, seed=0, rule="bogus")
