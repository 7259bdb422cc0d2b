"""Saddle-point solver: residuals, oracle agreement, regime asymptotics."""

import math

import numpy as np
import pytest

from smoothlab import primes_upto, saddle_alpha
from smoothlab.errors import NoConvergenceError


def _bisect_oracle(x, y, q=None, iters=200):
    plist = [p for p in primes_upto(y) if q is None or q % p != 0]
    logp = np.log(np.array(plist, dtype=float))
    target = math.log(x)

    def f(a):
        return float(np.sum(logp / np.expm1(a * logp)))

    lo, hi = 1e-9, 4.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "x,y", [(1e3, 10), (1e4, 10), (1e5, 30), (1e6, 100), (1e4, 1e4), (100, 5), (4, 2)]
)
def test_matches_bisection_oracle(x, y):
    sp = saddle_alpha(x, y)
    assert sp.alpha == pytest.approx(_bisect_oracle(x, y), abs=1e-9)


def test_known_point_digits():
    # the asymptotic form 1 - log(u log u)/log y suggests ~0.74 here, but the
    # defining equation puts the root near 0.604; the oracle agrees
    sp = saddle_alpha(1e6, 100)
    assert sp.alpha == pytest.approx(0.60386, abs=5e-4)
    approx = 1 - math.log(sp.u * math.log(sp.u)) / math.log(100)
    assert abs(sp.alpha - approx) <= 5 / math.log(100)


@pytest.mark.parametrize("y", [5, 17, 120, 1000])
def test_x_equals_y_squared(y):
    sp = saddle_alpha(float(y) ** 2, float(y))
    assert 0 < sp.alpha < 1
    assert sp.residual <= 1e-9 * math.log(float(y) ** 2)


def test_residuals_small_on_grid():
    for x in (1e3, 1e5, 1e8, 1e12):
        for y in (2, 10, 100, 1000):
            if y > x:
                continue
            sp = saddle_alpha(x, y)
            assert sp.residual <= 1e-9 * math.log(x)


def test_alpha_in_declared_interval():
    for x, y in [(1e3, 10), (1e8, 100), (1e12, 30), (1e300, 50)]:
        sp = saddle_alpha(x, y)
        assert 0 < sp.alpha <= 2


def test_large_y_regime_asymptotic():
    # y > log x and u >= 3: alpha within 5/log y of 1 - log(u log u)/log y
    for x, y in [(1e3, 10), (1e4, 10), (1e5, 30), (1e6, 30), (1e9, 300)]:
        sp = saddle_alpha(x, y)
        assert sp.regime == "y>logx"
        if sp.u < 3:
            continue
        approx = 1 - math.log(sp.u * math.log(sp.u)) / math.log(y)
        assert abs(sp.alpha - approx) <= 5 / math.log(y)


def test_small_y_regime_scale():
    # y <= log x: alpha is positive, small, of order y / (u log^2 y)
    for x, y in [(1e30, 20), (1e60, 50), (1e100, 100)]:
        sp = saddle_alpha(x, y)
        assert sp.regime == "y<=logx"
        scale = y / (sp.u * math.log(y) ** 2)
        assert 0 < sp.alpha < 1
        assert 1 / 30 < sp.alpha / scale < 30


def test_coprime_restriction_changes_equation():
    full = saddle_alpha(1e5, 20)
    restricted = saddle_alpha(1e5, 20, q=6)
    assert restricted.alpha < full.alpha
    plist = [p for p in primes_upto(20) if 6 % p != 0]
    total = sum(math.log(p) / (p**restricted.alpha - 1) for p in plist)
    assert total == pytest.approx(math.log(1e5), abs=1e-8)


def test_derived_quantities():
    sp = saddle_alpha(1e6, 100, q=50)
    assert sp.u == pytest.approx(math.log(1e6) / math.log(100))
    assert sp.v == pytest.approx(math.log(1e6) / math.log(50))
    assert sp.w == pytest.approx(min(sp.v, 100))
    assert saddle_alpha(1e6, 100).v == math.inf
    assert saddle_alpha(1e6, 100).w == 100


def test_preconditions():
    with pytest.raises(ValueError):
        saddle_alpha(10.0, 1.5)
    with pytest.raises(ValueError):
        saddle_alpha(5.0, 10.0)
    with pytest.raises(NoConvergenceError):
        saddle_alpha(4.0, 2.0, q=2)  # no coprime primes below y


@pytest.mark.parametrize("q", [0, -3])
def test_nonpositive_modulus_refused(q):
    with pytest.raises(ValueError, match="modulus q must be >= 1"):
        saddle_alpha(10.0, 10.0, q=q)


def test_unit_modulus_drops_no_prime():
    assert saddle_alpha(10.0, 10.0, q=1) == saddle_alpha(10.0, 10.0)
