"""Truncated Euler products, at a point and along a vertical line."""

import math

import numpy as np
import pytest

from smoothlab import (
    SmoothingKernel,
    character_group,
    euler_product,
    principal_character,
    smooth_values,
)
from smoothlab.errors import NearPoleError
from smoothlab.lseries import euler_product_many


def test_trivial_products():
    got = euler_product(2.0, principal_character(1), 3.0)
    assert got.value == pytest.approx(1.5, abs=1e-14)
    got2 = euler_product(2.0, principal_character(2), 3.0)
    assert got2.value == pytest.approx(9 / 8, abs=1e-14)


def test_empty_product():
    got = euler_product(2.0, principal_character(2), 2.0)
    assert got.value == 1
    assert got.log_value == 0
    assert got.log_deriv == 0


@pytest.mark.parametrize("sigma", [1.5, 2.0])
@pytest.mark.parametrize("q,index", [(1, 0), (4, 1), (5, 1)])
def test_matches_smooth_dirichlet_series(sigma, q, index):
    y = 10.0
    chi = character_group(q)[index]
    got = euler_product(sigma, chi, y).value
    n_cut = 100_000
    partial = sum(chi(n) * n ** (-sigma) for n in smooth_values(n_cut, y))
    tail = n_cut ** (1 - sigma) / (sigma - 1) + n_cut ** (-sigma)
    assert abs(got - partial) <= tail


def test_log_is_consistent_with_value():
    chi = character_group(7)[2]
    for s in (0.8, 1.3 + 2.2j, 2.0 - 5.0j):
        got = euler_product(s, chi, 50.0)
        assert abs(np.exp(got.log_value) - got.value) <= 1e-10 * abs(got.value)


def test_log_deriv_matches_finite_differences():
    chi = character_group(5)[1]
    s = 1.1 + 0.7j
    got = euler_product(s, chi, 30.0)
    errs = []
    for h in (1e-4, 5e-5):
        fd = (
            euler_product(s + h, chi, 30.0).log_value
            - euler_product(s - h, chi, 30.0).log_value
        ) / (2 * h)
        errs.append(abs(fd - got.log_deriv))
    assert errs[0] < 1e-6
    assert errs[1] < 0.3 * errs[0]  # O(h^2) scaling under halving


def test_near_pole_guard():
    with pytest.raises(NearPoleError):
        # the p=2 factor of the full product vanishes at s = 2*pi*i/log 2 + 0;
        # move along Re(s) -> 0 instead: at s ~ 0+ the factor 1 - 2^-s -> 0
        euler_product(1e-14, principal_character(1), 3.0)
    with pytest.raises(NearPoleError):
        euler_product_many(1e-14, np.array([0.0]), principal_character(1), 3.0)
    with pytest.raises(ValueError):
        euler_product(-1.0, principal_character(1), 3.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_product(complex(math.nan, 0.0), principal_character(1), 10.0),
        lambda: euler_product(complex(1.0, math.inf), principal_character(1), 10.0),
        lambda: euler_product_many(math.inf, np.array([0.0]), principal_character(1), 10.0),
        lambda: euler_product_many(math.nan, np.array([0.0]), principal_character(1), 10.0),
        lambda: euler_product_many(1.0, np.array([0.0, math.nan]), principal_character(1), 10.0),
        lambda: euler_product_many(1.0, np.array([-math.inf]), principal_character(1), 10.0),
        lambda: SmoothingKernel().mellin_many(math.inf, np.array([1.0])),
        lambda: SmoothingKernel().mellin_many(1.0, np.array([1.0, math.nan])),
        lambda: SmoothingKernel().mellin(complex(1.0, math.inf)),
        lambda: SmoothingKernel().mellin(complex(1.0, math.nan)),
        lambda: SmoothingKernel().mellin(math.inf),
    ],
    ids=[
        "euler_product-nan-s", "euler_product-inf-t", "euler_product_many-inf-c",
        "euler_product_many-nan-c", "euler_product_many-nan-t", "euler_product_many-inf-t",
        "mellin_many-inf-c", "mellin_many-nan-t", "mellin-inf-t", "mellin-nan-t", "mellin-inf-s",
    ],
)
def test_non_finite_s_rejected(call):
    with pytest.raises(ValueError, match="finite s"):
        call()


def test_vectorized_line_values():
    chi = character_group(12)[3]
    ts = np.linspace(-8.0, 8.0, 41)
    vec = euler_product_many(0.9, ts, chi, 40.0)
    sca = np.array([euler_product(0.9 + 1j * t, chi, 40.0).value for t in ts])
    assert np.max(np.abs(vec - sca)) < 1e-12

