"""Truncated Euler products, Chebyshev sums, deficit sums, range tags."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlab import (
    SmoothingKernel,
    character_group,
    chebyshev_weight,
    euler_product,
    log_L_variation,
    prime_deficit_sum,
    principal_character,
    range_partition,
    rodosskii2_sum,
    smoothed_chebyshev,
    smooth_values,
)
from smoothlab.errors import KRangeError, NearPoleError
from smoothlab.lseries import (
    WEIGHT_P_ALPHA,
    chebyshev_cutoff,
    euler_product_many,
)


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


# -- smoothed Chebyshev sums ------------------------------------------------------


def test_cutoff_limits():
    assert chebyshev_cutoff(10.0, 0.0, 7) == 10.0
    assert chebyshev_cutoff(10.0, 1e9, 7) == 2.0
    assert chebyshev_cutoff(2.0, 3.0, 5) == 2.0  # y^(1/y) < 2 for y >= 2


def test_weight_rows():
    assert chebyshev_weight(1, 10.0, 4.0) == 1.0
    assert chebyshev_weight(10, 10.0, 4.0) == 1.0
    assert chebyshev_weight(40, 10.0, 4.0) == 0.0
    mid = chebyshev_weight(20, 10.0, 4.0)
    assert mid == pytest.approx(1 - math.log(2.0) / math.log(4.0))


def test_forced_cutoff_two_direct_sum():
    # enormous k forces R = 2; the sum is then over prime powers <= 2y
    y = 10.0
    got = smoothed_chebyshev(2.0, principal_character(1), y, 1e9, 7)
    assert got.cutoff == 2.0
    want = 0.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        n = p
        while n <= 20:
            want += chebyshev_weight(n, y, 2.0) * math.log(p) / n**2
            n *= p
    assert got.value == pytest.approx(want, abs=1e-14)


def test_chebyshev_character_weights():
    chi = character_group(4)[1]
    got = smoothed_chebyshev(1.0, chi, 6.0, 0.0, 5)
    want = 0.0j
    cutoff = got.cutoff
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        n = p
        while n <= cutoff * 6.0:
            want += chebyshev_weight(n, 6.0, cutoff) * math.log(p) * chi(n) / n
            n *= p
    assert got.value == pytest.approx(want, abs=1e-12)


def test_chebyshev_preconditions():
    with pytest.raises(ValueError):
        smoothed_chebyshev(0.0, principal_character(1), 10.0, 0.0, 7)
    with pytest.raises(ValueError):
        smoothed_chebyshev(2.0, principal_character(1), 10.0, 0.0, 2)


# -- prime deficit sums -------------------------------------------------------------


def test_principal_at_t_zero_vanishes():
    assert prime_deficit_sum(principal_character(7), 0.0, 50.0) == 0.0


def test_real_character_hand_sum():
    chi3 = character_group(3)[1]
    got = prime_deficit_sum(chi3, 0.0, 25.0, lo=5.0)
    want = 2 * sum(math.log(p) / p for p in (5, 11, 17, 23))
    assert got == pytest.approx(want, abs=1e-14)


def test_cosine_identity_for_principal():
    t, y = 0.7, 60.0
    got = prime_deficit_sum(
        principal_character(1), t, y, weight=WEIGHT_P_ALPHA, alpha=1.0
    )
    want = sum(
        (1 - math.cos(t * math.log(p))) / p
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    )
    assert got == pytest.approx(want, abs=1e-13)


@given(
    t=st.floats(min_value=-20, max_value=20),
    y=st.floats(min_value=6, max_value=80),
    qi=st.integers(min_value=1, max_value=10),
)
def test_nonnegative_and_additive_over_ranges(t, y, qi):
    chars = character_group(qi)
    chi = chars[min(1, len(chars) - 1)]
    mid = max(2.0, y / 2)
    full = prime_deficit_sum(chi, t, y, lo=2.0)
    low = prime_deficit_sum(chi, t, mid, lo=2.0) if mid >= 2 else 0.0
    high = prime_deficit_sum(chi, t, y, lo=math.nextafter(mid, y))
    assert full >= -1e-15
    assert full == pytest.approx(low + high, abs=1e-10)


def test_order_restricted_sum_delegates():
    chi = character_group(5)[1]
    rep = rodosskii2_sum(chi, 0.4, 25.0, 2)
    assert rep.order_exceeds  # order 4 > 2
    assert rep.value == pytest.approx(
        prime_deficit_sum(chi, 0.4, 25.0, lo=5.0), abs=1e-15
    )
    assert rep.reference_line == pytest.approx(math.log(25.0) / 45.0)
    rep0 = rodosskii2_sum(principal_character(5), 0.0, 25.0, 2)
    assert not rep0.order_exceeds
    assert rep0.value == 0.0


# -- log-variation and range partition ----------------------------------------------


def test_log_variation_zero_at_equal_points():
    assert log_L_variation(principal_character(1), 3.0, 2.0, 2.0, 0.0) == 0.0


def test_log_variation_hand_value():
    got = log_L_variation(principal_character(1), 3.0, 2.0, 1.9, 0.0)
    want = abs(
        (-math.log(1 - 2.0**-1.9) - math.log(1 - 3.0**-1.9))
        - (-math.log(1 - 0.25) - math.log(1 - 1 / 9))
    )
    assert got == pytest.approx(want, abs=1e-14)


def test_log_variation_mean_value_bound():
    chi = character_group(7)[1]
    y, alpha, sigma, t = 40.0, 1.2, 0.9, 1.3
    got = log_L_variation(chi, y, alpha, sigma, t)
    grid = np.linspace(sigma, alpha, 64)
    sup = max(abs(euler_product(s + 1j * t, chi, y).log_deriv) for s in grid)
    assert got <= (alpha - sigma) * sup * (1 + 1e-6)


def test_range_partition_rules():
    assert range_partition(0.0, 9.0, 100, 1.0, 1.0) == "problem"
    assert range_partition(3.0, 9.0, 10**6, 1.0, 1.0) == "basic"  # tie at sqrt(u)
    assert range_partition(2.0, 25.0, 10**6, 1.0, 1.0) == "rodosskii"
    # tie at the lower cut goes up as well
    low_cut = 4 * 1.0 * math.log(1.0) + 1.0
    assert range_partition(low_cut, 25.0, 10**6, 1.0, 1.0) == "rodosskii"
    with pytest.raises(KRangeError):
        range_partition(10.0, 9.0, 100, 1.0, 1.0)
