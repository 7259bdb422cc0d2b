"""Truncated Euler products, at a point and on a line grid."""

import math
import tracemalloc

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
from smoothlab.kernel import panel_grid
from smoothlab.lseries import _BLOCK, _guarded, _prime_table, euler_product_many
from smoothlab.primes import primes_upto
from smoothlab.saddle import saddle_alpha

ZERO = np.array([0.0])


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
        euler_product_many(1e-14, ZERO, principal_character(1), 3.0, ZERO)
    with pytest.raises(ValueError):
        euler_product(-1.0, principal_character(1), 3.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_product(complex(math.nan, 0.0), principal_character(1), 10.0),
        lambda: euler_product(complex(1.0, math.inf), principal_character(1), 10.0),
        lambda: euler_product_many(math.inf, ZERO, principal_character(1), 10.0, ZERO),
        lambda: euler_product_many(math.nan, ZERO, principal_character(1), 10.0, ZERO),
        lambda: euler_product_many(
            1.0, np.array([0.0, math.nan]), principal_character(1), 10.0, ZERO
        ),
        lambda: euler_product_many(1.0, np.array([-math.inf]), principal_character(1), 10.0, ZERO),
        lambda: euler_product_many(
            1.0, ZERO, principal_character(1), 10.0, np.array([0.0, math.nan])
        ),
        lambda: euler_product_many(1.0, ZERO, principal_character(1), 10.0, np.array([math.inf])),
        lambda: SmoothingKernel().mellin_many(math.inf, np.array([1.0])),
        lambda: SmoothingKernel().mellin_many(1.0, np.array([1.0, math.nan])),
        lambda: SmoothingKernel().mellin(complex(1.0, math.inf)),
        lambda: SmoothingKernel().mellin(complex(1.0, math.nan)),
        lambda: SmoothingKernel().mellin(math.inf),
        lambda: SmoothingKernel().mellin_many(1.0, np.add.outer([1.0], [0.0, math.inf])),
    ],
    ids=[
        "euler_product-nan-s", "euler_product-inf-t", "euler_product_many-inf-c",
        "euler_product_many-nan-c", "euler_product_many-nan-t", "euler_product_many-inf-t",
        "euler_product_many-nan-offset", "euler_product_many-inf-offset",
        "mellin_many-inf-c", "mellin_many-nan-t", "mellin-inf-t", "mellin-nan-t", "mellin-inf-s",
        "mellin_many-inf-offset",
    ],
)
def test_non_finite_s_rejected(call):
    with pytest.raises(ValueError, match="finite s"):
        call()


def _scalar_grid(c, ts, chi, y, offsets):
    return np.array(
        [[euler_product(c + 1j * (t + o), chi, y).value for o in offsets] for t in ts]
    )


def test_vectorized_line_values():
    chi = character_group(12)[3]
    ts = np.linspace(-8.0, 8.0, 41)
    offsets = np.array([-0.1, 0.0, 0.05])
    grid = euler_product_many(0.9, ts, chi, 40.0, offsets)
    assert grid.shape == (41, 3)
    assert np.max(np.abs(grid - _scalar_grid(0.9, ts, chi, 40.0, offsets))) < 1e-12


def _table_rows(chi, y):
    # as _prime_table caps its row exponentials: _BLOCK terms over the primes with chi(p) != 0
    n_primes = sum(1 for p in primes_upto(y) if chi(p) != 0)
    return max(1, _BLOCK // n_primes)


@pytest.mark.parametrize("q,index", [(5, 1), (12, 3), (1009, 17)])
@pytest.mark.parametrize("y", [100.0, 1000.0])
def test_grid_matches_scalar_across_blocks(q, index, y):
    chi = character_group(q)[index]
    offsets = np.array([-0.2, 0.0, 0.13])
    ts = np.linspace(-30.0, 30.0, _table_rows(chi, y) + 3)  # the table's rows and 3 past them
    grid = euler_product_many(0.7, ts, chi, y, offsets)
    want = _scalar_grid(0.7, ts, chi, y, offsets)
    assert np.all(np.abs(grid - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_near_pole_guard_in_a_later_block():
    # factor 1 - 2^-s at s = 1e-14 + 0i lies within 7e-15 of zero; at the
    # other nodes (t in [1, 2]) every factor is at least 0.6 from zero
    rows = _table_rows(principal_character(1), 3.0)
    ts = np.linspace(1.0, 2.0, 3 * rows)
    euler_product_many(1e-14, ts, principal_character(1), 3.0, ZERO)
    ts[2 * rows + 1] = 0.0
    with pytest.raises(NearPoleError):
        euler_product_many(1e-14, ts, principal_character(1), 3.0, ZERO)


def test_guard_bound_clears_near_the_pole():
    # at c = 1e-11 the bound 1 - 2^-c = 6.9e-12 clears POLE_GUARD, so the
    # factors are not scanned; the scalar product, which scans, agrees
    ts = np.array([-1e-3, 0.0, 1e-3])
    grid = euler_product_many(1e-11, ts, principal_character(1), 3.0, ZERO)
    want = _scalar_grid(1e-11, ts, principal_character(1), 3.0, ZERO)
    assert np.all(np.abs(grid - want) <= 1e-12 * np.abs(want))
    # a bound that clears the guard is trusted: no factor is looked at
    assert _guarded(np.array([1.0 + 0j]), max_modulus=0.5)[0] == 0
    with pytest.raises(NearPoleError):
        _guarded(np.array([1.0 + 0j]), max_modulus=1.0)


def _clongdouble_grid(c, ts, chi, y, offsets):
    """The product at c + i(ts[k] + offsets[j]), formed prime by prime in
    extended precision."""
    ps = np.array([p for p in primes_upto(y) if chi(p) != 0], dtype=np.longdouble)
    cs = np.array([chi(int(p)) for p in ps], dtype=np.clongdouble)
    t = np.add.outer(ts.astype(np.longdouble), offsets.astype(np.longdouble))
    s = np.longdouble(c) + 1j * t.astype(np.clongdouble)
    acc = np.ones(t.shape, dtype=np.clongdouble)
    for p, cp in zip(ps, cs):
        acc *= 1 - cp * np.exp(-s * np.log(p))
    return 1 / acc


@pytest.mark.parametrize("q,index", [(3, 1), (7, 1)])
def test_grid_matches_extended_precision_product(q, index):
    # the contour grid at x = 1e5, y = 1000, T = 160, at the saddle abscissa
    chi = character_group(q)[index]
    c = saddle_alpha(1e5, 1000.0).alpha
    mid, offsets = _contour_grid(160.0)
    got = euler_product_many(c, mid, chi, 1000.0, offsets)
    want = _clongdouble_grid(c, mid, chi, 1000.0, offsets)
    assert float(np.max(np.abs(got - want) / np.abs(want))) <= 1e-13


def _one_product_grid(c, ts, chi, y, offsets):
    """The grid as 1 / np.prod over the primes of the factors
    1 - chi(p) p^-c p^(-i t) p^(-i offset), formed row by row."""
    ps = np.array([p for p in primes_upto(y) if chi(p) != 0])
    log_p = np.log(ps)
    scale = chi.values(ps) * np.exp(-c * log_p)
    spin = np.exp(-1j * np.multiply.outer(log_p, offsets))
    rows = [np.prod(1.0 - (scale * np.exp(-1j * (log_p * t)))[:, None] * spin, axis=0) for t in ts]
    return 1.0 / np.array(rows)


@pytest.mark.parametrize("y", [100.0, 1e4])
def test_grid_keeps_the_bits_of_one_product_over_the_primes(y):
    # the contour grid at x = 1e5, T = 160: 588 rows, several accumulators of
    # rows; at y = 1e4 the table keeps 53 rows of 1228 primes and the other
    # rows are formed per call
    chi = character_group(3)[1]
    c = saddle_alpha(1e5, y).alpha
    mid, offsets = _contour_grid(160.0)
    table = _prime_table(3, y, mid, offsets)
    assert table[3].size <= _BLOCK
    assert table[3].shape[1] == (53 if y == 1e4 else mid.size)
    got = euler_product_many(c, mid, chi, y, offsets, table)
    assert np.array_equal(got, euler_product_many(c, mid, chi, y, offsets))
    assert np.array_equal(got, _one_product_grid(c, mid, chi, y, offsets))


def test_grid_of_empty_support_is_ones():
    ts = np.linspace(-5.0, 5.0, 41)
    grid = euler_product_many(0.7, ts, principal_character(2), 2.0, np.array([0.0, 0.3]))
    assert grid.shape == (41, 2)
    assert np.all(grid == 1)


def _contour_grid(T):
    # panel midpoints of [-T, T] at the contour's width for x = 1e5 and order-16
    # and order-8 offsets: ordinates of both signs, twice the contour's half grid
    n_panels = math.ceil(2 * T / (2 * math.pi / math.log(1e5)))
    _, mid, offsets, _ = panel_grid(-T, T, n_panels, (16, 8))
    return mid, offsets


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_flat_in_truncation_height():
    chi = character_group(3)[1]
    peaks = {}
    for T in (160.0, 640.0):
        mid, offsets = _contour_grid(T)
        euler_product_many(0.6, mid, chi, 1000.0, offsets)  # warm any caches
        peaks[T] = _peak_bytes(lambda: euler_product_many(0.6, mid, chi, 1000.0, offsets))
    assert peaks[640.0] <= 1.5 * peaks[160.0]
