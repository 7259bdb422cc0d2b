"""Cutoff kernel: support, smoothness, and Mellin transform."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from smoothlab import SmoothingKernel
from smoothlab.kernel import _STEP_COEFFS, MAX_PANELS, _pochhammer_coeffs, panel_grid

KERNEL = SmoothingKernel()
NARROW = SmoothingKernel(lo=0.9, hi=1.0)


def test_plateau_and_support():
    assert KERNEL.phi(0.0) == 1.0
    assert KERNEL.phi(0.3) == 1.0
    assert KERNEL.phi(0.5) == 1.0
    assert KERNEL.phi(2.0) == 0.0
    assert KERNEL.phi(2.5) == 0.0
    assert KERNEL.phi(float("inf")) == 0.0


def test_midpoint_is_exactly_half():
    # (hi - 1.25) / (hi - lo) = 1/2 and the smoothstep is symmetric there
    assert KERNEL.phi_exact(Fraction(5, 4)) == Fraction(1, 2)
    assert KERNEL.phi(1.25) == pytest.approx(0.5, abs=1e-13)


def test_symmetry_of_transition():
    mid = Fraction(5, 4)
    for d in (Fraction(1, 10), Fraction(1, 3), Fraction(7, 10)):
        assert KERNEL.phi_exact(mid - d) + KERNEL.phi_exact(mid + d) == 1


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_values_stay_in_unit_interval(t):
    v = KERNEL.phi(t)
    assert 0.0 <= v <= 1.0


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        KERNEL.phi(-0.1)


def _central_difference(kernel, t0: Fraction, k: int, h: Fraction) -> Fraction:
    total = Fraction(0)
    for j in range(k + 1):
        node = t0 + (Fraction(k, 2) - j) * h
        total += (-1) ** j * math.comb(k, j) * kernel.phi_exact(node)
    return total / h**k


@pytest.mark.parametrize("t0", [Fraction(1, 2), Fraction(2)])
def test_nine_derivatives_vanish_at_junctions(t0):
    # Exact rational finite differences of orders 1..9 shrink as the step
    # does; each order gains at least one decade between h=1e-2 and h=1e-3.
    for k in range(1, 10):
        coarse = abs(_central_difference(KERNEL, t0, k, Fraction(1, 100)))
        fine = abs(_central_difference(KERNEL, t0, k, Fraction(1, 1000)))
        assert fine <= coarse / 5


def _simpson_mellin(kernel, s: complex, n: int = 40001) -> complex:
    """Independent transition quadrature plus the exact plateau piece."""
    ts = np.linspace(kernel.lo, kernel.hi, n)
    vals = kernel.phi_many(ts) * ts ** (s - 1)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (kernel.hi - kernel.lo) / (n - 1)
    return kernel.lo**s / s + complex(np.sum(weights * vals) * h / 3.0)


def test_mellin_at_one_decomposes():
    # plateau contributes exactly 1/2; the transition integral is 3/4 by symmetry
    got = KERNEL.mellin(1.0)
    assert got.imag == 0
    assert 0.5 <= got.real <= 2.0
    assert got.real == pytest.approx(1.25, abs=1e-12)


@pytest.mark.parametrize("s", [0.37, 1.0, 2.0, 0.8 + 3.0j, 1.2 + 17.5j, 0.5 + 60.0j])
def test_mellin_matches_independent_quadrature(s):
    assert KERNEL.mellin(s) == pytest.approx(_simpson_mellin(KERNEL, complex(s)), abs=5e-9)


def _mpmath_mellin(kernel, s: complex) -> complex:
    """30-digit reference: exact plateau piece plus tanh-sinh quadrature of the
    exact integer-coefficient smoothstep over panels of equal width in log t,
    at least 32 of them and each at most half a period of t^(i Im s)."""
    with mpmath.workdps(30):
        lo, hi, s = mpmath.mpf(kernel.lo), mpmath.mpf(kernel.hi), mpmath.mpc(s)

        def integrand(t):
            u = (hi - t) / (hi - lo)
            return u**10 * mpmath.polyval(_STEP_COEFFS[::-1], u) * t ** (s - 1)

        n = max(32, math.ceil(abs(s.imag) * math.log(kernel.hi / kernel.lo) / math.pi))
        edges = [lo * (hi / lo) ** (mpmath.mpf(k) / n) for k in range(n + 1)]
        return complex(lo**s / s + mpmath.quad(integrand, edges))


def test_mellin_many_matches_mpmath_quadrature():
    ts = np.array([0.0, 0.9, 12.0, 101.4])
    got = KERNEL.mellin_many(0.7, ts)
    want = np.array([_mpmath_mellin(KERNEL, complex(0.7, t)) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("c", [0.02, 0.3, 0.7, 1.5])
def test_mellin_many_matches_mpmath_quadrature_high_ordinates(c):
    ts = np.array([-160.0, 400.0])
    got = KERNEL.mellin_many(c, ts)
    want = np.array([_mpmath_mellin_far(KERNEL, complex(c, t)) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("kernel", [KERNEL, SmoothingKernel(lo=0.9, hi=1.0)])
def test_mellin_many_batch_matches_scalar(kernel):
    # the batch's ordinates below H share one panel count, each scalar call takes its own |t|'s
    ts = np.concatenate([np.linspace(-6.0, 6.0, 40), np.geomspace(6.5, 400.0, 60)])
    got = kernel.mellin_many(0.9, ts)
    assert got.shape == (100,)
    want = np.array([kernel.mellin(complex(0.9, t)) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-13
    # a two-axis array of ordinates keeps its shape and equals the flat nodes
    rows, offsets = np.linspace(-399.0, 399.0, 25), np.array([-1.0, 0.0, 0.25, 1.0])
    grid = kernel.mellin_many(0.9, np.add.outer(rows, offsets))
    assert grid.shape == (25, 4)
    flat = kernel.mellin_many(0.9, np.add.outer(rows, offsets).ravel())
    assert np.max(np.abs(grid.ravel() - flat)) <= 1e-14
    assert kernel.mellin_many(0.9, np.zeros((25, 0))).shape == (25, 0)
    assert kernel.mellin_many(0.9, np.zeros((0, 4))).shape == (0, 4)
    # an ordinate far above H takes the closed form by itself and leaves the
    # panel count of the one below H alone: both equal their scalar values
    pair = kernel.mellin_many(1.0, np.array([0.0, 1e6]))
    assert np.array_equal(pair, [kernel.mellin(1.0), kernel.mellin(1 + 1e6j)])


def _contour_grid(T):
    # panel midpoints of [-T, T] at the contour's width for x = 1e5 and order-16
    # and order-8 offsets: ordinates of both signs, twice the contour's half grid
    n_panels = math.ceil(2 * T / (2 * math.pi / math.log(1e5)))
    _, mid, offsets, _ = panel_grid(-T, T, n_panels, (16, 8))
    return mid, offsets


@pytest.mark.parametrize("T", [40.0, 160.0, 640.0])
def test_mellin_grid_matches_scalar(T):
    mid, offsets = _contour_grid(T)
    grid = KERNEL.mellin_many(0.66, np.add.outer(mid, offsets))
    assert grid.shape == (mid.size, offsets.size)
    rng = np.random.default_rng(13)
    rows, cols = rng.integers(0, mid.size, 40), rng.integers(0, offsets.size, 40)
    want = [KERNEL.mellin(complex(0.66, mid[k] + offsets[j])) for k, j in zip(rows, cols)]
    assert np.max(np.abs(grid[rows, cols] - want)) <= 1e-14


def _single_axis(kernel, c, ts):
    """Flat-node values by the one-axis engine: e^(vs) = e^(s mid_p) e^(s half xi_i)."""
    s = c + 1j * ts
    n = kernel._base_panels(np.max(np.abs(ts)))
    _, mid, xi, wi = panel_grid(math.log(kernel.lo), math.log(kernel.hi), n, (24,))
    coeff = wi[:, None] * kernel.phi_many(np.exp(mid[None, :] + xi[:, None]))
    inner = np.exp(np.outer(s, xi)) @ coeff
    return np.exp(s * math.log(kernel.lo)) / s + np.sum(np.exp(np.outer(s, mid)) * inner, axis=1)


def _height(kernel):
    """The |t| from which mellin_many takes the closed form."""
    return _pochhammer_coeffs(kernel.lo, kernel.hi)[2]


@pytest.mark.parametrize("c", [0.3, 0.9, 1.5])
def test_flat_offsets_match_single_axis_engine(c):
    # 3040 ordinates up to |t| = 400 span several blocks; the ordinates below
    # H are integrated on the panels of their own largest |t|, the ordinates
    # above it take the closed form
    ts = np.concatenate([np.linspace(-6.0, 6.0, 40), np.geomspace(6.5, 400.0, 3000)])
    got = KERNEL.mellin_many(c, ts)
    below = np.abs(ts) < _height(KERNEL)
    assert 0 < np.count_nonzero(below) < ts.size
    assert np.max(np.abs(got[below] - _single_axis(KERNEL, c, ts[below]))) <= 1e-15
    # the lowest ordinate above H and the one nearest t = 301
    first, high = np.flatnonzero(~below)[0], np.argmin(np.abs(ts - 301.0))
    assert abs(got[first] - _mpmath_mellin(KERNEL, complex(c, ts[first]))) <= 1e-15
    assert abs(got[high] - _mpmath_mellin_far(KERNEL, complex(c, ts[high]))) <= 1e-15


def _mpmath_mellin_far(kernel, s: complex, dps: int = 30) -> complex:
    """dps-digit reference for |Im s| >= 2 dps hi / (hi - lo) (80 for the
    default kernel and 600 for lo = 0.9, hi = 1 at 30 digits), where
    _mpmath_mellin's panel count grows with |Im s|.  By Cauchy's theorem the
    transition integral over [lo, hi] equals the integrals over the arcs
    r e^(i phi), phi from 0 to theta = 4 dps / Im s, at r = lo (forward) and
    r = hi (backward), plus the ray at angle theta between them.  On the
    arcs t^s = r^s e^(i s phi) decays like e^(-|Im s| phi).  On the ray
    |t^(s-1)| = r^(c-1) e^(-4 dps) and, for |Im s| as above,
    |u| <= 1 + hi |theta| / (hi - lo) <= 3, so with sum |c_k| = 3.3e7 the
    ray is below 10^(18 - 1.7 dps) for c <= 4 and is dropped.  The plateau
    lo^s / s and the arcs cancel to M(s), so the error is about
    10^-dps |lo^s / s| besides."""
    with mpmath.workdps(dps):
        lo, hi, s = mpmath.mpf(kernel.lo), mpmath.mpf(kernel.hi), mpmath.mpc(s)
        theta = 4 * dps / s.imag

        def arc(r):
            def integrand(phi):
                u = (hi - r * mpmath.expj(phi)) / (hi - lo)
                smooth = u**10 * mpmath.polyval(_STEP_COEFFS[::-1], u)
                return 1j * smooth * mpmath.exp(s * (mpmath.log(r) + 1j * phi))

            return mpmath.quad(integrand, [0, theta / 8, theta])

        return complex(lo**s / s + arc(lo) - arc(hi))


def test_far_reference_matches_mpmath_quadrature():
    for kernel, t in ((NARROW, 1000.0), (NARROW, -1000.0), (KERNEL, 400.0)):
        s = complex(0.7, t)
        assert abs(_mpmath_mellin_far(kernel, s) - _mpmath_mellin(kernel, s)) <= 1e-25


@pytest.mark.parametrize("kernel", [KERNEL, NARROW])
@pytest.mark.parametrize("c", [0.02, 0.3, 1.5, 4.0])
def test_closed_form_matches_mpmath(kernel, c):
    height = _height(kernel)
    near = np.array([1.001, 1.2, 2.0]) * height
    far = np.array([1e3, 5e3])
    ts = np.concatenate([near, -far])
    got = kernel.mellin_many(c, ts)
    want = [_mpmath_mellin(kernel, complex(c, t)) for t in near]
    want += [_mpmath_mellin_far(kernel, complex(c, t)) for t in -far]
    assert np.max(np.abs(got - want)) <= 1e-16 * kernel.hi**c


@pytest.mark.parametrize("kernel", [KERNEL, NARROW])
def test_grid_straddling_the_closed_form_height_matches_scalar(kernel):
    height = _height(kernel)
    rows = np.concatenate(
        [np.linspace(-height - 2, -height + 2, 9), np.linspace(height - 2, height + 2, 9)]
    )
    offsets = np.array([-0.5, -0.1, 0.0, 0.3, 0.5])
    ordinates = np.add.outer(rows, offsets)
    grid = kernel.mellin_many(0.8, ordinates)
    # some rows lie wholly above H, some wholly below, some across it
    reach = np.abs(ordinates) >= height
    assert reach.all(axis=1).any() and (~reach).all(axis=1).any()
    assert (reach.any(axis=1) & ~reach.all(axis=1)).any()
    want = np.vectorize(lambda t: kernel.mellin(complex(0.8, t)))(ordinates)
    assert np.max(np.abs(grid - want)) <= 1e-15


def test_phase_grid_memory_flat_in_truncation_height():
    # the (panel, offset) grid itself grows with T; the memory beyond it and
    # its ordinates, which are built before tracing, must not.  T = 2560
    # (16 times the grid of T = 160) shows a routing temporary of the size
    # of the grid, which T = 640 alone would hide under the 1.5 bound
    working = {}
    for T in (160.0, 640.0, 2560.0):
        ts = np.add.outer(*_contour_grid(T))
        KERNEL.mellin_many(0.6, ts)  # warm any caches
        tracemalloc.start()
        try:
            grid = KERNEL.mellin_many(0.6, ts)
            working[T] = tracemalloc.get_traced_memory()[1] - grid.nbytes
        finally:
            tracemalloc.stop()
    assert max(working[640.0], working[2560.0]) <= 1.5 * working[160.0]


def test_mellin_domain_error(recwarn):
    with pytest.raises(ValueError):
        KERNEL.mellin(0.0)
    with pytest.raises(ValueError):
        KERNEL.mellin(-1.0 + 2.0j)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            KERNEL.mellin_many(c, np.array([1.0]))
    # hi^c D passes the float range: refused before any value is formed
    for s in (1100 + 30j, 1100.0, 980 + 30j):
        with pytest.raises(ValueError, match="abscissa c=.* too large for the kernel"):
            KERNEL.mellin(s)
    with pytest.raises(ValueError, match="too large for the kernel"):
        KERNEL.mellin_tail(1200.0, 10.0)
    # just inside the limit the closed form and the quadrature stay finite
    limit = (math.log(np.finfo(float).max) - math.log(KERNEL.decay_constant())) / math.log(2.0)
    limit *= 1 - 1e-12
    assert np.isfinite(KERNEL.mellin_many(limit, np.array([0.0, 30.0, 1e4]))).all()
    assert math.isfinite(KERNEL.mellin_tail(limit, 1.0))
    assert not recwarn.list


@pytest.mark.filterwarnings("error")
def test_quadrature_abscissa_past_gauss_factor_range_refused():
    # hi = 1 bounds hi^c, but the quadrature's Gauss factor e^(c xi) passes
    # the float range once c times the half-panel (0.00878 here) exceeds 709.8
    with pytest.raises(ValueError, match="abscissa c=100000 too large for the kernel quadrature"):
        NARROW.mellin(1e5 + 30j)
    got = NARROW.mellin(8e4 + 30j)
    assert got == pytest.approx(1.3445870892482707e-33 - 8.618431799897109e-36j, rel=1e-12)


def test_mellin_lower_bound_on_unit_interval():
    for c in np.linspace(0.02, 1.0, 50):
        assert KERNEL.mellin(float(c)).real >= 1.0 / (2.0 * c)


def test_decay_product_stable_under_refinement():
    sups = []
    for n_sigma, n_t in ((6, 80), (12, 160)):
        best = 0.0
        for sigma in np.linspace(0.5, 1.5, n_sigma):
            ts = np.geomspace(1.0, 100.0, n_t)
            vals = KERNEL.mellin_many(float(sigma), ts)
            mod_s = np.hypot(sigma, ts)
            best = max(best, float(np.max(np.abs(vals) * mod_s * (mod_s + 1) ** 8)))
        sups.append(best)
    assert max(sups) / min(sups) < 2.0
    # the proved decay constant bounds the refined sample wherever it holds
    ts = np.geomspace(1.0, 100.0, 160)
    ts = ts[ts >= _height(KERNEL)]
    for sigma in np.linspace(0.5, 1.5, 12):
        vals = KERNEL.mellin_many(float(sigma), ts)
        assert np.all(np.abs(vals) <= KERNEL.hi**sigma * KERNEL.decay_constant() * ts**-11.0)


def test_decay_product_falls_far_up_the_line():
    # |M(s)| |s| (|s| + 1)^8 falls like |t|^-2 once the |t|^-11 decay of the
    # transform shows; a rounding floor of fixed size would make it grow
    ts = np.array([100.0, 200.0, 300.0, 400.0])
    vals = KERNEL.mellin_many(0.1, ts)
    mod_s = np.hypot(0.1, ts)
    prod = np.abs(vals) * mod_s * (mod_s + 1.0) ** 8
    assert np.all(np.diff(prod) < 0)


@pytest.mark.parametrize("kernel", [KERNEL, NARROW])
@pytest.mark.parametrize("c", [0.05, 0.85, 1.5, 5.0, 12.0])
def test_mellin_tail_bounds_dense_integral(kernel, c):
    # (1/pi) int_T^U |M(c + it)| dt by the trapezoid rule on 4e5 geometric
    # nodes, U = 2e4: past U the integral is below 1e-12 of the T = 640 one
    heights = [1.0, 10.0, _height(kernel), 40.0, 160.0, 640.0]
    ts = np.unique(np.concatenate([np.geomspace(1.0, 2e4, 400_000), heights]))
    mod = np.abs(kernel.mellin_many(c, ts))
    tail = np.concatenate([np.cumsum((0.5 * np.diff(ts) * (mod[1:] + mod[:-1]))[::-1])[::-1], [0]])
    for T in heights:
        dense = tail[np.searchsorted(ts, T)] / math.pi
        assert dense > 0
        assert kernel.mellin_tail(c, T) >= dense


@pytest.mark.parametrize("kernel", [KERNEL, NARROW])
def test_decay_constant_bounds_transform_above_height(kernel):
    height = _height(kernel)
    ts = np.geomspace(height, 1e4, 2000)
    for c in (0.05, 1.5, 12.0):
        for sign in (1.0, -1.0):
            vals = kernel.mellin_many(c, sign * ts)
            assert np.all(np.abs(vals) <= kernel.hi**c * kernel.decay_constant() * ts**-11.0)


def test_mellin_tail_far_and_refused():
    assert KERNEL.mellin_tail(1.0, 1e300) == 0.0
    assert KERNEL.mellin_tail(1.0, 1.7e308) == 0.0
    for T in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tail height T must be finite and positive"):
            KERNEL.mellin_tail(1.0, T)


def test_rescaled_kernel_for_unsmoothing_family():
    k = SmoothingKernel(lo=0.9, hi=1.0)
    assert k.phi(0.9) == 1.0
    assert k.phi(1.0) == 0.0
    assert 0.0 < k.phi(0.95) < 1.0
    with pytest.raises(ValueError):
        SmoothingKernel(lo=1.0, hi=0.5)


@pytest.mark.parametrize(
    "lo, hi", [(0.5, math.inf), (0.5, math.nan), (0.0, 2.0), (math.inf, math.inf)]
)
def test_kernel_needs_finite_ordered_positive_bounds(lo, hi):
    # an infinite hi has no finite Mellin coefficients, so it is refused up front
    with pytest.raises(ValueError, match="need 0 < lo < hi < inf"):
        SmoothingKernel(lo, hi)


# -- composite rule layout ------------------------------------------------------


def test_panel_grid_layout():
    edges, mid, offsets, weights = panel_grid(-2.0, 3.0, 7, (16, 8))
    assert np.array_equal(edges, np.linspace(-2.0, 3.0, 8))
    assert np.array_equal(mid, 0.5 * (edges[:-1] + edges[1:]))
    half = 0.5 * (edges[1] - edges[0])
    (x16, w16), (x8, w8) = leggauss(16), leggauss(8)
    assert np.array_equal(offsets, np.concatenate([half * x16, half * x8]))
    assert np.array_equal(weights, np.concatenate([half * w16, half * w8]))
    # each rule, as flat nodes, integrates x^5 over [-2, 3] exactly
    for cols in (slice(0, 16), slice(16, 24)):
        nodes = np.add.outer(mid, offsets[cols]).ravel()
        assert np.sum(np.tile(weights[cols], 7) * nodes**5) == pytest.approx(665 / 6, rel=1e-14)


@pytest.mark.parametrize("n_panels", [0, MAX_PANELS + 1, 10**12])
def test_panel_count_outside_cap_rejected(n_panels):
    with pytest.raises(ValueError, match=f"panel count {n_panels} outside \\[1, {MAX_PANELS}\\]"):
        panel_grid(0.0, 1.0, n_panels, (16,))


def test_mellin_far_up_the_line_answered():
    assert panel_grid(0.0, 1.0, MAX_PANELS, (2,))[1].size == MAX_PANELS
    # about -1.06e-119 - 5.46e-120i, where lo^s / s is 5e-13: 150 digits
    # leave the reference good to 1e-160; the float phase t log 2 to 1e-4
    got = KERNEL.mellin(1 + 1e12j)
    assert got == pytest.approx(_mpmath_mellin_far(KERNEL, 1 + 1e12j, dps=150), rel=1e-3, abs=0)


def test_mellin_ordinates_near_the_float_range(recwarn):
    # the phase t log hi overflows although t does not
    with pytest.raises(ValueError, match="overflow a float"):
        SmoothingKernel(lo=0.5, hi=10.0).mellin(1 + 1e308j)
    # finite ordinates far up the line underflow towards 0, silently
    for t in (1e30, -1e30, 1e300, 1.7e308):
        assert np.isfinite(KERNEL.mellin(complex(1.0, t)))
    assert KERNEL.mellin(1 + 1e300j) == 0
    assert not recwarn.list
