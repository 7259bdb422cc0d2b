"""Contour reconstruction against the enumeration oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from smoothlab import (
    ContourSpec,
    SmoothCountQuery,
    SmoothingKernel,
    character_group,
    contour_psi,
    count_smooth_weighted,
    main_term_ratio,
    oscillating_integral,
    principal_character,
    truncation_bound,
)
from smoothlab import contour
from smoothlab.contour import _cell
from smoothlab.kernel import MAX_PANELS, _pochhammer_coeffs, panel_grid
from smoothlab.lseries import _BLOCK, _prime_table, euler_product, euler_product_many
from smoothlab.primes import primes_upto
from smoothlab.saddle import saddle_alpha

KERNEL = SmoothingKernel()


def _direct(x, chi, y):
    return count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=chi.modulus), KERNEL, chi=chi).value


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: SmoothCountQuery(x=v, y=10.0),
        lambda v: SmoothCountQuery(x=100.0, y=v),
        lambda v: ContourSpec(T=v),
        lambda v: ContourSpec(T=10.0, c=v),
        lambda v: saddle_alpha(v, 10.0),
        lambda v: saddle_alpha(100.0, v),
        lambda v: contour_psi(v, principal_character(1), 10.0, KERNEL, ContourSpec(T=10.0, c=0.5)),
        lambda v: contour_psi(100.0, principal_character(1), v, KERNEL, ContourSpec(T=10.0, c=0.5)),
        lambda v: oscillating_integral(0.0, 1.0, v, 1.0, KERNEL),
        lambda v: oscillating_integral(0.0, v, 100.0, 1.0, KERNEL),
        lambda v: truncation_bound(0.7, v, 1.0, 1e4, KERNEL),
    ],
    ids=[
        "query_x", "query_y", "spec_T", "spec_c", "saddle_x", "saddle_y",
        "contour_x", "contour_y", "oscillating_x", "oscillating_t1", "truncation_T",
    ],
)
def test_non_finite_inputs_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "x,y,message",
    [
        (0.0, 10.0, "threshold x must be finite and >= 1"),
        (-5.0, 10.0, "threshold x must be finite and >= 1"),
        (0.5, 10.0, "threshold x must be finite and >= 1"),
        (100.0, 1.5, "smoothness bound y must be finite and >= 2"),
    ],
)
def test_contour_range_checked_with_explicit_abscissa(x, y, message):
    with pytest.raises(ValueError, match=message):
        contour_psi(x, principal_character(1), y, KERNEL, ContourSpec(T=10.0, c=0.5))


def _panel_count(x, T):
    """The panels of [0, T] that contour_psi uses: each at most min(1, 2pi/log x) wide."""
    return max(4, math.ceil(T / min(1.0, 2 * math.pi / math.log(x))))


def _node_by_node(x, chi, y, c, T, order, n_panels):
    """The contour sum of one rule on n_panels panels of [0, T] and their
    mirrors in [-T, 0], with the Euler product formed at each node."""
    _, mid, offsets, weights = panel_grid(0.0, T, n_panels, (order,))
    half = np.add.outer(mid, offsets).ravel()
    nodes, weights = np.concatenate([half, -half]), np.tile(weights, 2 * n_panels)
    ps = np.array([p for p in primes_upto(y) if chi(p) != 0], dtype=float)
    cs = np.array([chi(int(p)) for p in ps])
    s = c + 1j * nodes
    lvals = np.prod(1.0 / (1.0 - cs * np.exp(-np.outer(s, np.log(ps)))), axis=1)
    integrand = weights * lvals * x**s * KERNEL.mellin_many(c, nodes)
    return complex(np.sum(integrand) / (2 * math.pi))


@pytest.mark.parametrize("x,y,q", [(1e3, 10.0, 3), (1e4, 30.0, 7), (1e5, 100.0, 12)])
def test_matches_node_by_node_products(x, y, q):
    # the half grid is the panels of [0, T], an odd count (x = 1e4: 235) or
    # an even one (x = 1e3: 176), each mirrored into [-T, 0] by conjugation
    n_panels = _panel_count(x, 160.0)
    assert n_panels == {1e3: 176, 1e4: 235, 1e5: 294}[x]
    assert len(_cell(KERNEL, x, y, q, ContourSpec(T=160.0))[1]) == n_panels
    c = saddle_alpha(x, y).alpha
    for chi in character_group(q):
        got = contour_psi(x, chi, y, KERNEL, ContourSpec(T=160.0))
        fine = _node_by_node(x, chi, y, c, 160.0, 16, n_panels)
        coarse = _node_by_node(x, chi, y, c, 160.0, 8, n_panels)
        tol = 1e-12 * max(1.0, abs(fine))
        assert abs(got.value - fine) <= tol
        assert abs(got.quadrature_error_estimate - abs(fine - coarse)) <= tol


@pytest.mark.parametrize("T", [0.5, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [lambda T: ContourSpec(T=T), lambda T: truncation_bound(0.7, T, 1.0, 1e4, KERNEL)],
    ids=["spec", "truncation_bound"],
)
def test_one_truncation_height_rule(call, T):
    with pytest.raises(ValueError, match="^truncation height T must be finite and >= 1$"):
        call(T)


def test_truncation_height_below_one_rejected():
    # truncation_bound needs T >= 1, so the spec refuses a smaller T before any quadrature
    with pytest.raises(ValueError, match="T must be finite and >= 1"):
        ContourSpec(T=0.9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: contour_psi(1e5, character_group(5)[1], 10.0, KERNEL, ContourSpec(T=1e12)),
        lambda: oscillating_integral(0.0, 1e12, 1e5, 1.0, KERNEL),
    ],
    ids=["contour_height", "oscillating_integral"],
)
def test_panel_count_rejected_before_any_array(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"panel count .* outside \\[1, {MAX_PANELS}\\]"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_abscissa_past_float_range_rejected():
    chi = character_group(5)[1]
    with pytest.raises(ValueError, match="abscissa c=70 too large for x=100000"):
        contour_psi(1e5, chi, 10.0, KERNEL, ContourSpec(T=10.0, c=70.0))
    with pytest.raises(ValueError, match="abscissa c=70 too large for x=100000"):
        truncation_bound(70.0, 10.0, 1.0, 1e5, KERNEL)
    # 1e5^61 = 1e305 is still a float, but (1e5 hi)^61 = 2.3e323 is not
    message = "abscissa c=61 too large for x=100000 and hi=2: x\\^c hi\\^c overflows a float"
    with pytest.raises(ValueError, match=message):
        truncation_bound(61.0, 10.0, 1.0, 1e5, KERNEL)


def test_one_cell_entry_per_cell(monkeypatch):
    calls = {"saddle_alpha": 0, "euler_product": 0}

    def counted(name):
        func = getattr(contour, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(contour, name, wrapper)

    counted("saddle_alpha")
    counted("euler_product")
    _cell.cache_clear()
    spec = ContourSpec(T=40.0)
    for q in (7, 5):
        results = [contour_psi(3e3, chi, 20.0, KERNEL, spec) for chi in character_group(q)]
        # the tail bound is the cell's, bit for bit what truncation_bound gives
        c = saddle_alpha(3e3, 20.0).alpha
        chi0_value = euler_product(c, principal_character(q), 20.0).value.real
        assert {res.tail_bound for res in results} == {
            truncation_bound(c, 40.0, chi0_value, 3e3, KERNEL)
        }
    info = _cell.cache_info()
    assert (info.misses, info.hits) == (2, 5 + 3)
    assert calls == {"saddle_alpha": 2, "euler_product": 2}
    _, mid, offsets, phase, _, table, _ = _cell(KERNEL, 3e3, 20.0, 5, spec)
    assert not any(arr.flags.writeable for arr in (mid, offsets, phase, *table))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_one_euler_grid_per_character_of_a_cell(monkeypatch, reverse):
    calls, tables = [], []

    def counted(c, ts, chi, y, offsets, table):
        calls.append(chi.exponents)
        return euler_product_many(c, ts, chi, y, offsets, table)

    def built(q, y, ts, offsets):
        tables.append(q)
        return _prime_table(q, y, ts, offsets)

    monkeypatch.setattr(contour, "euler_product_many", counted)
    monkeypatch.setattr(contour, "_prime_table", built)
    _cell.cache_clear()
    spec = ContourSpec(T=40.0)
    for q in (3, 5, 7, 8, 12, 13):
        chars = list(character_group(q))
        calls.clear()
        tables.clear()
        for chi in reversed(chars) if reverse else chars:
            contour_psi(3e3, chi, 20.0, KERNEL, spec)
        # every character's half grid once; its conjugate reads the memo
        assert sorted(calls) == sorted(chi.exponents for chi in chars)
        # and all of them read the one prime table of the cell
        assert tables == [q]


def _values(x, y, q):
    _cell.cache_clear()
    results = [contour_psi(x, chi, y, KERNEL, ContourSpec(T=160.0)) for chi in character_group(q)]
    return [(res.value, res.quadrature_error_estimate) for res in results]


@pytest.mark.parametrize(
    "x,y,q",
    [
        *((x, y, q) for x in (1e3, 1e4, 1e5) for y in (10.0, 30.0, 100.0) for q in (3, 4, 5, 7, 8, 12)),
        (1e5, 1e4, 3),  # 1228 primes x 294 rows: past the table's cap
    ],
)
def test_prime_table_keeps_every_bit(monkeypatch, x, y, q):
    # the criterion-1 cells, and one whose table keeps 53 of its 294 rows
    with_table = _values(x, y, q)
    table = _cell(KERNEL, x, y, q, ContourSpec(T=160.0))[5]
    assert table[3].size <= _BLOCK
    assert table[3].shape[1] == (53 if y == 1e4 else _panel_count(x, 160.0))

    def table_free(c, ts, chi, y, offsets, table):
        return euler_product_many(c, ts, chi, y, offsets)

    monkeypatch.setattr(contour, "euler_product_many", table_free)
    assert with_table == _values(x, y, q)


def test_trivial_character_reconstruction():
    chi = principal_character(1)
    res = contour_psi(100.0, chi, 5.0, KERNEL, ContourSpec(T=50.0))
    want = _direct(100.0, chi, 5.0)
    assert abs(res.value - want) <= 1e-6 * abs(want)
    assert abs(res.value - want) <= res.tail_bound + 10 * res.quadrature_error_estimate


def test_nonprincipal_mod4_reconstruction():
    chi = character_group(4)[1]
    res = contour_psi(100.0, chi, 5.0, KERNEL, ContourSpec(T=60.0))
    want = _direct(100.0, chi, 5.0)
    assert abs(res.value - want) <= max(1e-6 * abs(want), 1e-7)
    assert abs(res.value - want) <= res.tail_bound + 10 * res.quadrature_error_estimate


def test_all_characters_mod5():
    for chi in character_group(5):
        res = contour_psi(1000.0, chi, 10.0, KERNEL, ContourSpec(T=80.0))
        want = _direct(1000.0, chi, 10.0)
        assert abs(res.value - want) <= res.tail_bound + 10 * res.quadrature_error_estimate
        if abs(want) > 1:
            assert abs(res.value - want) <= 1e-6 * abs(want)


def test_conjugation_symmetry():
    chi = next(c for c in character_group(5) if c.order == 4)
    spec = ContourSpec(T=40.0)
    plus = contour_psi(500.0, chi, 10.0, KERNEL, spec).value
    minus = contour_psi(500.0, chi.conjugate(), 10.0, KERNEL, spec).value
    assert minus == plus.conjugate()


@pytest.mark.parametrize("q", [3, 4, 5, 8, 12])
def test_real_characters_have_real_values(q):
    real = [chi for chi in character_group(q) if chi.order <= 2]
    assert len(real) >= 2
    for chi in real:
        assert contour_psi(1e3, chi, 30.0, KERNEL, ContourSpec(T=40.0)).value.imag == 0.0


def test_large_abscissa_inside_envelope():
    # far off the saddle the value is 1.18e15 for a count of 13.48; the
    # tail bound must cover that error at every c
    chi = principal_character(1)
    res = contour_psi(30.0, chi, 3.0, KERNEL, ContourSpec(T=30.0, c=12.0))
    want = _direct(30.0, chi, 3.0)
    assert abs(res.value - want) > 1e14
    assert abs(res.value - want) <= res.tail_bound + 10 * res.quadrature_error_estimate


def test_degenerate_truncation_height():
    chi = principal_character(1)
    res = contour_psi(100.0, chi, 5.0, KERNEL, ContourSpec(T=1.0))
    want = _direct(100.0, chi, 5.0)
    assert abs(res.value - want) <= res.tail_bound  # bound dominates the answer
    assert res.tail_bound > abs(want)


def test_refinement_changes_value_within_estimate():
    chi = character_group(4)[1]
    x, y = 200.0, 10.0
    base = contour_psi(x, chi, y, KERNEL, ContourSpec(T=50.0))
    c = saddle_alpha(x, y).alpha
    halved = _node_by_node(x, chi, y, c, 50.0, 16, 2 * _panel_count(x, 50.0))
    assert abs(halved - base.value) <= base.quadrature_error_estimate + 1e-13 * abs(base.value)


def test_truncation_bound_shape():
    l_val = euler_product(0.7, principal_character(16), 100.0).value.real
    heights = np.geomspace(1.0, 640.0, 60)
    bounds = np.array([truncation_bound(0.7, T, l_val, 1e4, KERNEL) for T in heights])
    assert np.all(np.diff(bounds) < 0) and bounds[-1] > 0
    # above H only the Pochhammer terms j >= 10 are left, so doubling T
    # divides the bound by at least 2^10
    height = _pochhammer_coeffs(KERNEL.lo, KERNEL.hi)[2]
    for T in heights[heights >= height]:
        ratio = truncation_bound(0.7, T, l_val, 1e4, KERNEL) / truncation_bound(
            0.7, 2 * T, l_val, 1e4, KERNEL
        )
        assert ratio >= 2.0**10
    # at the (y q)^(1/4) cut height the bound is finite and positive
    cut = (100.0 * 16) ** 0.25
    assert truncation_bound(0.7, cut, l_val, 1e4, KERNEL) > 0
    with pytest.raises(ValueError):
        truncation_bound(0.7, 0.5, l_val, 1e4, KERNEL)


def test_oscillating_integral_degenerate_and_flat():
    assert oscillating_integral(1.0, 1.0, 100.0, 1.0, KERNEL) == 0
    flat = oscillating_integral(0.0, 2.0, 1.0, 1.0, KERNEL)
    assert type(flat) is complex
    # no oscillation at x=1: plain integral of the transform along the segment
    ts = np.linspace(0.0, 2.0, 20001)
    vals = KERNEL.mellin_many(1.0, ts)
    w = np.ones(ts.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    want = complex(np.sum(w * vals) * (ts[1] - ts[0]) / 3.0)
    assert flat == pytest.approx(want, abs=1e-9)


def test_oscillating_integral_takes_no_panel_count():
    with pytest.raises(TypeError):
        oscillating_integral(0.0, 3.0, 1e3, 1.0, KERNEL, n_panels=8)


def test_oscillating_preconditions():
    with pytest.raises(ValueError):
        oscillating_integral(2.0, 1.0, 100.0, 1.0, KERNEL)
    with pytest.raises(ValueError):
        oscillating_integral(0.0, 1.0, 100.0, 0.5, KERNEL)


def test_main_term_ratio_grid():
    ratios = []
    for x in (1e3, 1e4, 1e5, 1e6):
        for y in (10.0, 30.0, 100.0, 300.0):
            if y > x:
                continue
            for q in (3, 4, 5):
                ratios.append(main_term_ratio(x, y, q, KERNEL))
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) < 10.0
