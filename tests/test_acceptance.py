"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The contour grid is the
expensive part; everything here stays well under the ten-minute budget.
"""

import json
import math
import subprocess
import sys
from math import gcd

import numpy as np
import pytest

from conftest import src_env
from smoothlab import (
    ContourSpec,
    ExperimentConfig,
    SmoothCountQuery,
    SmoothingKernel,
    calculus_grid,
    character_group,
    contour_psi,
    count_smooth_bigx,
    count_smooth_weighted,
    ennola_estimate,
    max_discrepancy,
    oscillating_integral,
    run_equidistribution,
    run_suite,
    run_unsmoothing,
    saddle_alpha,
    unsmoothing_ratio,
    unsmoothing_slopes,
)
from smoothlab.kernel import panel_grid

KERNEL = SmoothingKernel()

GRID_X = (1e3, 1e4, 1e5)
GRID_Y = (10.0, 30.0, 100.0)
GRID_Q = (3, 4, 5, 7, 8, 12)
CONTOUR_T = 160.0


def _verdict(n: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def contour_grid():
    """Direct weighted sums and contour reconstructions over the full grid."""
    out = {}
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                chars = character_group(q)
                directs = [
                    count_smooth_weighted(
                        SmoothCountQuery(x=x, y=y, q=q), KERNEL, chi=chi
                    ).value
                    for chi in chars
                ]
                contours = [
                    contour_psi(x, chi, y, KERNEL, ContourSpec(T=CONTOUR_T))
                    for chi in chars
                ]
                out[(x, y, q)] = (chars, directs, contours)
    return out


def test_criterion_1_contour_oracle_equivalence(contour_grid):
    worst_rel, worst_env = 0.0, -math.inf
    ok = True
    for (x, y, q), (chars, directs, contours) in contour_grid.items():
        for direct, res in zip(directs, contours):
            err = abs(res.value - direct)
            envelope = res.tail_bound + 10 * res.quadrature_error_estimate
            worst_env = max(worst_env, err - envelope)
            if err > envelope:
                ok = False
            if abs(direct) > 1:
                rel = err / abs(direct)
                worst_rel = max(worst_rel, rel)
                if rel > 1e-6:
                    ok = False
    _verdict(
        1,
        ok,
        f"contour vs oracle on {len(contour_grid)} cells; worst relative "
        f"{worst_rel:.3e} (tolerance 1e-6), worst envelope excess {worst_env:.3e}",
    )
    assert ok


def test_criterion_2_character_decomposition(contour_grid):
    worst = 0.0
    for (x, y, q), (chars, directs, _) in contour_grid.items():
        phi = len(chars)
        for a in range(q):
            if gcd(a, q) != 1:
                continue
            lhs = count_smooth_weighted(
                SmoothCountQuery(x=x, y=y, q=q, a=a), KERNEL
            ).value
            rhs = sum(
                chi(a).conjugate() * direct for chi, direct in zip(chars, directs)
            ) / phi
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _verdict(2, ok, f"character decomposition worst deviation {worst:.3e} (<= 1e-9)")
    assert ok


def test_criterion_3_inequality_corpus():
    violations = 0
    counts = {"lemma1": 1000, "lemma2": 1000, "majorant": 10_000, "pointwise": 10_000}
    for suite, count in counts.items():
        violations += run_suite(suite, count, seed_base=0).violations
    grid = calculus_grid()
    violations += sum(1 for rep in grid if not rep.holds)
    total = sum(counts.values()) + len(grid)
    ok = violations == 0
    _verdict(3, ok, f"{violations} violations across {total} inequality instances")
    assert ok


def test_criterion_4_saddle_point():
    residual_ok, asym_ok, checked = True, True, 0
    for x in GRID_X:
        for y in GRID_Y:
            sp = saddle_alpha(x, y)
            if sp.residual > 1e-9 * math.log(x):
                residual_ok = False
            if y > math.log(x) and sp.u >= 3:
                checked += 1
                approx = 1 - math.log(sp.u * math.log(sp.u)) / math.log(y)
                if abs(sp.alpha - approx) > 5 / math.log(y):
                    asym_ok = False
    ok = residual_ok and asym_ok and checked > 0
    _verdict(
        4,
        ok,
        f"residuals <= 1e-9 log x: {residual_ok}; asymptotic window on "
        f"{checked} qualifying points: {asym_ok}",
    )
    assert ok


def test_criterion_5_mellin_bounds():
    lower_ok = all(
        KERNEL.mellin(float(c)).real >= 1 / (2 * c) for c in np.linspace(0.02, 1.0, 50)
    )
    sups = []
    for n_sigma, n_t in ((6, 80), (12, 160)):
        best = 0.0
        for sigma in np.linspace(0.5, 1.5, n_sigma):
            ts = np.geomspace(1.0, 100.0, n_t)
            vals = KERNEL.mellin_many(float(sigma), ts, (0.0,))[:, 0]
            mod_s = np.hypot(sigma, ts)
            best = max(best, float(np.max(np.abs(vals) * mod_s * (mod_s + 1) ** 8)))
        sups.append(best)
    stable = max(sups) / min(sups) < 2.0
    ok = lower_ok and stable
    _verdict(
        5,
        ok,
        f"transform lower bound at 50 points: {lower_ok}; decay product "
        f"{sups[0]:.4g} vs {sups[1]:.4g} under refinement: {stable}",
    )
    assert ok


def test_criterion_6_ennola_formula():
    ok = True
    worst = 0.0
    for y in (3.0, 5.0):
        for q in (1, 7):
            for target_log in (200.0, 500.0, 1000.0):
                exponent = round(target_log / math.log(2))
                est = ennola_estimate((2, exponent), y, q)
                exact = count_smooth_bigx((2, exponent), y, q).value
                rel = abs(est.main_term / exact - 1.0)
                budget = 3.0 * est.error_factor
                worst = max(worst, rel / budget)
                if rel > budget:
                    ok = False
    _verdict(
        6, ok, f"closed form vs lattice counts; worst error/budget ratio {worst:.3f}"
    )
    assert ok


def test_criterion_7_equidistribution_trend():
    cfg = ExperimentConfig(xs=(1e4, 1e7), ys=(50.0,), qs=(7,))
    disc = max_discrepancy(run_equidistribution(cfg))
    trend = disc[(1e7, 50.0, 7)] < disc[(1e4, 50.0, 7)]
    fix = run_equidistribution(ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(3,)))
    counts = {r.a: r.count for r in fix}
    fixture_ok = counts == {1: 8, 2: 7}
    ok = trend and fixture_ok
    _verdict(
        7,
        ok,
        f"discrepancy {disc[(1e7, 50.0, 7)]:.4g} at x=1e7 < "
        f"{disc[(1e4, 50.0, 7)]:.4g} at x=1e4: {trend}; counts (8, 7): {fixture_ok}",
    )
    assert ok


def test_criterion_8_unsmoothing():
    exact_ok = (
        unsmoothing_ratio(100.0, 5.0, 1, 0.0) == 0.0
        and unsmoothing_ratio(100.0, 5.0, 1, 1.0) == 1.0
    )
    fixture_ok = unsmoothing_ratio(100.0, 5.0, 1, 0.1) == 2 / 34
    cfg = ExperimentConfig(xs=(1e4, 1e5), ys=(10.0, 30.0), qs=(3, 4))
    assert min(math.log(x) / math.log(q) for x in cfg.xs for q in cfg.qs) >= 5
    slopes = unsmoothing_slopes(run_unsmoothing(cfg))
    slope_ok = all(s <= 5.0 for s in slopes.values())
    ok = exact_ok and fixture_ok and slope_ok
    _verdict(
        8,
        ok,
        f"exact endpoints: {exact_ok}; 2/34 fixture: {fixture_ok}; slopes "
        f"max {max(slopes.values()):.3f} <= 5: {slope_ok}",
    )
    assert ok


def _oscillating_on_twice_the_panels(x):
    """oscillating_integral(0, 3, x, 1, KERNEL) by the same order-16 rule on
    twice its panels."""
    n_panels = 2 * max(4, math.ceil(3.0 / min(1.0, 2 * math.pi / math.log(x))))
    _, mid, offsets, weights = panel_grid(0.0, 3.0, n_panels, (16,))
    nodes, weights = np.add.outer(mid, offsets).ravel(), np.tile(weights, n_panels)
    mell = KERNEL.mellin_many(1.0, nodes, (0.0,))[:, 0]
    return complex(np.sum(weights * np.exp(1j * nodes * math.log(x)) * mell))


def test_criterion_9_oscillating_integral():
    # |value| * log x, the decay Harper's argument bounds, under the function's
    # own rule and under the same rule on twice the panels
    sups = [
        max(abs(integral(x)) * math.log(x) for x in (1e3, 1e6, 1e9))
        for integral in (
            lambda x: oscillating_integral(0.0, 3.0, x, 1.0, KERNEL),
            _oscillating_on_twice_the_panels,
        )
    ]
    ok = max(sups) / min(sups) < 2.0
    _verdict(
        9,
        ok,
        f"decay-product sup {sups[0]:.4f} vs {sups[1]:.4f} under quadrature refinement",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "smoothlab", *argv],
            env=src_env(), capture_output=True, check=True,
        ).stdout

    out_csv = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"xs": [1000.0], "ys": [10.0], "qs": [3, 7], "output_path": str(out_csv)})
    )
    invocations = [
        ["saddle", "100000", "30", "--json"],
        ["count", "100", "5", "--q", "3", "--a", "1", "--json"],
        ["verify", "--suite", "majorant", "--seeds", "10", "--seed-base", "2"],
        ["verify", "--suite", "lemma1", "--seeds", "2", "--seed-base", "0"],
        ["experiment", "--config", str(cfg_path)],
    ]
    ok = True
    for argv in invocations:
        first = run(argv)
        blob1 = out_csv.read_bytes() if out_csv.exists() else b""
        second = run(argv)
        blob2 = out_csv.read_bytes() if out_csv.exists() else b""
        if first != second or blob1 != blob2:
            ok = False
    _verdict(10, ok, f"{len(invocations)} CLI invocations byte-identical across reruns")
    assert ok
