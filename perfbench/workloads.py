"""The three workloads: seeded items, how each item runs, and its checks.

Items come in rounds.  A round holds one item from every stratum of its
workload, so every round has the same make-up and the seed moves items only
within their strata; a run is a whole number of rounds.  smoothlab is used
only through the names the package exports, looked up at call time so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import smoothlab as sl

import oracles

# Within a stratum, round r takes the r-th point of an additive-recurrence
# (Kronecker) sequence with a seeded start: successive rounds fill the
# stratum's range evenly, so the mean cost of a run of whole rounds hardly
# depends on the seed.  One irrational step per coordinate.
_STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1)


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *keys])


def _spread(seed: int, stratum: int, coord: int, index: int, jitter: float = 1.0) -> float:
    """The index-th point, in [0, 1), of a stratum's sequence.  Its start lies
    within ``jitter`` of a fixed point, so the seed moves every point by at
    most that share of the range; with jitter 1 the start is anywhere."""
    fixed = _rng(0, stratum, coord).uniform()
    start = (1.0 - jitter) * fixed + jitter * _rng(seed, stratum, coord).uniform()
    return (start + index * _STEPS[coord]) % 1.0


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _units(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


@dataclass(frozen=True)
class Point:
    """A census point or a contour cell."""

    x: float
    y: float
    q: int


# -- census: the three experiment modes at one (x, y, q) point -------------------

# (y range, x range, q): x shrinks as y grows so that every stratum costs tens
# to hundreds of milliseconds (enumeration cost grows like pi(y) * Psi(x, y));
# prime and composite moduli alternate.
CENSUS_STRATA = (
    ((20.0, 30.0), (1e6, 2e6), 3),
    ((30.0, 45.0), (3e5, 1e6), 4),
    ((45.0, 70.0), (1e5, 3e5), 5),
    ((70.0, 110.0), (5e4, 1e5), 6),
    ((110.0, 170.0), (2e4, 5e4), 7),
    ((170.0, 280.0), (1e4, 2e4), 8),
    ((280.0, 500.0), (5e3, 1e4), 11),
    ((500.0, 1000.0), (2e3, 5e3), 12),
)


def census_round(seed: int, index: int) -> list[Point]:
    return [
        Point(
            x=_log_between(_spread(seed, i, 1, index), *xs),
            y=_log_between(_spread(seed, i, 0, index), *ys),
            q=q,
        )
        for i, (ys, xs, q) in enumerate(CENSUS_STRATA)
    ]


def census_item(point: Point, out_dir: Path):
    config = sl.ExperimentConfig(xs=(point.x,), ys=(point.y,), qs=(point.q,))
    equi = sl.run_equidistribution(config)
    coset = sl.run_coset(config)
    unsmoothing = sl.run_unsmoothing(config)
    sl.export_results(equi, "csv", out_dir / "census-equidistribution.csv")
    sl.export_results(coset, "csv", out_dir / "census-coset.csv")
    sl.export_unsmoothing(unsmoothing, out_dir / "census-unsmoothing.csv")
    return equi, coset, unsmoothing


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def census_check(done: list, out_dir: Path, seed: int) -> list[str]:
    problems: list[str] = []
    gpf = oracles.LargestPrimeFactor(math.floor(max(p.x for p, _ in done)))
    for point, (equi, coset, unsmoothing) in done:
        x, y, q = point.x, point.y, point.q
        tag = f"census x={x!r} y={y!r} q={q}"
        smooth = gpf.smooth(x, y, q)
        counts = np.bincount(smooth % q, minlength=q)
        total = int(smooth.size)
        units = _units(q)
        if sorted(r.a for r in equi) != units:
            problems.append(f"{tag}: classes {[r.a for r in equi]} != {units}")
        for rec in equi:
            if rec.count != counts[rec.a] or not _close(rec.expected, total / len(units)):
                problems.append(f"{tag}: class {rec.a} count {rec.count} != sieve {counts[rec.a]}")
        squares = {a * a % q for a in units}
        pairs = len(units) // len(squares) * len(squares) * (len(squares) - 1) // 2
        if len(coset) != pairs:
            problems.append(f"{tag}: {len(coset)} coset pairs, expected {pairs}")
        for rec in coset:
            a1, a2 = (int(v) for v in rec.a.split(":")[1].split("/"))
            if rec.count != counts[a1] - counts[a2]:
                problems.append(f"{tag}: coset {rec.a} diff {rec.count} != {counts[a1] - counts[a2]}")
        ratios = [(r.epsilon, r.ratio) for r in sorted(unsmoothing, key=lambda r: r.epsilon)]
        for eps, ratio in ratios:
            kept = int(np.searchsorted(smooth, math.floor((1 - eps) * x), side="right"))
            if not _close(ratio, (total - kept) / total):
                problems.append(f"{tag}: unsmoothing eps={eps} ratio {ratio} != {(total - kept) / total}")
        values = dict(ratios)
        if values.get(0.0) != 0.0 or values.get(1.0) != 1.0:
            problems.append(f"{tag}: unsmoothing ends {values.get(0.0)}, {values.get(1.0)} != 0, 1")
        if any(b < a for (_, a), (_, b) in zip(ratios, ratios[1:])):
            problems.append(f"{tag}: unsmoothing ratios decrease: {ratios}")
        alpha = equi[0].alpha
        residual = oracles.saddle_residual(x, y, alpha, gpf.primes)
        if residual > 1e-10 * max(1.0, math.log(x)):
            problems.append(f"{tag}: saddle residual {residual:.3g} at alpha={alpha!r}")
    # The files hold the last item's records; read them back.
    _, (equi, coset, _) = done[-1]
    for name, records in (("equidistribution", equi), ("coset", coset)):
        loaded = sl.load_results(out_dir / f"census-{name}.csv")
        want = sorted((str(r.a), r.count) for r in records)
        got = sorted((str(r.a), r.count) for r in loaded)
        if got != want:
            problems.append(f"census-{name}.csv does not read back the last item's records")
    return problems


# -- contour: one character of a cell, contour against enumeration ----------------

CONTOUR_T = 160.0
CONTOUR_X = (1e3, 1e5)
# (y range, moduli): in small-y cells the Mellin phase grid dominates, near
# y = 10^3 the nodes x pi(y) Euler-product matrix.  Each stratum's moduli
# share phi(q), so a cell's number of characters does not depend on the seed;
# successive rounds take the moduli in turn.  An item is one character of a
# cell.  The first character of each cell fills the cell's Mellin phase grid
# and the others reuse it; a round runs every cell's first character, then
# every cell's second, and so on, so that a cell's cheap characters are timed
# at moments spread over the round rather than in one burst.  A round holds
# 10 + 6 + 4 + 2 = 22 items; a 25 s run holds four to six rounds, 88 to 132
# items, so its 90th percentile has about ten items beyond it.
# With so few rounds, and a cell's cost growing about
# linearly in x over the two decades of CONTOUR_X, a seeded start could move
# a run's median cell by a factor of two.  The sequences therefore start
# within CONTOUR_JITTER of a fixed point (x moves by at most 5 %, y by less),
# and the moduli turn with the round alone.
CONTOUR_JITTER = 0.01
CONTOUR_STRATA = (
    ((10.0, 25.0), (11,)),
    ((25.0, 100.0), (7, 9, 14)),
    ((100.0, 400.0), (5, 8, 10, 12)),
    ((400.0, 1000.0), (3, 4, 6)),
)


def contour_round(seed: int, index: int) -> list[tuple[Point, int]]:
    cells = [
        Point(
            x=_log_between(_spread(seed, i, 1, index, CONTOUR_JITTER), *CONTOUR_X),
            y=_log_between(_spread(seed, i, 0, index, CONTOUR_JITTER), *ys),
            q=qs[index % len(qs)],
        )
        for i, (ys, qs) in enumerate(CONTOUR_STRATA)
    ]
    chars = [len(_units(cell.q)) for cell in cells]
    return [(cell, j) for j in range(max(chars)) for cell, n in zip(cells, chars) if j < n]


def contour_item(item: tuple[Point, int], out_dir: Path):
    cell, j = item
    chi = sl.character_group(cell.q)[j]
    kernel = sl.SmoothingKernel()
    query = sl.SmoothCountQuery(x=cell.x, y=cell.y, q=cell.q)
    direct = sl.count_smooth_weighted(query, kernel, chi=chi).value
    return chi, direct, sl.contour_psi(cell.x, chi, cell.y, kernel, sl.ContourSpec(T=CONTOUR_T))


def contour_check(done: list, out_dir: Path, seed: int) -> list[str]:
    problems: list[str] = []
    kernel = sl.SmoothingKernel()
    gpf = oracles.LargestPrimeFactor(math.floor(kernel.hi * max(cell.x for (cell, _), _ in done)))
    by_cell: dict[Point, list] = {}  # the orthogonality check needs every character of a cell
    for (cell, _), row in done:
        by_cell.setdefault(cell, []).append(row)
    for cell, rows in by_cell.items():
        x, y, q = cell.x, cell.y, cell.q
        tag = f"contour x={x!r} y={y!r} q={q}"
        units = _units(q)
        if len(rows) != len(units):
            problems.append(f"{tag}: {len(rows)} characters, expected {len(units)}")
        for chi, direct, res in rows:
            err = abs(res.value - direct)
            if err > res.tail_bound + 10 * res.quadrature_error_estimate:
                problems.append(f"{tag} chi={chi.exponents}: error {err:.3g} beyond the envelope")
            if err > 1e-6 * max(1.0, abs(direct)):
                problems.append(f"{tag} chi={chi.exponents}: relative error {err / max(1.0, abs(direct)):.3g}")
        n = gpf.smooth(kernel.hi * x, y, q)
        weights = oracles.smoothstep_weight(n / x, kernel.lo, kernel.hi)
        scale = 1.0 + float(weights.sum())
        for a in units:
            by_class = float(weights[n % q == a].sum())
            projected = sum(np.conj(chi.value_table()[a]) * direct for chi, direct, _ in rows) / len(units)
            if abs(projected - by_class) > 1e-9 * scale:
                problems.append(f"{tag}: orthogonality at a={a}: {projected} != {by_class}")
    return problems


# -- verify: one block of the inequality corpus --------------------------------------

# A block holds one lemma1 and one lemma2 instance and ten of each closed-form
# suite, the proportions of run_inequality_corpus.py (1000 : 1000 : 10000 :
# 10000, and a 100 x 100 calculus grid).  The lemma instances are the corpus's
# own first ones (seed bases 0 to 99), the same in every round and run, in an
# order the seed shuffles: their cost is heavy-tailed (the few that reach the
# segment-refinement cap take up to sixty times the mean), and freshly drawn
# ones moved a 30 s run between 445 and 870 blocks from seed to seed.  The
# closed-form instances are drawn from the seed.
VERIFY_LEMMA_SEEDS = 100
VERIFY_CLOSED_FORM = (("majorant", 10), ("pointwise", 10), ("calculus", 10))
MAJORANT_SAMPLE = 2


def verify_round(seed: int, index: int) -> list[tuple[tuple[str, int, int], ...]]:
    rng = _rng(seed, index)
    order = rng.permutation(VERIFY_LEMMA_SEEDS).tolist()
    bases = rng.integers(0, 2**31, size=(VERIFY_LEMMA_SEEDS, len(VERIFY_CLOSED_FORM))).tolist()
    return [
        (("lemma1", 1, k), ("lemma2", 1, k))
        + tuple((suite, n, b) for (suite, n), b in zip(VERIFY_CLOSED_FORM, row))
        for k, row in zip(order, bases)
    ]


def verify_item(block, out_dir: Path):
    return [sl.run_suite(suite, n, seed_base=base) for suite, n, base in block]


def verify_check(done: list, out_dir: Path, seed: int) -> list[str]:
    problems: list[str] = []
    for block, results in done:
        for (suite, n, base), res in zip(block, results):
            tag = f"verify {suite} seed_base={base}"
            if len(res.reports) != n or res.violations:
                problems.append(f"{tag}: {res.violations} violations in {len(res.reports)} reports")
            for rep in res.reports:
                if not (rep.holds and math.isfinite(rep.lhs) and math.isfinite(rep.rhs)):
                    problems.append(f"{tag}: seed {rep.seed} lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")
    # Closed-form mean squares against direct quadrature, on instances drawn
    # like the majorant suite's.
    rng = _rng(seed, 2**32 - 1)
    for i in range(MAJORANT_SAMPLE):
        n = int(rng.integers(1, 31))
        lambdas = rng.uniform(-5.0, 5.0, n)
        big_a = np.abs(rng.normal(size=n))
        a = big_a * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        T = float(rng.uniform(0.1, 10.0))
        rep = sl.check_majorant(n, lambdas, a, big_a, T, seed=i)
        lhs = oracles.mean_square_quad(lambdas, a, T)
        rhs = 3.0 * oracles.mean_square_quad(lambdas, big_a, T)
        if not (_close(rep.lhs, lhs, 1e-8) and _close(rep.rhs, rhs, 1e-8) and rep.holds):
            problems.append(f"majorant sample {i}: closed form ({rep.lhs}, {rep.rhs}) != quadrature ({lhs}, {rhs})")
    return problems


# -- registry ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    max_y: float  # set-up sieves the primes up to the largest y any item uses
    needs_decay_constant: bool
    make_round: Callable[[int, int], list]
    run_item: Callable
    check: Callable
    rounds_per_s: float  # rounds a traced run makes per second of --seconds
    calibration: str  # kind of calibration slice (calibrate.py) the timings are scaled by


WORKLOADS = {
    "census": Workload(
        name="census",
        max_y=CENSUS_STRATA[-1][0][1],
        needs_decay_constant=False,
        make_round=census_round,
        run_item=census_item,
        check=census_check,
        rounds_per_s=0.85,
        calibration="python",
    ),
    "contour": Workload(
        name="contour",
        max_y=CONTOUR_STRATA[-1][0][1],
        needs_decay_constant=True,
        make_round=contour_round,
        run_item=contour_item,
        check=contour_check,
        rounds_per_s=0.18,
        calibration="numpy",
    ),
    "verify": Workload(
        name="verify",
        max_y=10_000.0,  # run_suite("pointwise") draws primes up to 10^4
        needs_decay_constant=False,
        make_round=verify_round,
        run_item=verify_item,
        check=verify_check,
        rounds_per_s=0.19,
        calibration="numpy",
    ),
}


def setup(workload: Workload) -> None:
    """The one-time lazy set-up the first item would otherwise pay."""
    sl.primes_upto(workload.max_y)
    if workload.needs_decay_constant:
        sl.SmoothingKernel().decay_constant()
