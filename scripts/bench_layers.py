#!/usr/bin/env python3
"""Time one layer of smoothlab over a ladder of its natural sizes and print one JSON object.

Two layers, chosen with --layer:

euler_grid (the default): lseries.euler_product_many on the half grid of the
cell (x, y, q) = (1e5, y, 3) at T = 160 (294 panels of [0, T], 24 offsets of
the order-16 and order-8 rules) and the saddle abscissa alpha(x, y), for the
nonprincipal character mod 3.  Its natural size is primes x nodes: the
primes p <= y that do not divide q, times the (row, offset) nodes of the
grid.  The ladder is y in {100, 1000, 10^4}, and each y runs in two modes:

    table  the cell's prime table (lseries._prime_table) is built first, as
           contour_psi reads it from the cell, and the call is timed alone;
           the table's build time is recorded beside it
    none   the call builds its own table, as a caller without a cell does

segment: inequalities._segment_quantities, the refining segment quadrature
behind lemma1, on one fixed draw (beta = 0.9, r = 4, seed 0, unit-phase
coefficients, no split) at y in {10, 30, 60}, so pi(y) = 4, 10, 17.  Its
natural size is primes x nodes: pi(y) times the quadrature nodes of every
refinement round.  Each y runs once per test function, the two modes
MellinPowerF (x = 1000, default kernel) and PolyExpF (fixed cubic, rate 1).
Each point also records the panel count of every round and the exponentials
of the Euler factors: the complex values np.exp forms along the primes (on
arrays whose last axis has pi(y) entries), counted in one more call.

Each (mode, y) point runs in a fresh interpreter, a child of this script
with this checkout's src/ first on PYTHONPATH.  For each point the object
records the wall and CPU time of one call (the median of --repeats calls,
with their minimum and maximum as the spread; the CPU time counts every
thread of the child, so it passes the wall time when a second BLAS thread
spins), the tracemalloc peak of one more call, and the natural size; for
each mode, the log-log slope of wall time against size between
neighbouring points.  It also records the inputs, the Python and numpy
versions and the machine.

Usage: python3 scripts/bench_layers.py [--layer euler_grid|segment] [--ys Y ...] [--repeats 3] > layers.json
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
X, Q, T = 1e5, 3, 160.0
ORDERS = (16, 8)
BETA, R, SEED, SEG_X = 0.9, 4.0, 0, 1e3
POLY, RATE = (1.0, 0.5j, -0.25), 1.0


def _timed(call, repeats: int) -> dict:
    """Wall and CPU time of call() over repeats runs, after one warm-up run,
    and the tracemalloc peak of one more run."""
    call()
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        call()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "wall_s": round(statistics.median(walls), 6),
        "wall_spread_s": [round(min(walls), 6), round(max(walls), 6)],
        "cpu_s": round(statistics.median(cpus), 6),
        "tracemalloc_peak_mb": round(peak / 2**20, 3),
    }


def _euler_grid_point(y: float, mode: str, repeats: int) -> dict:
    """One (mode, y) point of the Euler-grid layer, measured in this interpreter."""
    import numpy as np

    from smoothlab import character_group
    from smoothlab.kernel import panel_grid
    from smoothlab.lseries import _prime_table, euler_product_many
    from smoothlab.saddle import saddle_alpha

    chi = character_group(Q)[1]
    c = saddle_alpha(X, y).alpha
    width = 2 * math.pi / max(math.log(X), 2 * math.pi)
    _, mid, offsets, _ = panel_grid(0.0, T, max(4, math.ceil(T / width)), ORDERS)
    start = time.perf_counter()
    table = _prime_table(Q, y, mid, offsets)
    table_s = time.perf_counter() - start

    def call() -> np.ndarray:
        if mode == "table":
            return euler_product_many(c, mid, chi, y, offsets, table)
        return euler_product_many(c, mid, chi, y, offsets)

    timing = _timed(call, repeats)  # the warm-up run fills the sieve and the character's table
    return {
        "mode": mode,
        "y": y,
        "primes": int(table[0].size),
        "nodes": int(mid.size * offsets.size),
        "size": int(table[0].size * mid.size * offsets.size),
        **timing,
        "table_s": round(table_s, 6) if mode == "table" else None,
    }


def _segment_point(y: float, mode: str, repeats: int) -> dict:
    """One (mode, y) point of the lemma-segment layer, measured in this interpreter."""
    import numpy as np

    from smoothlab import inequalities
    from smoothlab.inequalities import MellinPowerF, PolyExpF, RandomEulerSpec
    from smoothlab.kernel import SmoothingKernel

    spec = RandomEulerSpec(y=y, beta=BETA, r=R, seed=SEED)
    if mode == "MellinPowerF":
        F = MellinPowerF(x=SEG_X, kernel=SmoothingKernel())
    else:
        F = PolyExpF(coeffs=POLY, rate=RATE)
    primes = int(spec.coefficients()[0].size)

    def call() -> tuple:
        return inequalities._segment_quantities(spec, F, math.inf)

    timing = _timed(call, repeats)
    # one more call, instrumented: the panel count of each round and the
    # complex exponentials formed along the primes
    panels, counted = [], [0]
    grid, exp = inequalities.panel_grid, np.exp

    def recording_grid(a, b, n_panels, orders):
        panels.append(n_panels)
        return grid(a, b, n_panels, orders)

    def counting_exp(*args, **kwargs):
        out = exp(*args, **kwargs)
        if np.iscomplexobj(out) and np.ndim(out) >= 1 and np.shape(out)[-1] == primes:
            counted[0] += int(np.size(out))
        return out

    inequalities.panel_grid, np.exp = recording_grid, counting_exp
    try:
        call()
    finally:
        inequalities.panel_grid, np.exp = grid, exp
    nodes = inequalities._SEG_ORDER * sum(panels)
    return {
        "mode": mode,
        "y": y,
        "primes": primes,
        "panels": panels,
        "nodes": nodes,
        "size": primes * nodes,
        "exponentials": counted[0],
        **timing,
    }


LAYERS = {
    "euler_grid": {
        "name": "lseries.euler_product_many on a contour cell's half grid",
        "modes": ("table", "none"),
        "ys": [100.0, 1000.0, 1e4],
        "inputs": {"x": X, "q": Q, "T": T, "orders": ORDERS},
        "point": _euler_grid_point,
    },
    "segment": {
        "name": "inequalities._segment_quantities on one lemma1 draw",
        "modes": ("MellinPowerF", "PolyExpF"),
        "ys": [10.0, 30.0, 60.0],
        "inputs": {
            "beta": BETA, "r": R, "seed": SEED, "split_at": "inf",
            "MellinPowerF": {"x": SEG_X}, "PolyExpF": {"coeffs": repr(POLY), "rate": RATE},
        },
        "point": _segment_point,
    },
}


def _slopes(points: list[dict]) -> list[float]:
    """d log(wall) / d log(size) between neighbouring points of one mode."""
    return [
        round(math.log(b["wall_s"] / a["wall_s"]) / math.log(b["size"] / a["size"]), 3)
        for a, b in zip(points, points[1:])
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", choices=sorted(LAYERS), default="euler_grid")
    parser.add_argument("--ys", type=float, nargs="+", help="the ladder (default: the layer's)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--point", nargs=2, metavar=("Y", "MODE"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    layer = LAYERS[args.layer]
    if args.point:
        y, mode = args.point
        print(json.dumps(layer["point"](float(y), mode, args.repeats)))
        return 0

    import numpy as np

    ys = args.ys or layer["ys"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    modes = {}
    for mode in layer["modes"]:
        points = []
        for y in ys:
            argv = [sys.executable, __file__, "--layer", args.layer, "--point", repr(y), mode]
            argv += ["--repeats", str(args.repeats)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            points.append(json.loads(proc.stdout))
        modes[mode] = {"points": points, "loglog_slopes": _slopes(points)}
    report = {
        "layer": layer["name"],
        "inputs": {**layer["inputs"], "ys": ys, "repeats": args.repeats},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.platform(),
        "cpus": os.cpu_count(),
        "modes": modes,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
