#!/usr/bin/env python3
"""Run one smoothlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a smoothlab checkout; the package is imported from
its ``src`` directory.  ``setup_s`` is the median of five fresh processes
that import smoothlab and do the workload's one-time set-up.  The workload
then runs closed-loop, one item at a time, in whole rounds until
``--seconds`` have passed, and every output is checked afterwards.  Every
timing it reports is scaled to a reference host speed by calibration slices
timed between the items (see calibrate.py); the raw wall figures are printed
on a line of their own.

With ``--trace 1`` a fixed number of rounds runs instead, with and without
the tracer in turn so that the run measures its own overhead, and the
per-layer metrics come from the traced rounds' spans; their counts repeat
exactly for a given seed and ``--seconds``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
SETUP_SLICES = 5  # calibration slices timed before each set-up probe and after the last
# Set-up is module loading and a numpy sieve on every workload.  Scaled by
# python slices, census set-up spread 0.28 and 0.37 over two sets of ten runs;
# verify's, scaled by numpy slices, 0.07 and 0.21.
SETUP_CALIBRATION = "numpy"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_smoothlab() -> None:
    """Import smoothlab from this checkout's src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "smoothlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no smoothlab package under {src}")
    sys.path.insert(0, str(src))
    import smoothlab

    if Path(smoothlab.__file__).resolve().parent != (src / "smoothlab").resolve():
        sys.exit(f"perfbench: imported smoothlab from {smoothlab.__file__}, not {src}")


def measure_setup(workload: str) -> tuple[float, float]:
    """Median wall time of fresh processes that import and set up, raw and
    scaled to the reference speed of calibration slices timed between them."""
    times, slices = [], []
    for _ in range(SETUP_PROBES):
        slices += [calibrate.time_slice(SETUP_CALIBRATION) for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    slices += [calibrate.time_slice(SETUP_CALIBRATION) for _ in range(SETUP_SLICES)]
    raw = statistics.median(times)
    return raw, raw * calibrate.REFERENCE_S[SETUP_CALIBRATION] / statistics.median(slices)


def run_rounds(wl, seed: int, rounds, tracer=None):
    """Run the items of each round index yielded by ``rounds``.

    Returns (done, durations, failed, seconds per round kind) where the kind
    is True for traced rounds.  durations holds (seconds, completed,
    calibration slice seconds) for every item; the calibration slice that
    follows each item is timed only in untraced runs.
    """
    done, durations = [], []
    failed = 0
    busy = {True: [0.0, 0], False: [0.0, 0]}
    for index, traced in rounds:
        if tracer is not None and traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        items = wl.make_round(seed, index)
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            completed = True
            try:
                out = wl.run_item(item, OUT_DIR)
            except Exception:  # one failed item must not end the run
                completed = False
                failed += 1
                if failed <= 3:
                    print(f"item {item} failed:\n{traceback.format_exc()}", file=sys.stderr)
            seconds = time.perf_counter() - t0
            if completed:
                done.append((item, out))
            slice_s = calibrate.time_slice(wl.calibration) if tracer is None else 0.0
            durations.append((seconds, completed, slice_s))
        busy[traced][0] += time.perf_counter() - start
        busy[traced][1] += len(items)
    if tracer is not None:
        tracer.uninstall()
    return done, durations, failed, busy


def timed_rounds(seconds: float):
    """Round indices until ``seconds`` have passed, checked between rounds."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield index, False
        index += 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("census", "contour", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    import_smoothlab()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.setup(wl)
        return 0

    setup_wall_s, setup_s = measure_setup(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workloads.setup(wl)

    started = time.perf_counter()
    if tracer is None:
        rounds = timed_rounds(args.seconds)
    else:
        # Traced and untraced rounds alternate: different rounds of the same make-up.
        pairs = max(1, round(args.seconds * wl.rounds_per_s / 2))
        rounds = ((i, i % 2 == 0) for i in range(2 * pairs))
    done, durations, failed, busy = run_rounds(wl, args.seed, rounds, tracer)
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.check(done, OUT_DIR, args.seed) if len(done) >= 2 else ["fewer than two items completed"]
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    attempted = len(done) + failed

    if tracer is None:
        slices = [slice_s for _, _, slice_s in durations]
        factors = calibrate.scale_factors(wl.calibration, slices)
        scaled = [(seconds * f, completed) for (seconds, completed, _), f in zip(durations, factors)]
        latencies = [seconds for seconds, completed in scaled if completed]
        wall = [seconds for seconds, completed, _ in durations if completed]
        wall_p50 = f", p50 {1e3 * statistics.median(wall):.4g} ms" if wall else ""
        print(f"{args.workload:8s} wall: setup {setup_wall_s:.4g} s, {len(done) / elapsed:.4g} items/s{wall_p50} "
              f"over {elapsed:.1f} s; calibration slice median {1e3 * statistics.median(slices):.4g} ms "
              f"against {1e3 * calibrate.REFERENCE_S[wl.calibration]:.4g} ms")
        metrics = {"setup_s": setup_s, "items_per_s": len(done) / sum(seconds for seconds, _ in scaled)}
        if len(latencies) >= 2:  # too few items leave no percentiles; correct is false then
            metrics["item_p50_ms"] = 1e3 * statistics.median(latencies)
            metrics["item_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[8]
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
    else:
        (t_traced, n_traced), (t_plain, n_plain) = busy[True], busy[False]
        overhead = (n_plain / t_plain) / (n_traced / t_traced) - 1.0
        metrics = tracer.metrics(overhead)
        units = dict(spans.PER_LAYER)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    for name, value in metrics.items():
        print(f"{args.workload:8s} {name:42s} {value:14.6g} {units[name]}")
    print(f"{args.workload:8s} attempted={attempted} failed={failed} checks_failed={len(problems)} elapsed={elapsed:.1f}s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
