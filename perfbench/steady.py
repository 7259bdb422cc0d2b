#!/usr/bin/env python3
"""Check that the benchmark is steady: interleaved sets of runs, each run
with its own seed, compared metric by metric against BENCHMARK.json.

    python3 perfbench/steady.py --seed-base 1000

It makes two sets of ten runs of every workload, each run as long as
BENCHMARK.json's run_seconds.  For every workload and end-to-end metric it
prints each set's median and quartiles and the spread (q3 - q1) / median.
The benchmark is steady when every spread except that of setup_s is within
the metric's bound, when the two sets' medians of every metric differ by no
more than the bound, and when the share of failed items is the same in both
sets.  Exits 1 otherwise.  setup_s is the median of five process starts of
0.3-2 s each, whose spread follows the host's short-term jitter rather than
the program; its spread is printed but only its median is held to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10  # runs per set and workload
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    # results[workload][set] = list of result objects; the sets take turns,
    # so slow drift of the machine reaches every set alike.
    results = {w: [[] for _ in range(SETS)] for w in names}
    for i in range(RUNS):
        for s in range(SETS):
            for w in names:
                seed = args.seed_base + i * SETS + s
                t0 = time.perf_counter()
                res = one_run(w, seed, seconds)
                results[w][s].append(res)
                print(f"run {i} set {s} {w:8s} seed={seed} {time.perf_counter() - t0:5.1f}s "
                      f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                      flush=True)

    ok = True
    print(f"\n{'workload':8s} {'metric':12s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'vs set0':>8s}")
    for w in names:
        sets = results[w]
        if not all(r["correct"] for rs in sets for r in rs):
            print(f"{w}: a run reported correct=false")
            ok = False
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets}
        if len(shares) > 1:
            print(f"{w}: failed shares differ between sets: {sorted(shares)}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for s, rs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in rs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                shift = (med - first) / first if lower else (first - med) / first
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag += " SPREAD"
                if abs(shift) > bound:
                    flag += " SHIFT"
                ok = ok and not flag
                print(f"{w:8s} {name:12s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:6.2f} {shift:+8.3f}{flag}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
