#!/usr/bin/env python3
"""Run the full seeded inequality corpus (10^3 per segment bound, 10^4 per
closed-form check, dense calculus grid) and summarize headroom per suite.

The summary goes to stdout, which is byte-identical across runs; each
suite's wall time goes to stderr."""

import argparse
import sys
import time

from smoothlab import calculus_grid, run_suite

DEFAULT_COUNTS = {"lemma1": 1000, "lemma2": 1000, "majorant": 10_000, "pointwise": 10_000}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="multiply instance counts")
    args = ap.parse_args()

    failures = 0
    for suite, count in DEFAULT_COUNTS.items():
        n = max(1, int(count * args.scale))
        t0 = time.time()
        result = run_suite(suite, n, seed_base=args.seed_base)
        failures += result.violations
        ratio = f"{result.min_ratio:.6f}" if result.min_ratio is not None else "n/a"
        print(
            f"{suite:10s} instances={n:6d} violations={result.violations} "
            f"degenerate={result.degenerate} min rhs/lhs={ratio}"
        )
        print(f"{suite} [{time.time() - t0:.1f}s]", file=sys.stderr)

    grid = calculus_grid()
    bad = sum(1 for rep in grid if not rep.holds)
    failures += bad
    print(f"{'calculus':10s} instances={len(grid):6d} violations={bad}")
    print("corpus clean" if failures == 0 else f"CORPUS VIOLATIONS: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
