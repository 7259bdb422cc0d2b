#!/usr/bin/env python3
"""Compare contour reconstructions against enumeration for every character on
an (x, y, q) grid, printing worst-case relative errors and tail bounds.

The table goes to stdout, which is byte-identical across runs; the total
wall time goes to stderr."""

import argparse
import sys
import time

from smoothlab import (
    ContourSpec,
    SmoothCountQuery,
    SmoothingKernel,
    character_group,
    contour_psi,
    count_smooth_weighted,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--xs", type=float, nargs="+", default=[1e3, 1e4, 1e5])
    ap.add_argument("--ys", type=float, nargs="+", default=[10.0, 30.0, 100.0])
    ap.add_argument("--qs", type=int, nargs="+", default=[3, 4, 5, 7, 8, 12])
    ap.add_argument("--T", type=float, default=160.0)
    args = ap.parse_args()

    kernel = SmoothingKernel()
    t0 = time.time()
    print(f"{'x':>10} {'y':>6} {'q':>4} {'chars':>6} {'worst rel err':>14} {'tail bound':>12}")
    for x in args.xs:
        for y in args.ys:
            for q in args.qs:
                worst, tail = 0.0, 0.0
                chars = character_group(q)
                for chi in chars:
                    direct = count_smooth_weighted(
                        SmoothCountQuery(x=x, y=y, q=q), kernel, chi=chi
                    ).value
                    res = contour_psi(x, chi, y, kernel, ContourSpec(T=args.T))
                    tail = res.tail_bound
                    if abs(direct) > 1:
                        worst = max(worst, abs(res.value - direct) / abs(direct))
                print(f"{x:10g} {y:6g} {q:4d} {len(chars):6d} {worst:14.3e} {tail:12.3e}")
    print(f"total {time.time() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
