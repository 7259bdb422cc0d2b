"""Command-line interface.

Subcommands: count, saddle, lfun, chars, contour, verify, experiment.  Output is
plain text by default and JSON with --json where offered; all output is
byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .contour import ContourSpec, contour_psi
from .dirichlet import DirichletCharacter, character_group
from .errors import SmoothLabError
from .experiments import (
    COSET_POWER,
    ExperimentConfig,
    export_plot_data,
    export_results,
    export_unsmoothing,
    run_coset,
    run_equidistribution,
    run_unsmoothing,
    unsmoothing_slopes,
)
from .inequalities import SUITES, run_suite
from .kernel import SmoothingKernel
from .lseries import euler_product
from .saddle import saddle_alpha
from .smooth_core import SmoothCountQuery, count_smooth, count_smooth_weighted


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _character(q: int, index: int) -> DirichletCharacter:
    """Character number index of character_group(q), or a ValueError."""
    chars = character_group(q)
    if not 0 <= index < len(chars):
        raise ValueError(f"character index {index} out of range [0, {len(chars)})")
    return chars[index]


def _cmd_count(args: argparse.Namespace) -> int:
    query = SmoothCountQuery(x=args.x, y=args.y, q=args.q, a=args.a)
    if args.weighted:
        kernel = SmoothingKernel(
            SmoothingKernel.lo if args.kernel_lo is None else args.kernel_lo,
            SmoothingKernel.hi if args.kernel_hi is None else args.kernel_hi,
        )
        result = count_smooth_weighted(query, kernel)
    elif (args.kernel_lo, args.kernel_hi) != (None, None):
        raise ValueError("count: --kernel-lo and --kernel-hi need --weighted")
    else:
        result = count_smooth(query)
    value = result.value
    if args.json:
        # a weighted count is a float sum of phi(n / x), an unweighted one an integer
        payload = {"x": args.x, "y": args.y, "q": args.q, "a": args.a, "exact": not args.weighted}
        print(_dump({**payload, "value": value}))
    else:
        print(f"count(x={args.x:g}, y={args.y:g}, q={args.q}, a={args.a}) = {value}")
    return 0


def _cmd_saddle(args: argparse.Namespace) -> int:
    sp = saddle_alpha(args.x, args.y, q=args.coprime_q)
    if args.json:
        payload = {
            key: (None if isinstance(val, float) and not math.isfinite(val) else val)
            for key, val in asdict(sp).items()
        }
        print(_dump(payload))
    else:
        print(
            f"alpha={sp.alpha:.12g} residual={sp.residual:.3g} regime={sp.regime} "
            f"u={sp.u:.6g} v={sp.v:.6g} w={sp.w:.6g}"
        )
    return 0


def _cmd_lfun(args: argparse.Namespace) -> int:
    chi = _character(args.q, args.chi_index)
    val = euler_product(complex(args.s_re, args.s_im), chi, args.y)
    payload = {
        "value_re": val.value.real,
        "value_im": val.value.imag,
        "log_re": val.log_value.real,
        "log_im": val.log_value.imag,
        "logderiv_re": val.log_deriv.real,
        "logderiv_im": val.log_deriv.imag,
    }
    if args.json:
        print(_dump(payload))
    else:
        print(
            f"L({args.s_re:g}+{args.s_im:g}i, chi_{args.chi_index} mod {args.q}; y={args.y:g}) "
            f"= {val.value!r}  log={val.log_value!r}  L'/L={val.log_deriv!r}"
        )
    return 0


def _cmd_chars(args: argparse.Namespace) -> int:
    chars = character_group(args.q)
    print(f"modulus {args.q}: {len(chars)} characters")
    print("index order conductor principal values_on_generators")
    for i, chi in enumerate(chars):
        gens = " ".join(f"chi({g})=e(2pi*{a})" for g, a in chi.values_on_generators())
        print(f"{i} {chi.order} {chi.conductor} {int(chi.is_principal)} {gens}")
    return 0


def _cmd_contour(args: argparse.Namespace) -> int:
    chi = _character(args.q, args.chi)
    kernel = SmoothingKernel(args.kernel_lo, args.kernel_hi)
    spec = ContourSpec(T=args.T, c=args.c)
    res = contour_psi(args.x, chi, args.y, kernel, spec)
    print(
        _dump(
            {
                "value_re": res.value.real,
                "value_im": res.value.imag,
                "tail_bound": res.tail_bound,
                "quadrature_error_estimate": res.quadrature_error_estimate,
            }
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    any_violation = False
    for suite in suites:
        result = run_suite(suite, args.seeds, args.seed_base)
        for rep in result.reports:
            print(_dump(asdict(rep)))
        summary = {
            "suite": suite,
            "instances": len(result.reports),
            "violations": result.violations,
            "degenerate": result.degenerate,
            "min_ratio": result.min_ratio,
        }
        print(_dump(summary))
        any_violation = any_violation or result.violations > 0
    return 1 if any_violation else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    mode = args.mode
    if mode == "unsmoothing":
        if config.output_format != "csv" or args.emit_plot_data:
            raise ValueError("experiment: --mode unsmoothing writes CSV only and no plot data")
        records = run_unsmoothing(config)
        if config.output_path:
            export_unsmoothing(records, config.output_path)
        for key, slope in sorted(unsmoothing_slopes(records).items()):
            x, y, q = key
            print(f"x={x:g} y={y:g} q={q} slope={slope:.12g}")
        return 0
    if mode == "coset":
        records = run_coset(config)
        print(_dump({"subgroup_surrogate": True, "power": COSET_POWER}))
    else:
        records = run_equidistribution(config)
    if config.output_path:
        export_results(records, config.output_format, config.output_path)
    if args.emit_plot_data:
        export_plot_data(records, args.emit_plot_data)
    print(f"records={len(records)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact smooth counts")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--kernel-lo", type=float, default=None, help="with --weighted only")
    p.add_argument("--kernel-hi", type=float, default=None, help="with --weighted only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("saddle", help="saddle-point abscissa")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("--coprime-q", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_saddle)

    p = sub.add_parser("lfun", help="truncated Euler products")
    p.add_argument("s_re", type=float)
    p.add_argument("s_im", type=float)
    p.add_argument("q", type=int)
    p.add_argument("chi_index", type=int)
    p.add_argument("y", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lfun)

    p = sub.add_parser("chars", help="the character table of a modulus")
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("contour", help="contour reconstruction of a weighted count")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--kernel-lo", type=float, default=SmoothingKernel.lo)
    p.add_argument("--kernel-hi", type=float, default=SmoothingKernel.hi)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("verify", help="seeded inequality suites")
    p.add_argument("--suite", choices=SUITES + ("all",), required=True)
    p.add_argument("--seeds", type=int, default=100, metavar="N")
    p.add_argument("--seed-base", type=int, default=0, metavar="S")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="grid experiments from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--mode",
        choices=("equidistribution", "coset", "unsmoothing"),
        default="equidistribution",
    )
    p.add_argument("--emit-plot-data", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a ValueError or SmoothLabError it raises becomes a
    one-line message on stderr and exit status 2.  A stdout closed early by
    its reader, as `| head` closes it, ends the run quietly with status 1."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, SmoothLabError) as exc:
        print(f"smoothlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
