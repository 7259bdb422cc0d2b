"""Span tracing of smoothlab's public functions, installed from outside.

A traced function is replaced by a wrapper wherever callers look it up: a
method on its class, a function in every smoothlab module whose globals hold
it (``contour``, ``experiments`` and ``inequalities`` bind several functions
by name at import, and the package re-exports most of them).  Spans are kept
in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from smoothlab.primes import primes_upto as _primes_upto  # bound before any patching


def _size(arr) -> int:
    return int(np.size(arr))


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives, its span name, what it counts."""

    module: str  # smoothlab submodule that defines it
    attr: str  # "func" or "Class.method"
    span: str  # span name, also the metric prefix
    count: Callable[[tuple, dict, object], int] | None = None


def _ts_nodes(args, kwargs, result) -> int:
    # mellin_many(self, c, ts)
    return _size(args[2] if len(args) > 2 else kwargs["ts"])


def _node_primes(args, kwargs, result) -> int:
    # euler_product_many(c, ts, chi, y) -> one value per node: nodes x pi(y)
    y = args[3] if len(args) > 3 else kwargs["y"]
    return _size(result) * len(_primes_upto(y))


TARGETS = (
    Target("primes", "primes_upto", "primes.primes_upto"),
    Target("smooth_core", "smooth_values", "smooth_core.smooth_values", lambda a, k, r: len(r)),
    Target("smooth_core", "count_smooth", "smooth_core.count_smooth"),
    Target("smooth_core", "count_smooth_weighted", "smooth_core.count_smooth_weighted"),
    Target("dirichlet", "character_group", "dirichlet.character_group", lambda a, k, r: len(r)),
    Target("dirichlet", "DirichletCharacter.__call__", "dirichlet.chi_eval"),
    Target("kernel", "SmoothingKernel.mellin_many", "kernel.mellin_many", _ts_nodes),
    Target("kernel", "SmoothingKernel.decay_constant", "kernel.decay_constant"),
    Target("saddle", "saddle_alpha", "saddle.saddle_alpha"),
    Target("lseries", "euler_product", "lseries.euler_product"),
    Target("lseries", "euler_product_many", "lseries.euler_product_many", _node_primes),
    Target("contour", "contour_psi", "contour.contour_psi"),
    Target("inequalities", "check_lemma1", "inequalities.check_lemma"),
    Target("inequalities", "check_lemma2", "inequalities.check_lemma"),
    Target("inequalities", "check_majorant", "inequalities.check_closed_form"),
    Target("inequalities", "check_pointwise_product", "inequalities.check_closed_form"),
    Target("inequalities", "check_calculus", "inequalities.check_closed_form"),
    Target("experiments", "run_equidistribution", "experiments.run_equidistribution"),
    Target("experiments", "run_coset", "experiments.run_coset"),
    Target("experiments", "run_unsmoothing", "experiments.run_unsmoothing"),
    Target("experiments", "export_results", "experiments.export"),
    Target("experiments", "export_unsmoothing", "experiments.export"),
)

# Per-layer metrics: (name, unit).  Every workload reports all of them; a
# layer the workload never enters reads 0.
PER_LAYER = (
    ("primes.primes_upto.calls", "count"),
    ("primes.primes_upto.self_s", "s"),
    ("smooth_core.smooth_values.calls", "count"),
    ("smooth_core.smooth_values.values", "count"),
    ("smooth_core.smooth_values.self_s", "s"),
    ("smooth_core.count_smooth.calls", "count"),
    ("smooth_core.count_smooth.self_s", "s"),
    ("smooth_core.count_smooth_weighted.self_s", "s"),
    ("dirichlet.character_group.chars", "count"),
    ("dirichlet.character_group.self_s", "s"),
    ("dirichlet.chi_eval.calls", "count"),
    ("dirichlet.chi_eval.self_s", "s"),
    ("kernel.mellin_many.calls", "count"),
    ("kernel.mellin_many.nodes", "count"),
    ("kernel.mellin_many.self_s", "s"),
    ("kernel.decay_constant.self_s", "s"),
    ("saddle.saddle_alpha.calls", "count"),
    ("saddle.saddle_alpha.self_s", "s"),
    ("lseries.euler_product.calls", "count"),
    ("lseries.euler_product.self_s", "s"),
    ("lseries.euler_product_many.calls", "count"),
    ("lseries.euler_product_many.node_primes", "count"),
    ("lseries.euler_product_many.self_s", "s"),
    ("contour.contour_psi.calls", "count"),
    ("contour.contour_psi.self_s", "s"),
    ("contour.phase_grid.hit_ratio", "ratio"),
    ("inequalities.check_lemma.calls", "count"),
    ("inequalities.check_lemma.self_s", "s"),
    ("inequalities.check_lemma.mellin_nodes", "count"),
    ("inequalities.check_closed_form.calls", "count"),
    ("inequalities.check_closed_form.self_s", "s"),
    ("experiments.run_equidistribution.self_s", "s"),
    ("experiments.run_coset.self_s", "s"),
    ("experiments.run_unsmoothing.self_s", "s"),
    ("experiments.export.self_s", "s"),
    ("perfbench.trace.overhead", "ratio"),
)


class Tracer:
    """Records one span per call of each target while installed.

    A span is [name, parent index, start, end, count]; the parent is the
    innermost traced call still open when the span began.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:  # already installed
            return
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "smoothlab"]
        for target in TARGETS:
            home = sys.modules[f"smoothlab.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, target))
                continue
            original = getattr(home, target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, func, target: Target):
        spans, open_ = self.spans, self._open
        span_name, count = target.span, target.count
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [span_name, open_[-1] if open_ else -1, clock(), 0.0, 1]
            spans.append(rec)
            open_.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[3] = clock()
                open_.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "name": name, "start": start, "end": end, "count": count}
                    )
                )
                fh.write("\n")

    def metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def under(idx: int, ancestor: str) -> bool:
            parent = spans[idx][1]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    return True
                parent = spans[parent][1]
            return False

        calls: dict[str, int] = {}
        counted: dict[str, int] = {}
        self_s: dict[str, float] = {}
        lemma_nodes = 0
        mellin_in_contour = 0
        for i, (name, parent, start, end, count) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            counted[name] = counted.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if name == "kernel.mellin_many":
                if under(i, "inequalities.check_lemma"):
                    lemma_nodes += count
                if under(i, "contour.contour_psi"):
                    mellin_in_contour += 1

        contour_calls = calls.get("contour.contour_psi", 0)
        derived = {
            "inequalities.check_lemma.mellin_nodes": lemma_nodes,
            # 1 - misses / lookups: contour_psi looks the phase grid up twice
            # (full and half order); 0 when contour_psi never ran.
            "contour.phase_grid.hit_ratio": (
                1.0 - mellin_in_contour / (2 * contour_calls) if contour_calls else 0.0
            ),
            "perfbench.trace.overhead": overhead,
        }
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            span, quantity = metric.rsplit(".", 1)
            if quantity == "calls":
                out[metric] = calls.get(span, 0)
            elif quantity == "self_s":
                out[metric] = self_s.get(span, 0.0)
            else:  # the span's own count: values, chars, nodes, node_primes
                out[metric] = counted.get(span, 0)
        return out
