"""Host-speed calibration: fixed slices of work that share no code with smoothlab.

The benchmark runs on a shared host whose speed drifts by tens of per cent
within minutes, and the drift is a slower CPU, not preemption, so CPU time
does not escape it.  A run therefore times one calibration slice after every
item.  Each item's wall time is scaled by REFERENCE_S / (the median of the
slices around it): the figure the item would have taken on a host that runs
the slice in REFERENCE_S.  A change to smoothlab moves the item times and not
the slices, so it shows in full; a change of host speed moves both.

There are two kinds of slice, matching what a workload's hot layer does:
``python`` builds lists of smooth integers in pure Python, as enumeration
does, and ``numpy`` evaluates a complex exponential matrix and weights its
columns, as the Mellin quadrature and the Euler products do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one slice takes at the reference speed: its median on the machine
# the README describes, measured on 2026-10-18.
REFERENCE_S = {"python": 2.0e-3, "numpy": 2.0e-3}
WINDOW = 10  # an item is scaled by the median of the 2 * WINDOW + 1 nearest slices

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_ROWS = np.linspace(0.5, 2.5, 96) + 1j * np.linspace(-40.0, 40.0, 96)
_COLS = np.log(np.linspace(0.5, 2.0, 480))
_VEC = np.cos(np.arange(480.0)) + 0j


def _python_slice() -> int:
    vals = [1]
    for p in _PRIMES:
        out = []
        for v in vals:
            w = v
            while w <= 300_000:
                out.append(w)
                w *= p
        vals = out
    return len(vals)


def _numpy_slice() -> complex:
    # An elementwise product and a sum, not a BLAS matrix product: waking
    # OpenBLAS's worker threads took up to 4 ms, more than the slice itself.
    return complex(np.sum(np.exp(np.outer(_ROWS, _COLS)) * _VEC))


SLICES = {"python": _python_slice, "numpy": _numpy_slice}


def time_slice(kind: str) -> float:
    """Wall seconds of one calibration slice of the given kind."""
    work = SLICES[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scale_factors(kind: str, slice_s: list[float]) -> list[float]:
    """For slice i, REFERENCE_S / the median of the slices within WINDOW of i."""
    ref = REFERENCE_S[kind]
    n = len(slice_s)
    return [
        ref / statistics.median(slice_s[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i in range(n)
    ]
