"""Shared incremental prime sieve: one read-only int64 array at module level,
grown geometrically and served as prefix views, so repeated calls share its
memory and concurrent initialization is idempotent.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Largest prime bound the sieve serves: sieving to it peaks at 170 MB (the
# boolean sieve and the int64 primes), and no caller needs more.
MAX_SIEVE = 10**8

_LOCK = threading.Lock()
_LIMIT = 0
_PRIMES = np.frombuffer(b"", dtype=np.int64)  # empty and, as a view of bytes, read-only


def primes_upto(y: float) -> np.ndarray:
    """All primes p <= y in increasing order, as a read-only int64 view of
    the shared sieve; y above MAX_SIEVE raises ValueError."""
    if not math.isfinite(y):
        raise ValueError(f"prime bound must be finite, got {y!r}")
    if y > MAX_SIEVE:
        raise ValueError(f"prime bound {y:g} exceeds the sieve bound {MAX_SIEVE:g}")
    if y > _LIMIT:
        _grow(int(y))
    return _PRIMES[: np.searchsorted(_PRIMES, int(y), side="right")]


def _grow(n: int) -> None:
    global _LIMIT, _PRIMES
    with _LOCK:
        if n <= _LIMIT:
            return
        limit = min(max(n, 2 * _LIMIT, 1 << 10), MAX_SIEVE)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        found = np.flatnonzero(sieve).astype(np.int64, copy=False)
        found.setflags(write=False)
        _PRIMES, _LIMIT = found, limit  # primes first: who sees the limit sees them
