"""Shared incremental prime sieve.

The sieve grows geometrically and is cached at module level; requests are
served by slicing, so repeated calls with the same floor(y) are cheap and
concurrent initialization is idempotent.
"""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

# Largest prime bound the sieve serves: its byte array and prime list at
# this bound take a few hundred MB, and no caller needs more.
MAX_SIEVE = 10**8

_LOCK = threading.Lock()
_LIMIT = 0
_PRIMES: list[int] = []


def primes_upto(y: float) -> list[int]:
    """All primes p <= y in increasing order; y above MAX_SIEVE raises ValueError."""
    if not math.isfinite(y):
        raise ValueError(f"prime bound must be finite, got {y!r}")
    if y > MAX_SIEVE:
        raise ValueError(f"prime bound {y:g} exceeds the sieve bound {MAX_SIEVE:g}")
    n = int(y)
    if n < 2:
        return []
    if n > _LIMIT:
        _grow(n)
    return _PRIMES[: bisect.bisect_right(_PRIMES, n)]


def _grow(n: int) -> None:
    global _LIMIT, _PRIMES
    with _LOCK:
        if n <= _LIMIT:
            return
        limit = min(max(n, 2 * _LIMIT, 1 << 10), MAX_SIEVE)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        p = 2
        while p * p <= limit:
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
            p += 1
        found = np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8))
        del sieve  # the byte array is freed before the list of ints is built
        _PRIMES = found.tolist()
        _LIMIT = limit
