"""Shared oracles and hypothesis configuration."""

from __future__ import annotations

import os
from math import gcd
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """This environment with the checkout's src/ first on PYTHONPATH, so a
    child interpreter imports the smoothlab under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def naive_is_smooth(n: int, y: float) -> bool:
    """Trial division over every integer divisor, independent of the sieve."""
    m = n
    d = 2
    largest = 1
    while d * d <= m:
        while m % d == 0:
            m //= d
            largest = max(largest, d)
        d += 1
    if m > 1:
        largest = max(largest, m)
    return largest <= y


def brute_count_smooth(x: float, y: float, q: int = 1, a: int | None = None) -> int:
    """Loop-and-factor oracle for exact smooth counts."""
    total = 0
    for n in range(1, int(x) + 1):
        if a is None:
            if gcd(n, q) != 1:
                continue
        elif n % q != a:
            continue
        if naive_is_smooth(n, y):
            total += 1
    return total


def brute_smooth_list(x: float, y: float, q: int = 1) -> list[int]:
    return [
        n
        for n in range(1, int(x) + 1)
        if gcd(n, q) == 1 and naive_is_smooth(n, y)
    ]
