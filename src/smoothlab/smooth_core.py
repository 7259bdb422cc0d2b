"""Exact counting of y-smooth integers.

Counts come from an enumeration built prime by prime: starting from [1],
each prime p <= y replaces the list by its values times p^0, p^1, ... up to
x (never a sieve array), so memory is proportional to the output.  A separate
lattice path handles astronomically large x for small y, and an Ennola-type
closed form provides the matching first-order estimate.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .dirichlet import DirichletCharacter
from .errors import (
    ThresholdExceededError,
    check_integer,
    check_modulus,
    check_smoothness_bound,
    check_threshold,
)
from .kernel import SmoothingKernel
from .primes import primes_upto

# Largest limit smooth_values enumerates; plain counts past it go to
# count_smooth_bigx.
MAX_ENUMERATION = 1e8

# Width of the log-space guard band inside which huge-x comparisons fall back
# to exact integer arithmetic.
LOG_GUARD = 1e-9

MAX_LATTICE_PRIMES = 25
# Most leaves count_smooth_bigx walks: three to four and a half seconds of
# walk at the 0.55 to 0.9 us a leaf measured with 14 walked primes on a
# 2-core Xeon.
MAX_LATTICE_LEAVES = 5e6


@dataclass(frozen=True)
class SmoothCountQuery:
    """Parameters (x, y, q, a) of a smooth-counting request.

    Thresholds too large to enumerate (x like 2^1443) go to count_smooth_bigx.
    """

    x: float
    y: float
    q: int = 1
    a: int | None = None

    def __post_init__(self) -> None:
        check_smoothness_bound(self.y)
        check_modulus(self.q)
        if self.q > np.iinfo(np.int64).max:
            raise ValueError(f"modulus q={self.q} exceeds the int64 bound 2^63 - 1")
        check_threshold(self.x)
        if self.a is not None:
            check_integer(self.a, "residue a")
            if not (0 <= self.a < self.q):
                raise ValueError("residue a must lie in [0, q)")
            if gcd(self.a, self.q) != 1:
                raise ValueError(f"gcd({self.a}, {self.q}) > 1")


@dataclass(frozen=True)
class SmoothCount:
    """A count, class count or kernel-weighted count."""

    value: int | float | complex


def is_smooth(n: int, y: float) -> bool:
    """True iff every prime factor of n is <= y (n = 1 vacuously smooth)."""
    check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    for p in primes_upto(min(y, math.isqrt(n))).tolist():
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    return n == 1 or n <= y


def smooth_values(limit: float, y: float, q: int = 1) -> np.ndarray:
    """All y-smooth n <= limit built from primes not dividing q, including 1,
    as an int64 array in generation order.

    A modulus q that is not an integer >= 1, or a NaN limit, raises
    ValueError, and a limit above MAX_ENUMERATION ThresholdExceededError,
    before anything is built.
    """
    check_modulus(q)
    if math.isnan(limit):
        raise ValueError("enumeration limit must not be NaN")
    if limit > MAX_ENUMERATION:
        raise ThresholdExceededError(
            f"enumeration limit {limit:g} exceeds the enumeration ceiling {MAX_ENUMERATION:g}"
        )
    if limit < 1:
        return np.zeros(0, dtype=np.int64)
    vals = [1]
    # a prime above the limit only copies the list
    for p in primes_upto(min(y, limit)).tolist():
        if q % p == 0:
            continue
        out = []
        for v in vals:
            w = v
            while w <= limit:
                out.append(w)
                w *= p
        vals = out
    return np.array(vals, dtype=np.int64)


def _by_class(limit: float, y: float, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (grouped, residues, starts) from one enumeration of the y-smooth
    n <= limit coprime to q: the values grouped by class mod q, in generation
    order inside each class; the sorted residues that occur; each class's run
    start.  A class count is its run length, and no array outgrows the values."""
    vals = smooth_values(limit, y, q)
    classes = vals % q
    # a stable sort of keys of at most 16 bits is a radix sort, with the same order
    order = np.argsort(classes.astype(np.min_scalar_type(q - 1)), kind="stable")
    runs = classes[order]
    starts = np.flatnonzero(np.diff(runs, prepend=-1))
    table = vals[order], runs[starts], starts
    for arr in table:
        arr.setflags(write=False)
    return table


def _run_of(residues: np.ndarray, a: int) -> int | None:
    """The index of residue a in the sorted residues, or None if no n lies in its class."""
    i = int(np.searchsorted(residues, a))
    return i if i < residues.size and residues[i] == a else None


def count_smooth(query: SmoothCountQuery) -> SmoothCount:
    """Exact |{n <= x : n y-smooth, gcd(n, q) = 1}|, or the class n = a (mod q)."""
    grouped, residues, starts = _by_class(query.x, query.y, query.q)
    if query.a is None:
        return SmoothCount(grouped.size)
    i = _run_of(residues, query.a)
    return SmoothCount(0 if i is None else int(np.diff(starts, append=grouped.size)[i]))


def count_smooth_weighted(
    query: SmoothCountQuery,
    kernel: SmoothingKernel,
    chi: DirichletCharacter | None = None,
) -> SmoothCount:
    """Kernel-weighted smooth count.

    With a character: sum of chi(n) * phi(n/x) over all y-smooth n (the
    character kills residues sharing a factor with q).  Without: sum of
    phi(n/x) over the class n = a (mod q), or over all n coprime to q.
    All three read one set of class weights W_a, the sum of phi(n/x) over
    n = a (mod q), cached per (x, y, q, kernel) for the residues a that
    occur: the character sum is sum_a chi(a) W_a, so every character and
    class of a cell shares one enumeration.  The cache grows with the
    number of smooth values, never with q.
    """
    if chi is not None:
        if chi.modulus != query.q:
            raise ValueError(f"character modulus {chi.modulus} != query modulus {query.q}")
        if query.a is not None:
            raise ValueError("give either a character or a residue class, not both")
    residues, sums = _class_weights(query.x, query.y, query.q, kernel)
    if chi is not None:
        return SmoothCount(complex(chi.values(residues) @ sums))
    if query.a is not None:
        i = _run_of(residues, query.a)
        return SmoothCount(0.0 if i is None else float(sums[i]))
    return SmoothCount(float(np.sum(sums)))


@lru_cache(maxsize=8)
def _class_weights(
    x: float, y: float, q: int, kernel: SmoothingKernel
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (residues, sums): the class table's residues at the limit
    kernel.hi * x, and W_a = sum of phi(n/x) over each residue's run."""
    grouped, residues, starts = _by_class(kernel.hi * x, y, q)
    # reduceat sums each class's run of terms pairwise, as np.sum does
    sums = np.add.reduceat(kernel.phi_many(grouped / x), starts)
    sums.setflags(write=False)
    return residues, sums


def _lattice_primes(bigx: tuple[int, int], y: float, q: int) -> tuple[list[int], float]:
    """The primes p <= y not dividing q and the log budget exponent * log(base),
    inf past the float range, after checking bigx = (base, exponent), y and q."""
    base, exponent = bigx
    check_integer(base, "base")
    check_integer(exponent, "exponent")
    if base < 2 or exponent < 1:
        raise ValueError("bigx needs base >= 2 and exponent >= 1")
    check_smoothness_bound(y)
    check_modulus(q)
    try:
        budget = exponent * math.log(base)
    except OverflowError:
        budget = math.inf
    return [p for p in primes_upto(y).tolist() if q % p != 0], budget


def count_smooth_bigx(bigx: tuple[int, int], y: float, q: int = 1) -> SmoothCount:
    """Exact |{n <= base**exponent : n y-smooth, gcd(n, q) = 1}| for small y.

    Counts exponent vectors (e_p) with sum e_p log p <= exponent * log(base)
    by guarded floating comparison; ties inside the 1e-9 log-space guard band
    are settled by exact big-integer comparison.

    A walk of more than MAX_LATTICE_LEAVES leaves raises
    ThresholdExceededError.  Ennola's main term over the walked primes (all
    but the smallest) is the volume of the simplex sum e_p log p <= B, and
    it is a lower bound on the leaf count: every point t of the simplex lies
    in the unit cube at floor(t), which is a leaf.  So a main term above the
    cap refuses the walk before it starts, but a main term below it cannot
    admit one ((2, 35) at y = 47 has a main term of 226 and 637,120
    leaves); the walk counts its leaves and raises once they pass the cap.

    So does a log budget B = exponent * log(base) whose float rounding could
    reach the guard band, which no leaf bound catches when a single prime is
    walked.  With u = 2^-53 and each log good to one ulp (2u): B carries the
    roundings of the exponent, the log and the product (4u B); each of the
    depth walked primes adds to spent those of its log, of e log p and of
    the sum (4u B); the leaf's gap |(B - spent) / log p0 - m| log p0 those
    of the difference, the quotient and twice the log (6u B), and the loop's
    spent <= B + LOG_GUARD test those of its sum (u B).  So every comparison
    is off by less than (4 depth + 10) u (B + LOG_GUARD), and the walk is
    refused when that reaches LOG_GUARD: B of about 9.0e5 for one prime, 6.4e5
    for two.  An exponent past the float range counts as B = inf.
    """
    base, exponent = bigx
    plist, budget = _lattice_primes(bigx, y, q)
    if len(plist) > MAX_LATTICE_PRIMES:
        raise ThresholdExceededError(
            f"{len(plist)} primes <= {y} exceed the lattice bound {MAX_LATTICE_PRIMES}"
        )
    if not plist:
        return SmoothCount(1)  # only n = 1

    depth = len(plist) - 1
    if (4 * depth + 10) * 2.0**-53 * (budget + LOG_GUARD) >= LOG_GUARD:
        raise ThresholdExceededError(
            f"log budget {budget:.3g} too large for an exact count: its float rounding "
            f"would reach the guard band {LOG_GUARD:g}"
        )
    estimate = _simplex_count(budget, plist[1:])
    if estimate > MAX_LATTICE_LEAVES:
        raise ThresholdExceededError(
            f"lattice walk of about {estimate:.3g} leaves exceeds the bound {MAX_LATTICE_LEAVES:g}"
        )
    p0, log0 = plist[0], math.log(plist[0])
    # Walk the exponents of the larger primes, largest first; the smallest
    # prime's exponents are counted in closed form at each leaf, with
    # boundary ties settled exactly.  path[i] is the exponent of rest[i].
    rest = [(p, math.log(p)) for p in reversed(plist[1:])]
    path = [0] * len(rest)
    limit = budget + LOG_GUARD
    leaves = itertools.count(1)

    def visit(i: int, spent: float) -> int:
        if i == depth:
            if next(leaves) > MAX_LATTICE_LEAVES:
                raise ThresholdExceededError(
                    f"lattice walk passed the bound of {MAX_LATTICE_LEAVES:g} leaves "
                    f"(Ennola's main term was {estimate:.3g})"
                )
            r = (budget - spent) / log0
            m = round(r)
            if abs(r - m) * log0 >= LOG_GUARD:
                # spent <= budget + LOG_GUARD, so floor(r) >= -1, which counts 0
                return math.floor(r) + 1
            # base**exponent is built only here, on a tie
            n = p0**m * math.prod(p**e for (p, _), e in zip(rest, path))
            return m + 1 if n <= base**exponent else m
        lp = rest[i][1]
        total = e = 0
        s = spent
        while s <= limit:
            path[i] = e
            total += visit(i + 1, s)
            e += 1
            s = spent + e * lp
        return total

    return SmoothCount(visit(0, 0.0))


@dataclass(frozen=True)
class EnnolaEstimate:
    """First-order closed form for the huge-x regime, with its error factor."""

    main_term: float
    error_factor: float
    prime_count: int


def ennola_estimate(bigx: tuple[int, int], y: float, q: int = 1) -> EnnolaEstimate:
    """Main term (1/m!) * prod(log x / log p) over primes p <= y, p not | q.

    The heuristic relative error factor y^2 / (log x log y) is returned
    alongside; a warning is issued outside the regime 2 <= y <= sqrt(log x).
    A log x, or a main term, past the float range raises
    ThresholdExceededError before any warning.
    """
    plist, log_x = _lattice_primes(bigx, y, q)
    if log_x == math.inf:
        raise ThresholdExceededError("log budget exponent * log(base) overflows a float")
    main = _simplex_count(log_x, plist)
    if y > math.sqrt(log_x):
        warnings.warn(
            f"y={y:g} outside the recommended window [2, sqrt(log x)={math.sqrt(log_x):.3g}]",
            stacklevel=2,
        )
    error = y * y / (log_x * math.log(y))
    return EnnolaEstimate(main, error, len(plist))


def _simplex_count(log_x: float, plist: list[int]) -> float:
    """Ennola's main term (1/m!) * prod(log x / log p) over the m primes of
    plist: the volume of the simplex sum e_p log p <= log x.  It is formed
    from logs, and a main term past the float range raises
    ThresholdExceededError."""
    log_main = math.fsum(math.log(log_x / math.log(p)) for p in plist)
    log_main -= math.lgamma(len(plist) + 1)
    try:
        return math.exp(log_main)
    except OverflowError:
        raise ThresholdExceededError(
            f"Ennola's main term e^{log_main:.6g} over {len(plist)} primes overflows a float"
        ) from None
