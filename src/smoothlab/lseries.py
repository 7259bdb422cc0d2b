"""Truncated Euler products over primes up to y, at a point and on a line grid.

The product over p <= y of (1 - chi(p) p^-s)^-1 equals the Dirichlet series
over y-smooth integers for Re(s) > 0; its factor-wise principal-branch
logarithm and logarithmic derivative are carried alongside the value.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletCharacter
from .errors import NearPoleError
from .kernel import _LOG_FLOAT_MAX
from .primes import _coprime_primes

POLE_GUARD = 1e-12
# (prime, row) terms of the row exponentials p^(-i t) that a prime table
# keeps, 1 MiB of complex: at most 167 x 295 = 49 265 on the contour
# benchmark's cells, while an uncapped table would hold 72 MB at
# (x, y) = (1e8, 1e5).  Rows past it are formed per call.
_BLOCK = 1 << 16
# (row, offset) terms per accumulator of euler_product_many.  With its term
# buffer it stays in cache, and neither grows with the number of rows.
_ACCUMULATOR = 1 << 13
# Relative slack on a bound of |terms|, for the rounding of the computed terms.
_BOUND_SLACK = 1e-15


@dataclass(frozen=True)
class EulerProductValue:
    value: complex
    log_value: complex
    log_deriv: complex


def _guarded(
    terms: np.ndarray, out: np.ndarray | None = None, max_modulus: float | None = None
) -> np.ndarray:
    """Factors 1 - terms, written to out when given; raises NearPoleError
    when one lies within POLE_GUARD of zero.

    max_modulus, when given, bounds |terms|: if 1 - max_modulus (with a
    rounding slack) clears POLE_GUARD, no factor can come near zero and the
    factors are not scanned one by one.
    """
    factors = np.subtract(1.0, terms, out=out)
    if max_modulus is not None and 1.0 - max_modulus * (1 + _BOUND_SLACK) >= POLE_GUARD:
        return factors
    if np.min(np.abs(factors), initial=np.inf) < POLE_GUARD:
        raise NearPoleError(f"Euler factor within {POLE_GUARD:g} of zero")
    return factors


def _factor_matrices(
    s: complex | np.ndarray, ps: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of c_p p^-s and 1 - c_p p^-s over (s, p), for s of any shape."""
    terms = cs * np.exp(-np.multiply.outer(s, np.log(ps)))
    return terms, _guarded(terms)


def euler_product(s: complex, chi: DirichletCharacter, y: float) -> EulerProductValue:
    """Product, factor-wise log, and L'/L of the truncated Euler product at s;
    ValueError when log|L| is past the float range, where L reads inf or NaN."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValueError("truncated Euler product requires finite s with Re(s) > 0")
    ps = _coprime_primes(y, chi.modulus)
    cs = chi.values(ps)
    if ps.size == 0:
        return EulerProductValue(1 + 0j, 0j, 0j)
    terms, factors = _factor_matrices(s, ps, cs)
    log_value = complex(-np.sum(np.log(factors)))
    if not abs(log_value.real) <= _LOG_FLOAT_MAX:
        past = f"truncated Euler product at s={s} and y={y:g} is past the float range"
        raise ValueError(f"{past}: log|L| = {log_value.real:.6g}")
    value = complex(np.prod(1.0 / factors))
    log_deriv = complex(-np.sum(np.log(ps) * terms / factors))
    return EulerProductValue(value, log_value, log_deriv)


def _prime_table(
    q: int, y: float, ts: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What euler_product_many's grid (ts, offsets) shares across the
    characters mod q, read-only: the primes p <= y not dividing q, their
    logs, the offset spins p^(-i offsets) as (prime, offset), and the row
    exponentials p^(-i ts) as (prime, row) for the first _BLOCK // len(ps) rows."""
    ps = _coprime_primes(y, q)
    log_p = np.log(ps)
    spin = np.exp(-1j * np.multiply.outer(log_p, offsets))
    head = np.exp(-1j * np.multiply.outer(log_p, ts[: _BLOCK // max(1, ps.size)]))
    table = ps, log_p, spin, head
    for arr in table:
        arr.setflags(write=False)
    return table


def euler_product_many(
    c: float,
    ts: np.ndarray,
    chi: DirichletCharacter,
    y: float,
    offsets: np.ndarray,
    table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Values at s = c + i(ts[k] + offsets[i]), as a (len(ts), len(offsets)) array.

    p^-s = p^-c * p^(-i ts[k]) * p^(-i offsets[i]) separates, and only the
    factor chi(p) p^-c depends on the character.  The rest is the table, which
    must be _prime_table(chi.modulus, y, ts, offsets) and is built here when
    None, so a caller that walks the characters of one grid builds it once.
    Each prime's rows, from the table or past its cap formed here, are
    scaled by chi(p) p^-c and spun by the offsets, and the factors are
    multiplied in prime order into (row, offset) accumulators of
    _ACCUMULATOR terms, as np.prod over the primes would, so every factor
    and product has the same bits for any accumulator size.  Every term of
    prime p has modulus |chi(p)| p^-c, so the pole guard scans the factors
    only when 1 - max_p |chi(p)| p^-c comes within POLE_GUARD of zero (c
    below about 1e-12).
    """
    ts = np.asarray(ts, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if not (0 < c < math.inf and np.isfinite(ts).all() and np.isfinite(offsets).all()):
        raise ValueError("truncated Euler product requires finite s with Re(s) > 0")
    if table is None:
        table = _prime_table(chi.modulus, y, ts, offsets)
    ps, log_p, spin, head = table
    scale = chi.values(ps) * np.exp(-c * log_p)
    max_modulus = float(np.max(np.abs(scale), initial=0.0))
    out = np.ones((ts.size, offsets.size), dtype=complex)
    kept = head.shape[1]
    step = max(1, _ACCUMULATOR // max(1, offsets.size))
    buffer = np.empty((min(step, ts.size), offsets.size), dtype=complex)
    # no accumulator straddles the table's last row
    for k in itertools.chain(range(0, kept, step), range(kept, ts.size, step)):
        stop = min(k + step, kept if k < kept else ts.size)
        acc, terms = out[k:stop], buffer[: stop - k]
        for s, lp, spin_p, head_p in zip(scale, log_p, spin, head):
            rows = head_p[k:stop] if k < kept else np.exp(-1j * (lp * ts[k:stop]))
            np.multiply((s * rows)[:, None], spin_p, out=terms)
            acc *= _guarded(terms, out=terms, max_modulus=max_modulus)
    return np.divide(1.0, out, out=out)
