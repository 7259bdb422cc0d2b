"""Dirichlet character groups with exact root-of-unity arithmetic.

The unit group (Z/qZ)* is split by CRT into cyclic pieces (primitive roots
at odd prime powers, <-1, 5> at powers of two), and a character is the tuple
of its exponents against those generators.  A discrete-log table per
prime-power factor, one integer row per generator indexed by residue, makes
evaluation an array lookup: chi(n) is the integer turn k mod L, L the lcm
of the generator orders, and becomes a complex number only at the end,
exactly at the quarter turns, so no value carries rounding from another.
"""

from __future__ import annotations

import cmath
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import check_integer, check_modulus

MAX_MODULUS = 10**6


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    factors = [f for f, _ in _factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g


@dataclass(frozen=True)
class _Component:
    """One prime-power factor of the modulus with its generators and dlogs.

    dlog has one int64 row per generator, indexed by residue mod the
    component's modulus: row i holds the exponent of gens[i] in that residue
    (0 off the units).
    """

    modulus: int
    prime: int
    gens: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: np.ndarray = field(repr=False, compare=False)


def _powers(g: int, n: int, m: int) -> np.ndarray:
    """g^0, ..., g^(n-1) mod m as an int64 array, doubling the run each step.

    Every product stays below m^2 <= MAX_MODULUS^2, well inside int64.
    """
    out = np.ones(1, dtype=np.int64)
    while out.size < n:
        out = np.concatenate([out, out * pow(g, out.size, m) % m])
    return out[:n]


def _build_component(p: int, e: int) -> _Component | None:
    pk = p**e
    if p == 2:
        if e == 1:
            return None
        if e == 2:
            return _Component(4, 2, (3,), (2,), np.array([[0, 0, 0, 1]], dtype=np.int64))
        # the units mod 2^e are +-5^b for 0 <= b < 2^e / 4
        fives = _powers(5, pk // 4, pk)
        table = np.zeros((2, pk), dtype=np.int64)
        table[0, pk - fives] = 1
        table[1, fives] = table[1, pk - fives] = np.arange(pk // 4)
        return _Component(pk, 2, (pk - 1, 5), (2, pk // 4), table)
    g = _primitive_root(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    order = pk - pk // p
    table = np.zeros((1, pk), dtype=np.int64)
    table[0, _powers(g, order, pk)] = np.arange(order)
    return _Component(pk, p, (g % pk,), (order,), table)


@dataclass(frozen=True)
class _UnitGroup:
    q: int
    components: tuple[_Component, ...]

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(d for comp in self.components for d in comp.orders)

    @cached_property
    def lifted_generators(self) -> tuple[int, ...]:
        """Generators lifted to modulus q (1 in every other CRT coordinate)."""
        gens = []
        for comp in self.components:
            rest = self.q // comp.modulus
            inv = pow(rest, -1, comp.modulus)
            for g in comp.gens:
                gens.append((1 + rest * ((g - 1) * inv % comp.modulus)) % self.q)
        return tuple(gens)


# typed, so that each integer type of q gets a group that holds that q
@lru_cache(maxsize=128, typed=True)
def _unit_group(q: int) -> _UnitGroup:
    if q > MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the table bound {MAX_MODULUS}")
    comps = tuple(c for p, e in _factorize(q) if (c := _build_component(p, e)) is not None)
    return _UnitGroup(q, comps)


def _turn(k: int, n: int) -> complex:
    """e(k / n) for 0 <= k < n: exact at the quarter turns, else one
    complex exponential of the correctly rounded float k / n."""
    if 4 * k % n == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * k // n]
    return cmath.exp(2j * cmath.pi * (k / n))


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q, indexed by exponents against fixed generators."""

    modulus: int
    exponents: tuple[int, ...]
    group: _UnitGroup = field(repr=False, compare=False)

    @property
    def is_principal(self) -> bool:
        return all(m == 0 for m in self.exponents)

    @cached_property
    def order(self) -> int:
        out = 1
        for d, m in zip(self.group.orders, self.exponents):
            out = lcm(out, d // gcd(d, m))
        return out

    @cached_property
    def conductor(self) -> int:
        f = 1
        idx = 0
        for comp in self.group.components:
            k = len(comp.gens)
            f *= _local_conductor(comp, self.exponents[idx : idx + k])
            idx += k
        return f

    def __call__(self, n: int) -> complex:
        """chi(n), the scalar view of values: the integer turn k mod L of n's
        residue, which is reduced mod q on Python ints, so n past 2^63 answers."""
        check_integer(n, "n")
        return complex(self.values(np.array([int(n) % self.modulus]))[0])

    def conjugate(self) -> "DirichletCharacter":
        exps = tuple((-m) % d for m, d in zip(self.exponents, self.group.orders))
        return DirichletCharacter(self.modulus, exps, self.group)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """chi at every entry of an integer array, as a complex array (zeros
        off the support).  An array whose dtype is not an integer type that
        casts safely to int64 (float, complex, bool, object, uint64) is
        refused."""
        # chi(n) is the turn k(n) / L with k(n) = sum (m * dlog % d) * (L / d)
        # mod L; each distinct k is mapped to a complex value once.
        ns = np.asarray(ns)
        if ns.dtype.kind not in "iu" or not np.can_cast(ns.dtype, np.int64):
            raise ValueError(f"ns must be an integer array within int64, got dtype {ns.dtype}")
        ns = ns.astype(np.int64, copy=False)
        group = self.group
        big_l = lcm(*group.orders)
        rows = ((comp.modulus, row) for comp in group.components for row in comp.dlog)
        k = np.zeros(ns.shape, dtype=np.int64)
        for (modulus, dlog), m, d in zip(rows, self.exponents, group.orders):
            k += (m * dlog[ns % modulus] % d) * (big_l // d)
        units = np.gcd(ns, self.modulus) == 1
        distinct, where = np.unique(k[units] % big_l, return_inverse=True)
        turns = [_turn(kk, big_l) for kk in distinct.tolist()]
        out = np.zeros(ns.shape, dtype=complex)
        out[units] = np.array(turns, dtype=complex)[where]
        return out

    def value_table(self) -> np.ndarray:
        """chi on all residues 0..q-1 as a complex array (zeros off support)."""
        return self.values(np.arange(self.modulus))

    def values_on_generators(self) -> list[tuple[int, Fraction]]:
        """(lifted generator, angle) pairs describing chi completely."""
        gens = self.group.lifted_generators
        return [(g, Fraction(m, d)) for g, m, d in zip(gens, self.exponents, self.group.orders)]


def _local_conductor(comp: _Component, exps: tuple[int, ...]) -> int:
    p = comp.prime
    if p == 2 and len(exps) == 2:
        m_neg, m_five = exps
        d5 = comp.orders[1]
        t5 = d5 // gcd(d5, m_five)
        if t5 > 1:
            return 4 * t5
        return 4 if m_neg else 1
    (m,) = exps
    d = comp.orders[0]
    t = d // gcd(d, m)
    if t == 1:
        return 1
    if p == 2:
        return 4
    e = 0
    while t % p == 0:
        t //= p
        e += 1
    return p ** (e + 1)


class _Characters(Sequence):
    """The characters of one unit group, each built when it is asked for.

    Index i holds the exponents of i written in mixed radix over the
    generator orders, the last generator's digit varying fastest.
    """

    def __init__(self, group: _UnitGroup) -> None:
        self._group = group

    def __len__(self) -> int:
        return prod(self._group.orders)

    def __getitem__(self, index: int) -> DirichletCharacter:
        i = operator.index(index)
        if not 0 <= i < len(self):
            raise IndexError(f"character index {i} out of range [0, {len(self)})")
        exps = []
        for d in reversed(self._group.orders):
            i, m = divmod(i, d)
            exps.append(m)
        return DirichletCharacter(self._group.q, tuple(reversed(exps)), self._group)


def character_group(q: int) -> Sequence[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, in generator-exponent
    order, as a read-only sequence that builds each character on request."""
    check_modulus(q)  # before the cached lookup, which an unhashable q would break
    return _Characters(_unit_group(q))


def principal_character(q: int) -> DirichletCharacter:
    check_modulus(q)
    group = _unit_group(q)
    return DirichletCharacter(q, (0,) * len(group.orders), group)

