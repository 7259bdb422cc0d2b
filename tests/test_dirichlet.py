"""Character groups: construction, evaluation, orders, conductors."""

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlab import character_group, primes_upto, principal_character
from smoothlab.dirichlet import DirichletCharacter, _unit_group


def _phi(q):
    return sum(1 for a in range(q) if gcd(a, q) == 1) if q > 1 else 1


def _units(q):
    return np.array([a for a in range(q) if gcd(a, q) == 1], dtype=np.int64)


def _power_product(chi, k, other):
    """The character chi^k * other, its exponents summed mod the orders."""
    exps = tuple(
        (k * m1 + m2) % d for m1, m2, d in zip(chi.exponents, other.exponents, chi.group.orders)
    )
    return DirichletCharacter(chi.modulus, exps, chi.group)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 30, 45, 128])
def test_group_size_and_principal_first(q):
    chars = character_group(q)
    assert len(chars) == _phi(q)
    assert chars[0].is_principal
    assert len({c.exponents for c in chars}) == len(chars)


def test_order_multisets():
    assert sorted(c.order for c in character_group(4)) == [1, 2]
    assert sorted(c.order for c in character_group(5)) == [1, 2, 4, 4]
    assert all(c.order in (1, 2) for c in character_group(8))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 12, 15])
def test_closed_under_multiplication_and_conjugation(q):
    chars = character_group(q)
    index = {c.exponents for c in chars}
    units = _units(q)
    for c1 in chars:
        assert c1.conjugate().exponents in index
        for c2 in chars:
            product = _power_product(c1, 1, c2)
            assert product.exponents in index
            pointwise = c1.values(units) * c2.values(units)
            assert np.max(np.abs(product.values(units) - pointwise)) < 1e-12


def test_evaluate_examples():
    chi4 = character_group(4)[1]
    assert chi4(3) == -1  # exact, not approximate
    assert chi4(2) == 0
    chi_i = next(c for c in character_group(5) if abs(c(2) - 1j) < 1e-12)
    assert chi_i(4) == -1


def test_zero_off_support():
    for q in (6, 12, 45):
        for chi in character_group(q):
            for n in range(2 * q):
                if gcd(n, q) != 1:
                    assert chi(n) == 0


@given(
    q=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=200),
    n=st.integers(min_value=1, max_value=200),
    pick=st.integers(min_value=0, max_value=10**6),
)
def test_total_multiplicativity(q, m, n, pick):
    chars = character_group(q)
    chi = chars[pick % len(chars)]
    assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-12)


@given(
    q=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=1, max_value=500),
)
def test_unit_modulus_on_units(q, n):
    if gcd(n, q) != 1:
        return
    for chi in character_group(q):
        assert abs(abs(chi(n)) - 1.0) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 21, 40, 60, 89, 200])
def test_orthogonality_both_ways(q):
    chars = character_group(q)
    phi = len(chars)
    table = np.array([c.value_table() for c in chars])  # phi x q
    gram = table @ table.conj().T
    assert np.max(np.abs(gram - phi * np.eye(phi))) < 1e-10
    # row orthogonality over residue pairs
    cross = table.conj().T @ table  # q x q
    expected = np.zeros((q, q))
    for a in range(q):
        if q == 1 or gcd(a, q) == 1:
            expected[a, a] = phi
    assert np.max(np.abs(cross - expected)) < 1e-10


@pytest.mark.parametrize("q", [5, 8, 12, 36])
def test_power_to_order_is_principal(q):
    phi = len(character_group(q))
    units = _units(q)
    for chi in character_group(q):
        assert phi % chi.order == 0
        assert _power_product(chi, chi.order, principal_character(q)).is_principal
        acc = np.ones(units.size, dtype=complex)
        for _ in range(chi.order):
            acc = acc * chi.values(units)
        assert np.max(np.abs(acc - 1)) < 1e-12


def test_order_of_examples():
    assert principal_character(7).order == 1
    quad = next(c for c in character_group(7) if not c.is_principal and c.order == 2)
    assert all(quad(n).imag == pytest.approx(0.0, abs=1e-12) for n in range(1, 7))
    assert max(c.order for c in character_group(5)) == 4


def _conductor_oracle(chi) -> int:
    """Smallest f | q with chi trivial on the kernel of reduction mod f."""
    q = chi.modulus
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        if all(
            chi(n) == pytest.approx(1.0, abs=1e-12)
            for n in range(1, q + 1)
            if n % f == 1 % f and gcd(n, q) == 1
        ):
            return f
    return q


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 36, 40])
def test_conductor_matches_induction_oracle(q):
    for chi in character_group(q):
        f = chi.conductor
        assert q % f == 0
        assert f == _conductor_oracle(chi)


def test_conductor_examples():
    assert principal_character(12).conductor == 1
    assert character_group(4)[1].conductor == 4  # primitive
    mod12 = character_group(12)
    assert sorted(c.conductor for c in mod12) == [1, 3, 4, 12]


def _bits(values) -> list[bytes]:
    return [np.complex128(v).tobytes() for v in values]


@lru_cache(maxsize=None)
def _brute_logs(q):
    """Each unit mod q mapped to its exponents against the lifted
    generators, by walking every exponent tuple."""
    group = _unit_group(q)
    logs = {}
    for exps in itertools.product(*(range(d) for d in group.orders)):
        r = 1 % q
        for g, l in zip(group.lifted_generators, exps):
            r = r * pow(g, l, q) % q
        logs[r] = exps
    return logs


def _exact_chi(chi, n):
    """chi(n) from the Fraction of a full turn: exact at the quarter turns,
    else one complex exponential of the correctly rounded fraction."""
    logs = _brute_logs(chi.modulus).get(n % chi.modulus)
    if logs is None:
        return 0j
    turn = sum(
        (Fraction(m * l, d) for m, l, d in zip(chi.exponents, logs, chi.group.orders)),
        Fraction(0),
    ) % 1
    num, den = turn.numerator, turn.denominator
    if 4 * num % den == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * num // den]
    return cmath.exp(2j * cmath.pi * (num / den))


def test_value_table_is_chi_bitwise():
    # q * 2^70 + r lies past 2^63 and is r mod q
    for q in range(1, 61):
        big = q * 2**70
        for chi in character_group(q):
            want = _bits(_exact_chi(chi, r) for r in range(q))
            assert _bits(chi.value_table()) == want
            assert _bits(chi(r) for r in range(q)) == want
            assert _bits(chi(big + r) for r in range(q)) == want
    q = 99_000  # 2^3 3^2 5^3 11: both 2-power generators and four odd components
    big = q * 2**70
    chars = character_group(q)
    rng = np.random.default_rng(7)
    residues = rng.integers(0, q, 400).tolist()
    for index in (0, 1, *rng.integers(2, len(chars), 6).tolist()):
        chi = chars[index]
        want = _bits(_exact_chi(chi, r) for r in residues)
        assert _bits(chi.value_table()[residues]) == want
        assert _bits(chi(r) for r in residues) == want
        assert _bits(chi(big + r) for r in residues) == want


def test_values_at_any_integer_match_table_and_chi():
    for q in range(1, 61):
        for chi in character_group(q):
            assert _bits(chi.values(np.arange(3 * q))) == _bits(np.tile(chi.value_table(), 3))
    chars = character_group(999_983)
    ps = primes_upto(50)
    for index in (0, 1, 999_980, 999_981):
        chi = chars[index]
        assert _bits(chi.values(np.array(ps))) == _bits(chi(p) for p in ps)


def test_values_reads_every_integer_dtype_that_fits_int64():
    chi = character_group(7)[1]
    want = _bits(chi.values(np.arange(100)))
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32):
        assert _bits(chi.values(np.arange(100, dtype=dtype))) == want, dtype
    assert _bits(chi.values(list(range(100)))) == want


def test_dlog_inverts_the_generators():
    # chi(n) and value_table read the same discrete-log table, so their
    # agreement does not check it; rebuilding each unit from its logs does.
    for q in (*range(1, 61), 2**12, 3**8, 5**5, 99_000):
        group = _unit_group(q)
        for r in range(q):
            if gcd(r, q) != 1:
                continue
            logs = [l for comp in group.components for l in comp.dlog[:, r % comp.modulus].tolist()]
            assert all(0 <= l < d for l, d in zip(logs, group.orders))
            product = 1 % q
            for g, l in zip(group.lifted_generators, logs):
                product = product * pow(g, l, q) % q
            assert product == r, (q, r)


def test_indexing_matches_iteration():
    # chars[i] splits i in mixed radix; iteration walks itertools.product
    for q in (*range(1, 61), 2**12):
        chars = character_group(q)
        assert [chars[i].exponents for i in range(len(chars))] == [c.exponents for c in chars]
    chars = character_group(99_000)
    walk = [c.exponents for c in chars]
    rng = np.random.default_rng(9)
    for index in (0, 1, len(chars) - 1, *rng.integers(2, len(chars), 200).tolist()):
        assert chars[index].exponents == walk[index]
    for index in (-1, len(chars)):
        with pytest.raises(IndexError):
            chars[index]


def test_modulus_too_large():
    with pytest.raises(ValueError, match="modulus 1000001 exceeds the table bound 1000000"):
        character_group(10**6 + 1)
