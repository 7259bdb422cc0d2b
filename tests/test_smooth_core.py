"""Exact smooth counting: enumeration, weights, huge-x lattice, Ennola form."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_count_smooth, brute_smooth_list, naive_is_smooth
from smoothlab import (
    DirichletCharacter,
    SmoothCountQuery,
    SmoothingKernel,
    character_group,
    count_smooth,
    count_smooth_bigx,
    count_smooth_weighted,
    ennola_estimate,
    is_smooth,
    smooth_values,
)
from smoothlab.errors import (
    InvalidResidueError,
    ModulusMismatchError,
    ThresholdExceededError,
    TooManyPrimesError,
)
from smoothlab import primes, smooth_core
from smoothlab.primes import MAX_SIEVE, primes_upto
from smoothlab.smooth_core import MAX_ENUMERATION, _class_weights

KERNEL = SmoothingKernel()


def test_is_smooth_examples():
    assert is_smooth(12, 3)
    assert not is_smooth(14, 5)
    assert is_smooth(1, 2)


@pytest.mark.parametrize("y", [0.5, 1.0, 1.5, math.inf])
def test_one_is_smooth_at_every_y(y):
    assert is_smooth(1, y)


@given(n=st.integers(min_value=1, max_value=5000), y=st.floats(min_value=2, max_value=60))
def test_is_smooth_matches_naive_factorization(n, y):
    assert is_smooth(n, y) == naive_is_smooth(n, y)


def test_count_examples():
    assert count_smooth(SmoothCountQuery(x=10, y=10)).value == 10
    assert count_smooth(SmoothCountQuery(x=100, y=5)).value == 34
    assert count_smooth(SmoothCountQuery(x=100, y=5, q=3, a=1)).value == 8
    assert count_smooth(SmoothCountQuery(x=100, y=5, q=3, a=2)).value == 7
    assert type(count_smooth(SmoothCountQuery(x=100, y=5)).value) is int
    assert type(count_smooth(SmoothCountQuery(x=100, y=5, q=3, a=1)).value) is int


@given(
    x=st.integers(min_value=1, max_value=400),
    y=st.floats(min_value=2, max_value=40),
    q=st.integers(min_value=1, max_value=12),
)
def test_count_matches_brute_force(x, y, q):
    assert count_smooth(SmoothCountQuery(x=float(x), y=y, q=q)).value == brute_count_smooth(
        x, y, q
    )


@given(
    x=st.integers(min_value=2, max_value=300),
    y=st.floats(min_value=2, max_value=30),
)
def test_monotone_in_x_and_y(x, y):
    base = count_smooth(SmoothCountQuery(x=float(x), y=y)).value
    assert count_smooth(SmoothCountQuery(x=float(x + 7), y=y)).value >= base
    assert count_smooth(SmoothCountQuery(x=float(x), y=y + 5)).value >= base


@given(
    x=st.integers(min_value=1, max_value=500),
    y=st.floats(min_value=2, max_value=30),
    q=st.integers(min_value=1, max_value=14),
)
def test_classes_partition_the_coprime_count(x, y, q):
    total = count_smooth(SmoothCountQuery(x=float(x), y=y, q=q)).value
    classes = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
    split = sum(
        count_smooth(SmoothCountQuery(x=float(x), y=y, q=q, a=a)).value for a in classes
    )
    assert split == total


def test_query_validation():
    with pytest.raises(InvalidResidueError):
        SmoothCountQuery(x=100.0, y=5.0, q=6, a=2)
    with pytest.raises(ValueError):
        SmoothCountQuery(x=100.0, y=1.5)
    with pytest.raises(ValueError):
        SmoothCountQuery(x=None, y=5.0)


def test_modulus_beyond_int64_refused():
    # vals % q and the class weights run in int64, so q = 2^63 - 1 is the largest
    big = 2**63 - 1
    assert count_smooth(SmoothCountQuery(x=100.0, y=5.0, q=big, a=1)).value == 1
    # every n <= KERNEL.hi * x is its own residue, so only n = 1 is in the class
    weighted = count_smooth_weighted(SmoothCountQuery(x=100.0, y=5.0, q=big, a=1), KERNEL)
    assert weighted.value == KERNEL.phi(1 / 100.0)
    for q in (2**63, 10**20):
        with pytest.raises(ValueError, match=f"modulus q={q} exceeds the int64 bound 2\\^63 - 1"):
            SmoothCountQuery(x=100.0, y=5.0, q=q)


def _no_enumeration(*args):
    raise AssertionError("enumeration started")


def test_enumeration_ceiling_enforced(monkeypatch):
    # the refusal comes before smooth_values reads a single prime
    monkeypatch.setattr(smooth_core, "primes_upto", _no_enumeration)
    with pytest.raises(ThresholdExceededError, match="exceeds the enumeration ceiling 1e\\+08"):
        count_smooth(SmoothCountQuery(x=2e8, y=5.0))


@pytest.mark.parametrize("q", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: smooth_values(10, 5, q=q),
        lambda q: count_smooth_bigx((2, 10), 3.0, q=q),
        lambda q: ennola_estimate((2, 300), 5.0, q=q),
    ],
    ids=["smooth_values", "count_smooth_bigx", "ennola_estimate"],
)
def test_modulus_below_one_refused(monkeypatch, call, q):
    # q = 0 once gave [1], a count of 1 and an empty prime set, and q = -3
    # acted as q = 3; the refusal comes before a single prime is read
    monkeypatch.setattr(smooth_core, "primes_upto", _no_enumeration)
    with pytest.raises(ValueError, match="modulus q must be >= 1"):
        call(q)


def test_smooth_values_refuses_a_limit_above_the_ceiling():
    with pytest.raises(ThresholdExceededError):
        smooth_values(1e8 + 1, 2)
    # the ceiling itself is admitted: 2^0, ..., 2^26
    assert smooth_values(MAX_ENUMERATION, 2).size == 27


def test_smooth_values_refuses_a_nan_limit(monkeypatch):
    # a finite limit below 1 holds no n; +inf is above the ceiling
    assert smooth_values(0.5, 5).size == 0
    monkeypatch.setattr(smooth_core, "primes_upto", _no_enumeration)
    with pytest.raises(ValueError, match="enumeration limit must not be NaN"):
        smooth_values(math.nan, 5)
    with pytest.raises(ThresholdExceededError):
        smooth_values(math.inf, 5)


def test_ceiling_environment_variable_is_ignored(monkeypatch):
    # SMOOTHLAB_CEILING once lowered the ceiling; it is no longer read
    monkeypatch.setenv("SMOOTHLAB_CEILING", "5")
    assert count_smooth(SmoothCountQuery(x=10.0, y=5.0)).value == 9


def test_weighted_ceiling_bounds_the_enumeration_limit():
    # the weighted count enumerates up to KERNEL.hi * x = 1.2e8, the plain one to x
    query = SmoothCountQuery(x=6e7, y=2.0)
    assert count_smooth(query).value == 26
    with pytest.raises(ThresholdExceededError):
        count_smooth_weighted(query, KERNEL)
    got = count_smooth_weighted(SmoothCountQuery(x=5e7, y=2.0), KERNEL).value
    assert got == pytest.approx(math.fsum(KERNEL.phi(2**k / 5e7) for k in range(27)), abs=1e-12)


# -- weighted counts -----------------------------------------------------------


def test_weighted_character_example():
    # odd 3-smooth n <= 20 are 1, 3, 9 with chi-values 1, -1, 1 mod 4
    chi = character_group(4)[1]
    got = count_smooth_weighted(SmoothCountQuery(x=10.0, y=3.0, q=4), KERNEL, chi=chi).value
    assert got == pytest.approx(KERNEL.phi(0.9), abs=1e-12)


def test_weighted_boundary_example():
    got = count_smooth_weighted(SmoothCountQuery(x=4.0, y=2.0, q=1), KERNEL).value
    assert got == pytest.approx(2.0 + KERNEL.phi(1.0), abs=1e-12)


@given(
    x=st.integers(min_value=2, max_value=250),
    y=st.floats(min_value=2, max_value=30),
    q=st.integers(min_value=1, max_value=10),
)
def test_weighted_matches_brute_force(x, y, q):
    got = count_smooth_weighted(SmoothCountQuery(x=float(x), y=y, q=q), KERNEL).value
    want = sum(KERNEL.phi(n / x) for n in brute_smooth_list(KERNEL.hi * x, y, q))
    assert got == pytest.approx(want, abs=1e-12)


@given(
    x=st.integers(min_value=2, max_value=200),
    y=st.floats(min_value=2, max_value=20),
    q=st.integers(min_value=2, max_value=8),
)
def test_weighted_below_sharp_count_at_double_threshold(x, y, q):
    weighted = count_smooth_weighted(SmoothCountQuery(x=float(x), y=y, q=q), KERNEL).value
    sharp = count_smooth(SmoothCountQuery(x=float(2 * x), y=y, q=q)).value
    assert weighted <= sharp + 1e-12


def test_weighted_residue_class_is_real():
    got = count_smooth_weighted(SmoothCountQuery(x=50.0, y=5.0, q=3, a=1), KERNEL).value
    assert isinstance(got, float)


def test_weighted_empty_enumeration():
    # kernel.hi * x = 0.5 < 1: nothing is enumerated
    kernel = SmoothingKernel(0.1, 0.5)
    plain = count_smooth_weighted(SmoothCountQuery(x=1.0, y=2.0), kernel).value
    by_class = count_smooth_weighted(SmoothCountQuery(x=1.0, y=2.0, q=3, a=1), kernel).value
    chi = character_group(3)[1]
    by_char = count_smooth_weighted(SmoothCountQuery(x=1.0, y=2.0, q=3), kernel, chi=chi).value
    assert (plain, type(plain)) == (0.0, float)
    assert (by_class, type(by_class)) == (0.0, float)
    assert (by_char, type(by_char)) == (0j, complex)


@pytest.mark.parametrize("x,y,q", [(40.0, 7.0, 5), (90.0, 11.0, 8), (120.0, 5.0, 1)])
def test_cached_class_weights_match_brute_force(x, y, q):
    ns = brute_smooth_list(KERNEL.hi * x, y, q)
    query = SmoothCountQuery(x=x, y=y, q=q)
    for _ in range(2):  # the second pass reads the cached class weights
        for chi in character_group(q):
            got = count_smooth_weighted(query, KERNEL, chi=chi).value
            terms = [chi(n) * KERNEL.phi(n / x) for n in ns]
            want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            assert abs(got - want) <= 1e-12
        for a in range(q):
            if math.gcd(a, q) == 1:
                got = count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=q, a=a), KERNEL).value
                want = math.fsum(KERNEL.phi(n / x) for n in ns if n % q == a)
                assert got == pytest.approx(want, abs=1e-12)
        got = count_smooth_weighted(query, KERNEL).value
        assert got == pytest.approx(math.fsum(KERNEL.phi(n / x) for n in ns), abs=1e-12)


def test_character_sum_reads_chi_only_at_the_residues_that_occur(monkeypatch):
    # a table of chi on all q residues costs O(q) per call, as
    # character_group(q)[j] builds a new character (and table) each time
    def no_table(self):
        raise AssertionError("value table built")

    monkeypatch.setattr(DirichletCharacter, "value_table", no_table)
    q, x, y = 1009, 1000.0, 50.0
    chi = character_group(q)[1]
    got = count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=q), KERNEL, chi=chi).value
    terms = [chi(n) * KERNEL.phi(n / x) for n in brute_smooth_list(KERNEL.hi * x, y, q)]
    want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert abs(got - want) <= 1e-12


def test_weighted_query_above_the_ceiling_refused_on_every_call():
    # a refusal is never cached as class weights: the second call is refused too
    query = SmoothCountQuery(x=6e7, y=2.0, q=3, a=1)
    chi = character_group(3)[1]
    for _ in range(2):
        with pytest.raises(ThresholdExceededError):
            count_smooth_weighted(query, KERNEL)
        with pytest.raises(ThresholdExceededError):
            count_smooth_weighted(SmoothCountQuery(x=6e7, y=2.0, q=3), KERNEL, chi=chi)


def test_class_weights_are_read_only_and_sparse():
    residues, sums = _class_weights(50.0, 7.0, 4, KERNEL)
    assert residues.tolist() == [1, 3] and sums.shape == (2,)
    for arr in (residues, sums):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("q", [10**12 + 39, 2**40])
def test_class_weights_cost_nothing_in_the_modulus(q):
    # the cache holds only the residues that occur, so a modulus far past
    # any table bound costs no more than q = 1
    x, y = 100.0, 5.0
    ns = brute_smooth_list(KERNEL.hi * x, y, q)
    for a in (1, 27, 7, q - 1):
        got = count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=q, a=a), KERNEL).value
        want = math.fsum(KERNEL.phi(n / x) for n in ns if n % q == a)
        assert got == pytest.approx(want, abs=1e-12)
        assert (got != 0.0) == (a in ns)
    got = count_smooth_weighted(SmoothCountQuery(x=x, y=y, q=q), KERNEL).value
    assert got == pytest.approx(math.fsum(KERNEL.phi(n / x) for n in ns), abs=1e-12)
    residues, _ = _class_weights(x, y, q, KERNEL)
    assert residues.size == len(ns)


def test_weighted_modulus_mismatch():
    chi = character_group(4)[1]
    with pytest.raises(ModulusMismatchError):
        count_smooth_weighted(SmoothCountQuery(x=10.0, y=3.0, q=5), KERNEL, chi=chi)


def test_weighted_rejects_class_plus_character():
    chi = character_group(5)[1]
    with pytest.raises(ValueError):
        count_smooth_weighted(SmoothCountQuery(x=10.0, y=3.0, q=5, a=1), KERNEL, chi=chi)


# -- huge-x lattice path ---------------------------------------------------------


def test_bigx_examples():
    assert count_smooth_bigx((2, 100), 2).value == 101
    assert count_smooth_bigx((2, 10), 3).value == 41


def test_bigx_agrees_with_plain_path():
    for base, exponent, y, q in [(10, 3, 5.0, 5), (2, 10, 3.0, 1), (7, 4, 11.0, 3), (3, 9, 7.0, 2)]:
        lattice = count_smooth_bigx((base, exponent), y, q).value
        plain = count_smooth(SmoothCountQuery(x=float(base**exponent), y=y, q=q)).value
        assert lattice == plain


def test_bigx_boundary_ties_counted():
    # n = x itself lands exactly on the comparison boundary
    assert count_smooth_bigx((3, 7), 3).value == count_smooth(
        SmoothCountQuery(x=float(3**7), y=3.0)
    ).value


@st.composite
def _smooth_powers(draw):
    """(base, exponent, y, q) with base y-smooth and base**exponent <= 10^5, so
    the lattice walk meets exact ties at n = base**exponent."""
    y = draw(st.floats(min_value=2.0, max_value=13.0))
    base = 1
    for p in (p for p in (2, 3, 5, 7, 11, 13) if p <= y):
        room = 0
        while base * p ** (room + 1) <= 10**5:
            room += 1
        base *= p ** draw(st.integers(min_value=0, max_value=min(room, 4)))
    if base == 1:
        base = 2
    top = 1
    while base ** (top + 1) <= 10**5:
        top += 1
    exponent = draw(st.integers(min_value=1, max_value=top))
    return base, exponent, y, draw(st.integers(min_value=1, max_value=12))


@given(_smooth_powers())
def test_bigx_matches_enumeration_at_smooth_powers(case):
    base, exponent, y, q = case
    plain = count_smooth(SmoothCountQuery(x=float(base**exponent), y=y, q=q)).value
    assert count_smooth_bigx((base, exponent), y, q).value == plain


def test_bigx_too_many_primes():
    with pytest.raises(TooManyPrimesError):
        count_smooth_bigx((2, 50), 150.0)


@pytest.mark.parametrize("y", [7.0, 11.0])
def test_bigx_long_walk_refused_before_it_starts(y):
    # Ennola's main term over the walked primes reads about 4.8e7 leaves at
    # y = 7 (a walk of tens of seconds) and 5e9 at y = 11
    start = time.perf_counter()
    with pytest.raises(ThresholdExceededError, match="lattice walk of about .* leaves"):
        count_smooth_bigx((2, 1443), y)
    assert time.perf_counter() - start < 1.0


def test_bigx_walk_refused_once_its_leaves_pass_the_cap(monkeypatch):
    # Ennola's main term is only a lower bound on the leaves: over the
    # walked primes 3..47 it reads 226 for (2, 35), whose walk has 637,120
    monkeypatch.setattr(smooth_core, "MAX_LATTICE_LEAVES", 1e4)
    assert smooth_core._simplex_count(35 * math.log(2), primes_upto(47)[1:]) < 1e4
    start = time.perf_counter()
    with pytest.raises(ThresholdExceededError, match="lattice walk passed the bound of 10000"):
        count_smooth_bigx((2, 35), 47.0)
    assert time.perf_counter() - start < 1.0


def test_bigx_leaf_cap_admits_a_walk_of_exactly_cap_leaves(monkeypatch):
    # (10, 12) at y = 10 walks the exponents of 3, 5 and 7: one leaf per
    # {3, 5, 7}-smooth n <= 10^12
    leaves = sum(
        1 for a in range(26) for b in range(18) for c in range(15) if 3**a * 5**b * 7**c <= 10**12
    )
    assert leaves == 1299
    monkeypatch.setattr(smooth_core, "MAX_LATTICE_LEAVES", leaves)
    assert count_smooth_bigx((10, 12), 10.0).value == 14672
    monkeypatch.setattr(smooth_core, "MAX_LATTICE_LEAVES", leaves - 1)
    with pytest.raises(ThresholdExceededError, match="lattice walk passed"):
        count_smooth_bigx((10, 12), 10.0)


@pytest.mark.parametrize(
    "bigx, y, q, exact",
    [
        # exact counts floor(exponent log base / log p) + 1 at 80 digits
        ((5, 103873643), 2.0, 1, 241187131),
        ((2, 630138897), 3.0, 2, 397573380),
        ((3, 6586818670), 2.0, 1, 10439860591),
        ((3, 171928773), 2.0, 1, 272500658),
        ((2, 10**18), 2.0, 1, 10**18 + 1),
        ((2, 10**400), 2.0, 1, 10**400 + 1),
    ],
)
def test_bigx_single_prime_walk_exact_or_refused(bigx, y, q, exact):
    # one walked prime has no leaf bound, so only the rounding of the log
    # budget decides whether the guard band still settles every comparison
    start = time.perf_counter()
    try:
        got = count_smooth_bigx(bigx, y, q)
    except ThresholdExceededError as exc:
        assert "too large for an exact count" in str(exc)
    else:
        assert got.value == exact
    assert time.perf_counter() - start < 1.0


def test_bigx_budget_inside_rounding_bound_answered():
    # log budgets 6.9e5 and 8.9e5, below the one-prime bound of about 9.0e5;
    # the first ends on an exact tie at n = 2^(10^6)
    assert count_smooth_bigx((2, 10**6), 2.0).value == 10**6 + 1
    assert count_smooth_bigx((2, 1290000), 3.0, 2).value == 813900
    with pytest.raises(ThresholdExceededError, match="too large for an exact count"):
        count_smooth_bigx((2, 1310000), 3.0, 2)


@pytest.mark.parametrize("y", [1.0, 0.5, math.inf])
@pytest.mark.parametrize("huge_x_entry", [count_smooth_bigx, ennola_estimate])
def test_huge_x_entries_reject_y_outside_range(huge_x_entry, y):
    with pytest.raises(ValueError, match="smoothness bound y must be finite and >= 2"):
        huge_x_entry((2, 100), y)


# -- Ennola estimate ---------------------------------------------------------------


def test_ennola_empty_product():
    est = ennola_estimate((2, 200), 2.0, q=2)
    assert est.main_term == 1.0
    assert est.prime_count == 0


def test_ennola_formula_value():
    est = ennola_estimate((2, 100), 3.0)
    log_x = 100 * math.log(2)
    want = 0.5 * (log_x / math.log(2)) * (log_x / math.log(3))
    assert est.main_term == pytest.approx(want, rel=1e-12)
    assert est.main_term == pytest.approx(3154.65, abs=0.01)


def test_ennola_prime_set_respects_modulus():
    est = ennola_estimate((2, 300), 5.0, q=3)
    log_x = 300 * math.log(2)
    want = 0.5 * (log_x / math.log(2)) * (log_x / math.log(5))
    assert est.main_term == pytest.approx(want, rel=1e-12)
    assert est.prime_count == 2


def test_ennola_refuses_log_x_past_float_range():
    # 10**400 log 2 is past the float range, as count_smooth_bigx's budget is
    with pytest.raises(ThresholdExceededError, match="overflows a float"):
        ennola_estimate((2, 10**400), 5.0)


@pytest.mark.parametrize(
    "bigx, y",
    [
        ((2, 10**30), 47.0),  # 15 primes: a product past the float range
        ((2, 10**100), 47.0),
        ((2, 10**6), 2000.0),  # 303 primes: 1/303! is past the float range
    ],
)
def test_ennola_refuses_main_term_past_float_range(bigx, y):
    with pytest.raises(ThresholdExceededError, match="main term .* overflows a float"):
        ennola_estimate(bigx, y)


def test_ennola_main_term_from_logs_matches_product():
    # 170 primes: 1/170! is the smallest reciprocal factorial a float holds
    plist = primes_upto(1019)
    assert len(plist) == 171
    log_x = 1e4 * math.log(2)
    want = 1.0 / math.factorial(170)
    for p in plist[:170]:
        want *= log_x / math.log(p)
    assert smooth_core._simplex_count(log_x, plist[:170]) == pytest.approx(want, rel=1e-12)


def test_ennola_warns_outside_regime():
    with pytest.warns(UserWarning):
        ennola_estimate((2, 10), 5.0)


def test_ennola_accuracy_against_lattice_count():
    for y, exponent in [(3.0, 300), (5.0, 800)]:
        est = ennola_estimate((2, exponent), y)
        exact = count_smooth_bigx((2, exponent), y).value
        assert abs(est.main_term / exact - 1.0) <= 3.0 * est.error_factor


def test_enumeration_walks_only_primes_that_can_occur(monkeypatch):
    bounds = []

    def recording(y):
        bounds.append(y)
        return primes_upto(y)

    monkeypatch.setattr(smooth_core, "primes_upto", recording)
    for x in (1.0, 30.0, 100.0, 1000.0):
        for y in (3e7, 1e9):
            huge_y = SmoothCountQuery(x=x, y=y, q=6)
            same = SmoothCountQuery(x=x, y=max(2.0, x), q=6)
            assert count_smooth(huge_y) == count_smooth(same)
            # the weighted count enumerates up to kernel.hi * x
            wide = SmoothCountQuery(x=x, y=max(2.0, KERNEL.hi * x), q=6)
            assert count_smooth_weighted(huge_y, KERNEL) == count_smooth_weighted(wide, KERNEL)
    assert count_smooth(SmoothCountQuery(x=100, y=3e7)).value == 100
    assert is_smooth(97, 3e7) and is_smooth(10**6 + 3, 1e9)
    assert max(bounds) <= KERNEL.hi * 1000


def test_sieve_bound_refused_before_sieving():
    assert MAX_SIEVE == 10**8
    for y in (MAX_SIEVE + 1, 1e13):
        with pytest.raises(ValueError, match="exceeds the sieve bound 1e\\+08"):
            primes_upto(y)
    with pytest.raises(ValueError, match="exceeds the sieve bound"):
        is_smooth(10**20, 1e12)


def test_sieve_growth_clamped_to_bound(monkeypatch):
    monkeypatch.setattr(primes, "MAX_SIEVE", 5000)
    monkeypatch.setattr(primes, "_LIMIT", 0)
    monkeypatch.setattr(primes, "_PRIMES", [])
    assert primes.primes_upto(3000)[-1] == 2999
    # doubling the limit would sieve to 6000; the bound clamps it to 5000
    assert primes.primes_upto(4000)[-1] == 3989
    assert primes._LIMIT == 5000
    want = [n for n in range(2, 5001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert primes.primes_upto(5000) == want
    with pytest.raises(ValueError, match="exceeds the sieve bound 5000"):
        primes.primes_upto(5001)


def _eratosthenes(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            for m in range(p * p, n + 1, p):
                flags[m] = False
    return [i for i, flag in enumerate(flags) if flag]


def test_sieve_matches_plain_eratosthenes(monkeypatch):
    monkeypatch.setattr(primes, "_LIMIT", 0)
    monkeypatch.setattr(primes, "_PRIMES", [])
    got = primes.primes_upto(10**6)
    assert got == _eratosthenes(10**6)
    assert all(type(p) is int for p in got[:10] + got[-10:])


def test_smooth_values_sorted_set_matches_brute():
    vals = smooth_values(200.0, 7.0, 3)
    assert vals.dtype == np.int64
    assert sorted(vals.tolist()) == brute_smooth_list(200, 7, 3)
