import random
from math import fsum, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith
from degcert.errors import CapacityError, ParameterError


def simple_prime_sieve(limit):
    """Independent primality oracle: plain bytearray Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sieve


def brute_factorize(d):
    """Trial-division oracle, independent of the library's code paths."""
    out = []
    p = 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


# --- factorization -----------------------------------------------------------


def test_factorize_5005():
    fi = arith.factorize(5005)
    assert fi.factors == ((5, 1), (7, 1), (11, 1), (13, 1))
    assert fi.largest_prime_power == 13


def test_factorize_one():
    fi = arith.factorize(1)
    assert fi.factors == ()
    assert fi.largest_prime_power == 1


def test_factorize_720():
    fi = arith.factorize(720)
    assert fi.factors == ((2, 4), (3, 2), (5, 1))
    assert fi.largest_prime_power == 16


def test_largest_prime_power_examples():
    assert arith.largest_prime_power(5005) == 13
    assert arith.largest_prime_power(1) == 1
    assert arith.largest_prime_power(53599) == 31


def test_factorize_random_invariants():
    # 10^4 random d <= 10^9: reconstruction plus largest-prime-power facts.
    rng = random.Random(12345)
    for _ in range(10**4):
        d = rng.randrange(1, 10**9 + 1)
        fi = arith.factorize(d)
        prod = 1
        last_p = 1
        for p, e in fi.factors:
            assert p > last_p and e >= 1
            prod *= p**e
            last_p = p
        assert prod == d
        q = fi.largest_prime_power
        assert d % q == 0
        if fi.factors:
            assert q == max(p**e for p, e in fi.factors)
            assert q in {p**e for p, e in fi.factors}
        else:
            assert q == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip_hypothesis(d):
    fi = arith.factorize(d)
    prod = 1
    for p, e in fi.factors:
        assert arith.is_prime(p)
        prod *= p**e
    assert prod == d


def test_factorize_exact_near_int64_boundary():
    # adversarial inputs near 2^63: everything must stay exact, never wrap
    p1, p2 = 2147483647, 4294967291  # both prime
    d = p1 * p2  # 9223372004559929477, just below 2^63
    fi = arith.factorize(d)
    assert fi.factors == ((p1, 1), (p2, 1))
    assert fi.largest_prime_power == p2
    fi2 = arith.factorize(2**62)
    assert fi2.factors == ((2, 62),)
    assert fi2.largest_prime_power == 2**62


def test_is_prime_against_oracle():
    oracle = simple_prime_sieve(10**4)
    for m in range(10**4 + 1):
        assert arith.is_prime(m) == bool(oracle[m])
    assert arith.is_prime(2**31 - 1)
    assert not arith.is_prime(2**31 + 1)


def test_prime_power_root():
    assert arith.prime_power_root(8) == (2, 3)
    assert arith.prime_power_root(13) == (13, 1)
    assert arith.prime_power_root(125) == (5, 3)
    assert arith.prime_power_root(36) is None
    assert arith.prime_power_root(1) is None
    assert arith.prime_power_root(2**62) == (2, 62)


def _oracle_prime_power_root(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_prime_power_root_against_trial_division():
    for q in range(2, 5000):
        assert arith.prime_power_root(q) == _oracle_prime_power_root(q), q


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 53, 59, 61, 1009, 65537, 10**9 + 7, 2**61 - 1]),
    st.integers(min_value=1, max_value=100),
    st.sampled_from([1, 59, 61 * 67, 2**61 - 1]),
)
def test_prime_power_root_of_large_powers(p, e, cofactor):
    expected = (p, e) if cofactor == 1 else (p, e + 1) if cofactor == p else None
    assert arith.prime_power_root(p**e * cofactor) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**20000), st.integers(min_value=1, max_value=5000))
def test_integer_nth_root_large_exponents(x, n):
    r = arith.integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_prime_power_root_of_huge_integers():
    assert arith.prime_power_root(10**5000 + 1) is None  # 17 divides it
    assert arith.prime_power_root(5**5000) == (5, 5000)
    assert arith.prime_power_root((59 * 61) ** 1000) is None
    assert arith.prime_power_root(59**1000) == (59, 1000)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=20))
def test_integer_nth_root(x, n):
    r = arith.integer_nth_root(x, n)
    assert r**n <= x
    assert (r + 1) ** n > x


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**400), st.integers(min_value=1, max_value=12))
def test_integer_nth_root_beyond_float_range(x, n):
    # no float seed: x past 1e308 must not overflow, and a large x with a
    # small n must converge (10**60 + 7 with n = 2 used to stall)
    r = arith.integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_integer_nth_root_exact_powers():
    for r, n in [(10**30, 2), (10**30 + 1, 2), (7**100, 3), (2, 1000), (3**50, 12)]:
        assert arith.integer_nth_root(r**n, n) == r
        assert arith.integer_nth_root(r**n - 1, n) == r - 1
    assert arith.integer_nth_root(10**60 + 7, 2) == 10**30


# --- totient -----------------------------------------------------------------


def test_euler_phi_examples():
    assert arith.euler_phi(6) == 2
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(720) == 192


def test_euler_phi_brute():
    for m in range(1, 200):
        assert arith.euler_phi(m) == sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


# --- prime and prime power counting ------------------------------------------


def test_prime_count_known_values():
    for x, pi in [(10, 4), (100, 25), (1000, 168), (10**6, 78498)]:
        assert arith.prime_count(x) == pi
    assert arith.prime_count(1) == 0


def brute_prime_powers_upto(m, oracle):
    count = 0
    for p in range(2, m + 1):
        if oracle[p]:
            pe = p
            while pe <= m:
                count += 1
                pe *= p
    return count


def test_prime_power_count_small():
    assert arith.prime_power_count(10) == 7  # 2,3,4,5,7,8,9
    assert arith.prime_power_count(1) == 0


def test_prime_power_count_100_brute():
    oracle = simple_prime_sieve(100)
    assert arith.prime_power_count(100) == brute_prime_powers_upto(100, oracle) == 35


def test_prime_power_count_identity_exhaustive_small():
    # direct enumeration vs the sum-over-exponents formula
    limit = 2000
    oracle = simple_prime_sieve(limit)
    counts = np.zeros(limit + 1, dtype=int)
    for p in range(2, limit + 1):
        if oracle[p]:
            pe = p
            while pe <= limit:
                counts[pe] += 1
                pe *= p
    cum = np.cumsum(counts)
    for m in range(1, limit + 1):
        assert arith.prime_power_count(m) == cum[m]


def test_prime_power_count_identity_sampled_1e5():
    limit = 10**5
    oracle = simple_prime_sieve(limit)
    rng = random.Random(99)
    for m in [10**5] + [rng.randrange(2, limit) for _ in range(40)]:
        assert arith.prime_power_count(m) == brute_prime_powers_upto(m, oracle)


def test_prime_power_ratio_decreasing():
    ratios = [arith.prime_power_count(10**k) / 10**k for k in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


# --- mertens sums ------------------------------------------------------------


def test_mertens_empty_range():
    r = arith.mertens_sum(10, 1)
    assert r.sum == 0.0
    assert r.prime_count == 0


def test_mertens_exact_root_boundary():
    # 8**(1/3) = 2 exactly: the lower limit is strict, so 2 is excluded
    r = arith.mertens_sum(8, 3)
    assert r.prime_count == 3  # 3, 5, 7
    assert r.sum == pytest.approx(fsum([1 / 3, 1 / 5, 1 / 7]), abs=1e-16)


def test_mertens_100_2_against_direct_oracle():
    oracle = simple_prime_sieve(100)
    primes = [p for p in range(11, 101) if oracle[p]]
    assert len(primes) == 21
    expected = fsum(1.0 / p for p in primes)
    r = arith.mertens_sum(100, 2)
    assert r.prime_count == 21
    assert r.sum == pytest.approx(expected, abs=1e-15)


def test_mertens_monotone_on_decades_n3():
    vals = [arith.mertens_sum(10**k, 3).sum for k in (3, 4, 5, 6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mertens_deterministic_across_threads():
    a = arith.mertens_sum(10**6, 3, threads=1)
    b = arith.mertens_sum(10**6, 3, threads=4)
    assert a.sum == b.sum and a.prime_count == b.prime_count


def test_mertens_validation():
    with pytest.raises(ParameterError):
        arith.mertens_sum(1, 1)
    with pytest.raises(ParameterError):
        arith.mertens_sum(100, 0)
    with pytest.raises(CapacityError):
        arith.mertens_sum(arith.SIEVE_BUDGET + 1, 3)


def test_map_sieve_cuts_at_absolute_segment_multiples():
    size = arith.SEGMENT_SIZE
    lo, hi = size - 5, 2 * size + 7
    base = arith.primes_upto(isqrt(hi - 1))
    for threads in (1, 2):
        seen = arith.map_sieve(lo, hi, lambda s, e, b: (s, e, b), threads)
        assert [(s, e) for s, e, _ in seen] == [(lo, size), (size, 2 * size), (2 * size, hi)]
        assert all(np.array_equal(b, base) for _, _, b in seen)


def test_map_sieve_refuses_past_budget_even_when_empty():
    def never(lo, hi, base):
        raise AssertionError("no segment expected")

    budget = arith.SIEVE_BUDGET
    assert arith.map_sieve(budget + 1, budget + 1, never) == []
    assert arith.map_sieve(10, 5, never) == []
    with pytest.raises(CapacityError, match=f"^sieve bound {budget + 1} exceeds budget {budget}$"):
        arith.map_sieve(budget + 2, budget + 2, never)


# --- segmented kernels --------------------------------------------------------


def brute_lpp(d):
    return max((p**e for p, e in brute_factorize(d)), default=1)


def test_largest_prime_power_segment_low():
    base = arith.primes_upto(100)
    q, lpf = arith.largest_prime_power_segment(1, 5000, base, want_prime_factor=True)
    for d in range(1, 5000):
        fs = brute_factorize(d)
        assert q[d - 1] == brute_lpp(d)
        assert lpf[d - 1] == (max(p for p, _ in fs) if fs else 1)


def test_largest_prime_power_segment_high_window():
    lo, hi = 10**7, 10**7 + 2048
    base = arith.primes_upto(isqrt(hi - 1))
    q, _ = arith.largest_prime_power_segment(lo, hi, base)
    for off in range(0, 2048, 97):
        assert q[off] == brute_lpp(lo + off)


def test_largest_prime_power_segment_rejects_zero_lo():
    base = arith.primes_upto(10)
    with pytest.raises(ParameterError):
        arith.largest_prime_power_segment(0, 10, base)


def test_coprime_mask_matches_gcd():
    from math import factorial

    for n in (1, 2, 3, 4, 6):
        mask = arith.coprime_mask(1, 2000, n)
        f = factorial(n)
        for d in range(1, 2000):
            assert mask[d - 1] == (gcd(d, f) == 1)
