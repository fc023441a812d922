import os
import random
import tracemalloc
from functools import lru_cache
from math import factorial, fsum, gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    oracle = simple_prime_sieve(10**6)
    for m in range(10**6 + 1):
        assert arith.is_prime(m) == bool(oracle[m])
    assert arith.is_prime(2**31 - 1)
    assert not arith.is_prime(2**31 + 1)


# trial division by the primes up to 53 settles every n below 59**2 = 3481
@pytest.mark.parametrize("n, prime", [(3469, True), (3481, False), (3491, True), (3599, False)])
def test_is_prime_at_the_end_of_trial_division(n, prime):
    assert arith.is_prime(n) == prime


@pytest.mark.parametrize(
    "psi, p1, p2",
    [
        # the least strong pseudoprimes to the bases 2..37 and to 2..41
        (318665857834031151167461, 399165290221, 798330580441),
        (3317044064679887385961981, 1287836182261, 2575672364521),
    ],
)
def test_is_prime_rejects_the_least_strong_pseudoprimes(psi, p1, p2):
    assert psi == p1 * p2
    assert not arith.is_prime(psi)
    assert arith.factorize(psi).factors == ((p1, 1), (p2, 1))


def test_prime_power_root():
    assert arith.prime_power_root(8) == (2, 3)
    assert arith.prime_power_root(13) == (13, 1)
    assert arith.prime_power_root(125) == (5, 3)
    assert arith.prime_power_root(36) is None
    assert arith.prime_power_root(1) is None
    assert arith.prime_power_root(2**62) == (2, 62)
    # 2**89 - 1 is prime, but above PSI13 no primality is proved
    assert arith.prime_power_root((2**89 - 1) ** 2) is None
    assert arith.power_root((2**89 - 1) ** 2) == (2**89 - 1, 2)


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


@pytest.mark.parametrize("x", [2, 3, 10**8, 2**1000, 10**4000], ids=["2", "3", "1e8", "2^1000", "1e4000"])
def test_integer_nth_root_with_an_exponent_past_the_float_range(x):
    # log2(x) / n overflows a float for n above about 1e308; x < 2**n, so 1
    assert arith.integer_nth_root(x, 10**400) == 1


# --- prime and prime power counting ------------------------------------------


def test_prime_count_known_values():
    for x, pi in [(10, 4), (100, 25), (1000, 168), (10**6, 78498)]:
        assert arith.prime_count(x) == pi
    assert arith.prime_count(1) == 0


@lru_cache(maxsize=None)
def _oracle(limit):
    return simple_prime_sieve(limit)


def assert_sieve_segment_matches_oracle(lo, hi):
    got = arith.sieve_segment(lo, hi, arith.primes_upto(isqrt(hi - 1)))
    oracle = _oracle(max(hi, 310_000))
    assert got.dtype == np.int64
    assert got.tolist() == [v for v in range(lo, hi) if oracle[v]]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 150_000), st.booleans(), st.integers(1, 5000))
def test_sieve_segment_matches_oracle(half, odd, width):
    lo = 2 * half + odd
    assert_sieve_segment_matches_oracle(lo, lo + width)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 150_000), st.booleans(), st.integers(1, 5000), st.integers(1, 300))
def test_sieve_segment_in_small_blocks_matches_oracle(half, odd, width, block):
    # block edges fall inside the mask, before, on and after a prime's multiples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SIEVE_BLOCK", block)
        assert_sieve_segment_matches_oracle(2 * half + odd, 2 * half + odd + width)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 300), st.lists(st.tuples(st.integers(1, 60), st.integers(0, 10**6)), max_size=8))
@example(0, 1, [])
@example(0, 7, [(3, 5)])
@example(10, 3, [])
def test_strike_blocks_match_a_brute_force_mask(size, block, pairs):
    # first indices anywhere in [0, 3 * size), so some primes start past the
    # first block and the blocks strike every stride one by one
    ps = [p for p, _ in pairs]
    assert_strike_blocks_match_a_brute_force_mask(size, block, ps, [f % (3 * size) if size else f for _, f in pairs])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 300), st.lists(st.tuples(st.integers(1, 60), st.integers(0, 59)), max_size=8))
@example(2000, 300, [(1, 0), (3, 1), (3, 2), (5, 4), (2, 0), (7, 3)])
@example(1000, 40, [(2, 1), (5, 0), (5, 3), (4, 3), (7, 6)])
def test_strike_blocks_stamp_the_leading_strides_as_a_pattern(size, block, pairs):
    # each first index below its stride, in every block: when size >= block // 4
    # the leading strides with lcm up to block // 4 are stamped as a pattern
    # in every block that holds one period
    ps = [p for p, _ in pairs]
    assert_strike_blocks_match_a_brute_force_mask(size, block, ps, [f % p for p, f in pairs])


def assert_strike_blocks_match_a_brute_force_mask(size, block, ps, firsts):
    want = [not any(i >= f and (i - f) % p == 0 for p, f in zip(ps, firsts)) for i in range(size)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SIEVE_BLOCK", block)
        blocks = arith._strike_blocks(size, np.array(ps, dtype=np.int64), np.array(firsts, dtype=np.int64))
        got = [(b, marks.tolist()) for b, marks in blocks]
    assert [b for b, _ in got] == list(range(0, size, block))
    assert all(marks == want[b : b + block] for b, marks in got)


def test_prime_sums_keep_their_bits_in_small_blocks(monkeypatch):
    want = arith.mertens_sum(10**6, 3)
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 4099)
    assert arith.mertens_sum(10**6, 3, threads=2) == want
    assert arith.prime_count(10**6) == 78498


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 2), (2, 3), (3, 4), (4, 5), (2, 100), (9, 10), (25, 26),
        (arith.SEGMENT_SIZE - 3001, arith.SEGMENT_SIZE),
        (arith.SEGMENT_SIZE, arith.SEGMENT_SIZE + 999),
    ],
)
def test_sieve_segment_edges(lo, hi):
    assert_sieve_segment_matches_oracle(lo, hi)


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


def exact_sum_float(xs) -> float:
    # _exact_sums' integer total is sum(xs) * 2**1075, rounded by one int
    # division; it takes the starts of the runs of equal exponent, found here
    # from the floats' bits
    bits = np.array(xs, dtype=np.float64).view(np.int64)
    exp = bits >> 52
    starts = np.flatnonzero(np.diff(exp, prepend=-1))
    return arith._exact_sums(bits, starts, [(0, len(bits))])[0] / 2**1075


def test_exact_sum_rounds_like_fsum_on_ties():
    for xs in ([], [0.5], [1.0, 2**-53], [1.0, 2**-53, 2**-53], [1 + 2**-52, 2**-53], [2**-53, 1.0]):
        assert exact_sum_float(xs).hex() == fsum(xs).hex()


@pytest.mark.parametrize(
    "runs",
    [
        # 0.5 + 2**-54 rounds to 0.5, so both runs share exponent 0: one run
        # of 8000 mantissas, 5000 of them 2**53 - 1
        [(5000, 1 - 2**-53), (3000, 0.5 + 2**-54)],
        [(5000, 1 - 2**-53), (3000, 0.5 - 2**-54)],  # two runs of mantissa 2**53 - 1
        [(1, 2.0), (4096, 2**53 - 1.0), (1025, 1 - 2**-53)],  # chunk edges off the run edges
    ],
)
def test_exact_sum_of_long_runs_at_the_largest_mantissa(runs):
    # 1024 mantissas near 2**53 fill a chunk's int64 total to just below 2**63
    xs = [x for count, x in runs for _ in range(count)]
    assert exact_sum_float(xs).hex() == fsum(xs).hex()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 78_000), st.integers(0, 3000))
def test_exact_sum_of_prime_reciprocals_equals_fsum(start, count):
    ps = arith.primes_upto(10**6)[start : start + count]
    x = 1.0 / ps
    assert exact_sum_float(x).hex() == fsum(x.tolist()).hex()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(2**-60, 2**10), max_size=300))
def test_exact_sum_of_mixed_floats_equals_fsum(xs):
    assert exact_sum_float(xs).hex() == fsum(xs).hex()


# overlapping intervals with ends inside blocks of 97 and 4099 odd numbers:
# the first set starts at 1, so 2 counts, and the second crosses the segment
# edge at 2**22, so two threads each sweep a segment
PRIME_SUM_INTERVALS = [
    ([1, 1, 10, 1000, 9_000], [30, 99_991, 50_000, 99_990, 9_001]),
    ([4_150_000, 4_150_000, 4_194_000, 4_190_000], [4_194_304, 4_200_000, 4_196_000, 4_194_303]),
]


@pytest.mark.parametrize("block", [97, 4099])
@pytest.mark.parametrize("lows, highs", PRIME_SUM_INTERVALS, ids=["from 1", "across 2**22"])
def test_prime_sums_in_small_blocks_keep_their_bits(monkeypatch, block, lows, highs):
    bits = lambda rs: [(r.sum.hex(), r.prime_count) for r in rs]
    got = arith._prime_sums(lows, highs)
    oracle = _oracle(max(highs))
    for r, lo, hi in zip(got, lows, highs):
        assert r.prime_count == sum(oracle[lo + 1 : hi + 1])
        assert r.sum == pytest.approx(fsum(1 / p for p in range(lo + 1, hi + 1) if oracle[p]), abs=1e-15)
    want = bits(got)
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
    for threads in (1, 2):
        assert bits(arith._prime_sums(lows, highs, threads)) == want


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


def test_segment_map_starts_no_more_workers_than_cpus(monkeypatch):
    # 4096 workers asked for over 3 segments on one CPU: the pool gets one
    # worker, and the recording pool maps in this thread, so none starts
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    x = 3 * arith.SEGMENT_SIZE
    want = arith.prime_count(x, threads=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert arith.prime_count(x, threads=4096) == want
    # a platform without an affinity mask: the CPU count stands in for it
    monkeypatch.delattr(os, "sched_getaffinity")
    assert arith.prime_count(x, threads=4096) == want
    assert pools == [1, 1]


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
    q = arith.largest_prime_power_segment(1, 5000, base)
    lpf = arith.largest_prime_power_segment(1, 5000, base, want_prime_factor=True)
    for d in range(1, 5000):
        fs = brute_factorize(d)
        assert q[d - 1] == brute_lpp(d)
        assert lpf[d - 1] == (max(p for p, _ in fs) if fs else 1)


def test_largest_prime_power_segment_high_window():
    lo, hi = 10**7, 10**7 + 2048
    base = arith.primes_upto(isqrt(hi - 1))
    q = arith.largest_prime_power_segment(lo, hi, base)
    for off in range(0, 2048, 97):
        assert q[off] == brute_lpp(lo + off)


def test_largest_prime_factor_segment_high_window():
    # 2048 wide: many powers below hi have no multiple in the window
    lo, hi = 10**7, 10**7 + 2048
    base = arith.primes_upto(isqrt(hi - 1))
    lpf = arith.largest_prime_power_segment(lo, hi, base, want_prime_factor=True)
    for off in range(0, 2048, 13):
        assert lpf[off] == max(p for p, _ in brute_factorize(lo + off))


def test_largest_prime_power_segment_rejects_zero_lo():
    base = arith.primes_upto(10)
    with pytest.raises(ParameterError):
        arith.largest_prime_power_segment(0, 10, base)


def test_coprime_mask_matches_gcd():
    for n in (1, 2, 3, 4, 6):
        mask = arith.coprime_mask(1, 2000, n)
        f = factorial(n)
        for d in range(1, 2000):
            assert mask[d - 1] == (gcd(d, f) == 1)


def test_coprime_mask_from_zero():
    # gcd(0, n!) = n!, which is 1 only for n <= 1; for n >= 2 the multiples
    # of 2 include 0
    for n in (0, 1, 2, 5):
        assert arith.coprime_mask(0, 12, n).tolist() == [gcd(d, factorial(n)) == 1 for d in range(12)]


# --- input checks ---------------------------------------------------------------


@pytest.mark.parametrize("x, n", [(-1, 2), (4, 0)])
def test_integer_nth_root_rejects_bad_input(x, n):
    with pytest.raises(ParameterError, match=f"^integer_nth_root requires x >= 0, n >= 1; got {x}, {n}$"):
        arith.integer_nth_root(x, n)


@pytest.mark.parametrize(
    "fn, message",
    [
        (arith.factorize, "factorize requires d >= 1, got 0"),
        (arith.prime_power_count, "prime_power_count requires m >= 1, got 0"),
    ],
)
def test_zero_is_refused(fn, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        fn(0)


def test_primes_upto_matches_the_oracle():
    # every limit to 200, two squares of primes and 1e6: sieve_segment on
    # [2, limit] over base primes found the same way
    for limit in [*range(201), 961, 1369, 10**6]:
        got = arith.primes_upto(limit)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p, flag in enumerate(simple_prime_sieve(limit)) if flag]


def test_primes_upto_refuses_past_1e8_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^primes_upto limit 100000001 exceeds 10\\^8; use segments$"):
            arith.primes_upto(10**8 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
