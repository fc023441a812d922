import random
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from math import exp, factorial, fsum, gcd, isqrt, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith, certify, density
from degcert.density import DensityMode, convergence_diagnostics, empirical_density, ihc_fraction
from degcert.errors import CapacityError, ParameterError
from test_arith import brute_factorize, brute_lpp
from test_certify import sieve_reference


def brute_lpf(d):
    fs = brute_factorize(d)
    return fs[-1][0] if fs else 1


# --- empirical_density ----------------------------------------------------------


def test_prop16_count_at_first_degree():
    r = empirical_density(3, 5005, DensityMode.PROP16_FULL)
    assert r.count == 1
    assert r.empirical == 1 / 5005
    assert not r.theoretical_is_heuristic
    assert 0.0155 <= r.theoretical <= 0.0170


def test_prop16_checkpoints():
    r = empirical_density(3, 6000, DensityMode.PROP16_FULL, checkpoints=[5004, 5005, 6000])
    assert r.samples == ((5004, 0), (5005, 1), (6000, 1))


def test_lambda_primepower_brute_100():
    # oracle: exact Fraction predicate over every d <= 100
    lam = Fraction(10)
    want = sum(
        1
        for d in range(1, 101)
        if gcd(d, 6) == 1 and Fraction(brute_lpp(d)) ** 3 <= lam**3 * d
    )
    r = empirical_density(3, 100, DensityMode.LAMBDA_PRIMEPOWER, lam=lam)
    assert r.count == want == 18
    assert r.theoretical_is_heuristic


def test_lambda_prime_degenerate_n1():
    r = empirical_density(1, 50, DensityMode.LAMBDA_PRIME, lam=Fraction(1))
    assert r.count == 50
    assert r.empirical == 1.0


def test_lambda_prime_vs_primepower_differ():
    # d = 12: largest prime power 4, largest prime 3; with lambda*d = 3 only
    # the prime-factor variant accepts it (n = 1 keeps everything coprime)
    lam = Fraction(1, 4)
    by_power = empirical_density(1, 12, DensityMode.LAMBDA_PRIMEPOWER, lam=lam)
    by_prime = empirical_density(1, 12, DensityMode.LAMBDA_PRIME, lam=lam)
    assert by_prime.count > by_power.count


def test_lambda_brute_force_all_modes_small():
    lam = Fraction(4, 5)
    n = 2
    for mode, val in ((DensityMode.LAMBDA_PRIMEPOWER, brute_lpp), (DensityMode.LAMBDA_PRIME, brute_lpf)):
        want = sum(
            1
            for d in range(1, 501)
            if gcd(d, 2) == 1 and Fraction(val(d)) ** n <= lam**n * d
        )
        got = empirical_density(n, 500, mode, lam=lam)
        assert got.count == want


def test_lambda_pow_parameter():
    # lambda given via its exact n-th power: lambda**3 = 1/2
    r1 = empirical_density(3, 10**4, DensityMode.LAMBDA_PRIMEPOWER, lam_pow=Fraction(1, 2))
    want = sum(
        1 for d in range(1, 10**4 + 1) if gcd(d, 6) == 1 and 2 * brute_lpp(d) ** 3 <= d
    )
    assert r1.count == want


def test_prop16_full_subset_of_lambda_primepower():
    # the FULL inequality forces (C(n,2)-1) * q**n <= d, i.e. the
    # LAMBDA_PRIMEPOWER predicate with lambda**n = 1/(C(n,2)-1)
    ds = certify.enumerate_qualifying(3, 2 * 10**4)
    assert ds
    for d in ds:
        assert 2 * brute_lpp(d) ** 3 <= d


def test_prop16_mode_needs_n_ge_3():
    with pytest.raises(ParameterError, match="n must be"):
        empirical_density(1, 100, DensityMode.PROP16_FULL)


@pytest.mark.parametrize("mode", [DensityMode.PROP16_FULL, DensityMode.PROP16_WEAK])
@pytest.mark.parametrize("kw", [{"lam": Fraction(5)}, {"lam_pow": Fraction(1, 2)}], ids=["lam", "lam_pow"])
def test_prop16_modes_refuse_a_lambda(mode, kw):
    # the certificate modes have no lambda to apply
    with pytest.raises(ParameterError, match="LAMBDA modes"):
        empirical_density(3, 100, mode, **kw)


@pytest.mark.parametrize("n, N, message", [(0, 100, "n must be >= 1, got 0"), (3, 0, "N must be >= 1, got 0")])
def test_lambda_modes_need_positive_n_and_N(n, N, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        empirical_density(n, N, DensityMode.LAMBDA_PRIME, lam=Fraction(1))


def test_validation_lambda_modes():
    with pytest.raises(ParameterError, match="lam"):
        empirical_density(3, 100, DensityMode.LAMBDA_PRIME)
    with pytest.raises(ParameterError, match="positive"):
        empirical_density(3, 100, DensityMode.LAMBDA_PRIME, lam=Fraction(-1))
    with pytest.raises(ParameterError, match="checkpoints"):
        empirical_density(3, 100, DensityMode.PROP16_FULL, checkpoints=[200])
    with pytest.raises(CapacityError):
        empirical_density(3, arith.SIEVE_BUDGET + 1, DensityMode.PROP16_FULL)


@pytest.mark.parametrize(
    "n, N, mode, kw, cps",
    [
        (3, 10**6, DensityMode.PROP16_FULL, {}, [10**5, 10**6]),
        (3, 10**7, DensityMode.LAMBDA_PRIMEPOWER, {"lam_pow": Fraction(1, 2)}, [10**5, 5 * 10**6]),
        (4, 10**7, DensityMode.LAMBDA_PRIME, {"lam": Fraction(1)}, [10**5, 5 * 10**6]),
    ],
    ids=["prop16", "lambda_primepower", "lambda_prime"],
)
def test_density_threads_bit_identical(n, N, mode, kw, cps):
    # every mode counts on certify's sequential walk, which threads cannot
    # reach; a thread count must still leave every figure unchanged
    a = empirical_density(n, N, mode, checkpoints=cps, **kw)
    b = empirical_density(n, N, mode, checkpoints=cps, threads=4, **kw)
    assert a.count == b.count
    assert a.samples == b.samples
    assert a.empirical == b.empirical


# (n, N, mode, keywords, checkpoints): the four modes, with checkpoints that
# fall inside runs and between them, and repeated ones on listed degrees and
# one below them
CHUNK_CASES = [
    (3, 4 * 10**5, DensityMode.PROP16_FULL, {}, [5005, 10**5, 123457, 3 * 10**5]),
    (3, 20000, DensityMode.PROP16_FULL, {}, [5004, 5005, 5005, 12155, 17016, 17017, 17017, 20000]),
    (3, 10**6, DensityMode.PROP16_WEAK, {}, [46189, 5 * 10**5]),
    (3, 10**5, DensityMode.LAMBDA_PRIMEPOWER, {"lam_pow": Fraction(1, 2)}, [1, 999, 5 * 10**4]),
    (2, 10**5, DensityMode.LAMBDA_PRIME, {"lam": Fraction(1)}, [2, 1000, 77777]),
]


def chunk_reports():
    return [empirical_density(n, N, mode, checkpoints=cps, **kw) for n, N, mode, kw, cps in CHUNK_CASES]


@pytest.mark.parametrize("chunk", [1, 7, 97])
def test_density_does_not_depend_on_chunk(monkeypatch, chunk):
    want = chunk_reports()
    monkeypatch.setattr(certify, "_CHUNK", chunk)
    assert chunk_reports() == want
    # and the default run against the strided sieve
    for (n, N, mode, _, cps), r in zip(CHUNK_CASES, want):
        if r.lam_pow is None:
            cmode = certify.Mode.FULL if mode == DensityMode.PROP16_FULL else certify.Mode.WEAK
            args = (*certify.threshold_coefficients(n, cmode), 1, False)
        else:
            args = (r.lam_pow.denominator, 0, 0, r.lam_pow.numerator, mode == DensityMode.LAMBDA_PRIME)
        sieved = sieve_reference(1, N + 1, arith.primes_upto(isqrt(N)), n, *args)
        assert r.samples == tuple((m, int(np.searchsorted(sieved, m, side="right"))) for m in cps)
        assert r.count == len(sieved)


def test_density_runs_no_sieve(monkeypatch):
    # all four modes count the runs of certify's walk over prime powers
    def no_sieve(*args):
        raise AssertionError("map_sieve called")

    monkeypatch.setattr(arith, "map_sieve", no_sieve)
    r = empirical_density(3, 10**7, DensityMode.PROP16_FULL, checkpoints=[10**6])
    assert (r.count, r.samples) == (29850, ((10**6, 1734),))
    assert empirical_density(3, 10**6, DensityMode.PROP16_WEAK).count == 577
    r = empirical_density(3, 10**6, DensityMode.LAMBDA_PRIMEPOWER, lam_pow=Fraction(1, 2))
    assert r.count == 1781
    assert empirical_density(4, 2 * 10**7, DensityMode.LAMBDA_PRIME, lam=Fraction(1)).count == 11478


def test_repeated_checkpoints_repeat_their_counts():
    # a checkpoint given twice is a repeated x inside a run of the walk
    cps = [10**6, 10**6, 5 * 10**6, 10**7, 10**7]
    r = empirical_density(3, 10**7, DensityMode.PROP16_FULL, checkpoints=cps)
    assert r.samples == tuple(zip(cps, [1734, 1734, 12930, 29850, 29850]))

    def samples(cps):
        return empirical_density(3, 10**7, DensityMode.LAMBDA_PRIME, lam=Fraction(1), checkpoints=cps).samples

    once = dict(samples([1, 2, 10**7]))
    assert samples([1, 1, 2, 10**7]) == tuple((m, once[m]) for m in [1, 1, 2, 10**7])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([DensityMode.PROP16_FULL, DensityMode.PROP16_WEAK]),
    st.integers(1, 3 * 10**6),
    st.lists(st.floats(0, 1), max_size=4),
)
def test_prop16_walk_counts_match_the_sieve(n, mode, N, fracs):
    # the walk's counts against the strided sieve at random checkpoints
    cps = sorted(max(1, int(f * N)) for f in fracs)
    cmode = certify.Mode.FULL if mode == DensityMode.PROP16_FULL else certify.Mode.WEAK
    sieved = sieve_reference(1, N + 1, arith.primes_upto(isqrt(N)), n, *certify.threshold_coefficients(n, cmode))
    r = empirical_density(n, N, mode, checkpoints=cps)
    assert r.count == len(sieved)
    assert r.samples == (tuple((m, int(np.searchsorted(sieved, m, side="right"))) for m in cps) or None)


# (mode, n, lambda**n, N) -> the number of d <= N, frozen from the segment sieve
LAMBDA_COUNTS = {
    (DensityMode.LAMBDA_PRIMEPOWER, 3, Fraction(1, 2), 3 * 10**7): 109808,
    (DensityMode.LAMBDA_PRIMEPOWER, 3, Fraction(300), 10**7): 442251,
    (DensityMode.LAMBDA_PRIMEPOWER, 2, Fraction(1), 10**7): 1099177,
    (DensityMode.LAMBDA_PRIME, 4, Fraction(1), 2 * 10**7): 11478,
    (DensityMode.LAMBDA_PRIME, 2, Fraction(1, 4), 10**7): 786603,
    (DensityMode.LAMBDA_PRIME, 1, Fraction(1, 3), 10**7): 8986907,
}


@pytest.mark.parametrize(
    "mode, n, lam_pow, N", LAMBDA_COUNTS, ids=[f"{m.value}-{n}-{f}-{N}" for m, n, f, N in LAMBDA_COUNTS]
)
def test_lambda_counts_frozen(mode, n, lam_pow, N):
    assert empirical_density(n, N, mode, lam_pow=lam_pow).count == LAMBDA_COUNTS[mode, n, lam_pow, N]


def test_prop16_counts_frozen_beyond_1e8(monkeypatch):
    # exact walk counts of n = 3 FULL past the benchmark's 1e8, from the
    # exact-count table of the roadmap
    r = empirical_density(3, 10**10, DensityMode.PROP16_FULL, checkpoints=[10**9])
    assert r.samples == ((10**9, 5438892),)
    assert r.count == 63942747
    # past the budget, with it lifted for this call: the tests'
    # reference_runs recursion counts the same 721654180 degrees up to 1e11
    monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**11)
    r = empirical_density(3, 10**11, DensityMode.PROP16_FULL, checkpoints=[10**10])
    assert r.samples == ((10**10, 63942747),)
    assert r.count == 721654180


def test_walk_counts_with_an_astronomical_scale():
    # lambda**3 = 10**400: every d coprime to 3! qualifies, every threshold
    # divided by the scale is 1, and at the budget the prime bound refuses
    xs = [1, 10**5, 10**6]
    want = [sum(1 for d in range(1, x + 1) if d % 2 and d % 3) for x in xs]
    assert certify._walk_counts(certify._Inequality(3, 1, 0, 0, 10**400), xs) == want
    with pytest.raises(CapacityError, match=r"^walk prime bound 10000000000 exceeds 10\^8$"):
        certify._walk_counts(certify._Inequality(3, 1, 0, 0, 10**400), [arith.SIEVE_BUDGET])


@pytest.mark.parametrize("mode", [DensityMode.LAMBDA_PRIMEPOWER, DensityMode.LAMBDA_PRIME])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_degree_one(mode, n):
    # d = 1 has no prime, so v = 1: it qualifies iff lambda**n >= 1
    assert empirical_density(n, 1, mode, lam_pow=Fraction(1)).count == 1
    assert empirical_density(n, 1, mode, lam_pow=Fraction(1, 2)).count == 0


def test_lambda_prime_bound_beyond_1e8_is_refused_at_once():
    # the walk lists every prime up to cap = min(iroot(lambda**n * N, n), N);
    # past 10**8 it refuses (n = 1 with lambda * N > 1e8, n = 2 with
    # lambda**2 * N > 1e16, or a huge lambda) before listing any prime
    start = time.perf_counter()
    for mode in (DensityMode.LAMBDA_PRIMEPOWER, DensityMode.LAMBDA_PRIME):
        with pytest.raises(CapacityError, match=r"^walk prime bound 200000000 exceeds 10\^8$"):
            empirical_density(1, 2 * 10**8, mode, lam=Fraction(1))
        with pytest.raises(CapacityError, match=r"^walk prime bound 316227766 exceeds 10\^8$"):
            empirical_density(2, 10**10, mode, lam_pow=Fraction(10**7))
        with pytest.raises(CapacityError, match=r"^walk prime bound 1000000000 exceeds 10\^8$"):
            empirical_density(3, 10**9, mode, lam_pow=Fraction(10**400))
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([DensityMode.LAMBDA_PRIMEPOWER, DensityMode.LAMBDA_PRIME]),
    st.one_of(
        st.builds(Fraction, st.integers(1, 100), st.integers(1, 100)),
        st.sampled_from([Fraction(1), Fraction(1, 10**50), Fraction(10**50), Fraction(10**400)]),
    ),
    st.floats(0, log(3 * 10**6)),
    st.lists(st.floats(0, 1), max_size=4),
)
def test_lambda_density_matches_the_sieve(n, mode, lam_pow, log_n, fracs):
    # empirical_density against the strided sieve, which takes the lambda
    # predicates as (den, 0, 0, num), at random checkpoints and 1
    N = min(3 * 10**6, round(exp(log_n)))
    cps = sorted([1, *(max(1, int(f * N)) for f in fracs)])
    args = (n, lam_pow.denominator, 0, 0, lam_pow.numerator, mode == DensityMode.LAMBDA_PRIME)
    sieved = sieve_reference(1, N + 1, arith.primes_upto(isqrt(N)), *args)
    r = empirical_density(n, N, mode, lam_pow=lam_pow, checkpoints=cps)
    assert r.count == len(sieved)
    assert r.samples == tuple((m, int(np.searchsorted(sieved, m, side="right"))) for m in cps)


# --- exact threshold comparator ---------------------------------------------------
# The walk decides a*v**n + b*v**(n-1) + c <= m*d as ceil(thr(v) / m) <= d, by
# certify._Inequality.ceil; the LAMBDA modes have (a, b, c, m) = (den, 0, 0, num)
# for lambda**n = num/den.


def le(v, d, n, a, b, c, m):
    # one call per pair, as _Inequality.ceil takes an ascending v; the clamp
    # at d + 1 keeps every ceiling above d above it
    return np.array(
        [certify._Inequality(n, a, b, c, m).ceil(np.array([x], dtype=np.int64), y + 1)[0] <= y for x, y in zip(v, d)]
    )


def test_pow_le_scaled_exact_tie_int64_path():
    d_tie = (10**18) // 8
    assert le([10**6], [d_tie], 3, 1, 0, 0, 8)[0]
    assert not le([10**6], [d_tie - 1], 3, 1, 0, 0, 8)[0]


def test_pow_le_scaled_exact_tie_object_path():
    # v**3 = 2.7e19 > 2^63 leaves int64; the tie must still be exact
    d_tie = 9 * 10**18
    assert le([3 * 10**6], [d_tie], 3, 1, 0, 0, 3)[0]
    assert not le([3 * 10**6], [d_tie - 1], 3, 1, 0, 0, 3)[0]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=10**20),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=10**9),
)
def test_pow_le_scaled_matches_fraction_oracle(v, n, a, b, c, m, d):
    got = le([v], [d], n, a, b, c, m)[0]
    assert bool(got) == (a * Fraction(v) ** n + b * Fraction(v) ** (n - 1) + c <= Fraction(m) * d)


def test_pow_le_scaled_astronomical_rationals():
    # numerator/denominator far beyond float range must not overflow
    v, d = [10**9, 2], [10**18, 3]
    big = 10**400
    assert not le(v, d, 3, big, 0, 0, 1).any()  # lambda**n ~ 1e-400
    assert le(v, d, 3, 1, 0, 0, big).all()  # lambda**n ~ 1e400
    # exact tie with big scale factors on both sides
    scale = 10**360
    assert le([7], [1], 3, scale, 0, 0, 343 * scale)[0]


def test_lambda_beyond_int64_keeps_every_coprime_degree():
    # lambda**3 = 10**400: the bound on v exceeds the segment and every
    # comparison runs on Python integers; each d coprime to 6 qualifies
    r = empirical_density(3, 3000, DensityMode.LAMBDA_PRIME, lam_pow=Fraction(10**400))
    assert r.count == sum(1 for d in range(1, 3001) if gcd(d, 6) == 1)


# --- ihc fraction ---------------------------------------------------------------


def test_ihc_small_examples():
    assert ihc_fraction(3, 54, 1).count == 0
    assert ihc_fraction(3, 379, 379).count == 0  # 5 does not divide 379
    r = ihc_fraction(3, 380, 380)
    assert r.count == 1 and r.fraction == 1.0  # 380 = 2^2 * 5 * 19, p = 5 works


@cache
def ihc_brute_marks(n, N):
    """Whether each d = 1..N has a prime p > n with threshold(p) <= d dividing
    it, by trial division with the thresholds written out."""
    thr = {3: lambda p: 2 * p**3 + 3 * p**2 + 54, 4: lambda p: 5 * p**4 + 18 * p**3 + 408}[n]
    return tuple(any(p > n and thr(p) <= d for p, _ in brute_factorize(d)) for d in range(1, N + 1))


def test_ihc_brute_force():
    # oracle: direct scan with pure-python arithmetic
    N = 3000
    count = sum(ihc_brute_marks(3, N))
    r = ihc_fraction(3, N, 1)
    assert r.count == count
    assert r.fraction == count / N


def test_ihc_brute_force_n4():
    N = 60000
    r = ihc_fraction(4, N, 1)
    assert r.count == sum(ihc_brute_marks(4, N))


# arith._strike_blocks marks each segment in blocks of arith._SIEVE_BLOCK
# integers from the segment's low end; a small odd block puts block edges
# everywhere inside the segment, off the multiples of every prime.
@pytest.mark.parametrize("n, N, range_lo", [(3, 3000, 1), (3, 3000, 1000), (4, 60000, 1), (4, 60000, 33333)])
def test_ihc_small_odd_blocks_match_the_brute_force(monkeypatch, n, N, range_lo):
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 97)
    want = sum(ihc_brute_marks(n, N)[range_lo - 1 :])
    assert ihc_fraction(n, N, range_lo).count == want
    assert ihc_fraction(n, N, range_lo, threads=2).count == want


# Segments of the prime 1009 put thresholds past the first segment: for n = 4
# thr(5) = 5783 and thr(7) = 18587 first fall in later segments, and in the
# segments below those a prime with a * p**n < hi <= thr(p) marks nothing.
@pytest.mark.parametrize("n, N", [(3, 3000), (4, 60000)])
def test_ihc_across_small_segments_matches_the_brute_force(monkeypatch, n, N):
    monkeypatch.setattr(arith, "SEGMENT_SIZE", 1009)
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 97)
    marks = ihc_brute_marks(n, N)
    rng = random.Random(37 + n)
    for range_lo in [1, *sorted(rng.randrange(1, N + 1) for _ in range(4))]:
        want = sum(marks[range_lo - 1 :])
        assert ihc_fraction(n, N, range_lo).count == want
        assert ihc_fraction(n, N, range_lo, threads=2).count == want


def test_ihc_frozen_count_with_range_lo_inside_a_block(monkeypatch):
    # blocks start at each segment's low end, so the one segment's first block
    # starts at range_lo, which is no multiple of 4099, and its 900000
    # degrees end in a partial block of 2319
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 4099)
    assert (10**5 + 1) % 4099 != 0
    a = ihc_fraction(3, 10**6, 10**5 + 1, threads=1)
    assert a.count == 540702
    assert ihc_fraction(3, 10**6, 10**5 + 1, threads=2) == a


def test_ihc_blocks_that_straddle_segments_keep_the_count(monkeypatch):
    # blocks start at each segment's low end: with the prime 99991 the first
    # segment's blocks start at lo, the others' at multiples of SEGMENT_SIZE,
    # and each of the three segments ends in a partial block
    N, lo = 3 * arith.SEGMENT_SIZE - 1, 12345
    want = ihc_fraction(3, N, lo)
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 99991)
    assert ihc_fraction(3, N, lo, threads=1) == want
    assert ihc_fraction(3, N, lo, threads=2) == want


def traced_peak(call) -> int:
    """Peak traced bytes of a second call, after one warm-up call (imports,
    base primes)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ihc_marks_in_a_block_not_a_segment():
    # a segment's 2**22 bools are 4 MiB; one 2**20 block is 1 MiB
    assert traced_peak(lambda: ihc_fraction(3, 2 * arith.SEGMENT_SIZE + 5, threads=1)) < 2 * 2**20


def test_reciprocal_sums_hold_a_block_of_primes_not_a_segment():
    # a segment's 2**22 integers hold about 270k primes here, 2.2 MB as int64;
    # one block's primes take about half that, and their reciprocals, the
    # exponents and the mantissas are formed in that same array
    assert traced_peak(lambda: arith.mertens_sum(2 * arith.SEGMENT_SIZE + 5, 3, threads=1)) < 4 * 2**20


def test_prime_count_counts_marks_in_a_block():
    assert traced_peak(lambda: arith.prime_count(2 * arith.SEGMENT_SIZE + 5)) < 2 * 2**20


def test_walk_holds_chunks_not_levels():
    # the walk to 1e10 held whole levels and every run, 65 MiB traced; one
    # step of a 2**15 chunk holds about a dozen int64 arrays of its children,
    # and at most 2**13 runs wait to be yielded
    assert traced_peak(lambda: empirical_density(3, 10**10, DensityMode.PROP16_FULL)) < 12 * 2**20


def test_scan_window_holds_chunks_not_levels():
    # the top benchmark window walks to 2**29 - 1 and keeps only its own
    # degrees: 3.7 MiB traced with 2**15 chunks, 6.9 MiB as whole levels
    assert traced_peak(lambda: certify.scan_qualifying(3, 2**29 - 2**23, 2**29)) < 5.5 * 2**20


def test_ihc_monotone_fraction_on_grid():
    fr = [ihc_fraction(3, N, 1).fraction for N in (380, 1000, 5000, 20000, 10**5)]
    assert all(a <= b for a, b in zip(fr, fr[1:]))


def test_ihc_threads_identical():
    a = ihc_fraction(3, 10**6, 10**5 + 1, threads=1)
    b = ihc_fraction(3, 10**6, 10**5 + 1, threads=4)
    assert a == b


def test_ihc_validation():
    with pytest.raises(ParameterError):
        ihc_fraction(2, 100)
    with pytest.raises(ParameterError):
        ihc_fraction(3, 100, 200)
    with pytest.raises(CapacityError):
        ihc_fraction(3, arith.SIEVE_BUDGET + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda over: arith.prime_count(over),
        lambda over: arith.mertens_sum(over, 3),
        lambda over: certify.scan_qualifying(3, 1, over + 1),
        lambda over: empirical_density(3, over, DensityMode.PROP16_FULL),
        lambda over: empirical_density(3, over, DensityMode.LAMBDA_PRIME, lam=Fraction(1)),
        lambda over: ihc_fraction(3, over),
        lambda over: empirical_density(1, over, DensityMode.LAMBDA_PRIMEPOWER, lam=Fraction(1)),
        lambda over: certify.scan_qualifying(3, over + 1, over + 1),
        lambda over: convergence_diagnostics(3, [over]),
    ],
)
def test_sieve_entry_points_share_one_budget_message(call):
    over = arith.SIEVE_BUDGET + 1
    with pytest.raises(CapacityError) as exc:
        call(over)
    assert str(exc.value) == f"sieve bound {over} exceeds budget {arith.SIEVE_BUDGET}"


# --- diagnostics ----------------------------------------------------------------


def test_diagnostics_basic_rows():
    rows = convergence_diagnostics(3, [10, 100])
    assert rows[0].m == 10
    assert rows[0].prime_power_ratio == 0.7
    assert rows[1].prime_power_ratio == 0.35
    assert rows[0].mertens == arith.mertens_sum(10, 3).sum
    assert rows[0].tail_small is None


def test_diagnostics_tail_sums_hand_checked():
    # prime powers with exponent >= 2 up to 10: {4, 8, 9}; m**(1/3) floor = 2
    rows = convergence_diagnostics(3, [10], lam=Fraction(1))
    r = rows[0]
    assert r.tail_small == 0.0  # none of 4, 8, 9 is <= 2
    assert r.tail_large == pytest.approx(10 * fsum([1 / 4, 1 / 8, 1 / 9]))
    assert r.ratio_bound == pytest.approx((r.tail_small + r.tail_large) / 10)


def test_diagnostics_tail_sums_brute():
    m = 10**4
    n = 3
    lam = Fraction(2, 3)
    powers = []
    for p in range(2, 101):
        if arith.is_prime(p):
            pe = p * p
            while pe <= m:
                powers.append(pe)
                pe *= p
    root = arith.integer_nth_root(m, n)
    small = sum(q ** (n - 1) for q in powers if q <= root)
    large = fsum(1.0 / q for q in sorted(powers) if q > root)
    rows = convergence_diagnostics(n, [m], lam=lam)
    assert rows[0].tail_small == pytest.approx(float(Fraction(3, 2) ** 3) * small)
    assert rows[0].tail_large == pytest.approx(m * large)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_diagnostics_ratio_is_the_prime_power_count(n):
    # 4194304 = SEGMENT_SIZE: checkpoints on both sides of segment ends
    ms = [2, 3, 8, 10, 1000, 12345, 10**5, 4194303, 4194304, 4194305, 8388609]
    want = [arith.prime_power_count(m) / m for m in ms], [arith.mertens_sum(m, n).sum for m in ms]
    for threads in (1, 2):
        rows = convergence_diagnostics(n, ms, lam=Fraction(1), threads=threads)
        assert ([r.prime_power_ratio for r in rows], [r.mertens for r in rows]) == want


def test_diagnostics_sieves_each_checkpoint_once(monkeypatch):
    # one sweep over [2, max m] answers every checkpoint, pi(m) included
    swept = []
    map_sieve = arith.map_sieve

    def recording(lo, hi, fn, threads=1):
        swept.append((lo, hi))
        return map_sieve(lo, hi, fn, threads)

    monkeypatch.setattr(arith, "map_sieve", recording)
    m = 10**6
    convergence_diagnostics(3, [m], lam=Fraction(1))
    assert sum(max(0, hi - lo) for lo, hi in swept) <= m + arith.integer_nth_root(m, 3)
    swept.clear()
    cps = [10**5 * k for k in range(1, 21)]
    convergence_diagnostics(3, cps, lam=Fraction(1))
    assert len(swept) == 1 and swept[0][0] >= 2 and swept[0][1] <= cps[-1] + 1


def test_diagnostics_validation():
    with pytest.raises(ParameterError):
        convergence_diagnostics(3, [])
    with pytest.raises(ParameterError):
        convergence_diagnostics(3, [100, 10])
    with pytest.raises(CapacityError):
        convergence_diagnostics(3, [arith.SIEVE_BUDGET + 1])
    with pytest.raises(ParameterError, match="mertens_sum requires n >= 1"):
        convergence_diagnostics(0, [10], lam=Fraction(1))


@pytest.mark.parametrize("n, lam", [(3, Fraction(1, 10**200)), (1, Fraction(1, 10**310))])
def test_diagnostics_refuse_a_lambda_pow_past_the_floats_before_sieving(monkeypatch, n, lam):
    def no_sieve(*args):
        raise AssertionError("map_sieve called")

    monkeypatch.setattr(arith, "map_sieve", no_sieve)
    with pytest.raises(ParameterError, match=r"^lambda\*\*\(-n\) exceeds the float range$"):
        convergence_diagnostics(n, [100], lam=lam)


def test_diagnostics_takes_no_lam_pow():
    with pytest.raises(TypeError):
        convergence_diagnostics(3, [10, 100], lam_pow=Fraction(1))


# --- report plumbing --------------------------------------------------------------


def test_report_fields():
    r = empirical_density(4, 1000, DensityMode.PROP16_FULL)
    assert r.n == 4 and r.N == 1000
    assert r.count == 0  # smallest qualifying degree for n = 4 is far above 1000
    assert r.lam is None and r.lam_pow is None
    r2 = empirical_density(3, 100, DensityMode.LAMBDA_PRIMEPOWER, lam=Fraction(1, 2))
    assert r2.lam == Fraction(1, 2)
    assert r2.lam_pow == Fraction(1, 8)
