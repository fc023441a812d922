from fractions import Fraction
from math import factorial, fsum, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith, certify
from degcert.density import DensityMode, convergence_diagnostics, empirical_density, ihc_fraction
from degcert.errors import CapacityError, ParameterError


def brute_factors(d):
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


def brute_lpp(d):
    return max((p**e for p, e in brute_factors(d)), default=1)


def brute_lpf(d):
    fs = brute_factors(d)
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


def test_validation_lambda_modes():
    with pytest.raises(ParameterError, match="lam"):
        empirical_density(3, 100, DensityMode.LAMBDA_PRIME)
    with pytest.raises(ParameterError, match="positive"):
        empirical_density(3, 100, DensityMode.LAMBDA_PRIME, lam=Fraction(-1))
    with pytest.raises(ParameterError, match="checkpoints"):
        empirical_density(3, 100, DensityMode.PROP16_FULL, checkpoints=[200])
    with pytest.raises(CapacityError):
        empirical_density(3, arith.SIEVE_BUDGET + 1, DensityMode.PROP16_FULL)


def test_density_threads_bit_identical():
    a = empirical_density(3, 10**6, DensityMode.PROP16_FULL, checkpoints=[10**5, 10**6])
    b = empirical_density(3, 10**6, DensityMode.PROP16_FULL, checkpoints=[10**5, 10**6], threads=4)
    assert a.count == b.count
    assert a.samples == b.samples
    assert a.empirical == b.empirical


# --- exact threshold comparator ---------------------------------------------------
# certify.threshold_le decides a*v**n + b*v**(n-1) + c <= m*d; the LAMBDA modes
# call it with (a, b, c, m) = (den, 0, 0, num) for lambda**n = num/den.


def le(v, d, n, a, b, c, m):
    return certify.threshold_le(
        np.array(v, dtype=np.int64), np.array(d, dtype=np.int64), n, a, b, c, m
    )


def test_pow_le_scaled_exact_tie_int64_path():
    d_tie = (10**18) // 8
    assert le([10**6], [d_tie], 3, 1, 0, 0, 8)[0]
    assert not le([10**6], [d_tie - 1], 3, 1, 0, 0, 8)[0]


def test_pow_le_scaled_exact_tie_object_path():
    # v**3 = 2.7e19 > 2^62 leaves int64; the tie must still be exact
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


def test_ihc_brute_force():
    # oracle: direct scan with pure-python arithmetic
    N = 3000
    count = 0
    for d in range(1, N + 1):
        ok = False
        for p, _ in brute_factors(d):
            if p > 3 and 2 * p**3 + 3 * p**2 + 54 <= d:
                ok = True
                break
        count += ok
    r = ihc_fraction(3, N, 1)
    assert r.count == count
    assert r.fraction == count / N


def test_ihc_brute_force_n4():
    N = 60000
    count = 0
    for d in range(1, N + 1):
        ok = False
        for p, _ in brute_factors(d):
            if p > 4 and 5 * p**4 + 18 * p**3 + 408 <= d:
                ok = True
                break
        count += ok
    r = ihc_fraction(4, N, 1)
    assert r.count == count


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


def test_diagnostics_validation():
    with pytest.raises(ParameterError):
        convergence_diagnostics(3, [])
    with pytest.raises(ParameterError):
        convergence_diagnostics(3, [100, 10])
    with pytest.raises(CapacityError):
        convergence_diagnostics(3, [arith.SIEVE_BUDGET + 1])


# --- report plumbing --------------------------------------------------------------


def test_report_fields():
    r = empirical_density(4, 1000, DensityMode.PROP16_FULL)
    assert r.n == 4 and r.N == 1000
    assert r.count == 0  # smallest qualifying degree for n = 4 is far above 1000
    assert r.lam is None and r.lam_pow is None
    r2 = empirical_density(3, 100, DensityMode.LAMBDA_PRIMEPOWER, lam=Fraction(1, 2))
    assert r2.lam == Fraction(1, 2)
    assert r2.lam_pow == Fraction(1, 8)
