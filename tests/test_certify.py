import dataclasses
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith, certify, density
from degcert.certify import Mode
from degcert.density import DensityMode
from degcert.errors import CapacityError, DecompositionError, ParameterError


def brute_lpp(d):
    q = 1
    t = d
    p = 2
    while p * p <= t:
        if t % p == 0:
            pe = 1
            while t % p == 0:
                t //= p
                pe *= p
            q = max(q, pe)
        p += 1
    return max(q, t) if t > 1 else q


def brute_condition(n, d, mode):
    """Pure-python qualification predicate, independent of the sieve."""
    f = factorial(n)
    if gcd(d, f) != 1:
        return False
    q = brute_lpp(d)
    c2 = n * (n - 1) // 2
    if mode == Mode.FULL:
        rhs = (c2 - 1) * q**n + (f - c2) * q ** (n - 1) + (2**n + 1) * f
    else:
        rhs = (f - 1) * q**n + (2**n + 1) * f
    return rhs <= d


# --- condition_holds ----------------------------------------------------------


def test_condition_examples():
    assert certify.condition_holds(3, 5005, Mode.FULL)
    assert not certify.condition_holds(3, 5005, Mode.WEAK)  # 5*2197 + 54 = 11039 > 5005
    assert not certify.condition_holds(3, 35, Mode.FULL)  # 2*343 + 3*49 + 54 = 887 > 35
    assert not certify.condition_holds(3, 1)
    assert not certify.condition_holds(3, 30)  # gcd(30, 6) != 1


def test_condition_validation():
    with pytest.raises(ParameterError):
        certify.condition_holds(2, 100)
    with pytest.raises(ParameterError):
        certify.condition_holds(3, 0)


def test_threshold_values():
    assert certify.qualification_threshold(3, 13, Mode.FULL) == 2 * 2197 + 3 * 169 + 54
    assert certify.qualification_threshold(3, 13, Mode.WEAK) == 5 * 2197 + 54
    # near-2^63 bases stay exact (Python integers, no wrap possible)
    q = 4294967291
    assert certify.qualification_threshold(3, q) == 2 * q**3 + 3 * q**2 + 54
    assert certify.qualification_threshold(3, q) > 2**63


def test_weak_implies_full_qualification():
    for d in range(1, 10**5, 7):
        if certify.condition_holds(3, d, Mode.WEAK):
            assert certify.condition_holds(3, d, Mode.FULL)
    # and the threshold comparison behind it, for a spread of q and n
    for n in (3, 4, 5, 7):
        for q in (1, 5, 7, 11, 125, 10**6 + 3):
            assert certify.qualification_threshold(n, q, Mode.WEAK) >= certify.qualification_threshold(n, q, Mode.FULL)


# --- decompose ----------------------------------------------------------------


def test_decompose_5005_q13():
    e = certify.decompose(3, 5005, 13, Mode.FULL)
    assert (e.i, e.j, e.k) == (1, 0, 468)
    assert 1 * 13**3 + 0 * 13**2 + 468 * 6 == 5005
    assert 468 % 13 == 0 and 468 >= 9


def test_decompose_5005_q5():
    e = certify.decompose(3, 5005, 5, Mode.FULL)
    assert (e.i, e.j, e.k) == (2, 3, 780)
    assert 2 * 125 + 3 * 25 + 780 * 6 == 5005
    assert 780 % 5 == 0


def test_decompose_deterministic():
    a = certify.decompose(3, 5005, 11, Mode.FULL)
    b = certify.decompose(3, 5005, 11, Mode.FULL)
    assert a == b == certify.PrimePowerCertificate(q=11, i=2, j=3, k=330, mode=Mode.FULL)


def test_decompose_weak_i_boundary():
    # d = 25*13*17*19 = 104975 = 5 (mod 6), q = 25: WEAK needs i = n! - 1 = 5
    d = 25 * 13 * 17 * 19
    e = certify.decompose(3, d, 25, Mode.WEAK)
    assert e.i == 5 and e.j == 0
    assert e.k == (d - 5 * 25**3) // 6 == 4475
    assert e.k % 25 == 0 and e.k >= 9


def test_decompose_error_k_too_small():
    with pytest.raises(DecompositionError, match="k ="):
        certify.decompose(3, 35, 7, Mode.WEAK)


def test_decompose_error_not_prime_power():
    with pytest.raises(DecompositionError, match="prime power"):
        certify.decompose(3, 5005 * 7, 35, Mode.FULL)


def test_decompose_error_not_divisor():
    with pytest.raises(DecompositionError, match="does not divide"):
        certify.decompose(3, 5005, 3, Mode.FULL)


def test_decompose_error_not_coprime():
    with pytest.raises(DecompositionError, match="gcd"):
        certify.decompose(3, 3 * 5005, 3, Mode.FULL)


def test_decompose_accepts_non_maximal_prime_power():
    # 5 divides d = 4629625 = 5^3 * 7 * 11 * 13 * 37 but is not maximal (125 is);
    # the caller may still decompose with q = 5 since the inequality holds a fortiori.
    d = 4629625
    e = certify.decompose(3, d, 5, Mode.FULL)
    assert e.i * 5**3 + e.j * 25 + e.k * 6 == d
    assert e.k % 5 == 0


# --- build / verify -----------------------------------------------------------


def test_build_5005_entries_and_premises():
    cert = certify.build_certificate(3, 5005)
    assert [e.q for e in cert.entries] == [5, 7, 11, 13]
    assert [(e.i, e.j, e.k) for e in cert.entries] == [
        (2, 3, 780),
        (1, 0, 777),
        (2, 3, 330),
        (1, 0, 468),
    ]
    kinds = {(p.kind, p.q) for p in cert.premises}
    assert (certify.PREMISE_KOLLAR_QN, 5) in kinds
    assert (certify.PREMISE_KOLLAR_BINOM, 5) in kinds
    assert (certify.PREMISE_KOLLAR_BINOM, 7) not in kinds  # j = 0 there
    for e in cert.entries:
        assert (certify.PREMISE_ABELIAN_FACTORIAL, e.q) in kinds


def test_build_rejects_noncoprime():
    with pytest.raises(DecompositionError, match="gcd"):
        certify.build_certificate(3, 30)


def test_build_rejects_too_small():
    with pytest.raises(DecompositionError, match="threshold"):
        certify.build_certificate(3, 35)


def test_huge_n_fails_before_building_n_factorial():
    # n! for n = 10**6 takes seconds; every witness needs d > 2**n anyway
    n = 10**6
    assert not certify.condition_holds(n, 5005)
    with pytest.raises(DecompositionError, match="2\\^n"):
        certify.build_certificate(n, 5005)
    with pytest.raises(DecompositionError, match="2\\^n"):
        certify.decompose(n, 5005, 5)


# the certificate modes with the density modes that count the same degrees
PROP16 = ((Mode.FULL, DensityMode.PROP16_FULL), (Mode.WEAK, DensityMode.PROP16_WEAK))


@pytest.mark.parametrize("n", range(3, 13))
def test_no_degree_below_two_to_the_n_qualifies(n):
    fact = factorial(n)
    for d in range(1, 2**n):
        assert not certify.condition_holds(n, d)
        assert not certify.condition_holds(n, d, Mode.WEAK)
    assert (2**n + 1) * fact > 2**n  # the least degree any witness allows
    # the sieve entry points agree on the bound 2**n - 1
    bound = 2**n - 1
    for mode, dmode in PROP16:
        assert certify.enumerate_qualifying(n, bound, mode) == []
        with pytest.raises(CapacityError, match="budget"):
            certify.smallest_qualifying(n, mode, budget=bound)
        assert density.empirical_density(n, bound, dmode).count == 0
    assert density.ihc_fraction(n, bound).count == 0


def test_sieve_entry_points_answer_huge_n_without_n_factorial(monkeypatch):
    # n! for n = 300000 takes seconds; every qualifying degree exceeds 2**n
    def no_factorial(m):
        raise AssertionError(f"built {m}!")

    monkeypatch.setattr(certify, "factorial", no_factorial)
    n = 300000
    assert [len(arr) for arr in certify.scan_qualifying(n, 1, 10**7)] == [0, 0, 0]
    assert certify.enumerate_qualifying(n, 10**6) == []
    with pytest.raises(CapacityError, match="budget 10000000000"):
        certify.smallest_qualifying(n)
    for _, dmode in PROP16:
        report = density.empirical_density(n, 10**6, dmode, checkpoints=[10**5])
        assert report.count == 0 and report.samples == ((10**5, 0),)
    assert density.ihc_fraction(n, 10**6).count == 0
    # the budget still holds, and is checked before n! could be built
    with pytest.raises(CapacityError, match="sieve bound 20000000000 exceeds budget"):
        density.empirical_density(n, 2 * 10**10, DensityMode.PROP16_FULL)
    with pytest.raises(CapacityError, match="sieve bound 20000000000 exceeds budget"):
        density.ihc_fraction(n, 2 * 10**10)


def test_build_certificate_reports_huge_gcd():
    # gcd(d, n!) and n! both have more digits than Python prints
    with pytest.raises(DecompositionError, match="-bit integer"):
        certify.build_certificate(2000, 2**3000)


def test_build_with_square_factor():
    # q = 125 enters as a maximal prime power with exponent 3
    d = 5**3 * 7 * 11 * 13 * 37
    assert certify.condition_holds(3, d)
    cert = certify.build_certificate(3, d)
    assert cert.entries[0].q == 125
    assert certify.verify_certificate(cert).passed


def test_verify_roundtrip():
    report = certify.verify_certificate(certify.build_certificate(3, 5005))
    assert report.passed
    assert all(c.passed for c in report.checks)


def _failing(report, name):
    return [c for c in report.checks if c.name == name and not c.passed]


def test_verify_rejects_small_k():
    cert = certify.build_certificate(3, 5005)
    bad_entry = dataclasses.replace(cert.entries[3], k=6)
    bad = dataclasses.replace(cert, entries=cert.entries[:3] + (bad_entry,))
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "k_lower_bound")


def test_verify_rejects_bad_j():
    cert = certify.build_certificate(3, 5005)
    bad_entry = dataclasses.replace(cert.entries[0], j=1)
    bad = dataclasses.replace(cert, entries=(bad_entry,) + cert.entries[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "j_range")


def test_verify_rejects_missing_entry():
    cert = certify.build_certificate(3, 5005)
    bad = dataclasses.replace(cert, entries=cert.entries[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "entries_cover_d")


def test_verify_rejects_tampered_premises():
    cert = certify.build_certificate(3, 5005)
    bad = dataclasses.replace(cert, premises=cert.premises[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "premise_ledger")


def test_verify_is_total_on_garbage():
    junk = certify.Certificate(
        n=3,
        d=30,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=36, i=-1, j=2, k=0, mode=Mode.FULL),),
        premises=(),
    )
    report = certify.verify_certificate(junk)
    assert not report.passed
    assert _failing(report, "gcd_d_nfact")
    assert _failing(report, "q_prime_power")


def test_verify_reports_huge_details_for_large_n():
    # WEAK with n = 2000: n! - 1 in the i_range detail has 5736 digits,
    # past Python's int-to-str limit
    weak = certify.Certificate(
        n=2000,
        d=10**700,
        mode=Mode.WEAK,
        entries=(certify.PrimePowerCertificate(q=5, i=1, j=0, k=1, mode=Mode.WEAK),),
        premises=(),
    )
    report = certify.verify_certificate(weak)
    assert not report.passed
    (i_range,) = [c for c in report.checks if c.name == "i_range"]
    assert "-bit integer" in i_range.detail
    # an n whose factorial exceeds d fails at once, without building n!
    for n in (10**8, 10**300):
        report = certify.verify_certificate(dataclasses.replace(weak, n=n))
        assert _failing(report, "nfact_le_d")


def test_verify_reports_huge_d_and_q():
    # d = 10**5000 and q = 10**5000 + 1 have more digits than Python prints
    huge_d = certify.Certificate(
        n=3,
        d=10**5000,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=5**5000, i=1, j=3, k=10**5000, mode=Mode.FULL),),
        premises=(certify.Premise(kind=certify.PREMISE_ABELIAN_FACTORIAL, q=5**5000, k=10**5000),),
    )
    huge_q = certify.Certificate(
        n=3,
        d=5005,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=10**5000 + 1, i=0, j=0, k=0, mode=Mode.FULL),),
        premises=(),
    )
    for cert in (huge_d, huge_q):
        report = certify.verify_certificate(cert)
        assert not report.passed
        assert any("-bit integer" in c.detail for c in report.checks)
    assert _failing(certify.verify_certificate(huge_q), "q_prime_power")


def _mutants(cert):
    """All single-field mutations of every entry that keep fields nonnegative."""
    c2 = certify.binom2(cert.n)
    for t, entry in enumerate(cert.entries):
        variants = []
        for field in ("i", "j", "k", "q"):
            val = getattr(entry, field)
            for delta in (+1, -1):
                if val + delta >= 0:
                    variants.append(dataclasses.replace(entry, **{field: val + delta}))
        for delta in (c2, -c2):
            if entry.j + delta >= 0:
                variants.append(dataclasses.replace(entry, j=entry.j + delta))
        p, _ = arith.prime_power_root(entry.q)
        variants.append(dataclasses.replace(entry, q=entry.q * p))
        for v in variants:
            yield dataclasses.replace(
                cert, entries=cert.entries[:t] + (v,) + cert.entries[t + 1 :]
            )


def test_mutation_kill_5005():
    cert = certify.build_certificate(3, 5005)
    assert certify.verify_certificate(cert).passed
    n_mutants = 0
    for mutant in _mutants(cert):
        assert not certify.verify_certificate(mutant).passed
        n_mutants += 1
    assert n_mutants > 20


# --- enumeration and smallest -------------------------------------------------


def test_enumerate_below_first_hit_empty():
    assert certify.enumerate_qualifying(3, 5004) == []


def test_enumerate_first_hit():
    assert certify.enumerate_qualifying(3, 5005) == [5005]


def test_enumerate_matches_brute_force():
    listed = certify.enumerate_qualifying(3, 3 * 10**4)
    brute = [d for d in range(1, 3 * 10**4 + 1) if brute_condition(3, d, Mode.FULL)]
    assert listed == brute


def test_enumerate_weak_matches_brute_force():
    listed = certify.enumerate_qualifying(3, 10**5, Mode.WEAK)
    brute = [d for d in range(1, 10**5 + 1) if brute_condition(3, d, Mode.WEAK)]
    assert listed == brute
    assert set(listed) <= set(certify.enumerate_qualifying(3, 10**5, Mode.FULL))


def test_enumerate_threads_identical():
    assert certify.enumerate_qualifying(3, 10**5) == certify.enumerate_qualifying(
        3, 10**5, threads=4
    )


def test_enumerate_across_segment_boundary():
    # qualifying degrees straddling the fixed 2^22 sieve segment boundary
    boundary = 1 << 22
    window_lo, window_hi = boundary - 4000, boundary + 4000
    listed = [d for d in certify.enumerate_qualifying(3, window_hi) if d >= window_lo]
    brute = [d for d in range(window_lo, window_hi + 1) if brute_condition(3, d, Mode.FULL)]
    assert listed == brute
    assert brute  # the window is dense enough that some degree qualifies


def test_smallest_full():
    assert certify.smallest_qualifying(3) == 5005


def test_smallest_weak():
    d = certify.smallest_qualifying(3, Mode.WEAK)
    assert d == 46189  # = 11 * 13 * 17 * 19, frozen from the exhaustive search
    assert d >= 5005
    assert brute_condition(3, d, Mode.WEAK)
    assert not any(brute_condition(3, x, Mode.WEAK) for x in range(1, 46189))


def test_smallest_n4_frozen():
    d = certify.smallest_qualifying(4)
    assert d == 1616615  # = 5 * 7 * 11 * 13 * 17 * 19, frozen regression
    assert brute_condition(4, d, Mode.FULL)
    # nothing qualifies in the low range, exhaustively cross-checked
    assert not any(brute_condition(4, x, Mode.FULL) for x in range(1, 50001))


def test_smallest_capacity():
    with pytest.raises(CapacityError, match="budget"):
        certify.smallest_qualifying(3, budget=4000)


def test_smallest_window_stays_within_one_segment_per_thread(monkeypatch):
    windows = []
    scan = certify.scan_qualifying

    def recording(n, lo, hi, mode, threads):
        windows.append((lo, hi))
        return scan(n, lo, hi, mode, threads)

    monkeypatch.setattr(certify, "scan_qualifying", recording)
    with pytest.raises(CapacityError):
        certify.smallest_qualifying(5, threads=1, budget=3 * 10**7)
    assert windows[0][0] == 33 * 120 and windows[-1][1] == 3 * 10**7 + 1
    assert all(w[1] == v[0] for w, v in zip(windows, windows[1:]))  # contiguous
    assert all(hi - lo <= arith.SEGMENT_SIZE for lo, hi in windows)


# --- the qualifying-degree segment kernel against a scalar oracle -------------

# the two certificate modes and the two lambda predicates of density
KERNEL_MODES = (Mode.FULL, Mode.WEAK, "lambda_primepower", "lambda_prime")


@lru_cache(maxsize=None)
def _factors(d):
    return arith.factorize(d).factors


def kernel_hits(lo, hi, n, mode, lam_pow):
    base = arith.primes_upto(max(2, isqrt(hi - 1)))
    if isinstance(mode, Mode):
        args = (*certify.threshold_coefficients(n, mode), 1, False)
    else:
        args = (lam_pow.denominator, 0, 0, lam_pow.numerator, mode == "lambda_prime")
    hits = certify.qualifying_segment(lo, hi, base, n, *args)
    assert hits.dtype == np.int64
    return hits.tolist()


def oracle_hits(lo, hi, n, mode, lam_pow):
    """Scalar predicate per d: condition_holds for the certificate modes,
    v <= lambda * d**(1/n) in exact rationals for the lambda ones."""
    out = []
    for d in range(lo, hi):
        fs = _factors(d)
        if isinstance(mode, Mode):
            ok = certify.condition_holds(n, d, mode, q=max((p**e for p, e in fs), default=1))
        else:
            v = max((p if mode == "lambda_prime" else p**e for p, e in fs), default=1)
            ok = gcd(d, factorial(n)) == 1 and v**n <= lam_pow * d
        if ok:
            out.append(d)
    return out


def assert_kernel_matches_oracle(lo, hi, n, lam_pow, modes=KERNEL_MODES):
    hit_modes = 0
    for mode in modes:
        got = kernel_hits(lo, hi, n, mode, lam_pow)
        assert got == oracle_hits(lo, hi, n, mode, lam_pow), (lo, hi, n, mode, lam_pow)
        hit_modes += bool(got)
    return hit_modes


def test_qualifying_segment_from_one_matches_oracle():
    # the first segment starts at lo = 1; nothing below 5005 qualifies for
    # a certificate, while the lambda predicates hold for d = 1 and more
    assert assert_kernel_matches_oracle(1, 5000, 3, Fraction(1)) == 2
    assert assert_kernel_matches_oracle(1, 6000, 3, Fraction(1, 2), (Mode.FULL,)) == 1


def test_qualifying_segment_high_window_matches_oracle():
    assert assert_kernel_matches_oracle(10**7, 10**7 + 2048, 3, Fraction(1, 2)) == 4


def test_qualifying_segment_rejects_zero_lo():
    base = arith.primes_upto(10)
    with pytest.raises(ParameterError):
        certify.qualifying_segment(0, 10, base, 3, *certify.threshold_coefficients(3))


def test_qualifying_segment_across_segment_boundary():
    lo, hi = arith.SEGMENT_SIZE - 2048, arith.SEGMENT_SIZE + 2048
    assert assert_kernel_matches_oracle(lo, hi, 3, Fraction(1, 2)) == 4
    # scan_qualifying splits the same range at the boundary
    parts = certify.scan_qualifying(3, lo, hi)
    assert len(parts) == 2
    assert [int(d) for arr in parts for d in arr] == oracle_hits(lo, hi, 3, Mode.FULL, None)


def test_qualifying_segment_near_sieve_budget():
    top = arith.SIEVE_BUDGET
    assert assert_kernel_matches_oracle(top - 2047, top + 1, 3, Fraction(1, 2)) == 4
    assert assert_kernel_matches_oracle(top - 2047, top + 1, 4, Fraction(1)) >= 2


@pytest.mark.parametrize(
    "n, lam_pow",
    [(1, Fraction(1, 3)), (1, Fraction(1)), (2, Fraction(1)), (2, Fraction(9, 4)), (2, Fraction(1, 4))],
)
def test_qualifying_segment_small_n_matches_oracle(n, lam_pow):
    # v_ub at or past sqrt(hi - 1): most d are candidates and the kernel
    # factors the whole segment, except lambda**2 = 1/4 near 1e7, where the
    # screen keeps few enough for the candidate recheck
    modes = KERNEL_MODES[2:]
    assert assert_kernel_matches_oracle(1, 5000, n, lam_pow, modes) == 2
    assert assert_kernel_matches_oracle(10**7, 10**7 + 2048, n, lam_pow, modes) == 2


@pytest.mark.parametrize("lam_pow", [Fraction(10**400), Fraction(1, 10**400)])
def test_qualifying_segment_astronomical_lambda_matches_oracle(lam_pow):
    modes = KERNEL_MODES[2:]
    hit_modes = assert_kernel_matches_oracle(1, 5000, 3, lam_pow, modes)
    assert hit_modes == assert_kernel_matches_oracle(10**7, 10**7 + 2048, 3, lam_pow, modes)
    assert hit_modes == (2 if lam_pow > 1 else 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10**4) | st.integers(1, 10**9),
    st.integers(1, 600),
    st.integers(1, 6),
    st.sampled_from(KERNEL_MODES),
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
)
def test_qualifying_segment_matches_oracle_on_random_ranges(lo, width, n, mode, lam_pow):
    if isinstance(mode, Mode):
        n = max(n, 3)
    assert_kernel_matches_oracle(lo, lo + width, n, lam_pow, (mode,))


def test_roundtrip_over_enumeration():
    for d in certify.enumerate_qualifying(3, 3 * 10**4):
        report = certify.verify_certificate(certify.build_certificate(3, d))
        assert report.passed, f"d = {d}"


def test_composition_multiset_reconstructs_d():
    # additivity-rule view: each entry's premise degrees, with multiplicity
    # {q^n x i, C(n,2)*q^(n-1) x j/C(n,2), k*n! x 1}, must sum to d exactly
    for d in (5005, 85085, 4629625):
        cert = certify.build_certificate(3, d)
        for e in cert.entries:
            degrees = (
                [e.q**3] * e.i
                + [3 * e.q**2] * (e.j // 3)
                + [e.k * 6]
            )
            assert sum(degrees) == d


def test_decompose_n4_hand_derived():
    # d = 1616615 = 5*7*11*13*17*19, n = 4, q = 19: residues worked by hand
    # (19 = 1 mod 6 gives i = d mod 6 = 5; 19^3 = 19 mod 24, 19^-1 = 19 mod 24,
    #  j = (d - 5*19^4)*19 mod 24 = 6; k = (d - 5*19^4 - 6*19^3)/24 = 38494)
    e = certify.decompose(4, 1616615, 19, Mode.FULL)
    assert (e.i, e.j, e.k) == (5, 6, 38494)
    assert 5 * 19**4 + 6 * 19**3 + 38494 * 24 == 1616615
    assert e.k % 19 == 0 and e.k >= 17 and e.j % 6 == 0


def test_roundtrip_n4_and_n5():
    for d in certify.enumerate_qualifying(4, 3 * 10**6):
        assert certify.verify_certificate(certify.build_certificate(4, d)).passed
    # frozen from one exhaustive search run (the windowed sieve to ~4e8);
    # re-deriving it here would dominate the suite runtime
    d5 = 393255863  # = 7 * 11 * 13 * 19 * 23 * 29 * 31
    assert brute_condition(5, d5, Mode.FULL)
    cert = certify.build_certificate(5, d5)
    assert [e.q for e in cert.entries] == [7, 11, 13, 19, 23, 29, 31]
    assert certify.verify_certificate(cert).passed


def test_roundtrip_weak_mode():
    ds = certify.enumerate_qualifying(3, 10**5, Mode.WEAK)
    assert ds[0] == 46189
    for d in ds:
        cert = certify.build_certificate(3, d, Mode.WEAK)
        assert all(e.j == 0 for e in cert.entries)
        assert certify.verify_certificate(cert).passed
        back = certify.certificate_from_json(certify.certificate_to_json(cert))
        assert back == cert


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_decompose_identity_hypothesis(idx):
    ds = certify.enumerate_qualifying(3, 10**5)
    d = ds[idx % len(ds)]
    cert = certify.build_certificate(3, d)
    for e in cert.entries:
        assert e.i * e.q**3 + e.j * e.q**2 + e.k * 6 == d
        assert 0 <= e.i <= 2
        assert 0 <= e.j <= 3 and e.j % 3 == 0
        assert e.k >= 9 and e.k % e.q == 0


_PRIME_POWER_POOL = [5, 7, 11, 13, 25, 49, 125, 169, 343, 1331, 2197, 9973]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.sampled_from(_PRIME_POWER_POOL),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_decompose_recovers_constructed_coefficients(n, q, i_seed, j_seed, k_seed):
    # build d from coefficients already in canonical ranges; decompose must
    # return exactly those (they are the unique representatives)
    fact = factorial(n)
    if gcd(q, fact) != 1:
        return
    c2 = certify.binom2(n)
    i = i_seed % c2
    j = c2 * (j_seed % ((fact - c2) // c2 + 1))
    k = q * max(k_seed % 10**4 + 1, 1)
    if k < 2**n + 1:
        k += q * ((2**n + 1 - k) // q + 1)
    d = i * q**n + j * q ** (n - 1) + k * fact
    e = certify.decompose(n, d, q, Mode.FULL)
    assert (e.i, e.j, e.k) == (i, j, k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-5, max_value=80),
    st.integers(min_value=-10, max_value=10**6),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=10**6),
            st.integers(min_value=-3, max_value=50),
            st.integers(min_value=-3, max_value=10**7),
            st.integers(min_value=-3, max_value=10**7),
        ),
        max_size=4,
    ),
)
def test_verify_is_total_on_fuzzed_certificates(n, d, raw_entries):
    # the verifier must never raise, whatever the certificate claims
    entries = tuple(
        certify.PrimePowerCertificate(q=q, i=i, j=j, k=k, mode=Mode.FULL)
        for q, i, j, k in raw_entries
    )
    cert = certify.Certificate(n=n, d=d, mode=Mode.FULL, entries=entries, premises=())
    report = certify.verify_certificate(cert)
    assert isinstance(report.passed, bool)


# --- rational example ---------------------------------------------------------


def test_rational_example_passes():
    rep = certify.verify_rational_example(53599, [7, 13, 19, 31])
    assert rep.passed and rep.covers_prime_divisors
    assert [c.k for c in rep.checks] == [8876, 8567, 7790, 3968]
    for c in rep.checks:
        assert c.q_divides_k and c.k_ge_38 and not c.near_miss_k


def test_rational_example_incomplete_qs():
    rep = certify.verify_rational_example(53599, [7])
    assert not rep.passed
    assert not rep.covers_prime_divisors
    assert rep.checks[0].passed  # the q = 7 arithmetic itself is fine


def test_rational_example_cube_exceeds_d():
    rep = certify.verify_rational_example(35, [7])
    assert not rep.passed
    c = rep.checks[0]
    assert c.q_mod_6_is_1  # 7 = 1 (mod 6) holds
    assert not c.cube_not_above_d  # but 35 < 343
    assert c.k is None


def test_rational_example_near_miss_flag():
    # d = 427 = 7 * 61: k = (427 - 343)/6 = 14 lies in [9, 37]
    rep = certify.verify_rational_example(427, [7, 61])
    assert not rep.passed
    c7 = next(c for c in rep.checks if c.q == 7)
    assert c7.near_miss_k and not c7.k_ge_38 and c7.q_divides_k
    assert rep.covers_prime_divisors


# --- serialization ------------------------------------------------------------

GOLDEN_5005 = (
    '{"d":5005,"entries":[{"i":2,"j":3,"k":780,"q":5},{"i":1,"j":0,"k":777,"q":7},'
    '{"i":2,"j":3,"k":330,"q":11},{"i":1,"j":0,"k":468,"q":13}],"kind":"certificate",'
    '"mode":"FULL","n":3,"premises":[{"kind":"KOLLAR_QN","q":5},{"kind":"KOLLAR_BINOM","q":5},'
    '{"k":780,"kind":"ABELIAN_FACTORIAL","q":5},{"kind":"KOLLAR_QN","q":7},'
    '{"k":777,"kind":"ABELIAN_FACTORIAL","q":7},{"kind":"KOLLAR_QN","q":11},'
    '{"kind":"KOLLAR_BINOM","q":11},{"k":330,"kind":"ABELIAN_FACTORIAL","q":11},'
    '{"kind":"KOLLAR_QN","q":13},{"k":468,"kind":"ABELIAN_FACTORIAL","q":13}],'
    '"schema_version":1}\n'
)


def test_serialization_canonical_bytes():
    cert = certify.build_certificate(3, 5005)
    assert certify.certificate_to_json(cert) == GOLDEN_5005
    # byte-stable across calls
    assert certify.certificate_to_json(cert) == certify.certificate_to_json(cert)


def test_serialization_roundtrip():
    cert = certify.build_certificate(3, 5**3 * 7 * 11 * 13 * 37)
    back = certify.certificate_from_json(certify.certificate_to_json(cert))
    assert back == cert
    assert certify.verify_certificate(back).passed


def test_deserialization_rejects_bad_schema():
    cert = certify.build_certificate(3, 5005)
    payload = json.loads(certify.certificate_to_json(cert))
    payload["schema_version"] = 99
    with pytest.raises(ParameterError, match="schema_version"):
        certify.certificate_from_dict(payload)


def test_deserialization_rejects_bool_ints():
    payload = json.loads(GOLDEN_5005)
    payload["n"] = True
    with pytest.raises(ParameterError, match="integer"):
        certify.certificate_from_dict(payload)


def test_deserialization_rejects_bad_mode():
    payload = json.loads(GOLDEN_5005)
    payload["mode"] = "BOGUS"
    with pytest.raises(ParameterError, match="mode"):
        certify.certificate_from_dict(payload)


def test_report_dict_shape():
    report = certify.verify_certificate(certify.build_certificate(3, 5005))
    d = certify.report_to_dict(report)
    assert d["schema_version"] == 1
    assert d["kind"] == "verification_report"
    assert d["passed"] is True
    assert {c["name"] for c in d["checks"]} >= {
        "gcd_d_nfact",
        "sum_identity",
        "k_lower_bound",
        "entries_cover_d",
        "premise_ledger",
    }


def test_module_doctests():
    import doctest

    results = doctest.testmod(certify)
    assert results.failed == 0 and results.attempted >= 2
