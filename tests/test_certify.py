import itertools
import json
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith, certify, density
from degcert.certify import Mode
from degcert.density import DensityMode
from degcert.errors import CapacityError, DecompositionError, ParameterError
from test_arith import brute_lpp


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


def test_condition_holds_takes_no_q():
    # q is always the largest prime power of d; a caller's q could only be wrong
    with pytest.raises(TypeError):
        certify.condition_holds(3, 5005, Mode.FULL, q=13)


def qualification_threshold(n, q, mode=Mode.FULL):
    """The left-hand side of the qualification inequality of (n, mode) at q."""
    return certify._Inequality(n, *certify.threshold_coefficients(n, mode)).thr(q)


def test_threshold_values():
    assert qualification_threshold(3, 13, Mode.FULL) == 2 * 2197 + 3 * 169 + 54
    assert qualification_threshold(3, 13, Mode.WEAK) == 5 * 2197 + 54
    # near-2^63 bases stay exact (Python integers, no wrap possible)
    q = 4294967291
    assert qualification_threshold(3, q) == 2 * q**3 + 3 * q**2 + 54
    assert qualification_threshold(3, q) > 2**63


def test_weak_implies_full_qualification():
    for d in range(1, 10**5, 7):
        if certify.condition_holds(3, d, Mode.WEAK):
            assert certify.condition_holds(3, d, Mode.FULL)
    # and the threshold comparison behind it, for a spread of q and n
    for n in (3, 4, 5, 7):
        for q in (1, 5, 7, 11, 125, 10**6 + 3):
            assert qualification_threshold(n, q, Mode.WEAK) >= qualification_threshold(n, q, Mode.FULL)


# --- witness ------------------------------------------------------------------


def test_decompose_5005_q13():
    e = certify._witness(3, 5005, 13, 6, Mode.FULL)
    assert (e.i, e.j, e.k) == (1, 0, 468)
    assert 1 * 13**3 + 0 * 13**2 + 468 * 6 == 5005
    assert 468 % 13 == 0 and 468 >= 9


def test_decompose_5005_q5():
    e = certify._witness(3, 5005, 5, 6, Mode.FULL)
    assert (e.i, e.j, e.k) == (2, 3, 780)
    assert 2 * 125 + 3 * 25 + 780 * 6 == 5005
    assert 780 % 5 == 0


def test_decompose_deterministic():
    a = certify._witness(3, 5005, 11, 6, Mode.FULL)
    b = certify._witness(3, 5005, 11, 6, Mode.FULL)
    assert a == b == certify.PrimePowerCertificate(q=11, i=2, j=3, k=330)


def test_decompose_weak_i_boundary():
    # d = 25*13*17*19 = 104975 = 5 (mod 6), q = 25: WEAK needs i = n! - 1 = 5
    d = 25 * 13 * 17 * 19
    e = certify._witness(3, d, 25, 6, Mode.WEAK)
    assert e.i == 5 and e.j == 0
    assert e.k == (d - 5 * 25**3) // 6 == 4475
    assert e.k % 25 == 0 and e.k >= 9


def test_decompose_error_k_too_small():
    with pytest.raises(DecompositionError, match="k ="):
        certify._witness(3, 35, 7, 6, Mode.WEAK)


def test_decompose_accepts_non_maximal_prime_power():
    # 5 divides d = 4629625 = 5^3 * 7 * 11 * 13 * 37 but is not maximal (125 is);
    # it still has a witness for q = 5, since the inequality holds a fortiori.
    d = 4629625
    e = certify._witness(3, d, 5, 6, Mode.FULL)
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


def test_build_rejects_small_n():
    with pytest.raises(ParameterError, match="^n must be >= 3, got 2$"):
        certify.build_certificate(2, 5005)


def test_build_rejects_too_small():
    with pytest.raises(DecompositionError, match="threshold"):
        certify.build_certificate(3, 35)


def assembled_certificate(n, d, mode, qs=None):
    """The certificate _witness gives for each q of qs, by default every
    maximal prime power of d, with no inequality gate, or None when one of
    them has no witness."""
    if qs is None:
        qs = [p**e for p, e in arith.factorize(d).factors]
    try:
        entries = [certify._witness(n, d, q, factorial(n), mode) for q in qs]
    except DecompositionError:
        return None
    premises = [certify.Premise(certify.PREMISE_ABELIAN_FACTORIAL, e.q, e.k) for e in entries]
    premises += [certify.Premise(certify.PREMISE_KOLLAR_QN, e.q) for e in entries if e.i > 0]
    premises += [certify.Premise(certify.PREMISE_KOLLAR_BINOM, e.q) for e in entries if e.j > 0]
    return certify.Certificate(n=n, d=d, mode=mode, entries=tuple(entries), premises=tuple(premises))


def test_build_certificate_gates_on_the_inequality():
    # 6545 = 5*7*11*17 fails the inequality for q = 17, yet every entry has a
    # witness and the assembled certificate verifies: build_certificate
    # refuses some degrees that have a certificate
    assert qualification_threshold(3, 17) == 10747
    for mode in Mode:
        with pytest.raises(DecompositionError, match="qualification inequality fails"):
            certify.build_certificate(3, 6545, mode)
        assert certify.verify_certificate(assembled_certificate(3, 6545, mode)).passed
        # no such degree lies below 5005, so 5005 stays the smallest
        for d in range(2, 5005):
            if gcd(d, 6) == 1:
                assert assembled_certificate(3, d, mode) is None, (d, mode)
    full = assembled_certificate(3, 5005, Mode.FULL)
    assert full.entries == certify.build_certificate(3, 5005).entries


def test_huge_n_fails_before_building_n_factorial():
    # n! for n = 10**6 takes seconds; every witness needs d > 2**n anyway
    n = 10**6
    assert not certify.condition_holds(n, 5005)
    with pytest.raises(DecompositionError, match="2\\^n"):
        certify.build_certificate(n, 5005)


# the least strong pseudoprime to the bases 2..37
PSI12 = 318665857834031151167461  # = 399165290221 * 798330580441


def pseudoprime_certificate():
    """A FULL n = 3 certificate whose entries are PSI12 and the next three
    primes above it (a 95-digit d), each with its _witness."""
    qs = [PSI12]
    m = PSI12
    while len(qs) < 4:
        m += 2
        if arith.is_prime(m):
            qs.append(m)
    d = qs[0] * qs[1] * qs[2] * qs[3]
    return assembled_certificate(3, d, Mode.FULL, qs)


def test_verifier_rejects_a_strong_pseudoprime_entry():
    cert = pseudoprime_certificate()
    assert len(str(cert.d)) == 95
    report = certify.verify_certificate(cert)
    assert not report.passed
    primality = [c for c in report.checks if c.name == "q_prime_power"]
    assert [c.passed for c in primality] == [False, True, True, True]
    assert primality[0].context == f"q={PSI12}"


M89 = 2**89 - 1  # prime, and above arith.PSI13
# 2**89 - 1 times the cubes of the primes 5..53: an 83-digit n = 3 degree
# whose largest prime power is 2**89 - 1, with thr(2**89 - 1) <= d
M89_DEGREE = M89 * (5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53) ** 3


def test_builder_refuses_a_prime_above_psi13():
    assert qualification_threshold(3, M89) <= M89_DEGREE
    with pytest.raises(DecompositionError, match=f"^prime factor {M89} exceeds psi13 = {arith.PSI13}"):
        certify.build_certificate(3, M89_DEGREE)
    assert not certify.condition_holds(3, M89_DEGREE)


def test_verifier_refuses_an_entry_above_psi13():
    report = certify.verify_certificate(assembled_certificate(3, M89_DEGREE, Mode.FULL))
    assert not report.passed
    primality = {c.context: c for c in report.checks if c.name == "q_prime_power"}
    assert len(primality) == 15
    refused = primality.pop(f"q={M89}")
    assert not refused.passed
    assert refused.detail == f"q = {M89}: its root exceeds psi13 = {arith.PSI13}, above which primality is not proved"
    assert all(c.passed and c.detail == f"q = {c.context[2:]}" for c in primality.values())


def test_verifier_runs_no_primality_test_above_psi13(monkeypatch):
    # a 4298-digit odd number with no prime factor below 59 and no perfect
    # power: one Miller-Rabin round on it takes seconds
    q = 61 * 59**2426
    seen = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: seen.append(m) or is_prime(m))
    entry = certify.PrimePowerCertificate(q=q, i=0, j=0, k=0)
    report = certify.verify_certificate(certify.Certificate(3, q, Mode.FULL, (entry,), ()))
    assert _failing(report, "q_prime_power")[0].detail.endswith(f"psi13 = {arith.PSI13}, above which primality is not proved")
    assert seen and max(seen) <= arith.PSI13


def test_verifier_takes_each_entry_root_once(monkeypatch):
    huge = 61 * 59**2426  # refused above psi13, where the root names psi13
    certs = [
        certify.build_certificate(3, 5005),
        assembled_certificate(3, M89_DEGREE, Mode.FULL),
        pseudoprime_certificate(),
        certify.Certificate(3, huge, Mode.FULL, (certify.PrimePowerCertificate(q=huge, i=0, j=0, k=0),), ()),
    ]
    roots = []
    power_root = arith.power_root
    monkeypatch.setattr(arith, "power_root", lambda q: roots.append(q) or power_root(q))
    for cert in certs:
        roots.clear()
        certify.verify_certificate(cert)
        assert roots == [e.q for e in cert.entries]


def test_a_hopeless_factorization_is_a_capacity_error(monkeypatch):
    # d's least prime factor, 399165290221, needs rounds far beyond r = 2**10
    monkeypatch.setattr(arith, "BRENT_MAX_R", 2**10)
    cert = pseudoprime_certificate()
    with pytest.raises(CapacityError, match="^factoring 313 bits passed BRENT_MAX_R = 1024$"):
        certify.build_certificate(3, cert.d)
    with pytest.raises(CapacityError, match="BRENT_MAX_R"):
        certify.condition_holds(3, cert.d)
    # the verifier never factors d
    assert not certify.verify_certificate(cert).passed


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
    assert [len(arr) for arr in certify.scan_qualifying(n, 1, 10**7)] == [0]
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


def test_build_certificate_refuses_a_huge_threshold_unbuilt(monkeypatch):
    # q = d, a 45-digit prime: q**100 has 4500 digits, past int-to-str
    d = 10**44 + 31
    monkeypatch.setattr(certify._Inequality, "thr", None)
    reason = f"^qualification inequality fails for q = {d}: threshold > 2\\^14600 > d = {d}$"
    with pytest.raises(DecompositionError, match=reason):
        certify.build_certificate(100, d)


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


def test_build_takes_entries_from_the_factorization(monkeypatch):
    # factorize already proves each p**e a prime power of d; nothing re-proves it
    want = {}
    for d in (5005, 5**3 * 7 * 11 * 13 * 37):
        want[d] = certify.build_certificate(3, d)

    def no_root(q):
        raise AssertionError(f"prime_power_root({q}) called")

    monkeypatch.setattr(arith, "prime_power_root", no_root)
    for d, cert in want.items():
        assert certify.build_certificate(3, d) == cert


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", list(Mode))
def test_condition_holds_is_the_build_verdict(n, mode):
    for d in range(1, 2 * 10**4 + 1):
        want = brute_condition(n, d, mode)
        assert certify.condition_holds(n, d, mode) == want, d
        try:
            certify.build_certificate(n, d, mode)
        except DecompositionError:
            assert not want, d
        else:
            assert want, d


def test_verify_roundtrip():
    report = certify.verify_certificate(certify.build_certificate(3, 5005))
    assert report.passed
    assert all(c.passed for c in report.checks)


def _failing(report, name):
    return [c for c in report.checks if c.name == name and not c.passed]


def test_verify_rejects_small_k():
    cert = certify.build_certificate(3, 5005)
    bad_entry = cert.entries[3]._replace(k=6)
    bad = cert._replace(entries=cert.entries[:3] + (bad_entry,))
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "k_lower_bound")


def test_verify_rejects_bad_j():
    cert = certify.build_certificate(3, 5005)
    bad_entry = cert.entries[0]._replace(j=1)
    bad = cert._replace(entries=(bad_entry,) + cert.entries[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "j_range")


def test_verify_rejects_missing_entry():
    cert = certify.build_certificate(3, 5005)
    bad = cert._replace(entries=cert.entries[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "entries_cover_d")


def test_verify_rejects_tampered_premises():
    cert = certify.build_certificate(3, 5005)
    bad = cert._replace(premises=cert.premises[1:])
    report = certify.verify_certificate(bad)
    assert not report.passed
    assert _failing(report, "premise_ledger")


def test_verify_is_total_on_garbage():
    junk = certify.Certificate(
        n=3,
        d=30,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=36, i=-1, j=2, k=0),),
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
        entries=(certify.PrimePowerCertificate(q=5, i=1, j=0, k=1),),
        premises=(),
    )
    report = certify.verify_certificate(weak)
    assert not report.passed
    (i_range,) = [c for c in report.checks if c.name == "i_range"]
    assert "-bit integer" in i_range.detail
    # an n whose factorial exceeds d fails at once, without building n!
    for n in (10**8, 10**300):
        report = certify.verify_certificate(weak._replace(n=n))
        assert _failing(report, "nfact_le_d")


def test_verify_reports_huge_d_and_q():
    # d = 10**5000 and q = 10**5000 + 1 have more digits than Python prints
    huge_d = certify.Certificate(
        n=3,
        d=10**5000,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=5**5000, i=1, j=3, k=10**5000),),
        premises=(certify.Premise(kind=certify.PREMISE_ABELIAN_FACTORIAL, q=5**5000, k=10**5000),),
    )
    huge_q = certify.Certificate(
        n=3,
        d=5005,
        mode=Mode.FULL,
        entries=(certify.PrimePowerCertificate(q=10**5000 + 1, i=0, j=0, k=0),),
        premises=(),
    )
    for cert in (huge_d, huge_q):
        report = certify.verify_certificate(cert)
        assert not report.passed
        assert any("-bit integer" in c.detail for c in report.checks)
    assert _failing(certify.verify_certificate(huge_q), "q_prime_power")


def _mutants(cert):
    """All single-field mutations of every entry that keep fields nonnegative."""
    c2 = comb(cert.n, 2)
    for t, entry in enumerate(cert.entries):
        variants = []
        for field in ("i", "j", "k", "q"):
            val = getattr(entry, field)
            for delta in (+1, -1):
                if val + delta >= 0:
                    variants.append(entry._replace(**{field: val + delta}))
        for delta in (c2, -c2):
            if entry.j + delta >= 0:
                variants.append(entry._replace(j=entry.j + delta))
        root = arith.prime_power_root(entry.q)
        if root:
            variants.append(entry._replace(q=entry.q * root[0]))
        for v in variants:
            yield cert._replace(entries=cert.entries[:t] + (v,) + cert.entries[t + 1 :])


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


def test_smallest_and_enumerate_run_no_sieve(monkeypatch):
    # the walk and the search visit products of prime powers, never a sieve
    # range, so an empty search to 3e7 for n = 5 (answer 393255863) cannot
    # fill memory
    def no_sieve(*args):
        raise AssertionError("map_sieve called")

    monkeypatch.setattr(arith, "map_sieve", no_sieve)
    with pytest.raises(CapacityError, match="up to budget 30000000"):
        certify.smallest_qualifying(5, threads=1, budget=3 * 10**7)
    assert certify.smallest_qualifying(4, Mode.WEAK, threads=2) == 7436429
    assert len(certify.enumerate_qualifying(3, 10**7, threads=2)) == 29850


def test_scan_runs_no_sieve(monkeypatch):
    # scan_qualifying lists the walk's degrees in the window
    def no_sieve(*args):
        raise AssertionError("map_sieve called")

    monkeypatch.setattr(arith, "map_sieve", no_sieve)
    parts = certify.scan_qualifying(3, 1, 10**7 + 1, threads=2)
    assert [len(a) for a in parts] == [29850]


# (lo, hi): a lo far past hi, empty and reversed windows, a lo below 1
SCAN_EDGES = [
    (2**70, 100), (2**64, 10**6), (2**70, 2**20), (10**9, 10**6),
    (5, 5), (1, 1), (0, 0), (5, -5), (-3, 20000), (12000, 18000),
]


@pytest.mark.parametrize("lo, hi", SCAN_EDGES)
def test_scan_clamps_lo_into_the_window(lo, hi):
    # ceil(lo / m) is taken in int64, so a lo past int64 must be clamped to hi first
    [got] = certify.scan_qualifying(3, lo, hi)
    want = [d for d in certify.enumerate_qualifying(3, hi - 1) if d >= lo] if hi >= 2 else []
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_scan_holds_the_budget_for_an_empty_window():
    with pytest.raises(CapacityError):
        certify.scan_qualifying(3, 2**70, 2**70 + 5)


def test_smallest_budget_below_one_is_parameter_error():
    for budget in (0, -5):
        with pytest.raises(ParameterError, match="budget must be >= 1"):
            certify.smallest_qualifying(3, budget=budget)


def test_smallest_budget_beyond_sieve_budget():
    # the branch and bound runs no sieve, so the budget alone bounds it
    assert certify.smallest_qualifying(3, budget=10**11) == 5005
    assert certify.smallest_qualifying(6, budget=2 * 10**11) == 192875738341
    refusal = "^no qualifying degree found for n = 7, mode = FULL up to budget 100000000000$"
    with pytest.raises(CapacityError, match=refusal):
        certify.smallest_qualifying(7, budget=10**11)
    with pytest.raises(CapacityError, match="up to budget <16610-bit integer>$") as exc:
        certify.smallest_qualifying(10**4000, budget=10**5000)
    assert len(str(exc.value).encode()) < 300


# (n, mode) -> least qualifying degree; 6685349671 agrees with a sieve to 7e9
SMALLEST = {
    (3, Mode.FULL): 5005,
    (3, Mode.WEAK): 46189,
    (4, Mode.FULL): 1616615,
    (4, Mode.WEAK): 7436429,
    (5, Mode.FULL): 393255863,
    (5, Mode.WEAK): 6685349671,
}


@pytest.mark.parametrize("n, mode", SMALLEST)
def test_smallest_frozen_and_certified(n, mode):
    d = certify.smallest_qualifying(n, mode)
    assert d == SMALLEST[n, mode]
    assert certify.verify_certificate(certify.build_certificate(n, d, mode)).passed


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.sampled_from(list(Mode)), st.integers(1, 2 * 10**7))
def test_smallest_is_the_first_enumerated_degree(n, mode, budget):
    ds = certify.enumerate_qualifying(n, budget, mode)
    if ds:
        assert certify.smallest_qualifying(n, mode, budget=budget) == ds[0]
    else:
        with pytest.raises(CapacityError, match=f"^no qualifying degree .* up to budget {budget}$"):
            certify.smallest_qualifying(n, mode, budget=budget)


@pytest.mark.parametrize("n, mode", SMALLEST)
def test_smallest_runs_no_walk(monkeypatch, n, mode):
    # the branch and bound over the largest prime power needs neither the
    # walk nor a prime sieve
    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    monkeypatch.setattr(certify, "_walk", refuse("_walk"))
    monkeypatch.setattr(arith, "primes_upto", refuse("primes_upto"))
    monkeypatch.setattr(arith, "map_sieve", refuse("map_sieve"))
    assert certify.smallest_qualifying(n, mode) == SMALLEST[n, mode]


def walk_runs(ineq, N):
    """(P, runs) of certify._walk(ineq, N): P as a list (empty when the walk
    yields no batch) and the runs (m, i, j) of every yielded batch as a
    sorted list."""
    P, runs = [], []
    for primes, m, i, j in certify._walk(ineq, N):
        P[:] = primes.tolist()
        runs.extend(zip(m.tolist(), i.tolist(), j.tolist()))
    return P, sorted(runs)


def walk_least(ineq, N):
    """The least degree of certify._walk(ineq, N), or N + 1 if it lists none."""
    P, runs = walk_runs(ineq, N)
    return min((m * P[i] for m, i, _ in runs), default=N + 1)


@pytest.mark.parametrize("n, mode", list(itertools.product([6, 7, 8], Mode)))
def test_smallest_past_the_budget_equals_the_walk(monkeypatch, n, mode):
    # 2**63 - 2 keeps the walk's N + 1 in int64; n = 8 WEAK is 9.16e18
    monkeypatch.setattr(arith, "SIEVE_BUDGET", 2**63 - 2)
    d = certify.smallest_qualifying(n, mode)
    assert walk_least(certify._Inequality(n, *certify.threshold_coefficients(n, mode)), d) == d


# the least degrees beyond int64, found by the branch and bound
SMALLEST_BEYOND = {
    (9, Mode.FULL): 151500319087724446807,
    (9, Mode.WEAK): 18579448222667298067513,
    (10, Mode.FULL): 204373930449340278742643,
    (10, Mode.WEAK): 17631896363311265866069837,
    (11, Mode.FULL): 1258346417564711429039986913,
    (11, Mode.WEAK): 115612344454231970283819921209,
    (12, Mode.FULL): 4040815261835565180000880080151,
    (12, Mode.WEAK): 683949706126883603727332942627711,
    (13, Mode.FULL): 7754324487462449580421688873809769,
    (13, Mode.WEAK): 1612460569364597298600517605250140833,
    (14, Mode.FULL): 28839581143093741777136811781826822267,
    (14, Mode.WEAK): 9315184709219278594015190205530063592241,
    (15, Mode.FULL): 413876828984538288243690385880996726353717,
    (15, Mode.WEAK): 133682215762005867102711994639561942612250591,
    (16, Mode.FULL): 2382517106534974475563428170602004154977220811,
    (16, Mode.WEAK): 408186128461468766545948263554068944412027574759,
    (17, Mode.FULL): 19616945114883528368708219489627901622625089916359,
    (17, Mode.WEAK): 4049189432474903713463910369698515216582035761726249,
    (18, Mode.FULL): 158566999446093883863862467177690368195350979383115101,
    (18, Mode.WEAK): 65442388077922740336940412022419194984080373912405307699,
    (19, Mode.FULL): 1256659528027959456849855759974809098618353509178719642777,
    (19, Mode.WEAK): 418896726086783460896755577355505267093098473413306374581299,
    (20, Mode.FULL): 17174765769558121896766978671575715950817037409945561357833259,
    (20, Mode.WEAK): 3074283072750903819521289182212053155196249696380255483052153361,
}


@pytest.mark.parametrize("n, mode", SMALLEST_BEYOND)
def test_smallest_beyond_int64_frozen_and_certified(n, mode):
    d = certify.smallest_qualifying(n, mode, budget=10**70)
    assert d == SMALLEST_BEYOND[n, mode]
    assert certify.verify_certificate(certify.build_certificate(n, d, mode)).passed


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 40))
def test_least_degree_matches_the_walk_on_small_coefficients(data, n, a):
    # the walk's run bisection needs thr(p) / p to ascend over the primes
    # above n, which (n-1)*a*(n+1)**n > c ensures, and b = c = 0 for n = 1;
    # for n <= 2 the least degree's largest prime power is often p**e, e >= 2
    b = data.draw(st.integers(0, 2000 if n > 1 else 0))
    c = data.draw(st.integers(0, max((n - 1) * a * (n + 1) ** n - 1, 0)))
    N = data.draw(st.integers(1, 10**6 if n > 2 else 10**4))
    ineq = certify._Inequality(n, a, b, c)
    assert certify._least_degree(ineq, N + 1) == walk_least(ineq, N)


def test_smallest_tests_only_the_integers_it_needs(monkeypatch):
    seen = []
    root = arith.prime_power_root
    monkeypatch.setattr(arith, "prime_power_root", lambda v: seen.append(v) or root(v))
    assert certify.smallest_qualifying(3) == 5005
    assert seen == list(range(4, 14))  # thr(14) = 6130 >= 5005 ends the loop
    seen.clear()
    with pytest.raises(CapacityError, match="<13288-bit integer>"):
        certify.smallest_qualifying(10**4000)
    assert seen == []  # iroot(limit // a, n) = 1 leaves no v, so no v**n is formed


@pytest.mark.parametrize(
    "n, mode, d",
    [
        (3, Mode.FULL, 5005),
        (4, Mode.FULL, 1616615),
        (5, Mode.WEAK, 6685349671),
        (7, Mode.FULL, 62298863484143),
        (7, Mode.WEAK, 2928046583754721),
        (8, Mode.WEAK, 9156001667401012567),
    ],
)
def test_least_degree_equals_the_consecutive_prime_product(n, mode, d):
    # d is the least degree (for n = 7 and 8 found by the walk with the budget
    # lifted) and the product of the primes above n up to the first p with
    # thr(p) <= product
    x = 1
    for p in filter(arith.is_prime, range(n + 1, 100)):
        x *= p
        if qualification_threshold(n, p, mode) <= x:
            break
    assert x == d
    assert certify.condition_holds(n, d, mode)


@pytest.mark.parametrize("n", [6, 7])
def test_smallest_refuses_at_default_budget_at_once(n):
    # n = 6 first qualifies at 192875738341, beyond the 1e10 budget
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="up to budget 10000000000"):
        certify.smallest_qualifying(n)
    assert time.perf_counter() - start < 0.5


def test_smallest_n7_past_the_budget_keeps_products_in_int64(monkeypatch):
    # the walk to 62298863484143, the least degree, tests m <= N // p before
    # it forms m * p, where N * isqrt(N) would pass 2**63
    monkeypatch.setattr(arith, "SIEVE_BUDGET", 10**15)
    d = certify.smallest_qualifying(7)
    assert d == 62298863484143
    assert walk_least(certify._Inequality(7, *certify.threshold_coefficients(7)), d) == d
    assert certify.verify_certificate(certify.build_certificate(7, d)).passed


def test_enumerate_frozen_counts_to_1e8():
    ds = certify.enumerate_qualifying(3, 10**8)
    assert [bisect_right(ds, 10**k) for k in (6, 7, 8)] == [1734, 29850, 427006]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.sampled_from(list(Mode)), st.integers(1, 3 * 10**6))
def test_enumerate_matches_sieve(n, mode, N):
    base = arith.primes_upto(isqrt(N))
    sieved = sieve_reference(1, N + 1, base, n, *certify.threshold_coefficients(n, mode)).tolist()
    assert certify.enumerate_qualifying(n, N, mode) == sieved


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from(list(Mode)),
    st.just(1)
    | st.integers(1, 10**9)
    | st.builds(lambda k, back: k * arith.SEGMENT_SIZE - back, st.integers(1, 200), st.integers(1, 2000)),
    st.integers(-10, 3 * 10**5),
)
def test_scan_matches_sieve_reference_per_segment(n, mode, lo, width):
    # the walk's degrees in the window, as one array, against the reference
    # sieve run segment by segment
    hi = lo + width
    (got,) = certify.scan_qualifying(n, lo, hi, mode)
    assert got.dtype == np.int64
    if hi <= lo:
        assert got.tolist() == []
        return
    coeffs = certify.threshold_coefficients(n, mode)
    want = arith.map_sieve(lo, hi, lambda s, e, base: sieve_reference(s, e, base, n, *coeffs))
    assert got.tolist() == [int(d) for a in want for d in a]


# --- the walk's bulk runs against a key-function reference walk ---------------


def reference_runs(n, N, mode):
    """(P, runs) of certify._walk for the inequality of (n, mode), found by
    bisecting the concave g(k) = m * P[k] - max(thr(L), thr(P[k])) through
    key functions: the peak of g, then the rise to 0 before it and the fall
    below 0 after it."""
    _, a, b, c, _, _ = certify._inequality(n, N, mode)
    if N < c:
        return [], []
    cap = arith.integer_nth_root((N - c) // a, n)
    P = [int(p) for p in arith.primes_upto(cap) if p > n]
    T = [a * p**n + b * p ** (n - 1) + c for p in P]
    runs = []

    def first(lo, hi, pred):
        # least k in [lo, hi) with pred(k), or hi; pred is monotone false -> true
        return lo + bisect_left(range(lo, hi), True, key=pred)

    def walk(m, t_l, s):
        hi = bisect_right(P, N // m, s)

        def g(k):
            return m * P[k] - max(t_l, T[k])

        peak = first(s, hi - 1, lambda k: g(k + 1) <= g(k))
        if s < hi and g(peak) >= 0:
            i = first(s, peak, lambda k: g(k) >= 0)
            runs.append((m, i, first(peak + 1, hi, lambda k: g(k) < 0)))
        for k in range(s, len(P)):
            p = P[k]
            if m * p * p > N:
                break
            q, mq = p, m * p
            while True:
                t_q = max(t_l, a * q**n + b * q ** (n - 1) + c)
                if q > p and t_q <= mq:
                    runs.append((mq // p, k, k + 1))
                if k + 1 < len(P) and mq * P[k + 1] <= N:
                    walk(mq, t_q, k + 1)
                q, mq = q * p, mq * p
                if q > cap or mq > N:
                    break

    walk(1, 0, 0)
    return P, runs


def canonical_runs(n, N, mode):
    """(P, runs) of certify._walk for the inequality of (n, mode) as a list
    and a sorted list of (m, i, j): the walk emits its runs chunk by chunk,
    the reference node by node, so only the set of runs is compared."""
    return walk_runs(certify._inequality(n, N, mode), N)


def sorted_reference_runs(n, N, mode):
    P, runs = reference_runs(n, N, mode)
    return P, sorted(runs)


def test_threshold_per_prime_rises_past_n():
    # the walk's run ends need thr(p)/p = a*p**(n-1) + b*p**(n-2) + c/p to
    # increase over the primes p > n: it is convex, and with b >= 0 this
    # makes its slope at n + 1 positive
    for n in range(3, 41):
        for mode in Mode:
            a, b, c = certify.threshold_coefficients(n, mode)
            assert b >= 0 and (n - 1) * a * (n + 1) ** n > c, (n, mode)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(1, 10**30),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([1, 7, 10**400, 2**63 - 1, 2**63]),
    st.integers(1, 10**12),
    st.booleans(),
)
def test_inequality_ceil_matches_exact_integers(qs, n, a, b, c, scale, top, per):
    # min(ceil(thr(q) / (scale * q**per)), top) on the int64 and object paths
    q = np.array(sorted(qs), dtype=np.int64)
    got = certify._Inequality(n, a, b, c, scale).ceil(q, top, per=q if per else None)
    thr = [a * x**n + b * x ** (n - 1) + c for x in sorted(qs)]
    want = [min(-(-t // (scale * (x if per else 1))), top) for t, x in zip(thr, sorted(qs))]
    assert got.dtype == np.int64 and got.tolist() == want


def fits(ineq, v, x):
    """a*v**n + c <= scale*x, for v, x >= 0; a v >= 2 whose v**n >= 2**(n *
    (bits(v) - 1)) already passes scale*x is refused before v**n is formed."""
    if ineq.n * (v.bit_length() - 1) > (ineq.scale * x).bit_length():
        return False
    return ineq.a * v**ineq.n + ineq.c <= ineq.scale * x


# the certificate inequalities, the lambda inequalities (den, 0, 0) with
# scale num for lambda**n = num/den, and the stand-in of a huge n
TOP_INEQUALITIES = {
    **{f"{mode.value}-n{n}": certify._Inequality(n, *certify.threshold_coefficients(n, mode))
       for n in range(3, 6) for mode in Mode},
    **{f"lambda{lam}-n{n}": certify._Inequality(n, lam.denominator, 0, 0, lam.numerator)
       for n in range(1, 6) for lam in (Fraction(1, 2), Fraction(1), Fraction(10**30, 7))},
    "huge-n": certify._inequality(10**4000, 100),
}


@pytest.mark.parametrize("ineq", TOP_INEQUALITIES.values(), ids=TOP_INEQUALITIES.keys())
def test_inequality_top_is_the_largest_v_that_fits(ineq):
    # a*v**n + c <= scale*x rises with x and falls with v, so the largest
    # fitting v in [0, x] only moves up as x steps up
    v = 0
    for x in range(-3, 3001):
        if x < 0:
            assert ineq.top(x) == x
            continue
        while v < x and fits(ineq, v + 1, x):
            v += 1
        assert ineq.top(x) == (v if fits(ineq, v, x) else 0), x
    for x in (10**10, 2**62):
        v = ineq.top(x)
        assert 0 <= v <= x
        assert fits(ineq, v, x) or (v == 0 and not fits(ineq, 0, x))
        assert v == x or not fits(ineq, v + 1, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.sampled_from(list(Mode)), st.floats(0, 1))
def test_walk_matches_reference_walk(n, mode, u):
    c = certify.threshold_coefficients(n, mode)[2]
    N = min(3 * 10**7, round((c - 1) * (3 * 10**7 / (c - 1)) ** u))
    assert canonical_runs(n, N, mode) == sorted_reference_runs(n, N, mode)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("mode", list(Mode))
def test_walk_matches_reference_walk_with_few_primes(n, mode):
    a, _, c = certify.threshold_coefficients(n, mode)
    p1, p2 = [p for p in range(n + 1, 4 * n) if arith.is_prime(p)][:2]
    # P holds the primes in (n, iroot((N - c) // a, n)]; WEAK n = 7 reaches
    # one prime only beyond SIEVE_BUDGET
    for N, size in ((c, 0), (c + 1, 0), (c + a * p1**n, 1), (c + a * p2**n, 2)):
        if N > arith.SIEVE_BUDGET:
            continue
        P, runs = canonical_runs(n, N, mode)
        assert len(P) == size
        assert (P, runs) == sorted_reference_runs(n, N, mode)


@pytest.mark.parametrize("n, N", [(3, 10**8), (4, 10**9)])
def test_walk_matches_reference_walk_at_scale(n, N):
    assert canonical_runs(n, N, Mode.FULL) == sorted_reference_runs(n, N, Mode.FULL)


# --- the walk's answers do not depend on its chunks -----------------------------

# (n, lo, hi, mode) windows: from 1, across the first segment edge, and one
# whose degrees are few
CHUNK_WINDOWS = [
    (3, 1, 3 * 10**5, Mode.FULL),
    (3, 2**22 - 3000, 2**22 + 5000, Mode.FULL),
    (3, 10**5, 4 * 10**5, Mode.WEAK),
    (4, 10**6, 4 * 10**6, Mode.FULL),
]


def chunk_answers():
    return [
        (certify.enumerate_qualifying(n, hi - 1, mode),
         [a.tolist() for a in certify.scan_qualifying(n, lo, hi, mode)])
        for n, lo, hi, mode in CHUNK_WINDOWS
    ]


@pytest.mark.parametrize("chunk", [1, 7, 97])
def test_walk_answers_do_not_depend_on_chunk(monkeypatch, chunk):
    # a chunk of 1 holds one node, so every node is its own step, and the
    # walk yields its runs a few at a time
    want = chunk_answers()
    monkeypatch.setattr(certify, "_CHUNK", chunk)
    assert chunk_answers() == want
    for n, mode, N in ((3, Mode.FULL, 10**5), (4, Mode.WEAK, 10**7), (5, Mode.FULL, 10**9)):
        assert canonical_runs(n, N, mode) == sorted_reference_runs(n, N, mode)
    for (n, lo, hi, mode), (listed, _) in zip(CHUNK_WINDOWS, want):
        base = arith.primes_upto(isqrt(hi - 1))
        sieved = sieve_reference(1, hi, base, n, *certify.threshold_coefficients(n, mode))
        assert listed == sieved.tolist()


def test_walk_hands_runs_on_in_batches(monkeypatch):
    # the runs wait until they number _CHUNK // 4, so a walk of a few small
    # steps yields one batch, as the walk by whole levels did, and a walk of
    # many steps yields several
    batches = [len(m) for _, m, _, _ in certify._walk(certify._inequality(4, 10**7), 10**7)]
    assert len(batches) == 1
    monkeypatch.setattr(certify, "_CHUNK", 7)
    batches = [len(m) for _, m, _, _ in certify._walk(certify._inequality(3, 10**6), 10**6)]
    assert len(batches) > 1


@pytest.mark.parametrize("chunk", [7, 97, certify._CHUNK])
def test_a_step_holds_one_chunk(monkeypatch, chunk):
    # step spans its chunk's children from the chunk's S and width, so each
    # call it makes shows the chunk it popped: at most _CHUNK, or one node
    spans, steps = certify._spans, []

    def recording(lo, width):
        if sys._getframe(1).f_code.co_name == "step":
            steps.append((len(lo), int(width.sum())))
        return spans(lo, width)

    monkeypatch.setattr(certify, "_spans", recording)
    monkeypatch.setattr(certify, "_CHUNK", chunk)
    certify.scan_qualifying(3, 2**29 - 2**23, 2**29)
    certify._walk_counts(certify._inequality(3, 10**9), [10**9])
    assert len(steps) > 2
    assert all(nodes + width <= chunk or nodes == 1 for nodes, width in steps)


# --- the strided sieve reference against a scalar oracle -----------------------

# the two certificate modes and the two lambda predicates of density
REFERENCE_MODES = (Mode.FULL, Mode.WEAK, "lambda_primepower", "lambda_prime")


def sieve_reference(lo, hi, base, n, a, b, c, m=1, prime_factor=False):
    """The d in [lo, hi), lo >= 1, with gcd(d, n!) = 1 and
    a*v**n + b*v**(n-1) + c <= m*d, where v is the largest prime power of d
    (its largest prime factor under prime_factor) and a >= 1; ascending int64.

    The sieve that the walk is held to: v by strided division over the whole
    segment (base holds the primes up to sqrt(hi - 1)), the coprimality mask,
    and for the d with v <= v_ub = iroot((m*(hi-1) - c) // a, n) a compare in
    Python integers.  The density module's lambda predicates are
    (den, 0, 0, num), with or without prime_factor.
    """
    top = hi - 1
    if m * top - c < a:
        return np.empty(0, dtype=np.int64)
    v_ub = min(arith.integer_nth_root((m * top - c) // a, n), top)
    v = arith.largest_prime_power_segment(lo, hi, base, want_prime_factor=prime_factor)
    ds = np.flatnonzero(arith.coprime_mask(lo, hi, n) & (v <= v_ub)) + lo
    vo = v[ds - lo].astype(object)
    return ds[np.asarray(a * vo**n + b * vo ** (n - 1) + c <= m * ds.astype(object), dtype=bool)]


@lru_cache(maxsize=None)
def _factors(d):
    return arith.factorize(d).factors


def reference_hits(lo, hi, n, mode, lam_pow):
    base = arith.primes_upto(isqrt(hi - 1))
    if isinstance(mode, Mode):
        args = (*certify.threshold_coefficients(n, mode), 1, False)
    else:
        args = (lam_pow.denominator, 0, 0, lam_pow.numerator, mode == "lambda_prime")
    hits = sieve_reference(lo, hi, base, n, *args)
    assert hits.dtype == np.int64
    return hits.tolist()


def oracle_hits(lo, hi, n, mode, lam_pow):
    """Scalar predicate per d: condition_holds for the certificate modes,
    v <= lambda * d**(1/n) in exact rationals for the lambda ones."""
    out = []
    for d in range(lo, hi):
        if isinstance(mode, Mode):
            ok = certify.condition_holds(n, d, mode)
        else:
            v = max((p if mode == "lambda_prime" else p**e for p, e in _factors(d)), default=1)
            ok = gcd(d, factorial(n)) == 1 and v**n <= lam_pow * d
        if ok:
            out.append(d)
    return out


def assert_reference_matches_oracle(lo, hi, n, lam_pow, modes=REFERENCE_MODES):
    hit_modes = 0
    for mode in modes:
        got = reference_hits(lo, hi, n, mode, lam_pow)
        assert got == oracle_hits(lo, hi, n, mode, lam_pow), (lo, hi, n, mode, lam_pow)
        hit_modes += bool(got)
    return hit_modes


def test_qualifying_segment_from_one_matches_oracle():
    # the first segment starts at lo = 1; nothing below 5005 qualifies for
    # a certificate, while the lambda predicates hold for d = 1 and more
    assert assert_reference_matches_oracle(1, 5000, 3, Fraction(1)) == 2
    assert assert_reference_matches_oracle(1, 6000, 3, Fraction(1, 2), (Mode.FULL,)) == 1


def test_qualifying_segment_high_window_matches_oracle():
    assert assert_reference_matches_oracle(10**7, 10**7 + 2048, 3, Fraction(1, 2)) == 4


def test_qualifying_segment_across_segment_boundary():
    lo, hi = arith.SEGMENT_SIZE - 2048, arith.SEGMENT_SIZE + 2048
    assert assert_reference_matches_oracle(lo, hi, 3, Fraction(1, 2)) == 4
    # scan_qualifying lists the same range as one array
    (got,) = certify.scan_qualifying(3, lo, hi)
    assert got.tolist() == oracle_hits(lo, hi, 3, Mode.FULL, None)


def test_qualifying_segment_near_sieve_budget():
    top = arith.SIEVE_BUDGET
    assert assert_reference_matches_oracle(top - 2047, top + 1, 3, Fraction(1, 2)) == 4
    assert assert_reference_matches_oracle(top - 2047, top + 1, 4, Fraction(1)) >= 2


@pytest.mark.parametrize(
    "n, lam_pow",
    [(1, Fraction(1, 3)), (1, Fraction(1)), (2, Fraction(1)), (2, Fraction(9, 4)), (2, Fraction(1, 4))],
)
def test_qualifying_segment_small_n_matches_oracle(n, lam_pow):
    # for n <= 2 the bound v_ub mostly reaches past sqrt(hi - 1)
    modes = REFERENCE_MODES[2:]
    assert assert_reference_matches_oracle(1, 5000, n, lam_pow, modes) == 2
    assert assert_reference_matches_oracle(10**7, 10**7 + 2048, n, lam_pow, modes) == 2


@pytest.mark.parametrize("lam_pow", [Fraction(10**400), Fraction(1, 10**400)])
def test_qualifying_segment_astronomical_lambda_matches_oracle(lam_pow):
    modes = REFERENCE_MODES[2:]
    hit_modes = assert_reference_matches_oracle(1, 5000, 3, lam_pow, modes)
    assert hit_modes == assert_reference_matches_oracle(10**7, 10**7 + 2048, 3, lam_pow, modes)
    assert hit_modes == (2 if lam_pow > 1 else 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10**4) | st.integers(1, 10**9),
    st.integers(1, 600),
    st.integers(1, 6),
    st.sampled_from(REFERENCE_MODES),
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
)
def test_qualifying_segment_matches_oracle_on_random_ranges(lo, width, n, mode, lam_pow):
    if isinstance(mode, Mode):
        n = max(n, 3)
    assert_reference_matches_oracle(lo, lo + width, n, lam_pow, (mode,))


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
    e = certify._witness(4, 1616615, 19, 24, Mode.FULL)
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
    # build d from coefficients already in canonical ranges; _witness must
    # return exactly those (they are the unique representatives)
    fact = factorial(n)
    if gcd(q, fact) != 1:
        return
    c2 = comb(n, 2)
    i = i_seed % c2
    j = c2 * (j_seed % ((fact - c2) // c2 + 1))
    k = q * max(k_seed % 10**4 + 1, 1)
    if k < 2**n + 1:
        k += q * ((2**n + 1 - k) // q + 1)
    d = i * q**n + j * q ** (n - 1) + k * fact
    e = certify._witness(n, d, q, fact, Mode.FULL)
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
        certify.PrimePowerCertificate(q=q, i=i, j=j, k=k)
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


def test_rational_example_repeated_q_does_not_pass():
    # qs must be exactly the prime divisors, each once
    rep = certify.verify_rational_example(53599, [7, 13, 19, 31, 31])
    assert all(c.passed for c in rep.checks)
    assert not rep.covers_prime_divisors and not rep.passed
    assert certify.verify_rational_example(53599, [31, 19, 13, 7]).passed  # order is free


def test_rational_example_does_not_pass_without_a_q():
    # 1 has no prime divisor, so the empty list covers it, yet nothing is
    # checked; every q's conditions need d >= 7**3 + 228
    rep = certify.verify_rational_example(1, [])
    assert rep.covers_prime_divisors and rep.checks == ()
    assert not rep.passed


def test_rational_example_rejects_nonpositive_d():
    with pytest.raises(ParameterError, match="^d must be >= 1, got 0$"):
        certify.verify_rational_example(0, [7])


@pytest.mark.parametrize("d", [6, 53604])
def test_rational_example_zero_q_fails_without_dividing_by_it(d):
    # 6 | d gives q = 0 a k = d / 6; 0 is not prime and divides no such k
    (c,) = certify.verify_rational_example(d, [0]).checks
    assert c.k == d // 6
    assert not c.q_is_prime and not c.q_divides_k and not c.passed


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


# 2**89 - 1 times (7*13*19*31*37*43)**7: every q passes the d = q**3 + 6k
# arithmetic, and 2**89 - 1 is prime, but above psi13 no primality is proved
M89_Q_EXAMPLE = M89 * (7 * 13 * 19 * 31 * 37 * 43) ** 7
M89_QS = [7, 13, 19, 31, 37, 43, M89]


def test_rational_example_refuses_a_q_above_psi13():
    rep = certify.verify_rational_example(M89_Q_EXAMPLE, M89_QS)
    assert not rep.passed and not rep.covers_prime_divisors
    *small, big = rep.checks
    assert all(c.passed for c in small)
    assert not big.q_is_prime and not big.passed
    assert big.q_mod_6_is_1 and big.q_divides_k and big.k_ge_38


@pytest.mark.parametrize(
    "q, prime",
    [
        (-7, False), (0, False), (1, False), (2, True), (4, False), (7, True), (49, False), (53, True),
        (59, True), (59**2, False), (3491, True), (7**30, False), (2**61 - 1, True),
        (PSI12, False), (arith.PSI13, False), (M89, False),
    ],
)
def test_rational_example_proves_q_prime_as_prime_power_root_does(q, prime):
    # a proved prime q is its own prime-power root; above PSI13 nothing is proved
    (c,) = certify.verify_rational_example(53599, [q]).checks
    assert c.q_is_prime is (arith.prime_power_root(q) == (q, 1)) is prime


def test_rational_example_never_factors(monkeypatch):
    def no_factoring(d):
        raise AssertionError(f"factorize({d}) called")

    monkeypatch.setattr(arith, "factorize", no_factoring)
    assert certify.verify_rational_example(53599, [7, 13, 19, 31]).passed
    cert = pseudoprime_certificate()  # PSI12 is no proved prime
    assert not certify.verify_rational_example(cert.d, [e.q for e in cert.entries]).covers_prime_divisors


@pytest.mark.parametrize(
    "d, qs, covers",
    [
        (7**2 * 13 * 19**3 * 31, [31, 7, 19, 13], True),  # exponents above 1, any order
        (1, [], True),
        (PSI12, [798330580441, 399165290221], True),
        (53599, [7, 13, 19], False),  # missing
        (53599, [7, 13, 19, 31, 37], False),  # extra, not dividing d
        (53599, [7, 13, 19, 37], False),  # not dividing d, in place of 31
        (53599, [7, 13, 589], False),  # composite 19 * 31
        (53599, [1, 7, 13, 19, 31], False),
        (53599, [-7, 13, 19, 31], False),
        (PSI12, [PSI12], False),  # a strong pseudoprime to the bases 2..37
    ],
)
def test_rational_example_covers_exactly_the_prime_divisors(d, qs, covers):
    assert certify.verify_rational_example(d, qs).covers_prime_divisors is covers


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


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_deserialization_takes_only_the_integer_1_as_schema_version(version):
    # True == 1 and 1.0 == 1 in Python, but neither is the integer 1
    payload = json.loads(certify.certificate_to_json(certify.build_certificate(3, 5005)))
    payload["schema_version"] = version
    with pytest.raises(ParameterError, match="schema_version"):
        certify.certificate_from_dict(payload)


def test_deserialization_rejects_a_payload_that_is_no_object():
    with pytest.raises(ParameterError, match="^certificate payload must be a JSON object$"):
        certify.certificate_from_json("[]")


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
