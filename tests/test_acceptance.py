"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The expensive artifacts
(reciprocal prime sums to 1e8, the qualifying-degree trajectory to 1e8) are
computed once per thread count and shared between criteria 6, 8 and 10.
"""

import struct
import time
from functools import lru_cache
from math import factorial, log

import pytest

from degcert import arith, certify, density, dickman
from degcert.certify import Mode
from degcert.density import DensityMode
from test_certify import _mutants
from test_dickman import solve_grid

X_GRID = (10**5, 10**6, 10**7, 10**8)
TRAJ_CHECKPOINTS = (10**6, 10**7, 10**8)

# Frozen regression values, first computed by the sieves in this repository
# (criteria 8 and 9 declare the sieve itself the oracle and freeze its first
# output).
FROZEN_TRAJ_COUNTS = {10**6: 1734, 10**7: 29850, 10**8: 427006}
FROZEN_IHC_COUNT = 540702
# mertens_sum(x, 3) over X_GRID as float.hex() and prime counts; the sum is
# correctly rounded, so any change of summation order or method shows here.
FROZEN_MERTENS = (
    ("0x1.109d6f3295ca7p+0", 9578),
    ("0x1.15a281994b385p+0", 78473),
    ("0x1.1671eeaf2faeap+0", 664532),
    ("0x1.16adc07b87ebfp+0", 5761365),
)


@lru_cache(maxsize=None)
def mertens_runs(threads):
    return tuple(arith.mertens_sum(x, 3, threads=threads) for x in X_GRID)


@lru_cache(maxsize=None)
def trajectory(threads):
    return density.empirical_density(
        3,
        10**8,
        DensityMode.PROP16_FULL,
        checkpoints=list(TRAJ_CHECKPOINTS),
        threads=threads,
    )


@lru_cache(maxsize=None)
def enumeration_1e5():
    return certify.enumerate_qualifying(3, 10**5)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_smallest_degree():
    t0 = time.perf_counter()
    smallest = certify.smallest_qualifying(3, Mode.FULL)
    below = certify.enumerate_qualifying(3, 5004, Mode.FULL)
    elapsed = time.perf_counter() - t0
    ok = smallest == 5005 and below == [] and elapsed < 10.0
    report(1, ok, f"smallest = {smallest}, none below 5005, {elapsed:.2f}s")
    assert smallest == 5005
    assert below == []
    assert elapsed < 10.0


def test_criterion_02_certificate_5005():
    cert = certify.build_certificate(3, 5005, Mode.FULL)
    by_q = {e.q: (e.i, e.j, e.k) for e in cert.entries}
    verification = certify.verify_certificate(cert)
    ok = by_q[13] == (1, 0, 468) and by_q[5] == (2, 3, 780) and verification.passed
    report(2, ok, f"q=13 -> {by_q[13]}, q=5 -> {by_q[5]}, verified = {verification.passed}")
    assert by_q[13] == (1, 0, 468)
    assert by_q[5] == (2, 3, 780)
    assert verification.passed


def test_criterion_03_roundtrip_and_mutation_kill():
    t0 = time.perf_counter()
    ds = enumeration_1e5()
    assert ds, "enumeration to 1e5 must be nonempty"
    survivors = 0
    n_mutants = 0
    for d in ds:
        cert = certify.build_certificate(3, d, Mode.FULL)
        assert certify.verify_certificate(cert).passed, f"round-trip failed at d = {d}"
        for mutant in _mutants(cert):
            n_mutants += 1
            if certify.verify_certificate(mutant).passed:
                survivors += 1
    elapsed = time.perf_counter() - t0
    ok = survivors == 0 and elapsed < 60.0
    report(
        3,
        ok,
        f"{len(ds)} degrees round-trip, {n_mutants} mutants, "
        f"{survivors} survivors, {elapsed:.1f}s",
    )
    assert survivors == 0
    assert elapsed < 60.0


def test_criterion_04_dickman_values():
    r2 = dickman.rho(2.0, 1e-10)
    err2 = abs(r2 - (1.0 - log(2.0)))
    k = 256
    g1 = solve_grid(3, k)
    g2 = solve_grid(3, 2 * k)
    g3 = solve_grid(3, 4 * k)
    e1 = (4.0 * g2[::2] - g1) / 3.0
    e2 = (4.0 * g3[::2] - g2) / 3.0
    halving_change = abs(e2[2 * 3 * k] - e1[3 * k])
    td = dickman.theoretical_density(3)
    ok = err2 <= 1e-10 and halving_change <= 1e-9 and 0.0155 <= td <= 0.0170
    report(
        4,
        ok,
        f"|rho(2) - (1-ln 2)| = {err2:.2e}, step-halving change at u=3 = "
        f"{halving_change:.2e}, theoretical_density(3) = {td:.6f}",
    )
    assert err2 <= 1e-10
    assert halving_change <= 1e-9
    assert 0.0155 <= td <= 0.0170


def test_criterion_05_rational_example():
    rep = certify.verify_rational_example(53599, [7, 13, 19, 31])
    ks = [c.k for c in rep.checks]
    ok = (
        rep.passed
        and ks == [8876, 8567, 7790, 3968]
        and all(c.q_divides_k and c.k_ge_38 for c in rep.checks)
    )
    report(5, ok, f"d = 53599 k-values {ks}, all q | k and k >= 38: {ok}")
    assert rep.passed
    assert ks == [8876, 8567, 7790, 3968]
    for c in rep.checks:
        assert c.q_divides_k and c.k_ge_38


def test_criterion_06_mertens_convergence():
    runs = mertens_runs(1)
    dists = [abs(r.sum - log(3.0)) for r in runs]
    final = dists[-1]
    non_increasing = all(a >= b for a, b in zip(dists, dists[1:]))
    ok = final < 0.05 and non_increasing
    report(
        6,
        ok,
        "distances to ln 3 at 1e5..1e8: " + ", ".join(f"{d:.4f}" for d in dists),
    )
    assert final < 0.05
    assert non_increasing


def test_mertens_sums_are_bit_identical_to_the_frozen_values():
    assert tuple((r.sum.hex(), r.prime_count) for r in mertens_runs(1)) == FROZEN_MERTENS


def test_criterion_07_prime_power_ratio():
    ms = (10**3, 10**4, 10**5, 10**6)
    ratios = [arith.prime_power_count(m) / m for m in ms]
    strictly_dec = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = strictly_dec and ratios[-1] < 0.08
    report(7, ok, "Pi(m)/m: " + ", ".join(f"{r:.6f}" for r in ratios))
    assert strictly_dec
    assert ratios[-1] < 0.08


def test_criterion_08_density_trajectory():
    traj = trajectory(1)
    target = traj.theoretical
    counts = dict(traj.samples)
    empiricals = [counts[m] / m for m in TRAJ_CHECKPOINTS]
    dists = [abs(e - target) for e in empiricals]
    frozen_ok = all(counts[m] == FROZEN_TRAJ_COUNTS[m] for m in TRAJ_CHECKPOINTS)
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    final_ratio = empiricals[-1] / target
    within_factor_2 = 0.5 <= final_ratio <= 2.0
    ok = frozen_ok and monotone and within_factor_2
    report(
        8,
        ok,
        f"counts {[counts[m] for m in TRAJ_CHECKPOINTS]}, empirical "
        f"{[f'{e:.6f}' for e in empiricals]}, target {target:.6f}, "
        f"final/target = {final_ratio:.3f}",
    )
    assert frozen_ok, "frozen regression counts changed"
    assert monotone, "empirical density does not move monotonically toward the target"
    # Desk-scale reality: at N = 1e8 the empirical density is a factor 3.79
    # below the asymptotic target (2.98 at 1e9, 2.53 at the 1e10 budget cap);
    # the coprimality-within-friable bias decays like 1/log of the
    # smoothness bound.  Exact counts by the walk with the budget lifted,
    # from one implementation, give the ratios 0.489 at 1e12 and 0.5001 at
    # 2e12.  The clause is asserted as stated, at 1e8, and fails honestly.
    assert within_factor_2, (
        f"empirical/theoretical = {final_ratio:.3f} at N = 1e8; 0.395 at the 1e10 sieve "
        f"budget cap, and with the budget lifted 0.489 at 1e12 and 0.5001 at 2e12 "
        f"(exact counts from one implementation)"
    )


def test_criterion_09_ihc_fraction():
    rep = density.ihc_fraction(3, 10**6, 10**5 + 1)
    ok = rep.fraction >= 0.5 and rep.count == FROZEN_IHC_COUNT
    report(9, ok, f"count = {rep.count} of {10**6 - 10**5}, fraction = {rep.fraction:.5f}")
    assert rep.count == FROZEN_IHC_COUNT
    assert rep.fraction >= 0.5


def test_criterion_10_thread_determinism():
    thread_counts = (1, 4, 16)
    # criterion 1 outputs
    smallest = [certify.smallest_qualifying(3, Mode.FULL, threads=t) for t in thread_counts]
    enums = [certify.enumerate_qualifying(3, 5004, Mode.FULL, threads=t) for t in thread_counts]
    c1_ok = len(set(smallest)) == 1 and all(e == enums[0] for e in enums)
    # criterion 6 outputs, compared as bit patterns
    m_bits = [tuple(bits(r.sum) for r in mertens_runs(t)) for t in thread_counts]
    c6_ok = all(mb == m_bits[0] for mb in m_bits)
    # criterion 8 outputs
    trajs = [trajectory(t) for t in thread_counts]
    c8_ok = all(
        tr.samples == trajs[0].samples and bits(tr.empirical) == bits(trajs[0].empirical)
        for tr in trajs
    )
    ok = c1_ok and c6_ok and c8_ok
    report(
        10,
        ok,
        f"threads {thread_counts}: criterion-1 identical = {c1_ok}, "
        f"criterion-6 bit-identical = {c6_ok}, criterion-8 bit-identical = {c8_ok}",
    )
    assert c1_ok
    assert c6_ok
    assert c8_ok
