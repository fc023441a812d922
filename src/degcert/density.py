"""Empirical sieve densities and convergence diagnostics.

Measures, by exact exhaustive sieve, how often degrees d satisfy the
qualification predicates (certificate qualification, or largest prime
power/factor below lambda * d**(1/n)), counts degrees certified to violate
the integral Hodge conjecture via a single large prime divisor, and tracks
the convergence of the prime-power ratio and of reciprocal prime sums
toward their limits.

All four density modes run the qualifying-degree segment kernel of
certify, so every predicate is one exact comparison
a*v**n + b*v**(n-1) + c <= m*d.  Certificate qualification uses the
coefficients of its mode and m = 1.  A comparison v <= lambda * d**(1/n)
has lambda enter as an exact rational (or as the exact rational value
num/den of lambda**n) and becomes den * v**n <= num * d.  The kernel's
float32 log-sum screen only drops d that fail; exact integers decide the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import fsum, isqrt
from typing import Sequence

import numpy as np

from . import arith, certify
from .dickman import theoretical_density
from .errors import CapacityError, ParameterError


class DensityMode(str, Enum):
    PROP16_FULL = "PROP16_FULL"
    PROP16_WEAK = "PROP16_WEAK"
    LAMBDA_PRIMEPOWER = "LAMBDA_PRIMEPOWER"
    LAMBDA_PRIME = "LAMBDA_PRIME"


@dataclass(frozen=True)
class DensityReport:
    """Exact count of qualifying degrees d <= N and comparison targets.

    theoretical carries phi(n!)/n! * rho(n); for the LAMBDA_* modes the
    exact constant for general lambda is not available, so the same value is
    reported with theoretical_is_heuristic set.  samples holds (m, count<=m)
    checkpoints when requested.
    """

    n: int
    N: int
    mode: DensityMode
    lam: Fraction | None
    lam_pow: Fraction | None
    count: int
    empirical: float
    theoretical: float | None
    theoretical_is_heuristic: bool
    samples: tuple[tuple[int, int], ...] | None


@dataclass(frozen=True)
class IhcReport:
    """Fraction of d in [range_lo, N] with a certified nontrivial divisor of
    f_n(d), i.e. with a prime divisor p coprime to n! large enough to pass
    the qualification inequality yet small enough that its threshold is
    below d."""

    n: int
    N: int
    range_lo: int
    count: int
    fraction: float


@dataclass(frozen=True)
class DiagnosticsRow:
    """One checkpoint of the convergence diagnostics.

    prime_power_ratio = Pi(m)/m tends to 0; mertens tends to log(n).  When a
    lambda is supplied, tail_small = lambda**(-n) * sum of q**(n-1) over
    prime powers q <= m**(1/n) with exponent >= 2, tail_large = m * sum of
    1/q over such q in (m**(1/n), m], and ratio_bound = their sum divided by
    m (an upper bound for the density of d <= m divisible by a large
    exponent->=2 prime power)."""

    m: int
    prime_power_ratio: float
    mertens: float
    tail_small: float | None = None
    tail_large: float | None = None
    ratio_bound: float | None = None


def _resolve_lambda(
    n: int, lam: Fraction | None, lam_pow: Fraction | None
) -> tuple[Fraction | None, Fraction]:
    if (lam is None) == (lam_pow is None):
        raise ParameterError("exactly one of lam / lam_pow is required for LAMBDA modes")
    if lam is not None:
        lam = Fraction(lam)
        if lam <= 0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        return lam, lam**n
    lam_pow = Fraction(lam_pow)
    if lam_pow <= 0:
        raise ParameterError(f"lambda**n must be positive, got {lam_pow}")
    return None, lam_pow


def _checkpoint_counts(d_values: np.ndarray, checkpoints: Sequence[int]) -> list[int]:
    return [int(np.searchsorted(d_values, m, side="right")) for m in checkpoints]


def empirical_density(
    n: int,
    N: int,
    mode: DensityMode,
    lam: Fraction | None = None,
    lam_pow: Fraction | None = None,
    checkpoints: Sequence[int] | None = None,
    threads: int = 1,
) -> DensityReport:
    """Exact count of qualifying d <= N (all modes also require
    gcd(d, n!) = 1), with optional cumulative checkpoints."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    cps = list(checkpoints) if checkpoints is not None else []
    if any(not 1 <= m <= N for m in cps) or cps != sorted(cps):
        raise ParameterError(f"checkpoints must be ascending within [1, {N}]")

    if mode in (DensityMode.PROP16_FULL, DensityMode.PROP16_WEAK):
        cmode = certify.Mode.FULL if mode == DensityMode.PROP16_FULL else certify.Mode.WEAK
        a, b, c = certify.threshold_coefficients_upto(n, N, cmode)
        m, start = 1, c  # nothing below c qualifies
        lam_val = lam_pow_val = None
    else:
        lam_val, lam_pow_val = _resolve_lambda(n, lam, lam_pow)
        # v <= lam * d**(1/n)  <=>  den * v**n <= num * d, for lam**n = num/den
        a, b, c, m, start = lam_pow_val.denominator, 0, 0, lam_pow_val.numerator, 1
    prime_factor = mode == DensityMode.LAMBDA_PRIME

    def work(lo: int, hi: int, base: np.ndarray) -> tuple[int, list[int]]:
        hits = certify.qualifying_segment(lo, hi, base, n, a, b, c, m, prime_factor)
        return len(hits), _checkpoint_counts(hits, cps)

    parts = arith.map_sieve(start, N + 1, work, threads)
    count = sum(p[0] for p in parts)
    cp_counts = [sum(p[1][t] for p in parts) for t in range(len(cps))]

    theoretical = theoretical_density(n) if n <= 10 else None
    return DensityReport(
        n=n,
        N=N,
        mode=mode,
        lam=lam_val,
        lam_pow=lam_pow_val,
        count=count,
        empirical=count / N,
        theoretical=theoretical,
        theoretical_is_heuristic=lam_pow_val is not None,
        samples=tuple(zip(cps, cp_counts)) if cps else None,
    )


def ihc_fraction(n: int, N: int, range_lo: int = 1, threads: int = 1) -> IhcReport:
    """Count d in [range_lo, N] with a prime divisor p, gcd(p, n!) = 1,
    whose qualification threshold is at most d.

    Each such d has p | f_n(d), so f_n(d) != 1: the integral Hodge
    conjecture fails in degree d (conditional on the premises).
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if not 1 <= range_lo <= N:
        raise ParameterError(f"need 1 <= range_lo <= N, got {range_lo}, {N}")
    a, b, c = certify.threshold_coefficients_upto(n, N)

    def work(lo: int, hi: int, base: np.ndarray) -> int:
        # a threshold below hi needs p**3 < hi, so base holds every such p
        marks = np.zeros(hi - lo, dtype=bool)
        for p in map(int, base):
            thr = a * p**n + b * p ** (n - 1) + c  # grows with p
            if thr >= hi:
                break
            first = -(-max(lo, thr) // p) * p
            if p > n and first < hi:
                marks[first - lo :: p] = True
        return int(np.count_nonzero(marks))

    # every threshold exceeds c, so no d below c is counted
    count = sum(arith.map_sieve(max(range_lo, c), N + 1, work, threads))
    return IhcReport(n=n, N=N, range_lo=range_lo, count=count, fraction=count / (N - range_lo + 1))


def _prime_powers_exp_ge2(limit: int) -> list[int]:
    """All prime powers p**e <= limit with e >= 2, ascending."""
    out = []
    for p in arith.primes_upto(isqrt(limit)):
        pe = int(p) * int(p)
        while pe <= limit:
            out.append(pe)
            pe *= int(p)
    out.sort()
    return out


def convergence_diagnostics(
    n: int,
    checkpoints: Sequence[int],
    lam: Fraction | None = None,
    lam_pow: Fraction | None = None,
    threads: int = 1,
) -> list[DiagnosticsRow]:
    """Pi(m)/m and the reciprocal prime sum at each checkpoint m, plus the
    exponent->=2 prime-power tail bounds when a lambda is supplied."""
    cps = list(checkpoints)
    if not cps or cps != sorted(cps) or cps[0] < 2:
        raise ParameterError("checkpoints must be ascending integers >= 2")
    if cps[-1] > arith.SIEVE_BUDGET:
        raise CapacityError(f"checkpoint {cps[-1]} exceeds budget {arith.SIEVE_BUDGET}")
    with_tails = lam is not None or lam_pow is not None
    if with_tails:
        _, lam_pow_val = _resolve_lambda(n, lam, lam_pow)
        inv_lam_pow = float(Fraction(lam_pow_val.denominator, lam_pow_val.numerator))
    rows = []
    for m in cps:
        ratio = arith.prime_power_count(m, threads) / m
        mert = arith.mertens_sum(m, n, threads).sum
        if with_tails:
            root = arith.integer_nth_root(m, n)
            powers = _prime_powers_exp_ge2(m)
            small = sum(q ** (n - 1) for q in powers if q <= root)
            large = fsum(1.0 / q for q in powers if q > root)
            tail_small = inv_lam_pow * small
            tail_large = m * large
            rows.append(
                DiagnosticsRow(
                    m=m,
                    prime_power_ratio=ratio,
                    mertens=mert,
                    tail_small=tail_small,
                    tail_large=tail_large,
                    ratio_bound=(tail_small + tail_large) / m,
                )
            )
        else:
            rows.append(DiagnosticsRow(m=m, prime_power_ratio=ratio, mertens=mert))
    return rows
