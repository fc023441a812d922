"""Empirical densities and convergence diagnostics.

Measures exactly how often degrees d satisfy the qualification predicates
(certificate qualification, or largest prime power/factor below
lambda * d**(1/n)), counts the degrees d = p*t, t >= H(p) = ceil(thr(p)/p),
that violate the integral Hodge conjecture via a large prime p, and tracks
the convergence of the prime-power ratio and of reciprocal prime sums.

All four density modes count on certify's walk over prime powers, which
sieves nothing, and each hands it one certify._Inequality.  Certificate
qualification is its own inequality; in the lambda modes a comparison v <=
lambda * d**(1/n) has lambda enter as an exact rational (or as the exact
rational value num/den of lambda**n) and becomes den * v**n <= num * d, the
inequality with coefficients (den, 0, 0) and scale num.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from math import fsum, isfinite
from typing import NamedTuple, Sequence

from . import arith, certify
from .dickman import theoretical_density
from .errors import ParameterError


class DensityMode(str, Enum):
    PROP16_FULL = "PROP16_FULL"
    PROP16_WEAK = "PROP16_WEAK"
    LAMBDA_PRIMEPOWER = "LAMBDA_PRIMEPOWER"
    LAMBDA_PRIME = "LAMBDA_PRIME"


class DensityReport(NamedTuple):
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


class IhcReport(NamedTuple):
    """Fraction of d in [range_lo, N] with a certified nontrivial divisor of
    f_n(d), i.e. with a prime divisor p coprime to n! large enough to pass
    the qualification inequality yet small enough that its threshold is
    below d."""

    n: int
    N: int
    range_lo: int
    count: int
    fraction: float


class DiagnosticsRow(NamedTuple):
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


def _show_fraction(q: Fraction) -> str:
    """q as str() writes it, with numerator and denominator each through arith._show_int."""
    return arith._show_int(q.numerator) + (f"/{arith._show_int(q.denominator)}" if q.denominator > 1 else "")


def _resolve_lambda(
    n: int, lam: Fraction | None, lam_pow: Fraction | None
) -> tuple[Fraction | None, Fraction]:
    if (lam is None) == (lam_pow is None):
        raise ParameterError("exactly one of lam / lam_pow is required for LAMBDA modes")
    too_long = "lambda**n has a numerator or denominator of more than 4300 digits"
    if lam is not None:
        lam = Fraction(lam)
        if lam <= 0:
            raise ParameterError(f"lambda must be positive, got {_show_fraction(lam)}")
        # a**|n| >= 2**(|n| * (bitlen(a) - 1)), and 2**14285 > 10**4300
        if abs(n) * (max(lam.numerator, lam.denominator).bit_length() - 1) >= 14_285:
            raise ParameterError(too_long)
        lam_pow = lam**n
    else:
        lam_pow = Fraction(lam_pow)
        if lam_pow <= 0:
            raise ParameterError(f"lambda**n must be positive, got {_show_fraction(lam_pow)}")
    if max(lam_pow.numerator, lam_pow.denominator) >= 10**4300:
        raise ParameterError(too_long)
    return lam, lam_pow


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
    gcd(d, n!) = 1), with optional cumulative checkpoints.  Every mode counts
    on certify's sequential walk, which threads cannot reach.  A lambda
    mode whose walk would list the primes beyond 10**8, min(N,
    iroot(lambda**n * N, n)) > 10**8, is a CapacityError."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {arith._show_int(n)}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {arith._show_int(N)}")
    cps = list(checkpoints) if checkpoints is not None else []
    if any(not 1 <= m <= N for m in cps) or cps != sorted(cps):
        raise ParameterError(f"checkpoints must be ascending within [1, {arith._show_int(N)}]")

    xs = [*cps, N]
    if mode in (DensityMode.PROP16_FULL, DensityMode.PROP16_WEAK):
        if lam is not None or lam_pow is not None:
            raise ParameterError("lam and lam_pow apply only to the LAMBDA modes")
        cmode = certify.Mode.FULL if mode == DensityMode.PROP16_FULL else certify.Mode.WEAK
        ineq = certify._inequality(n, N, cmode)
        lam_val = lam_pow_val = None
    else:
        lam_val, lam_pow_val = _resolve_lambda(n, lam, lam_pow)
        # v <= lam * d**(1/n)  <=>  den * v**n <= num * d, for lam**n = num/den
        den, num = lam_pow_val.denominator, lam_pow_val.numerator
        ineq = certify._Inequality(n, den, 0, 0, num, mode == DensityMode.LAMBDA_PRIME)
    counts = certify._walk_counts(ineq, xs)
    count = counts[-1]

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
        samples=tuple(zip(cps, counts)) if cps else None,
    )


def ihc_fraction(n: int, N: int, range_lo: int = 1, threads: int = 1) -> IhcReport:
    """Count d in [range_lo, N] with a prime divisor p > n whose
    qualification threshold is at most d: each segment [lo, hi) marks the
    p*t with t >= max(ceil(lo/p), H(p)), H(p) = ceil(thr(p)/p) the walk's.

    Each such d has p | f_n(d), so f_n(d) != 1: the integral Hodge
    conjecture fails in degree d (conditional on the premises).
    """
    ineq = certify._inequality(n, N)  # refuses n < 3
    if not 1 <= range_lo <= N:
        raise ParameterError(f"need 1 <= range_lo <= N, got {arith._show_int(range_lo)}, {arith._show_int(N)}")

    def work(lo: int, hi: int, base: np.ndarray) -> int:
        import numpy as np

        ps = base[base.searchsorted(n, "right") : base.searchsorted(ineq.top(hi - 1), "right")]
        H = ineq.ceil(ps, hi, per=ps)
        firsts = np.maximum(-(-lo // ps), H) * ps - lo  # offsets from lo
        keep = firsts < hi - lo
        blocks = arith._strike_blocks(hi - lo, ps[keep], firsts[keep])
        return sum(len(marks) - int(np.count_nonzero(marks)) for _, marks in blocks)

    # every threshold exceeds c, so no d below c is counted
    count = sum(arith.map_sieve(max(range_lo, ineq.c), N + 1, work, threads))
    return IhcReport(n=n, N=N, range_lo=range_lo, count=count, fraction=count / (N - range_lo + 1))


def convergence_diagnostics(
    n: int,
    checkpoints: Sequence[int],
    lam: Fraction | None = None,
    threads: int = 1,
) -> list[DiagnosticsRow]:
    """Pi(m)/m and the reciprocal prime sum at each checkpoint m, plus the
    exponent->=2 prime-power tail bounds when a lambda is supplied.  A
    lambda**(-n) or a tail bound beyond the float range is a ParameterError."""
    cps = list(checkpoints)
    if not cps or cps != sorted(cps) or cps[0] < 2:
        raise ParameterError("checkpoints must be ascending integers >= 2")
    if n < 1:
        raise ParameterError(f"mertens_sum requires n >= 1, got {arith._show_int(n)}")
    if lam is not None:
        _, lam_pow = _resolve_lambda(n, lam, None)
        try:
            inv_lam_pow = lam_pow.denominator / lam_pow.numerator
        except OverflowError:
            raise ParameterError("lambda**(-n) exceeds the float range") from None
    roots = [arith.integer_nth_root(m, n) for m in cps]
    sums = arith._prime_sums(roots + [1] * len(cps), cps + roots, threads)
    powers_upto = arith.prime_powers_exp_ge2(cps[-1])
    rows = []
    for m, root, mert, below in zip(cps, roots, sums, sums[len(cps):]):
        powers = powers_upto[: bisect_right(powers_upto, m)]
        tails = {}
        if lam is not None:
            small = inv_lam_pow * sum(q ** (n - 1) for q in powers if q <= root)
            large = m * fsum(1.0 / q for q in powers if q > root)
            if not isfinite(small + large):
                raise ParameterError(f"exp>=2 tail bound at m = {m} exceeds the float range")
            tails = dict(tail_small=small, tail_large=large, ratio_bound=(small + large) / m)
        rows.append(DiagnosticsRow(m, (mert.prime_count + below.prime_count + len(powers)) / m, mert.sum, **tails))
    return rows
