"""Exact integer arithmetic and sieves.

Deterministic factorization, exact integer roots, largest prime powers
(scalar, and bulk segmented for segments where certify's log-sum screen
would keep most d), prime and prime-power counting, reproducible
compensated reciprocal-prime sums, and the coprimality mask of that screen.

Every segmented sieve in the package runs through one function, map_sieve:
it alone holds a sieve range to SIEVE_BUDGET, builds the base primes, cuts
the range into segments and maps a per-segment function over them in order.

All integer arithmetic uses Python's arbitrary-precision integers, so
intermediate products such as q**n can never wrap.  Vectorized kernels work
in int64 only after an exact bound check proves the values fit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum, gcd, isqrt, log2
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, ParameterError

# Segment length (in integers) for every segmented sieve in the package.
# This is a build-time constant on purpose: threaded runs must produce
# bit-identical results, so the work split may never depend on thread count.
SEGMENT_SIZE = 1 << 22

# Segmented operations refuse ranges beyond this bound.
SIEVE_BUDGET = 10**10

# Deterministic Miller-Rabin witnesses, sufficient for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer with its full prime factorization.

    factors is sorted by prime; largest_prime_power is max(p**e) over the
    factors (1 for value = 1), i.e. the largest prime power dividing value.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    largest_prime_power: int


@dataclass(frozen=True)
class PrimeSumResult:
    """Sum of 1/p over primes p with x**(1/n) < p <= x."""

    x: int
    n: int
    sum: float
    prime_count: int


def integer_nth_root(x: int, n: int) -> int:
    """Largest integer r with r**n <= x (exact, no float error)."""
    if x < 0 or n < 1:
        raise ParameterError(f"integer_nth_root requires x >= 0, n >= 1; got {x}, {n}")
    if n == 1 or x < 2:
        return x
    # Seed from log2(x), which takes any int (float(x) would overflow past
    # 1e308), scaled a little up.  One Newton step from any r > 0 lands at or
    # above the root (AM-GM), then the iterates decrease strictly to the floor
    # root; a seed far above it would cost about n steps.
    lg = log2(x) / n
    shift = max(0, int(lg) - 52)
    r = (int(2.0 ** (lg - shift) * (1 + 2**-30)) + 1) << shift
    r = ((n - 1) * r + x // r ** (n - 1)) // n
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set,
    exact for all n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """Find a nontrivial factor of an odd composite n (Brent's cycle method,
    deterministic parameter sequence)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1  # rare cycle degenerate; retry with next polynomial


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _brent_factor(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorize(d: int) -> FactoredInteger:
    """Full prime factorization of d >= 1.

    Trial division by small primes followed by deterministic Miller-Rabin and
    Brent's method.  Exact and deterministic for all supported d.
    """
    if d < 1:
        raise ParameterError(f"factorize requires d >= 1, got {d}")
    if d == 1:
        return FactoredInteger(value=1, factors=(), largest_prime_power=1)
    acc: dict[int, int] = {}
    m = d
    for p in _SMALL_PRIMES:
        while m % p == 0:
            acc[p] = acc.get(p, 0) + 1
            m //= p
    _factor_into(m, acc)
    pairs = sorted(acc.items())
    q = max(p**e for p, e in pairs)
    return FactoredInteger(value=d, factors=tuple(pairs), largest_prime_power=q)


def largest_prime_power(d: int) -> int:
    """max over primes p | d of p**v_p(d); equals 1 iff d == 1."""
    return factorize(d).largest_prime_power


def prime_power_root(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q == p**e and p prime, or None if q is not a
    prime power.  q >= 2 required."""
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    # Every prime factor of q now exceeds 2**5, so q = r**e needs e < bits/5.
    # Roots by prime exponents leave an r that is no perfect power, and q is
    # a prime power exactly when that r is prime.
    e = 1
    for ell in range(2, q.bit_length() // 5 + 1):
        if not is_prime(ell):
            continue
        while (r := integer_nth_root(q, ell)) ** ell == q:
            q, e = r, e * ell
    return (q, e) if is_prime(q) else None


def euler_phi(m: int) -> int:
    """Euler's totient, computed multiplicatively from the factorization."""
    if m < 1:
        raise ParameterError(f"euler_phi requires m >= 1, got {m}")
    phi = 1
    for p, e in factorize(m).factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


# ---------------------------------------------------------------------------
# Segmented sieves.
#
# map_sieve splits [lo, hi) at absolute multiples of SEGMENT_SIZE and
# returns the per-segment results in segment order, so the output is
# independent of thread count and scheduling.
# ---------------------------------------------------------------------------


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (simple in-memory sieve)."""
    if limit > 10**8:
        raise CapacityError(f"primes_upto limit {limit} exceeds 10^8; use segments")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def _map_segments(fn: Callable, ranges: Sequence[tuple[int, int]], threads: int) -> list:
    """Apply fn to each (lo, hi) range, preserving range order in the result."""
    if threads <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, ranges))


def map_sieve(lo: int, hi: int, fn: Callable, threads: int = 1) -> list:
    """[fn(seg_lo, seg_hi, base) for each segment of [lo, hi)], in order.

    The segments cut [lo, hi), lo >= 1, at absolute multiples of
    SEGMENT_SIZE, and base holds the primes up to sqrt(hi - 1).  A range
    reaching past SIEVE_BUDGET is refused even when it is empty.
    """
    if hi - 1 > SIEVE_BUDGET:
        raise CapacityError(f"sieve bound {hi - 1} exceeds budget {SIEVE_BUDGET}")
    if hi <= lo:
        return []
    base = primes_upto(isqrt(hi - 1))
    starts = range(lo - lo % SEGMENT_SIZE, hi, SEGMENT_SIZE)
    ranges = [(max(lo, s), min(hi, s + SEGMENT_SIZE)) for s in starts]
    return _map_segments(lambda r: fn(r[0], r[1], base), ranges, threads)


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi-1)."""
    mask = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        mask[: min(2, hi)] = False
    elif lo == 1:
        mask[0] = False
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            mask[start - lo :: p] = False
    return np.flatnonzero(mask).astype(np.int64) + lo


def prime_count(x: int, threads: int = 1) -> int:
    """pi(x): the number of primes <= x, by segmented sieve."""
    return sum(map_sieve(2, x + 1, lambda lo, hi, base: len(sieve_segment(lo, hi, base)), threads))


def prime_power_count(m: int, threads: int = 1) -> int:
    """Number of prime powers p**e <= m with e >= 1.

    Computed as sum over e of pi(floor(m**(1/e))); each exponent-e prime
    power <= m corresponds to exactly one prime <= m**(1/e).
    """
    if m < 1:
        raise ParameterError(f"prime_power_count requires m >= 1, got {m}")
    total = 0
    e = 1
    while True:
        r = integer_nth_root(m, e)
        if r < 2:
            break
        total += prime_count(r, threads)
        e += 1
    return total


def mertens_sum(x: int, n: int = 1, threads: int = 1) -> PrimeSumResult:
    """Sum of 1/p over primes p in (x**(1/n), x].

    Summation is compensated (exactly-rounded fsum) over ascending primes
    within each fixed-size segment, and segment partials are combined in
    ascending order, so the result is a deterministic bit pattern for fixed
    (x, n) regardless of thread count.
    """
    if x < 2:
        raise ParameterError(f"mertens_sum requires x >= 2, got {x}")
    if n < 1:
        raise ParameterError(f"mertens_sum requires n >= 1, got {n}")
    lo_excl = integer_nth_root(x, n)

    def work(lo: int, hi: int, base: np.ndarray) -> tuple[float, int]:
        ps = sieve_segment(lo, hi, base)
        ps = ps[ps > lo_excl]
        if len(ps) == 0:
            return 0.0, 0
        return fsum((1.0 / ps).tolist()), len(ps)

    parts = map_sieve(max(2, lo_excl), x + 1, work, threads)
    total = fsum(p[0] for p in parts)
    count = sum(p[1] for p in parts)
    return PrimeSumResult(x=x, n=n, sum=total, prime_count=count)


def largest_prime_power_segment(
    lo: int,
    hi: int,
    base_primes: np.ndarray,
    want_prime_factor: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Bulk largest-prime-power extraction over [lo, hi), lo >= 1.

    Returns (q, lpf) where q[t] is the largest prime power dividing lo+t and
    lpf[t] (if requested) is its largest prime factor.  base_primes must
    cover sqrt(hi-1).  The value for 1 is 1.

    For each prime p <= sqrt(hi-1) and each power pe = p**e < hi, every
    multiple of pe receives the candidate pe via a running maximum; the
    winning candidate for p is exactly p**v_p.  Dividing the residue by p on
    each pass leaves either 1 or a single prime > sqrt(hi-1), which is both
    a maximal prime power and the largest prime factor.
    """
    if lo < 1 or hi <= lo:
        raise ParameterError(f"bad segment [{lo}, {hi}); need 1 <= lo < hi")
    count = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    q = np.ones(count, dtype=np.int64)
    lpf = np.ones(count, dtype=np.int64) if want_prime_factor else None
    r = isqrt(hi - 1)
    for p in base_primes:
        p = int(p)
        if p > r:
            break
        pe = p
        while pe < hi:
            start = ((lo + pe - 1) // pe) * pe
            if start >= hi:
                break
            sl = slice(start - lo, count, pe)
            np.maximum(q[sl], pe, out=q[sl])
            rem[sl] //= p
            if pe == p and lpf is not None:
                np.maximum(lpf[sl], p, out=lpf[sl])
            pe *= p
    np.maximum(q, rem, out=q)
    if lpf is not None:
        np.maximum(lpf, rem, out=lpf)
    return q, lpf


def coprime_mask(lo: int, hi: int, n: int) -> np.ndarray:
    """Boolean mask over [lo, hi): True where gcd(value, n!) == 1.

    gcd(d, n!) == 1 holds exactly when no prime <= n divides d, so the mask
    is built from the primes up to n without forming n! residues.
    """
    mask = np.ones(hi - lo, dtype=bool)
    for p in primes_upto(max(n, 1)):
        p = int(p)
        start = ((lo + p - 1) // p) * p
        if start < hi:
            mask[start - lo :: p] = False
    if lo == 0 and n >= 2:
        mask[0] = False  # gcd(0, n!) = n! != 1 once n >= 2
    return mask
