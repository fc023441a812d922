"""Exact integer arithmetic and sieves.

Deterministic factorization, exact integer roots, largest prime powers
(scalar, and bulk segmented with the coprimality mask of a segment: the
sieve that the tests hold certify's walk to), prime and prime-power
counting by a sieve over odd numbers, and reciprocal-prime sums that are
exact integer sums per segment rounded once.

Every segmented sieve in the package runs through one function, map_sieve:
it holds a range to SIEVE_BUDGET, builds the base primes and maps a function
over its segments in order, and each segment marks through _strike_blocks.
Prime counts and reciprocal sums are formed per 1 MiB block of marks, as
the blocks come, and a sum is rounded once per segment: a worker holds one
block's marks and one array of its primes (0.9 MB near 1e8), which takes
their reciprocals in place, never a segment's primes.

All integer arithmetic uses Python's arbitrary-precision integers, so
intermediate products such as q**n can never wrap.  Vectorized kernels work
in int64 only after an exact bound check proves the values fit.

numpy is imported by the sieve and walk functions only, each in its own
body, and the thread pool by the segment map: factoring and primality, all
that certificates need, start without either.
"""

from __future__ import annotations

import os
from math import fsum, gcd, isqrt, lcm, log2
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import CapacityError, ParameterError

# Segment length (in integers) for every segmented sieve in the package.
# This is a build-time constant on purpose: threaded runs must produce
# bit-identical results, so the work split may never depend on thread count.
SEGMENT_SIZE = 1 << 22

# _strike_blocks marks a segment from its low end in blocks of this many entries
# (1 MiB of bools), which stay in a core's L2 cache; segments are threaded.
_SIEVE_BLOCK = 1 << 20

# Segmented operations refuse ranges beyond this bound.
SIEVE_BUDGET = 10**10

# Deterministic Miller-Rabin witnesses, exact for every n <= PSI13: PSI13 is
# the least strong pseudoprime to the bases 2..41 (Sorenson & Webster, Math.
# Comp. 86, 2017) and base 43 rejects it.  No primality above it is proved.
PSI13 = 3317044064679887385961981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_MR_WITNESSES = _SMALL_PRIMES[:14]

# Brent's method refuses a round of cycle length beyond this; psi13 needs 2**19.
BRENT_MAX_R = 1 << 22


class FactoredInteger(NamedTuple):
    """A positive integer with its full prime factorization.

    factors is sorted by prime; largest_prime_power is max(p**e) over the
    factors (1 for the integer 1), i.e. the largest prime power dividing it.
    """

    factors: tuple[tuple[int, int], ...]
    largest_prime_power: int


class PrimeSumResult(NamedTuple):
    """The sum of 1/p and the count of the primes p in an interval; for
    mertens_sum(x, n) the interval is x**(1/n) < p <= x."""

    sum: float
    prime_count: int


def integer_nth_root(x: int, n: int) -> int:
    """Largest integer r with r**n <= x (exact, no float error)."""
    if x < 0 or n < 1:
        raise ParameterError(f"integer_nth_root requires x >= 0, n >= 1; got {_show_int(x)}, {_show_int(n)}")
    if n == 1 or x < 2:
        return x
    if n >= x.bit_length():  # x < 2**n, so the root is 1; log2(x) / n could overflow
        return 1
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
    """Deterministic primality test (Miller-Rabin with the bases 2..43,
    exact for every n <= psi13 = 3317044064679887385961981)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 59 * 59:  # a composite has a prime factor at most its square root
        return True
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
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            if r > BRENT_MAX_R:
                raise CapacityError(f"factoring {n.bit_length()} bits passed BRENT_MAX_R = {BRENT_MAX_R}")
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
        raise ParameterError(f"factorize requires d >= 1, got {_show_int(d)}")
    acc: dict[int, int] = {}
    m = d
    for p in _SMALL_PRIMES:
        while m % p == 0:
            acc[p] = acc.get(p, 0) + 1
            m //= p
    _factor_into(m, acc)
    pairs = sorted(acc.items())
    q = max((p**e for p, e in pairs), default=1)
    return FactoredInteger(factors=tuple(pairs), largest_prime_power=q)


def largest_prime_power(d: int) -> int:
    """max over primes p | d of p**v_p(d); equals 1 iff d == 1."""
    return factorize(d).largest_prime_power


def prime_power_root(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q == p**e and p prime, or None if q is not a
    prime power.  q >= 2 required.  is_prime is exact only up to PSI13, so a
    q whose power_root r exceeds PSI13 gives None too, and r is not tested."""
    root = power_root(q)
    return root if root is not None and root[0] <= PSI13 and is_prime(root[0]) else None


def power_root(q: int) -> tuple[int, int] | None:
    """The (r, e) with q == r**e whose r prime_power_root tests: the prime
    when a prime up to 53 divides q, else an r that is no perfect power.
    None when q < 2 or q has a prime factor up to 53 and another one."""
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
    return q, e


# ---------------------------------------------------------------------------
# Segmented sieves.
#
# map_sieve splits [lo, hi) at absolute multiples of SEGMENT_SIZE and
# returns the per-segment results in segment order, so the output is
# independent of thread count and scheduling.
# ---------------------------------------------------------------------------


def _show_int(x: int) -> str:
    """x in decimal, or its sign and bit length when Python would refuse to print it."""
    return str(x) if x.bit_length() < 10_000 else f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


def check_sieve_bound(bound: int) -> None:
    """Refuse a sieve bound past SIEVE_BUDGET with the one CapacityError text."""
    if bound > SIEVE_BUDGET:
        raise CapacityError(f"sieve bound {_show_int(bound)} exceeds budget {SIEVE_BUDGET}")


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, by sieve_segment on [2, limit]."""
    import numpy as np

    if limit > 10**8:
        raise CapacityError(f"primes_upto limit {_show_int(limit)} exceeds 10^8; use segments")

    def upto(x: int) -> np.ndarray:  # nested, so a traced primes_upto records one call
        return sieve_segment(2, x + 1, upto(isqrt(x))) if x >= 2 else np.empty(0, dtype=np.int64)
    return upto(limit)


def _map_segments(fn: Callable, ranges: Sequence[tuple[int, int]], threads: int) -> list:
    """Apply fn to each (lo, hi) range, preserving range order in the result,
    on at most threads workers and no more than the CPUs this process may
    run on: a worker past them wins no time and costs memory."""
    if threads <= 1 or len(ranges) <= 1:
        return [fn(r) for r in ranges]
    from concurrent.futures import ThreadPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(threads, cpus)) as pool:
        return list(pool.map(fn, ranges))


def map_sieve(lo: int, hi: int, fn: Callable, threads: int = 1) -> list:
    """[fn(seg_lo, seg_hi, base) for each segment of [lo, hi)], in order.

    The segments cut [lo, hi), lo >= 1, at absolute multiples of
    SEGMENT_SIZE, and base holds the primes up to sqrt(hi - 1).  A range
    reaching past SIEVE_BUDGET is refused even when it is empty.
    """
    check_sieve_bound(hi - 1)
    if hi <= lo:
        return []
    base = primes_upto(isqrt(hi - 1))
    starts = range(lo - lo % SEGMENT_SIZE, hi, SEGMENT_SIZE)
    ranges = [(max(lo, s), min(hi, s + SEGMENT_SIZE)) for s in starts]
    return _map_segments(lambda r: fn(r[0], r[1], base), ranges, threads)


def _strike_blocks(size: int, ps: np.ndarray, firsts: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, marks) for b = 0, _SIEVE_BLOCK, ... below size: marks, one
    buffer refilled per block, covers the mask indices b, b + 1, ... and is
    False at each index firsts[k] + t * ps[k], t >= 0, and True elsewhere.
    firsts is updated in place.  In a sieve of size >= _SIEVE_BLOCK // 4, the
    leading strides with lcm up to that bound strike one period, copied across
    each block where every first index lies below its stride."""
    import numpy as np

    strides, period, lead = ps.tolist(), 1, 0
    while lead < len(strides) and (q := lcm(period, strides[lead])) <= _SIEVE_BLOCK // 4 <= size:
        period, lead = q, lead + 1
    buf = np.empty(min(size, _SIEVE_BLOCK), dtype=bool)
    for b in range(0, size, _SIEVE_BLOCK):
        marks, starts = buf[: size - b], firsts.tolist()
        k = lead if lead and period <= len(marks) and all(i < p for p, i in zip(strides, starts[:lead])) else 0
        (marks[:period] if k else marks).fill(True)
        for p, i in zip(strides, starts[:k]):
            marks[i:period:p] = False
        if k:  # copy the struck period across the block
            reps = len(marks) // period
            marks[period : reps * period].reshape(reps - 1, period)[:] = marks[:period]
            marks[reps * period :] = marks[: len(marks) - reps * period]
        for p, i in zip(strides[k:], starts[k:]):
            marks[i::p] = False  # a first index past the block slices empty
        firsts -= _SIEVE_BLOCK  # each p's first index at or after the next block
        np.maximum(firsts, firsts % ps, out=firsts)
        yield b, marks


def _odd_blocks(lo: int, hi: int, base_primes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (x, marks) over the odd numbers of [lo, hi), lo >= 2, one block
    of _strike_blocks at a time: marks[t] is True iff x + 2t is prime.  marks
    is the kernel's one buffer, refilled for the next block; base_primes as
    for sieve_segment."""
    import numpy as np

    o = lo | 1
    # the odd p with p * p < hi; p marks from p * m, m the least odd number
    # >= max(p, lo / p), at mask index (p * m - o) // 2
    ps = base_primes[1 : np.searchsorted(base_primes, isqrt(hi - 1), "right")]
    firsts = (ps * (np.maximum(ps, -(-lo // ps)) | 1) - o) // 2
    for b, marks in _strike_blocks(max(0, (hi - o + 1) // 2), ps, firsts):
        yield o + 2 * b, marks


def _block_primes(lo: int, hi: int, base_primes: np.ndarray) -> Iterator[np.ndarray]:
    """The primes of [lo, hi) as ascending int64 arrays, one per block of
    _odd_blocks, after [2] alone when lo == 2."""
    import numpy as np

    if lo == 2 < hi:
        yield np.array([2], dtype=np.int64)
    for x, marks in _odd_blocks(lo, hi, base_primes):
        ps = np.flatnonzero(marks).astype(np.int64, copy=False)
        ps *= 2  # in place: a new array would cost a pass over fresh memory
        ps += x
        yield ps
        del ps  # hold no block's primes while the next block is marked


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), lo >= 2, given the base primes in ascending order
    from 2 up to at least sqrt(hi-1).

    _strike_blocks marks only the odd numbers o, o + 2, ... of [lo, hi),
    o = lo | 1, where the odd multiples of p lie p entries apart, 2^20 of
    them (1 MiB) at a time; this joins the blocks' primes into one array.
    prime_count and the reciprocal sums read the blocks instead and never
    hold a segment's primes at once.
    """
    import numpy as np

    return np.concatenate([np.empty(0, dtype=np.int64), *_block_primes(lo, hi, base_primes)])


def prime_count(x: int, threads: int = 1) -> int:
    """pi(x): the number of primes <= x, by segmented sieve, counting each
    block's marks where they lie."""

    def work(lo: int, hi: int, base: np.ndarray) -> int:
        import numpy as np

        return int(lo == 2) + sum(int(np.count_nonzero(marks)) for _, marks in _odd_blocks(lo, hi, base))

    return sum(map_sieve(2, x + 1, work, threads))


def prime_powers_exp_ge2(limit: int) -> list[int]:
    """All prime powers p**e <= limit with e >= 2, ascending."""
    out = []
    for p in map(int, primes_upto(isqrt(limit))):
        pe = p * p
        while pe <= limit:
            out.append(pe)
            pe *= p
    return sorted(out)


def prime_power_count(m: int, threads: int = 1) -> int:
    """Number of prime powers p**e <= m with e >= 1: pi(m) plus the powers
    with e >= 2, which need only the primes up to sqrt(m)."""
    if m < 1:
        raise ParameterError(f"prime_power_count requires m >= 1, got {_show_int(m)}")
    return prime_count(m, threads) + len(prime_powers_exp_ge2(m))


def _exact_sums(bits: np.ndarray, starts: np.ndarray, cuts: Sequence[tuple[int, int]]) -> list[int]:
    """sum(x[a:b]) * 2**1075 as an exact int for each cut (a, b) of an array
    x of positive normal floats, given as its bits viewed as int64, which are
    overwritten, and the ascending starts of its runs of equal exponent.

    Each x = M * 2**(e - 1075), e its biased exponent and M < 2**53 its
    integer mantissa, the implicit leading bit included, so x * 2**1075 =
    M << e.  A cut sums M in int64 by one reduceat over chunks that start at
    a, at each run start and every 1024 entries, so each chunk total stays
    below 2**63 and is exact; they shift into one Python int.  Int true
    division rounds correctly, so total / 2**1075 is the correctly rounded
    sum, as fsum's is, and totals of several arrays add before that rounding.
    """
    import numpy as np

    es = bits[starts] >> 52
    bits &= (1 << 52) - 1
    bits |= 1 << 52
    sums = []
    for a, b in cuts:
        chunks = np.union1d(np.arange(a, b, 1024), starts[(a < starts) & (starts < b)])
        totals = np.add.reduceat(bits[:b], chunks).tolist()
        sums.append(sum(t << e for t, e in zip(totals, es[starts.searchsorted(chunks, "right") - 1].tolist())))
    return sums


def mertens_sum(x: int, n: int = 1, threads: int = 1) -> PrimeSumResult:
    """Sum of 1/p over primes p in (x**(1/n), x].

    Each fixed-size segment adds its blocks' reciprocals exactly as one
    integer (_exact_sums per 1 MiB block of the sieve) and rounds once, which
    equals fsum over the segment, and the segment partials are combined with
    fsum in ascending order, so the result is a deterministic bit pattern
    for fixed (x, n) regardless of thread count.  A worker holds one block's
    marks (1 MiB) and one array of its primes, never a segment's.
    """
    if x < 2:
        raise ParameterError(f"mertens_sum requires x >= 2, got {_show_int(x)}")
    if n < 1:
        raise ParameterError(f"mertens_sum requires n >= 1, got {_show_int(n)}")
    return _prime_sums([integer_nth_root(x, n)], [x], threads)[0]


def _prime_sums(lows: Sequence[int], highs: Sequence[int], threads: int = 1) -> list[PrimeSumResult]:
    """Sum of 1/p and count over the primes in each (lows[i], highs[i]], by one
    map_sieve sweep.  Each block's primes are cut at every interval's ends and
    each distinct cut's _exact_sums total is added to its intervals' integer
    totals; a segment rounds each total once, so its fsum has the bits of a
    sweep of that interval alone, whatever the block size."""

    def work(lo: int, hi: int, base: np.ndarray) -> list[tuple[float, int]]:
        totals, counts = [0] * len(lows), [0] * len(lows)
        for ps in filter(len, _block_primes(lo, hi, base)):
            cuts = list(zip(ps.searchsorted(lows, "right").tolist(), ps.searchsorted(highs, "right").tolist()))
            # the exponent of 1/p falls by one where the ascending p pass a power of two
            ks = range((int(ps[0]) - 1).bit_length(), (int(ps[-1]) - 1).bit_length())
            starts = ps.searchsorted([0, *(1 << k for k in ks)], "right")
            for s in range(0, len(ps), 1 << 13):  # in slices, so no temporary has the size of ps
                ps[s : s + (1 << 13)].view("f8")[:] = 1.0 / ps[s : s + (1 << 13)]
            part = dict(zip(distinct := list(dict.fromkeys(cuts)), _exact_sums(ps, starts, distinct)))
            for i, (a, b) in enumerate(cuts):
                totals[i] += part[a, b]
                counts[i] += b - a
            del ps  # so two blocks' primes are never held at once
        return [(t / 2**1075, c) for t, c in zip(totals, counts)]

    parts = map_sieve(min(lows) + 1, max(highs) + 1, work, threads)
    return [PrimeSumResult(fsum(p[i][0] for p in parts), sum(p[i][1] for p in parts)) for i in range(len(lows))]


def largest_prime_power_segment(
    lo: int,
    hi: int,
    base_primes: np.ndarray,
    want_prime_factor: bool = False,
) -> np.ndarray:
    """Bulk largest-prime-power extraction over [lo, hi), lo >= 1.

    Returns v where v[t] is the largest prime power dividing lo+t, or its
    largest prime factor when want_prime_factor is set.  base_primes must
    cover sqrt(hi-1).  The value for 1 is 1.

    For each prime p <= sqrt(hi-1) and each power pe = p**e < hi, every
    multiple of pe receives the candidate pe (p for prime factors) via
    a running maximum; the winning candidate for p is exactly p**v_p.
    Dividing the residue by p on each pass leaves either 1 or a single prime
    > sqrt(hi-1), which is both a maximal prime power and the largest prime
    factor.
    """
    import numpy as np

    if lo < 1 or hi <= lo:
        raise ParameterError(f"bad segment [{_show_int(lo)}, {_show_int(hi)}); need 1 <= lo < hi")
    count = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    v = np.ones(count, dtype=np.int64)
    for p in base_primes[: base_primes.searchsorted(isqrt(hi - 1), "right")].tolist():
        pe = p
        while (i := -lo % pe) < count:  # the first multiple of pe in the window, if any
            np.maximum(v[i::pe], p if want_prime_factor else pe, out=v[i::pe])
            rem[i::pe] //= p
            pe *= p
    np.maximum(v, rem, out=v)
    return v


def coprime_mask(lo: int, hi: int, n: int) -> np.ndarray:
    """Boolean mask over [lo, hi): True where gcd(value, n!) == 1.

    gcd(d, n!) == 1 holds exactly when no prime <= n divides d, so the mask
    is built from the primes up to n without forming n! residues.
    """
    import numpy as np

    mask = np.ones(hi - lo, dtype=bool)
    for p in primes_upto(max(n, 1)).tolist():
        mask[-lo % p :: p] = False
    return mask
