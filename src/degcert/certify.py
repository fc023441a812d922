"""Divisibility certificates for curve degrees on very general hypersurfaces.

For n >= 3 let f_n(d) denote the gcd of the degrees of all curves on a very
general degree-d hypersurface in projective (n+1)-space.  f_n itself is not
effectively computable, but three classical divisibility premises are known
(conditional conclusions of geometric constructions):

  KOLLAR_QN(q):          q | f_n(q**n)                    needs gcd(q, n!) = 1
  KOLLAR_BINOM(q):       q | f_n(C(n,2) * q**(n-1))       needs gcd(q, n!) = 1, q >= 4
  ABELIAN_FACTORIAL(k,q): q | f_n(k * n!)                 needs k >= 2**n + 1, q | k,
                                                          gcd(q, (n-1)!) = 1

together with the additivity rule: d | f_n(a) and d | f_n(b) imply
d | f_n(a + b).  A certificate for d coprime to n! therefore consists of one
exact decomposition

    d = i * q**n + j * q**(n-1) + k * n!

per maximal prime power q of d, with i, j, k in ranges that make each term a
sum of premise degrees.  Whenever such decompositions exist for every q, the
premises combine to q | f_n(d) for all q, hence d | f_n(d), i.e. f_n(d) = d.

The builder constructs decompositions by unique residue arithmetic; the
verifier re-checks everything from scratch using only multiplication,
addition, divisibility and primality (no shared decomposition logic), so a
buggy builder cannot validate itself.

The bulk search screens each sieve segment with float32 sums of log p over
small prime powers (the log-sieve smoothness test of the quadratic sieve),
then factors the few candidates exactly and compares them exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import factorial, gcd, isqrt, log

import numpy as np

from . import arith
from .errors import CapacityError, DecompositionError, ParameterError

SCHEMA_VERSION = 1

PREMISE_KOLLAR_QN = "KOLLAR_QN"
PREMISE_KOLLAR_BINOM = "KOLLAR_BINOM"
PREMISE_ABELIAN_FACTORIAL = "ABELIAN_FACTORIAL"


class Mode(str, Enum):
    """Certificate flavor.

    FULL uses all three premises and the qualification inequality
        (C(n,2)-1)*q**n + (n!-C(n,2))*q**(n-1) + (2**n+1)*n! <= d.
    WEAK avoids the surface-product premise (j = 0) at the cost of the
    stronger inequality
        (n!-1)*q**n + (2**n+1)*n! <= d.
    """

    FULL = "FULL"
    WEAK = "WEAK"


@dataclass(frozen=True)
class Premise:
    """One use of a divisibility premise, identified by kind and payload."""

    kind: str
    q: int
    k: int | None = None


@dataclass(frozen=True)
class PrimePowerCertificate:
    """Witness that q | f_n(d) via d = i*q**n + j*q**(n-1) + k*n!."""

    q: int
    i: int
    j: int
    k: int
    mode: Mode


@dataclass(frozen=True)
class Certificate:
    """A full witness that d | f_n(d): one entry per maximal prime power."""

    n: int
    d: int
    mode: Mode
    entries: tuple[PrimePowerCertificate, ...]
    premises: tuple[Premise, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    context: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    n: int
    d: int
    mode: Mode
    passed: bool
    checks: tuple[CheckResult, ...]

    CONDITIONAL_NOTE = (
        "conclusion is conditional on the projective-space, surface-product, "
        "and abelian-variety divisibility premises; only their arithmetic "
        "hypotheses are checked here"
    )

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def binom2(n: int) -> int:
    """C(n, 2) = n*(n-1)/2."""
    return n * (n - 1) // 2


def threshold_coefficients(n: int, mode: Mode = Mode.FULL) -> tuple[int, int, int]:
    """(a, b, c) of the qualification inequality a*q**n + b*q**(n-1) + c <= d.

    c = (2**n + 1) * n! is also the smallest degree that can qualify.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    fact = factorial(n)
    c = (2**n + 1) * fact
    if mode == Mode.FULL:
        c2 = binom2(n)
        return c2 - 1, fact - c2, c
    return fact - 1, 0, c


def threshold_coefficients_upto(n: int, bound: int, mode: Mode = Mode.FULL) -> tuple[int, int, int]:
    """threshold_coefficients(n, mode), or (1, 0, bound + 1) when bound < 2**n.

    Both inequalities fail for every d <= bound < 2**n < (2**n + 1) * n!, and
    the second needs no n!, which for a huge n would take seconds to build.
    """
    if n >= 3 and n >= bound.bit_length():
        return 1, 0, bound + 1
    return threshold_coefficients(n, mode)


def qualification_threshold(n: int, q: int, mode: Mode = Mode.FULL) -> int:
    """Right-hand side of the qualification inequality for a given q.

    Exact integer arithmetic throughout; Python integers cannot overflow,
    so thresholds near and beyond 2**63 are handled without wrapping.
    """
    a, b, c = threshold_coefficients(n, mode)
    return a * q**n + b * q ** (n - 1) + c


def _show_int(x: int) -> str:
    """x in decimal, or its bit length when Python would refuse to print it."""
    return str(x) if x.bit_length() < 10_000 else f"<{x.bit_length()}-bit integer>"


def _require_room_for_witness(n: int, d: int) -> None:
    # Every witness has d >= k*n! >= (2**n + 1)*n! > 2**n: refuse d < 2**n
    # before n! is built, which for a huge n would not finish.
    if n >= d.bit_length():
        raise DecompositionError(
            f"d = {_show_int(d)} < 2^n for n = {_show_int(n)}: every witness needs d >= (2^n + 1)*n!"
        )


def condition_holds(n: int, d: int, mode: Mode = Mode.FULL, q: int | None = None) -> bool:
    """True iff gcd(d, n!) = 1 and the mode inequality holds for the largest
    prime power q of d.

    >>> condition_holds(3, 5005)
    True
    >>> condition_holds(3, 5005, Mode.WEAK)
    False
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if n >= d.bit_length():  # d < 2**n < (2**n + 1)*n!, the least degree that can qualify
        return False
    if gcd(d, factorial(n)) != 1:
        return False
    if q is None:
        q = arith.largest_prime_power(d)
    return qualification_threshold(n, q, mode) <= d


def decompose(n: int, d: int, q: int, mode: Mode = Mode.FULL) -> PrimePowerCertificate:
    """Decompose d as i*q**n + j*q**(n-1) + k*n! with certified coefficients.

    q must be a prime power dividing d with gcd(q, n!) = 1 (the builder only
    passes maximal prime powers; smaller ones are accepted when the caller
    knows the inequality holds for them).  i is the unique residue of
    d * q**(-n) in [0, C(n,2)) modulo C(n,2), j the unique completion modulo
    n! (automatically divisible by C(n,2)), and k the exact remainder; in
    WEAK mode i is the unique residue modulo n! and j = 0.  Raises
    DecompositionError naming the failing constraint if no valid witness
    exists, which for divisors q of d happens exactly when k falls below
    2**n + 1.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    _require_room_for_witness(n, d)
    root = arith.prime_power_root(q)
    if root is None:
        raise DecompositionError(f"q = {q} is not a prime power")
    if d % q != 0:
        raise DecompositionError(f"q = {q} does not divide d = {d}")
    fact = factorial(n)
    if gcd(q, fact) != 1:
        raise DecompositionError(f"gcd(q, n!) != 1 for q = {q}, n = {n}")

    qn = q**n
    qn1 = q ** (n - 1)
    if mode == Mode.FULL:
        c2 = binom2(n)
        i = d * pow(qn % c2, -1, c2) % c2
        j = (d - i * qn) * pow(qn1 % fact, -1, fact) % fact
        if j % c2 != 0:
            raise DecompositionError(f"binom(n,2) does not divide j = {j}")
    else:
        i = d * pow(qn % fact, -1, fact) % fact
        j = 0
    num = d - i * qn - j * qn1
    if num % fact != 0:
        raise DecompositionError(f"n! does not divide d - i*q^n - j*q^(n-1) = {num}")
    k = num // fact
    k_min = 2**n + 1
    if k < k_min:
        raise DecompositionError(
            f"k = {k} < 2^n + 1 = {k_min} for q = {q} "
            f"(d too small; qualification inequality not satisfied)"
        )
    if k % q != 0:
        raise DecompositionError(f"q = {q} does not divide k = {k}")
    return PrimePowerCertificate(q=q, i=i, j=j, k=k, mode=mode)


def build_certificate(n: int, d: int, mode: Mode = Mode.FULL) -> Certificate:
    """Build the certificate for a qualifying degree d.

    Entries are produced in ascending order of the underlying prime.  The
    qualification inequality is checked for the largest prime power; smaller
    maximal prime powers satisfy it a fortiori, since the threshold is
    monotone in q.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if d < 2:
        raise DecompositionError(f"d = {d} has no prime power divisors")
    _require_room_for_witness(n, d)
    fact = factorial(n)
    if gcd(d, fact) != 1:
        raise DecompositionError(
            f"gcd(d, n!) != 1: gcd({_show_int(d)}, {_show_int(fact)}) = {_show_int(gcd(d, fact))}"
        )
    fi = arith.factorize(d)
    q_max = fi.largest_prime_power
    thr = qualification_threshold(n, q_max, mode)
    if thr > d:
        raise DecompositionError(
            f"qualification inequality fails for q = {q_max}: threshold {thr} > d = {d}"
        )
    entries = []
    premises = []
    for p, e in fi.factors:
        q = p**e
        entry = decompose(n, d, q, mode)
        entries.append(entry)
        if entry.i > 0:
            premises.append(Premise(kind=PREMISE_KOLLAR_QN, q=q))
        if entry.j > 0:
            premises.append(Premise(kind=PREMISE_KOLLAR_BINOM, q=q))
        premises.append(Premise(kind=PREMISE_ABELIAN_FACTORIAL, q=q, k=entry.k))
    return Certificate(
        n=n, d=d, mode=mode, entries=tuple(entries), premises=tuple(premises)
    )


def _show_premises(premises: set[tuple]) -> str:
    # a file may pair one (kind, q) with and without k; None sorts first
    ordered = sorted(premises, key=lambda p: (p[0], p[1], p[2] is not None, p[2] or 0))
    shown = (f"({kind!r}, {_show_int(q)}, {k if k is None else _show_int(k)})" for kind, q, k in ordered)
    return f"[{', '.join(shown)}]"


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Re-check a certificate from scratch.

    Independent of the builder: uses only multiplication, addition,
    divisibility and primality.  In particular the "entries cover exactly
    the maximal prime powers of d" condition is verified without factoring
    d, via per-entry maximality (q | d, q*p not | d) plus distinct primes
    plus product-of-entries == d.  Never raises; failures are reported.
    """
    checks: list[CheckResult] = []

    def add(name: str, context: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, context, bool(passed), detail))

    n, d, mode = cert.n, cert.d, cert.mode
    add("n_ge_3", "", n >= 3, f"n = {_show_int(n)}")
    add("d_positive", "", d >= 1, f"d = {_show_int(d)}")
    if n < 3 or d < 1:
        return VerificationReport(n=n, d=d, mode=mode, passed=False, checks=tuple(checks))
    if n - 1 > d.bit_length():  # an entry needs d >= k*n! >= 2**(n-1); n! is never built
        add("nfact_le_d", "", False, f"n! >= 2^(n-1) > d for n = {_show_int(n)}")
        return VerificationReport(n=n, d=d, mode=mode, passed=False, checks=tuple(checks))

    fact = factorial(n)
    fact1 = factorial(n - 1)
    c2 = binom2(n)
    k_min = 2**n + 1
    g = gcd(d, fact)
    add("gcd_d_nfact", "", g == 1, f"gcd(d, n!) = {_show_int(g)}")
    shown_d = _show_int(d)

    primes_seen: list[int] = []
    q_product = 1
    for entry in cert.entries:
        q, i, j, k = entry.q, entry.i, entry.j, entry.k
        shown_q, shown_k = _show_int(q), f"k = {_show_int(k)}"
        ctx = f"q={shown_q}"
        root = arith.prime_power_root(q)
        add("q_prime_power", ctx, root is not None, f"q = {shown_q}")
        if root is None:
            continue
        p = root[0]
        primes_seen.append(p)
        q_product *= q
        maximal = d % q == 0 and d % (q * p) != 0
        add("q_maximal_divisor", ctx, maximal, f"q = {shown_q}, p = {_show_int(p)}, d = {shown_d}")
        if mode == Mode.FULL:
            add("i_range", ctx, 0 <= i <= c2 - 1, f"i = {_show_int(i)}, range [0, {c2 - 1}]")
            j_ok = 0 <= j <= fact - c2 and j % c2 == 0
            add("j_range", ctx, j_ok, f"j = {_show_int(j)}, binom(n,2) = {c2}")
        else:
            add("i_range", ctx, 0 <= i <= fact - 1, f"i = {_show_int(i)}, range [0, {_show_int(fact - 1)}]")
            add("j_range", ctx, j == 0, f"j = {_show_int(j)}, must be 0 in WEAK mode")
        low = f" < 2^n + 1 = {_show_int(k_min)}" if k < k_min else ""
        add("k_lower_bound", ctx, k >= k_min, shown_k + low)
        add("q_divides_k", ctx, k >= 0 and k % q == 0, shown_k)
        # Additivity rule: the premise degrees must sum to d exactly.
        total = i * q**n + j * q ** (n - 1) + k * fact
        add("sum_identity", ctx, total == d, f"i*q^n + j*q^(n-1) + k*n! = {_show_int(total)}, d = {shown_d}")
        add("premise_gcd_q_nfact", ctx, gcd(q, fact) == 1, f"gcd(q, n!) = {_show_int(gcd(q, fact))}")
        if j > 0:
            # implied by gcd(q, n!) = 1 and n >= 3, checked explicitly anyway
            add("premise_q_ge_4", ctx, q >= 4, f"q = {shown_q}")
        add("premise_gcd_q_n1fact", ctx, gcd(q, fact1) == 1, f"gcd(q, (n-1)!) = {_show_int(gcd(q, fact1))}")

    add(
        "entry_primes_distinct",
        "",
        len(primes_seen) == len(set(primes_seen)),
        f"primes = [{', '.join(map(_show_int, primes_seen))}]",
    )
    add(
        "entries_cover_d",
        "",
        q_product == d and len(cert.entries) > 0,
        f"product of entry prime powers = {_show_int(q_product)}, d = {shown_d}",
    )

    required: set[tuple] = set()
    for entry in cert.entries:
        if entry.i > 0:
            required.add((PREMISE_KOLLAR_QN, entry.q, None))
        if entry.j > 0:
            required.add((PREMISE_KOLLAR_BINOM, entry.q, None))
        required.add((PREMISE_ABELIAN_FACTORIAL, entry.q, entry.k))
    present = {(p.kind, p.q, p.k) for p in cert.premises}
    add(
        "premise_ledger",
        "",
        required == present,
        f"required {_show_premises(required)} vs present {_show_premises(present)}",
    )

    passed = all(c.passed for c in checks)
    return VerificationReport(n=n, d=d, mode=mode, passed=passed, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Bulk search for qualifying degrees.
# ---------------------------------------------------------------------------


def threshold_le(
    v: np.ndarray, d: np.ndarray, n: int, a: int, b: int, c: int, m: int
) -> np.ndarray:
    """Exact elementwise a*v**n + b*v**(n-1) + c <= m*d for int64 arrays
    v, d >= 1 and integers a, b, c, m >= 0.

    Evaluated in int64 when the array maxima prove that no term can wrap,
    otherwise on object arrays of Python integers.
    """
    if len(v) == 0:
        return np.zeros(0, dtype=bool)
    vmax, dmax = int(v.max()), int(d.max())
    if a * vmax**n + b * vmax ** (n - 1) + c >= 2**62 or m * dmax >= 2**62:
        v, d = v.astype(object), d.astype(object)
    return np.asarray(a * v**n + b * v ** (n - 1) + c <= m * d, dtype=bool)


def qualifying_segment(
    lo: int,
    hi: int,
    base: np.ndarray,
    n: int,
    a: int,
    b: int,
    c: int,
    m: int = 1,
    prime_factor: bool = False,
) -> np.ndarray:
    """The d in [lo, hi), lo >= 1, with gcd(d, n!) = 1 and
    a*v**n + b*v**(n-1) + c <= m*d, where v is the largest prime power of d
    (its largest prime factor when prime_factor is set); ascending int64.

    base must hold the primes up to sqrt(hi - 1).  a >= 1, so every hit has
    v <= v_ub = ((m*(hi-1) - c) // a)**(1/n).  For v_ub <= sqrt(hi - 1) a
    log-sum screen keeps the d that are nearly v_ub-smooth for an exact
    recheck; otherwise, or when candidates are dense, every d is factored.
    """
    if lo < 1 or hi <= lo:
        raise ParameterError(f"bad segment [{lo}, {hi}); need 1 <= lo < hi")
    top = hi - 1
    if m * top - c < a:
        return np.empty(0, dtype=np.int64)
    # v <= d <= top, so the bound can be capped to stay within int64
    v_ub = min(arith.integer_nth_root((m * top - c) // a, n), top)
    count, offs = hi - lo, None
    if v_ub <= isqrt(top):
        primes = [int(p) for p in base[(base > n) & (base <= v_ub)]]  # no hit has p <= n
        # Screen: the powers p**e <= v_ub (<= top for prime factors) of a hit
        # sum to log d.  d < 2**34 takes at most 34 float32 adds, within 1e-4;
        # the slack 0.25 covers that.
        block = 1 << 12  # blocks: no full-length float64 temporaries
        acc = np.zeros(-(-count // block) * block, dtype=np.float32)
        pe_max = top if prime_factor else v_ub
        for p in primes:
            logp = np.float32(log(p))
            pe = p
            while pe <= pe_max:
                acc[-lo % pe :: pe] += logp
                pe *= p
        # a block's start is <= each of its d, which only admits more candidates
        floor = np.log(np.arange(lo, lo + len(acc), block, dtype=np.float64)) - 0.25
        mask = (acc.reshape(-1, block) >= floor.astype(np.float32)[:, None]).ravel()[:count]
        mask &= arith.coprime_mask(lo, hi, n)
        offs = np.flatnonzero(mask)
    if offs is None or len(offs) > count // 10:
        # Above sqrt(top) a screen could ask only for a sqrt-smooth part of
        # d / v_ub, which most d have; and once a tenth of the segment is
        # candidates, factoring all of it by strided division is as fast.
        q, lpf = arith.largest_prime_power_segment(lo, hi, base, want_prime_factor=prime_factor)
        v = lpf if prime_factor else q
        offs = np.flatnonzero(arith.coprime_mask(lo, hi, n) & (v <= v_ub))
        v = v[offs]
    else:
        # Exact recheck.  Dividing out the primes <= v_ub leaves 1, or a
        # cofactor above v_ub, as the true v then is.  Multiples of p come
        # from a pass over the candidates or, when that reads more, by stride
        # through the mask.
        rem = offs + lo
        v = np.ones_like(rem)
        for p in primes:
            if len(offs) <= count // p:
                at = np.flatnonzero(rem % p == 0)
            else:
                first = -lo % p
                at = np.searchsorted(offs, np.flatnonzero(mask[first::p]) * p + first)
            pe = p
            while len(at):
                rem[at] //= p
                v[at] = np.maximum(v[at], p if prime_factor else pe)
                at = at[rem[at] % p == 0]
                pe *= p
        np.maximum(v, rem, out=v)
        keep = v <= v_ub
        offs, v = offs[keep], v[keep]
    ds = offs + lo
    return ds[threshold_le(v, ds, n, a, b, c, m)]


def scan_qualifying(
    n: int, lo: int, hi: int, mode: Mode = Mode.FULL, threads: int = 1
) -> list[np.ndarray]:
    """Per-segment arrays of qualifying degrees in [lo, hi), ascending."""
    a, b, c = threshold_coefficients_upto(n, hi - 1, mode)
    return arith.map_sieve(
        max(lo, 1), hi, lambda s, e, base: qualifying_segment(s, e, base, n, a, b, c), threads
    )


def enumerate_qualifying(
    n: int, d_max: int, mode: Mode = Mode.FULL, threads: int = 1
) -> list[int]:
    """All qualifying degrees d <= d_max, ascending.

    Nothing below (2**n + 1) * n! can qualify, so scanning starts there.
    """
    start = threshold_coefficients_upto(n, d_max, mode)[2]
    if d_max < start:
        return []
    parts = scan_qualifying(n, start, d_max + 1, mode, threads)
    out: list[int] = []
    for arr in parts:
        out.extend(int(v) for v in arr)
    return out


def smallest_qualifying(
    n: int,
    mode: Mode = Mode.FULL,
    threads: int = 1,
    budget: int | None = None,
) -> int:
    """Minimal qualifying degree for (n, mode), by windowed ascending sieve.

    The search begins at the forced lower bound (2**n + 1) * n! and doubles
    its window, up to one segment per thread, until a hit; a CapacityError
    reports the searched bound when the budget is exhausted (the answer
    grows rapidly with n).
    """
    cap = budget if budget is not None else arith.SIEVE_BUDGET
    lo = threshold_coefficients_upto(n, cap, mode)[2]
    widest = threads * arith.SEGMENT_SIZE
    width = min(max(1 << 16, lo), widest)
    while lo <= cap:
        hi = min(lo + width, cap + 1)
        for arr in scan_qualifying(n, lo, hi, mode, threads):
            if len(arr):
                return int(arr[0])
        lo = hi
        width = min(2 * width, widest)
    raise CapacityError(
        f"no qualifying degree found for n = {n}, mode = {mode.value} up to budget {cap}"
    )


# ---------------------------------------------------------------------------
# The rational-coefficients example: d = q**3 + 6k checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalExampleCheck:
    """Per-q arithmetic for the degree-d example defined over the rationals.

    near_miss_k marks k in [9, 37]: above the generic abelian bound
    2**3 + 1 = 9 but below the 38 this checker enforces; it never affects
    passed.
    """

    q: int
    q_is_prime: bool
    q_mod_6_is_1: bool
    cube_not_above_d: bool
    difference_divisible_by_6: bool
    k: int | None
    q_divides_k: bool
    k_ge_38: bool
    near_miss_k: bool
    passed: bool


@dataclass(frozen=True)
class RationalExampleReport:
    d: int
    checks: tuple[RationalExampleCheck, ...]
    covers_prime_divisors: bool
    passed: bool


def verify_rational_example(d: int, qs: list[int]) -> RationalExampleReport:
    """Check the d = q**3 + 6k arithmetic for each q, and that qs are exactly
    the prime divisors of d.

    Per q the conditions are: q prime, q = 1 (mod 6), q**3 <= d,
    6 | d - q**3, q | k and k >= 38 where k = (d - q**3) / 6.
    """
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    out = []
    for q in qs:
        prime_ok = arith.is_prime(q)
        residue_ok = q % 6 == 1
        diff = d - q**3
        nonneg = diff >= 0
        sixfold = nonneg and diff % 6 == 0
        k = diff // 6 if sixfold else None
        q_div_k = k is not None and k % q == 0
        k_ok = k is not None and k >= 38
        near_miss = k is not None and 9 <= k <= 37
        out.append(
            RationalExampleCheck(
                q=q,
                q_is_prime=prime_ok,
                q_mod_6_is_1=residue_ok,
                cube_not_above_d=nonneg,
                difference_divisible_by_6=sixfold,
                k=k,
                q_divides_k=q_div_k,
                k_ge_38=k_ok,
                near_miss_k=near_miss,
                passed=prime_ok and residue_ok and nonneg and sixfold and q_div_k and k_ok,
            )
        )
    prime_divisors = {p for p, _ in arith.factorize(d).factors}
    covers = set(qs) == prime_divisors
    passed = covers and all(c.passed for c in out)
    return RationalExampleReport(
        d=d, checks=tuple(out), covers_prime_divisors=covers, passed=passed
    )


# ---------------------------------------------------------------------------
# Serialization: canonical key-ordered JSON, decimal integers, byte-stable.
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate",
        "n": cert.n,
        "d": cert.d,
        "mode": cert.mode.value,
        "entries": [
            {"q": e.q, "i": e.i, "j": e.j, "k": e.k} for e in cert.entries
        ],
        "premises": [
            {"kind": p.kind, "q": p.q} if p.k is None else {"kind": p.kind, "q": p.q, "k": p.k}
            for p in cert.premises
        ],
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":")) + "\n"


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def _require_objects(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise ParameterError(f"{what} must be a list of JSON objects")
    return value


def certificate_from_dict(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise ParameterError("certificate payload must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema_version {data.get('schema_version')!r}")
    if data.get("kind") != "certificate":
        raise ParameterError(f"not a certificate payload: kind = {data.get('kind')!r}")
    try:
        mode = Mode(data["mode"])
    except (KeyError, ValueError):
        raise ParameterError(f"bad mode {data.get('mode')!r}") from None
    n = _require_int(data.get("n"), "n")
    d = _require_int(data.get("d"), "d")
    entries = tuple(
        PrimePowerCertificate(
            q=_require_int(e.get("q"), "entry q"),
            i=_require_int(e.get("i"), "entry i"),
            j=_require_int(e.get("j"), "entry j"),
            k=_require_int(e.get("k"), "entry k"),
            mode=mode,
        )
        for e in _require_objects(data.get("entries", []), "entries")
    )
    premises = tuple(
        Premise(
            kind=str(p.get("kind")),
            q=_require_int(p.get("q"), "premise q"),
            k=_require_int(p["k"], "premise k") if "k" in p else None,
        )
        for p in _require_objects(data.get("premises", []), "premises")
    )
    return Certificate(n=n, d=d, mode=mode, entries=entries, premises=premises)


def certificate_from_json(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
        raise ParameterError(f"invalid certificate JSON: {exc}") from None
    return certificate_from_dict(data)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification_report",
        "n": report.n,
        "d": report.d,
        "mode": report.mode.value,
        "passed": report.passed,
        "conditional_note": VerificationReport.CONDITIONAL_NOTE,
        "checks": [
            {"name": c.name, "context": c.context, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
