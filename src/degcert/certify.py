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

The walk, the density counts, the least-degree search and the builder read
the qualification inequality a*q**n + b*q**(n-1) + c <= d as one value,
_Inequality.  Every prime power of a qualifying d <= N is at most cap =
ineq.top(N).  The enumeration therefore walks depth first over
the products of such prime powers (the classical recursion over the largest
prime that counts smooth numbers, one batch of numpy bisections per bounded
chunk) and yields the last prime of each degree in bulk, as a run of the
prime list, in batches; no integer that cannot qualify is visited.  Every
density count of the density module runs the same walk: the lambda
predicates den * v**n <= num * d are an _Inequality with coefficients (den,
0, 0) and scale num.  scan_qualifying lists the degrees of each yielded
batch in a window, so its cost is set by the window's upper end, not by its
width.  The minimum search walks nothing: d = v*t with v its largest prime
power qualifies iff t >= ceil(thr(v) / v), so a branch and bound over t for
each v, in Python integers, finds the least degree.
"""

from __future__ import annotations

import json
from enum import Enum
from math import comb, factorial, gcd, isqrt
from typing import Iterator, NamedTuple

from . import arith
from .arith import _show_int
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


class Premise(NamedTuple):
    """One use of a divisibility premise, identified by kind and payload."""

    kind: str
    q: int
    k: int | None = None


class PrimePowerCertificate(NamedTuple):
    """Witness that q | f_n(d) via d = i*q**n + j*q**(n-1) + k*n!."""

    q: int
    i: int
    j: int
    k: int


class Certificate(NamedTuple):
    """A full witness that d | f_n(d): one entry per maximal prime power."""

    n: int
    d: int
    mode: Mode
    entries: tuple[PrimePowerCertificate, ...]
    premises: tuple[Premise, ...]


class CheckResult(NamedTuple):
    name: str
    context: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
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


def threshold_coefficients(n: int, mode: Mode = Mode.FULL) -> tuple[int, int, int]:
    """(a, b, c) of the qualification inequality a*q**n + b*q**(n-1) + c <= d.

    c = (2**n + 1) * n! is also the smallest degree that can qualify.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {_show_int(n)}")
    fact = factorial(n)
    c = (2**n + 1) * fact
    if mode == Mode.FULL:
        c2 = comb(n, 2)
        return c2 - 1, fact - c2, c
    return fact - 1, 0, c


class _Inequality(NamedTuple):
    """The qualification inequality thr(v) = a*v**n + b*v**(n-1) + c <= scale*d
    on v, the largest prime power of d (its largest prime under prime_factor),
    with a >= 1 and b, c >= 0; den * v**n <= num * d is (den, 0, 0), scale num."""

    n: int
    a: int
    b: int
    c: int
    scale: int = 1
    prime_factor: bool = False

    def thr(self, v: int) -> int:
        """a*v**n + b*v**(n-1) + c in exact Python integers, which cannot wrap."""
        return self.a * v**self.n + self.b * v ** (self.n - 1) + self.c

    def top(self, x: int) -> int:
        """The largest v in [0, x] with a*v**n + c <= scale*x (0 when none,
        x when x < 0): no v above it has thr(v) <= scale*x."""
        return min(arith.integer_nth_root(max(self.scale * x - self.c, 0) // self.a, self.n), x)

    def ceil(self, q: np.ndarray, top: int, per: np.ndarray | None = None) -> np.ndarray:
        """min(ceil(thr(q) / (scale * per)), top) as int64 for the ascending
        int64 array q >= 1 with thr(q) >= 1, and per = 1 or an int64 array
        >= 1 of q's length (per = q: the walk's H(q) and the least cofactors
        t of ihc_fraction's marks q*t).

        Evaluated in place in int64 when thr(q[-1]) and scale prove that no
        term can wrap, otherwise on object arrays of Python integers.  It
        divides by scale, then by per: ceil(ceil(t / s) / p) = ceil(t / (s*p)).
        The clamp at top comes last and keeps an ascending quotient ascending.
        """
        import numpy as np

        n, a, b, c, scale, _ = self
        if len(q) == 0:  # no q[-1], and int64 q**n overflows for n = 10**4000 even when empty
            return np.empty(0, dtype=np.int64)
        if self.thr(int(q[-1])) >= 2**63 or scale >= 2**63:
            q = q.astype(object)
        t = q**n
        t *= a
        if b:
            t += b * q ** (n - 1)
        t += c
        for den in (scale,) if per is None else (scale, per):
            np.negative(t, out=t)
            t //= den
            np.negative(t, out=t)
        np.minimum(t, top, out=t)
        return t.astype(np.int64, copy=False)


def _inequality(n: int, bound: int, mode: Mode = Mode.FULL) -> _Inequality:
    """The inequality of (n, mode), or coefficients (1, 0, bound + 1) when bound
    < 2**n: both fail for every d <= bound < 2**n < (2**n + 1) * n!, and the
    second needs no n!, which for a huge n would take seconds to build."""
    if n >= 3 and n >= bound.bit_length():
        return _Inequality(n, 1, 0, bound + 1)
    return _Inequality(n, *threshold_coefficients(n, mode))


def condition_holds(n: int, d: int, mode: Mode = Mode.FULL) -> bool:
    """True iff build_certificate(n, d, mode) succeeds: gcd(d, n!) = 1, the
    mode inequality holds for the largest prime power q of d, and no prime of
    d exceeds arith.PSI13.  A d that no round within arith.BRENT_MAX_R
    factors raises CapacityError, not False.

    >>> condition_holds(3, 5005)
    True
    >>> condition_holds(3, 5005, Mode.WEAK)
    False
    """
    try:
        build_certificate(n, d, mode)
    except DecompositionError:
        return False
    return True


def _witness(n: int, d: int, q: int, fact: int, mode: Mode) -> PrimePowerCertificate:
    """The witness for a prime power q | d with gcd(q, fact) = 1, fact = n!.

    i is the unique residue of d * q**(-n) modulo C(n,2), j the unique
    completion modulo n! (automatically divisible by C(n,2)), and k the exact
    quotient by n! of the remainder, a multiple of q as q | d and gcd(q, n!) = 1;
    in WEAK mode i is the residue modulo n! and j = 0.  No witness exists
    exactly when k < 2**n + 1; then this raises DecompositionError, although
    build_certificate's inequality gate never lets such a q through.
    """
    qn = q**n
    qn1 = q ** (n - 1)
    if mode == Mode.FULL:
        c2 = comb(n, 2)
        i = d * pow(qn % c2, -1, c2) % c2
        j = (d - i * qn) * pow(qn1 % fact, -1, fact) % fact
    else:
        i = d * pow(qn % fact, -1, fact) % fact
        j = 0
    k = (d - i * qn - j * qn1) // fact
    k_min = 2**n + 1
    if k < k_min:
        raise DecompositionError(
            f"k = {k} < 2^n + 1 = {k_min} for q = {q} "
            f"(d too small; qualification inequality not satisfied)"
        )
    return PrimePowerCertificate(q=q, i=i, j=j, k=k)


def build_certificate(n: int, d: int, mode: Mode = Mode.FULL) -> Certificate:
    """Build the certificate for a qualifying degree d.

    Entries are produced in ascending order of the underlying prime.  The
    qualification inequality is checked for the largest prime power; smaller
    maximal prime powers satisfy it a fortiori, since the threshold is
    monotone in q.  A prime factor above arith.PSI13, where primality is not
    proved, is a DecompositionError, as the verifier would refuse its entry.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {_show_int(n)}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {_show_int(d)}")
    # Every witness has d >= k*n! >= (2**n + 1)*n! > 2**n: refuse d < 2**n
    # before n! is built, which for a huge n would not finish.
    if n >= d.bit_length():
        raise DecompositionError(
            f"d = {_show_int(d)} < 2^n for n = {_show_int(n)}: every witness needs d >= (2^n + 1)*n!"
        )
    fact = factorial(n)
    if gcd(d, fact) != 1:
        raise DecompositionError(
            f"gcd(d, n!) != 1: gcd({_show_int(d)}, {_show_int(fact)}) = {_show_int(gcd(d, fact))}"
        )
    fi = arith.factorize(d)
    q_max = fi.largest_prime_power
    # thr > q**n >= 2**e > d: a threshold beyond _show_int's decimals is not built
    e = n * (q_max.bit_length() - 1)
    thr = None if e >= max(d.bit_length(), 10_000) else _inequality(n, d, mode).thr(q_max)
    if thr is None or thr > d:
        shown = f"> 2^{e}" if thr is None else _show_int(thr)
        raise DecompositionError(
            f"qualification inequality fails for q = {_show_int(q_max)}: threshold {shown} > d = {_show_int(d)}"
        )
    p_max = fi.factors[-1][0]
    if p_max > arith.PSI13:
        raise DecompositionError(
            f"prime factor {_show_int(p_max)} exceeds psi13 = {arith.PSI13}, above which primality is not proved"
        )
    entries = []
    premises = []
    for p, e in fi.factors:
        q = p**e
        entry = _witness(n, d, q, fact, mode)
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
    divisibility and primality, which is proved up to arith.PSI13 only, so
    an entry whose prime exceeds it fails q_prime_power.  In particular the
    "entries cover exactly the maximal prime powers of d" condition is
    verified without factoring d, via per-entry maximality (q | d, q*p not |
    d) plus distinct primes plus product-of-entries == d.  Never raises;
    failures are reported.
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
    c2 = comb(n, 2)
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
        root = arith.power_root(q)  # prime_power_root's test, keeping the root to name psi13
        detail = f"q = {shown_q}"
        if root is not None and root[0] > arith.PSI13:
            detail += f": its root exceeds psi13 = {arith.PSI13}, above which primality is not proved"
        proved = root is not None and root[0] <= arith.PSI13 and arith.is_prime(root[0])
        add("q_prime_power", ctx, proved, detail)
        if not proved:
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
        # Additivity rule: the premise degrees must sum to d exactly.  As
        # i*q^n + j*q^(n-1) = q^(n-1)*s, s = i*q + j, a q^(n-1) >= 2^e beyond
        # |d - k*n!| and _show_int's decimals refutes it without the power.
        s, e = i * q + j, (n - 1) * (q.bit_length() - 1)
        if s != 0 and e >= max((d - k * fact).bit_length(), 10_000):
            add("sum_identity", ctx, False, f"|i*q^n + j*q^(n-1)| >= q^(n-1) >= 2^{e} > |d - k*n!|, d = {shown_d}")
        else:
            total = (q ** (n - 1) * s if s else 0) + k * fact
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


def _spans(lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The ranges [lo[r], lo[r] + width[r]) one after another, as one array."""
    import numpy as np

    out = np.arange(width.sum())
    out -= (width.cumsum() - width - lo).repeat(width)
    return out


# The most a chunk of the walk holds: the sum over its nodes of 1 + the
# number of primes p that a child m*p may take.  2**13 walked 1e10 slower;
# 2**16 to 2**18 walked 1e11 no faster and held up to 6 times as much.
_CHUNK = 2**15


def _walk(ineq: _Inequality, N: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (P, m, i, j), batches of runs of primes that together describe
    the d in [2, N] with gcd(d, n!) = 1 that satisfy the inequality ineq,
    thr(v) <= scale*d.

    P is the int64 array of the primes in (n, cap], cap = ineq.top(N) (no
    batch when cap <= n), which bounds every prime power (every prime, under
    prime_factor) of such a d.  m, i, j are int64 arrays of one length: each
    such d is exactly one m[r] * P[k] with i[r] <= k < j[r], over all batches,
    where P[k] is the largest prime of d.  The nodes m = products of prime
    powers, primes ascending, wait on a stack in chunks of at most _CHUNK (a
    node whose children alone pass it is a chunk of its own).  Each step pops
    the top chunk, finds its runs and children with one batch of numpy
    bisections and pushes the children's chunks, so the walk goes depth
    first and its stack stays bounded.  The runs wait until they number
    _CHUNK // 4, or the walk ends, and then leave as one yielded batch: a
    walk of a few small steps yields one batch, and a large step holds at
    most that many waiting runs beside its own arrays.  A node (m, u, s) has
    every prime of m below P[s] and carries u, the largest U[e-1][k] over its
    factors P[k]**e, where row e of U is
    min(ceil(thr(P[k]**e) / scale), N + 1) for P[k]**e <= cap, or U[0][k]
    for P[k]**e <= N under prime_factor.  The last prime p with exponent 1
    is taken in bulk: m*p qualifies iff u <= m*p, m*p <= N and m >= H(p) =
    min(ceil(thr(p) / (scale*p)), N + 1).  H ascends over P, so the
    qualifying p form one run of P, the intersection of intervals found
    by three bisections, the first at ceil(u / m): thr(p)/p = a*p**(n-1) +
    b*p**(n-2) + c/p is convex, and for the certificate coefficients it
    rises from p = n + 1 on, where its slope is positive (b >= 0 and
    (n-1)*a*(n+1)**n > c for every n >= 3); for the lambda predicates (b = c
    = 0) it is a*p**(n-1), which ascends for n >= 2 and is constant for n =
    1.  The clamps at N + 1 change no test, as m*p <= N, and bound every
    value by N + 1 whatever the coefficients and scale are.  A node's
    children m*p**e have p*p <= N // m and k < len(U[e-1]); a last factor
    p**e with e >= 2 is tested singly against u, and a child is a node while
    P[k+1] <= N // (m*p**e).  A product m*p is formed only once m <= N // p
    shows it is at most N, so with N + 1 < 2**63 int64 is exact.  d = 1,
    whose v is 1, is in no run.  An N beyond SIEVE_BUDGET is a CapacityError,
    then a cap beyond 10**8, raised by the first next().
    """
    import numpy as np

    n, prime_factor = ineq.n, ineq.prime_factor
    arith.check_sieve_bound(N)
    cap = ineq.top(N)
    if cap <= n:
        return
    if cap > 10**8:
        raise CapacityError(f"walk prime bound {cap} exceeds 10^8")
    assert N + 1 < 2**63
    primes = arith.primes_upto(cap)
    P = primes[primes.searchsorted(n, side="right") :]
    H = ineq.ceil(P, N + 1, per=P)
    # children have p*p <= N; a child m*p**e of P[k] is a node iff
    # m*p**e <= Mmax[k] = N // P[k+1] (0 past the end)
    K = int(P.searchsorted(isqrt(N), side="right"))
    small = P[:K]
    Mmax = N // np.append(P[1 : K + 1], N + 1)
    P2 = small * small
    # the rows of U end with an empty one
    U = [ineq.ceil(small, N + 1)]
    while len(U[-1]):
        e = len(U) + 1
        w = small.searchsorted(arith.integer_nth_root(N if prime_factor else cap, e), side="right")
        U.append(U[0][:w] if prime_factor else ineq.ceil(small[:w] ** e, N + 1))

    def step(chunk):
        """The chunk's runs, and its children's chunks, the first last."""
        M, Uu, S, lim, width = chunk
        i = np.maximum(S, P.searchsorted(-(-Uu // M)))
        j = np.minimum(P.searchsorted(lim, side="right"), H.searchsorted(M, side="right"))
        hit = i < j
        runs = [(M[hit], i[hit], j[hit])]  # rows m, i, j
        parent = np.arange(len(M)).repeat(width)
        k = _spans(S, width)
        p = small[k]
        m, u = M[parent] * p, Uu[parent]
        nodes, e = [], 0
        while len(k):  # the children m*p**e of the chunk, e = 1, 2, ...
            e += 1
            u = np.maximum(u, U[e - 1][k])
            if e > 1:
                leaf = u <= m  # the run (m*p**(e-1), k, k+1)
                runs.append((m[leaf] // p[leaf], k[leaf], k[leaf] + 1))
            down = m <= Mmax[k]
            nodes.append((m[down], u[down], k[down] + 1))
            alive = (m <= N // p) & (k < len(U[e]))
            k, p, m, u = k[alive], p[alive], m[alive], u[alive]
            m *= p
        if not nodes:
            return runs, []
        M, Uu, S = (np.concatenate(col) for col in zip(*nodes))
        lim = N // M
        width = np.maximum(P2.searchsorted(lim, side="right") - S, 0)
        if len(M) + int(width.sum()) <= _CHUNK:  # the loop below makes this chunk too, but slower
            return runs, [(M, Uu, S, lim, width)]
        ends = np.append(0, (width + 1).cumsum())
        chunks, r = [], 0
        while r < len(M):  # the longest chunk from r that holds at most _CHUNK, or one node
            t = max(int(ends.searchsorted(ends[r] + _CHUNK, side="right")) - 1, r + 1)
            chunks.append((M[r:t], Uu[r:t], S[r:t], lim[r:t], width[r:t]))
            r = t
        return runs, chunks[::-1]

    one, zero = np.ones(1, np.int64), np.zeros(1, np.int64)
    stack = [(one, zero, zero, np.full(1, N), np.full(1, K))]
    found, held = [], 0  # the runs (m, i, j) not yet yielded, and their number
    while stack:
        runs, children = step(stack.pop())
        stack += children
        found += runs
        held += sum(len(m) for m, _, _ in runs)
        if held >= _CHUNK // 4 or not stack:  # a batch per step made small walks slower
            yield P, *(np.concatenate(col) for col in zip(*found))
            found, held = [], 0


def enumerate_qualifying(
    n: int, d_max: int, mode: Mode = Mode.FULL, threads: int = 1
) -> list[int]:
    """All qualifying degrees d <= d_max, ascending: scan_qualifying's window
    [1, d_max + 1).  threads cannot change the answer.

    >>> enumerate_qualifying(3, 20000)
    [5005, 12155, 17017, 17765, 19019]
    """
    return scan_qualifying(n, 1, d_max + 1, mode)[0].tolist()


def scan_qualifying(
    n: int, lo: int, hi: int, mode: Mode = Mode.FULL, threads: int = 1
) -> list[np.ndarray]:
    """The qualifying degrees in [lo, hi) as a list of one ascending int64
    array, empty when the window is.

    The degrees are the walk's to hi - 1; lo is clamped into [1, hi], and
    each yielded batch is clipped to the runs that reach lo, from their
    primes P[k] >= ceil(lo / m), so the cost is set by hi, not by the window
    width.  The walk holds hi - 1 to SIEVE_BUDGET even for an empty window,
    as map_sieve does; it is sequential, and threads cannot change the
    answer.

    >>> [a.tolist() for a in scan_qualifying(3, 12000, 18000)]
    [[12155, 17017, 17765]]
    """
    import numpy as np

    lo, parts = min(max(lo, 1), hi), [np.empty(0, dtype=np.int64)]
    for P, m, i, j in _walk(_inequality(n, hi - 1, mode), hi - 1):
        keep = m * P[j - 1] >= lo  # the runs that reach the window, from their first prime in it
        m, i, j = m[keep], i[keep], j[keep]
        i = np.maximum(i, P.searchsorted(-(-lo // m)))
        ds = P[_spans(i, j - i)]
        ds *= m.repeat(j - i)
        parts.append(ds)
    ds = np.concatenate(parts)
    ds.sort()
    return [ds]


def _walk_counts(ineq: _Inequality, xs: list[int]) -> list[int]:
    """For each x of the ascending, nonempty xs >= 1, the number of d <= x
    that _walk(ineq, xs[-1]) describes, plus d = 1 when it satisfies ineq.
    One walk; each yielded batch adds its run lengths at the first x at or
    past each run's last degree, one cumulative sum after the walk counts
    them at every later x, and a run (m, i, j) is bisected only for the x
    with m*P[i] <= x < m*P[j-1].

    >>> _walk_counts(_inequality(3, 2 * 10**4), [10**4, 2 * 10**4])
    [1, 5]
    """
    import numpy as np

    arith.check_sieve_bound(xs[-1])  # before xs meets int64
    X = np.array(xs, dtype=np.int64)
    # run lengths at the first x at or past a run's end, and each cut run's degrees <= x
    whole, part = np.zeros((2, len(xs)), dtype=np.int64)
    for P, m, i, j in _walk(ineq, xs[-1]):
        past = X.searchsorted(m * P[j - 1])  # the first x at or past a run's last degree
        np.add.at(whole, past, j - i)
        inside = X.searchsorted(m * P[i])
        cut = past - inside  # the number of x inside each run
        x = _spans(inside, cut)
        np.add.at(part, x, P.searchsorted(X[x] // m.repeat(cut), side="right") - i.repeat(cut))
    one = int(ineq.thr(1) <= ineq.scale)  # d = 1, whose v is 1
    return [one + int(t) for t in whole.cumsum() + part]


def _least_degree(ineq: _Inequality, best: int) -> int:
    """The least d < best with gcd(d, n!) = 1 that satisfies ineq, a scale-1
    inequality on the largest prime power v of d, thr(v) <= d, or best when
    there is none.

    Such a d is v*t, with t coprime to v and every prime power of t below v,
    and it qualifies iff t >= ceil(thr(v) / v).  So for each prime power v of
    a prime above n, ascending while thr(v) < best, a depth-first branch and
    bound (Land & Doig, 1960) gives each prime q in (n, v) but v's, largest
    first, one of its powers below v or none.  A branch stops once its product
    t reaches that target or the least t found (v*t >= best), or once the
    largest powers left cannot lift t to the target.
    """
    n, thr = ineq.n, ineq.thr
    ps = []  # the primes in (n, v]
    for v in range(n + 1, ineq.top(best - 1) + 1):  # a huge n stops before it forms v**n
        if thr(v) >= best:
            break
        root = arith.prime_power_root(v)
        if root is None or root[0] <= n:
            continue
        p, e = root
        if e == 1:
            ps.append(p)
        target, top = -(-thr(v) // v), -(-best // v)  # v*t < best iff t < top
        powers = []  # each q's powers below v, largest q and largest power first
        for q in reversed(ps):
            if q != p:
                qf = [q]
                while qf[-1] * q < v:
                    qf.append(qf[-1] * q)
                powers.append(qf[::-1])
        reach = [1]  # reach[-1 - i]: the product of the largest powers of powers[i:]
        for qf in reversed(powers):
            reach.append(reach[-1] * qf[0])

        def search(i: int, t: int) -> None:
            nonlocal top
            if t >= target:
                top = t
            elif t * reach[-1 - i] >= target:
                for w in powers[i]:
                    if t * w < top:
                        search(i + 1, t * w)
                if t < top:
                    search(i + 1, t)

        search(0, 1)
        best = min(best, v * top)
    return best


def smallest_qualifying(
    n: int,
    mode: Mode = Mode.FULL,
    threads: int = 1,
    budget: int | None = None,
) -> int:
    """Minimal qualifying degree for (n, mode), at most budget.

    The least d <= budget (default SIEVE_BUDGET) comes from _least_degree's
    branch and bound, which runs no walk, no sieve and no numpy, so the
    budget may lie beyond SIEVE_BUDGET.  A budget below 1 is a
    ParameterError; a CapacityError names the budget when nothing qualifies
    within it.  threads cannot change the answer.

    >>> smallest_qualifying(3)
    5005
    """
    cap = budget if budget is not None else arith.SIEVE_BUDGET
    if cap < 1:
        raise ParameterError(f"budget must be >= 1, got {_show_int(cap)}")
    d = _least_degree(_inequality(n, cap, mode), cap + 1)
    if d <= cap:
        return d
    raise CapacityError(
        f"no qualifying degree found for n = {_show_int(n)}, mode = {mode.value} up to budget {_show_int(cap)}"
    )


# ---------------------------------------------------------------------------
# The rational-coefficients example: d = q**3 + 6k checks.
# ---------------------------------------------------------------------------


class RationalExampleCheck(NamedTuple):
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


class RationalExampleReport(NamedTuple):
    """covers_prime_divisors: qs are exactly the prime divisors of d, each once."""

    d: int
    checks: tuple[RationalExampleCheck, ...]
    covers_prime_divisors: bool
    passed: bool


def verify_rational_example(d: int, qs: list[int]) -> RationalExampleReport:
    """Check the d = q**3 + 6k arithmetic for each q, and that qs are exactly
    the prime divisors of d.  It passes only when at least one q is checked,
    so d = 1, which has no prime divisor, does not pass.

    Per q the conditions are: q prime, q = 1 (mod 6), q**3 <= d,
    6 | d - q**3, q | k and k >= 38 where k = (d - q**3) / 6.  Primality is
    proved up to arith.PSI13 only, so a larger q fails.  d is not factored:
    qs cover it when they are distinct proved primes, each dividing d, and
    dividing them all out of d leaves 1.
    """
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {_show_int(d)}")
    out = []
    for q in qs:
        prime_ok = q <= arith.PSI13 and arith.is_prime(q)
        residue_ok = q % 6 == 1
        diff = d - q**3
        nonneg = diff >= 0
        sixfold = nonneg and diff % 6 == 0
        k = diff // 6 if sixfold else None
        q_div_k = k is not None and q != 0 and k % q == 0  # k = d/6 > 0 when q = 0
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
    rest = d
    for c in out:
        while c.q_is_prime and rest % c.q == 0:
            rest //= c.q
    each_divides = all(c.q_is_prime and d % c.q == 0 for c in out)
    covers = each_divides and len(set(qs)) == len(qs) and rest == 1
    passed = covers and bool(out) and all(c.passed for c in out)
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
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 equal 1 too
        raise ParameterError(f"unsupported schema_version {version!r}")
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
