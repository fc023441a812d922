"""Arithmetic the benchmark uses to make inputs and expected answers.

Nothing here imports degcert: inputs are built from known factorizations,
so the expected certificate, the expected verdict and the reference values
are fixed before the library sees an input.
"""

from __future__ import annotations

import json
import random
from math import factorial, isqrt

import numpy as np

# Deterministic Miller-Rabin witnesses, exact for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi], drawn log-uniformly; hi must exceed some prime >= lo."""
    while True:
        x = int(round(lo * (hi / lo) ** rng.random()))
        x = min(max(x, lo), hi)
        while x <= hi:
            if is_prime(x):
                return x
            x += 1


def binom2(n: int) -> int:
    return n * (n - 1) // 2


def threshold(n: int, q: int, mode: str = "FULL") -> int:
    """Right-hand side of the qualification inequality for prime power q."""
    fact = factorial(n)
    tail = (2**n + 1) * fact
    if mode == "FULL":
        c2 = binom2(n)
        return (c2 - 1) * q**n + (fact - c2) * q ** (n - 1) + tail
    return (fact - 1) * q**n + tail


def qualifying_degree(rng: random.Random, n: int, target: int) -> dict[int, int]:
    """Factorization {p: e} of a degree near target that qualifies for n (FULL).

    Prime powers are drawn below the largest q whose threshold fits under
    target and multiplied until the product reaches target; a draw that ends
    with too large a prime power is discarded.
    """
    q_cap = integer_root(target // (binom2(n) - 1), n)
    if q_cap <= n:
        raise ValueError(f"no qualifying degree near {target} for n = {n}")
    while True:
        factors: dict[int, int] = {}
        d = 1
        while d < target:
            p = random_prime(rng, n + 1, max(q_cap, n + 2))
            if p in factors or p > q_cap:
                continue
            e = 1
            while rng.random() < 0.25 and p ** (e + 1) <= q_cap:
                e += 1
            factors[p] = e
            d *= p**e
        q_max = max(p**e for p, e in factors.items())
        if threshold(n, q_max) <= d:
            return factors


def integer_root(x: int, n: int) -> int:
    """Largest r with r**n <= x, by integer Newton steps."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r**n > x:
        r -= 1
    return r


def product(factors: dict[int, int]) -> int:
    d = 1
    for p, e in factors.items():
        d *= p**e
    return d


def certificate_dict(n: int, factors: dict[int, int], mode: str = "FULL") -> dict:
    """The canonical certificate payload for d = product(factors), built
    from the decomposition d = i*q^n + j*q^(n-1) + k*n! per maximal prime
    power q (i the residue modulo C(n,2), j the completion modulo n!)."""
    d = product(factors)
    fact = factorial(n)
    c2 = binom2(n)
    entries, premises = [], []
    for p in sorted(factors):
        q = p ** factors[p]
        qn, qn1 = q**n, q ** (n - 1)
        if mode == "FULL":
            i = d * pow(qn, -1, c2) % c2
            j = (d - i * qn) * pow(qn1, -1, fact) % fact
        else:
            i = d * pow(qn, -1, fact) % fact
            j = 0
        k = (d - i * qn - j * qn1) // fact
        entries.append({"q": q, "i": i, "j": j, "k": k})
        if i > 0:
            premises.append({"kind": "KOLLAR_QN", "q": q})
        if j > 0:
            premises.append({"kind": "KOLLAR_BINOM", "q": q})
        premises.append({"kind": "ABELIAN_FACTORIAL", "q": q, "k": k})
    return {
        "schema_version": 1,
        "kind": "certificate",
        "n": n,
        "d": d,
        "mode": mode,
        "entries": entries,
        "premises": premises,
    }


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Dickman rho by per-interval Taylor series (Marsaglia-style recurrence).
#
# On [k, k+1] write rho(k + 1/2 + t) = sum a_i t^i, |t| <= 1/2.  The delay
# equation u*rho'(u) = -rho(u-1) gives a_{i+1} = -(b_i + i*a_i) / (c*(i+1))
# with c = k + 1/2 and b the coefficients on the previous interval; a_0 comes
# from continuity at u = k.  The series converge like 3^-i, so 80 terms give
# full double precision, and nothing is shared with the library's solver.
# ---------------------------------------------------------------------------

_RHO_TERMS = 80


def rho_coefficients(k_max: int = 50) -> list[list[float]]:
    coeffs = [[1.0] + [0.0] * (_RHO_TERMS - 1)]  # rho = 1 on [0, 1]
    for k in range(1, k_max):
        b = coeffs[-1]
        c = k + 0.5
        a = [0.0] * _RHO_TERMS
        for i in range(_RHO_TERMS - 1):
            a[i + 1] = -(b[i] + i * a[i]) / (c * (i + 1))
        a[0] = _eval(b, 0.5) - _eval(a, -0.5)
        coeffs.append(a)
    return coeffs


def _eval(a: list[float], t: float) -> float:
    acc = 0.0
    for coef in reversed(a):
        acc = acc * t + coef
    return acc


def rho_reference(u: float, coeffs: list[list[float]]) -> float:
    if u <= 1.0:
        return 1.0
    k = min(int(u), len(coeffs) - 1)
    return _eval(coeffs[k], u - k - 0.5)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def stratified(rng: random.Random, count: int) -> list[float]:
    """count points in [0, 1), one uniform draw per equal-width stratum,
    in random order: the spread of the set is fixed, the points are not."""
    pts = [(s + rng.random()) / count for s in range(count)]
    rng.shuffle(pts)
    return pts


def prime_power_count(m: int) -> int:
    """Number of prime powers p**e <= m, e >= 1, by a plain sieve."""
    sieve = np.ones(m + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    total = len(primes)
    for p in primes[: int(np.searchsorted(primes, isqrt(m), side="right"))]:
        pe = int(p) * int(p)
        while pe <= m:
            total += 1
            pe *= int(p)
    return total
