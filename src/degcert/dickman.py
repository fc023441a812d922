"""Numerical evaluation of the Dickman function rho.

rho is defined by rho(u) = 1 on [0, 1] and u * rho'(u) = -rho(u - 1) for
u > 1; rho(u) is the asymptotic density of integers whose largest prime
factor is at most the u-th root of the integer.

On each piece (k, k+1], k = 1..49, rho(k + 1 - s) = sum_i c_i s^i for s in
[0, 1) (van de Lune & Wattel, Math. Comp. 23 (1969); Marsaglia, Zaman &
Marsaglia, Math. Comp. 53 (1989)).  With d the coefficients of piece k - 1
(d = [1] for rho = 1 on [0, 1]), the delay equation gives
c_{i+1} = (d_i + i * c_i) / ((k + 1) * (i + 1)), and the window identity
u * rho(u) = integral over [u-1, u] of rho at u = k + 1 gives
c_0 = (1/k) * sum_{i>=1} c_i / (i + 1).  Every coefficient and every Horner
step at s >= 0 is a sum of non-negative terms, so nothing cancels and the
relative error stays near rounding down to rho(50) ~ 7e-97.  Each piece's
continuation is singular at s = 2 at the nearest, so the terms fall like
2^-i and 64 of them reach double precision.
"""

from __future__ import annotations

from functools import cache
from math import ceil, fsum, isfinite, prod
from typing import NamedTuple

from .errors import CapacityError, ParameterError

U_MAX_SUPPORTED = 50.0
TOL_MIN = 1e-12
# |rho(u) - true rho(u)| on [0, U_MAX_SUPPORTED]; tests/test_dickman.py checks
# this as a relative error against a 40-digit run of the recurrence.
ABS_ERROR_BOUND = 1e-14
# At most this many table nodes: u_max = 50 at step 2**-16 fits.
TABLE_NODES_MAX = 1 << 22
_TERMS = 64


class DickmanTable(NamedTuple):
    """rho tabulated on the uniform grid u = 0, step, 2*step, ..., <= u_max."""

    step: float
    u_max: float
    values: np.ndarray
    abs_error_bound: float


@cache
def _pieces() -> tuple[tuple[float, ...], ...]:
    """Coefficients c_0..c_63 of pieces k = 1..49; entry k - 1 is piece k."""
    pieces = []
    d = (1.0,) + (0.0,) * (_TERMS - 1)
    for k in range(1, int(U_MAX_SUPPORTED)):
        c = [0.0] * _TERMS
        for i in range(_TERMS - 1):
            c[i + 1] = (d[i] + i * c[i]) / ((k + 1) * (i + 1))
        c[0] = fsum(c[i] / (i + 1) for i in range(1, _TERMS)) / k
        d = tuple(c)
        pieces.append(d)
    return tuple(pieces)


def _horner(coeffs: tuple[float, ...], s):
    """sum c_i s^i for a float or an array s; IEEE multiply-then-add per
    step, so an array entry equals the float result bit for bit."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def rho(u: float, tol: float = 1e-9) -> float:
    """Dickman rho(u) with |result - rho(u)| <= ABS_ERROR_BOUND <= tol.

    >>> rho(1.0)
    1.0
    >>> abs(rho(2.0, 1e-10) - 0.30685281944005469) < 1e-10
    True
    """
    if not 0.0 <= u <= U_MAX_SUPPORTED:
        raise ParameterError(f"u must be in [0, {U_MAX_SUPPORTED}], got {u}")
    if not tol >= TOL_MIN:
        raise ParameterError(f"tol must be >= {TOL_MIN}, got {tol}")
    if u <= 1.0:
        return 1.0
    top = ceil(u)
    return _horner(_pieces()[top - 2], top - u)


def rho_table(u_max: float, step: float) -> DickmanTable:
    """Tabulate rho on {0, step, 2*step, ...} up to u_max.

    step must divide 1 evenly: rho has a kink at every integer, so the nodes
    must land on the integers for the table to resolve each kink; each value
    equals rho at its node bit for bit.  A table of more than
    TABLE_NODES_MAX nodes raises CapacityError before anything is allocated.
    """
    import numpy as np

    if not 1.0 <= u_max <= U_MAX_SUPPORTED:
        raise ParameterError(f"u_max must be in [1, {U_MAX_SUPPORTED}], got {u_max}")
    if not (isfinite(step) and step > 0):
        raise ParameterError(f"step must be positive and finite, got {step}")
    # checked on the float count, so a step too small to invert stops here
    if u_max / step + 1 > TABLE_NODES_MAX:
        raise CapacityError(
            f"table of u_max / step + 1 = {u_max / step + 1:.4g} nodes exceeds {TABLE_NODES_MAX}"
        )
    k_out_f = 1.0 / step
    k_out = round(k_out_f)
    if k_out < 1 or abs(k_out_f - k_out) > 1e-9 * k_out:
        raise ParameterError(f"step = {step} does not divide 1 evenly")
    n_out = int(u_max / step + 1e-9) + 1
    u = np.arange(n_out) / k_out
    values = np.ones(n_out)
    # piece k holds the nodes k*k_out < idx <= (k+1)*k_out, all of whose
    # u round to a float with ceil(u) = k + 1, as in rho
    for k, coeffs in enumerate(_pieces()[: ceil(u[-1]) - 1], start=1):
        nodes = slice(k * k_out + 1, (k + 1) * k_out + 1)
        values[nodes] = _horner(coeffs, (k + 1) - u[nodes])
    # Type invariants: exactly 1 on [0, 1], as no piece writes there, then
    # strictly decreasing and positive, which the positive series guarantee
    # up to rounding; fail loudly rather than return a corrupt table.
    tail = values[k_out:]
    if np.any(np.diff(tail) >= 0) or np.any(tail <= 0):
        raise ParameterError("internal: table violates monotonicity/positivity")
    return DickmanTable(step=1.0 / k_out, u_max=u_max, values=values, abs_error_bound=ABS_ERROR_BOUND)


def theoretical_density(n: int) -> float:
    """phi(n!)/n! * rho(n): the density of degrees d coprime to n! whose
    largest prime factor is at most d**(1/n).  phi(n!)/n! is prod(p - 1) /
    prod(p) over the primes p <= n, one correctly rounded integer division."""
    if not 1 <= n <= 10:
        raise ParameterError(f"n must be in [1, 10], got {n}")
    ps = [p for p in (2, 3, 5, 7) if p <= n]
    return prod(p - 1 for p in ps) / prod(ps) * rho(float(n))
