"""Numerical evaluation of the Dickman function rho.

rho is defined by rho(u) = 1 on [0, 1] and u * rho'(u) = -rho(u - 1) for
u > 1; rho(u) is the asymptotic density of integers whose largest prime
factor is at most the u-th root of the integer.

Instead of integrating the delay ODE directly (which subtracts nearly equal
quantities and destroys relative accuracy once rho is tiny), the solver uses
the equivalent window identity

    u * rho(u) = integral over [u-1, u] of rho(t) dt,

whose right side is an average of positive values.  On a grid of spacing
1/K the identity becomes an implicit composite trapezoid rule, solved point
by point; every operation is a positive accumulation, so positivity and
strict decrease survive down to rho(50) ~ 1e-97.  The kinks of rho at
integer arguments always fall on grid nodes (the grid spacing divides 1),
so the trapezoid error keeps a clean h^2 expansion and one Richardson step
upgrades the scheme to O(h^4).  Step control halves the grid until two
successive extrapolations agree within the requested tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial
from typing import IO

import numpy as np

from .arith import euler_phi
from .errors import ParameterError

U_MAX_SUPPORTED = 50.0
TOL_MIN = 1e-12
_K_INITIAL = 64
_K_LIMIT = 1 << 17


@dataclass(frozen=True)
class DickmanTable:
    """rho tabulated on the uniform grid u = 0, step, 2*step, ..., <= u_max."""

    step: float
    u_max: float
    values: np.ndarray
    abs_error_bound: float

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["u", "rho", "error_bound"])
        for idx, val in enumerate(self.values):
            writer.writerow([f"{idx * self.step:.10g}", repr(float(val)), repr(self.abs_error_bound)])


def _solve_grid(u_top: int, K: int) -> np.ndarray:
    """Window-identity trapezoid solution on u in [0, u_top], spacing 1/K."""
    h = 1.0 / K
    vals = np.ones(u_top * K + 1)
    for m in range(1, u_top):
        base = m * K
        prev = vals[base - K : base + 1]
        # suffix sums over the previous interval; suf[r] = sum(prev[r:])
        suf = np.empty(K + 2)
        suf[K + 1] = 0.0
        suf[: K + 1] = np.cumsum(prev[::-1])[::-1]
        new_acc = 0.0  # h * (sum of values already computed in this interval)
        for t in range(1, K + 1):
            i = base + t
            # trapezoid over [u_i - 1, u_i]:
            #   h*(v[i-K]/2 + sum_{i-K<j<i} v[j] + v[i]/2) = u_i * v[i]
            w_old = h * (suf[t] - 0.5 * prev[t])
            vals[i] = (w_old + new_acc) / (i * h - 0.5 * h)
            new_acc += h * vals[i]
    return vals


def _extrapolated_grid(u_top: int, tol: float, k_base: int) -> tuple[np.ndarray, int, float]:
    """Richardson-extrapolated solution with measured step-halving error.

    Returns (values on grid of spacing 1/k_fine, k_fine, error_estimate)
    where error_estimate is the max abs change of the extrapolated values
    under the last halving; iteration stops once it is <= tol/2.
    """
    k = k_base
    coarse = _solve_grid(u_top, k)
    fine = _solve_grid(u_top, 2 * k)
    extrap_prev = (4.0 * fine[::2] - coarse) / 3.0
    while True:
        k *= 2
        finer = _solve_grid(u_top, 2 * k)
        extrap = (4.0 * finer[::2] - fine) / 3.0
        err = float(np.max(np.abs(extrap[::2] - extrap_prev)))
        if err <= tol / 2:
            return extrap, k, err
        if 2 * k > _K_LIMIT:
            raise ParameterError(
                f"tolerance {tol} not reachable within grid limit {_K_LIMIT}"
            )
        fine = finer
        extrap_prev = extrap


def _validate(u: float, tol: float) -> None:
    if not 0.0 <= u <= U_MAX_SUPPORTED:
        raise ParameterError(f"u must be in [0, {U_MAX_SUPPORTED}], got {u}")
    if not tol >= TOL_MIN:
        raise ParameterError(f"tol must be >= {TOL_MIN}, got {tol}")


def rho(u: float, tol: float = 1e-9) -> float:
    """Dickman rho(u) with |result - rho(u)| <= tol.

    >>> rho(1.0)
    1.0
    >>> abs(rho(2.0, 1e-10) - 0.30685281944005469) < 1e-10
    True
    """
    _validate(u, tol)
    if u <= 1.0:
        return 1.0
    u_top = ceil(u)
    grid, k, _ = _extrapolated_grid(u_top, tol, _K_INITIAL)
    pos = u * k
    idx = round(pos)
    if abs(pos - idx) < 1e-12 and 0 <= idx < len(grid):
        return float(grid[idx])
    # Off-grid: local polynomial interpolation with the stencil kept inside
    # the unit interval containing u (rho is smooth there but not across
    # integer arguments).
    m = int(u)  # u > 1 and non-integer here
    lo_idx, hi_idx = m * k, (m + 1) * k
    first = int(pos) - 2
    first = max(lo_idx, min(first, hi_idx - 5))
    xs = np.arange(first, first + 6) / k
    ys = grid[first : first + 6]
    # Neville's scheme on 6 points: error O(h^6), far below tol here.
    table = ys.astype(float).copy()
    for level in range(1, 6):
        for row in range(5 - level + 1):
            table[row] = (
                (u - xs[row + level]) * table[row] + (xs[row] - u) * table[row + 1]
            ) / (xs[row] - xs[row + level])
    return float(table[0])


def rho_table(u_max: float, step: float, tol: float = 1e-9) -> DickmanTable:
    """Tabulate rho on {0, step, 2*step, ...} up to u_max.

    step must divide 1 evenly so that grid nodes align with the unit shift
    of the delayed argument.
    """
    _validate(u_max, tol)
    if u_max < 1.0:
        raise ParameterError(f"u_max must be >= 1, got {u_max}")
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    k_out_f = 1.0 / step
    k_out = round(k_out_f)
    if k_out < 1 or abs(k_out_f - k_out) > 1e-9 * k_out:
        raise ParameterError(f"step = {step} does not divide 1 evenly")
    u_top = ceil(u_max - 1e-12)
    # the solver base resolution must be a multiple of the output resolution
    # so that output nodes land exactly on solver nodes
    k_base = k_out * max(1, -(-_K_INITIAL // k_out))
    grid, k_fine, err = _extrapolated_grid(u_top, tol, k_base)
    stride = k_fine // k_out
    n_out = int(u_max / step + 1e-9) + 1
    values = grid[::stride][:n_out].copy()
    # Type invariants: exactly 1 on [0, 1], then strictly decreasing and
    # positive.  The positive-window scheme guarantees these up to rounding;
    # fail loudly rather than return a corrupt table.
    if not np.all(values[: min(k_out, n_out - 1) + 1] == 1.0):
        raise ParameterError("internal: table head is not identically 1")
    tail = values[k_out:]
    if len(tail) > 1 and (np.any(np.diff(tail) >= 0) or np.any(tail <= 0)):
        raise ParameterError("internal: table violates monotonicity/positivity")
    return DickmanTable(step=1.0 / k_out, u_max=u_max, values=values, abs_error_bound=err)


def theoretical_density(n: int, tol: float = 1e-9) -> float:
    """phi(n!)/n! * rho(n): the density of degrees d coprime to n! whose
    largest prime factor is at most d**(1/n)."""
    if not 1 <= n <= 10:
        raise ParameterError(f"n must be in [1, 10], got {n}")
    fact = factorial(n)
    scale = Fraction(euler_phi(fact), fact)
    return float(scale) * rho(float(n), tol)
