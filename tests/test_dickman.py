from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil, factorial, floor, gcd, log

import numpy as np
import pytest

from degcert import dickman
from degcert.dickman import rho, rho_table, theoretical_density
from degcert.errors import CapacityError, ParameterError


def romberg(f, a, b, tol=1e-13):
    """Independent quadrature oracle (Romberg on the trapezoid ladder)."""
    rows = [[(b - a) * 0.5 * (f(a) + f(b))]]
    n = 1
    for level in range(1, 22):
        n *= 2
        h = (b - a) / n
        extra = sum(f(a + (2 * t + 1) * h) for t in range(n // 2))
        first = 0.5 * rows[-1][0] + h * extra
        row = [first]
        for m in range(1, level + 1):
            row.append(row[m - 1] + (row[m - 1] - rows[-1][m - 1]) / (4**m - 1))
        if level > 3 and abs(row[-1] - rows[-1][-1]) < tol:
            return row[-1]
        rows.append(row)
    return rows[-1][-1]


def solve_grid(u_top: int, K: int) -> np.ndarray:
    """Independent reference: the window-identity trapezoid solution on
    u in [0, u_top], spacing 1/K."""
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


def oracle_rho_23(u):
    """rho on [2, 3] from the closed-form reduction:
    rho(u) = 1 - log(u) + integral_2^u log(t-1)/t dt."""
    assert 2.0 <= u <= 3.0
    if u == 2.0:
        return 1.0 - log(2.0)
    return 1.0 - log(u) + romberg(lambda t: log(t - 1.0) / t, 2.0, u)


def oracle_rho_34(u):
    """rho on [3, 4] by one more window integration over the [2,3] oracle."""
    assert 3.0 <= u <= 4.0
    if u == 3.0:
        return oracle_rho_23(3.0)
    return oracle_rho_23(3.0) - romberg(lambda t: oracle_rho_23(t - 1.0) / t, 3.0, u, 1e-12)


# --- pointwise values ---------------------------------------------------------


def test_rho_is_one_on_unit_interval():
    assert rho(0.0) == 1.0
    assert rho(0.5) == 1.0
    assert rho(1.0) == 1.0


def test_rho_2_closed_form():
    assert abs(rho(2.0, 1e-10) - (1.0 - log(2.0))) <= 1e-10


def test_rho_3_against_oracle():
    want = oracle_rho_23(3.0)
    assert want == pytest.approx(0.048608388291131567, abs=1e-12)
    assert abs(rho(3.0, 1e-9) - want) <= 1e-9


def test_rho_4_against_oracle():
    want = oracle_rho_34(4.0)
    assert want == pytest.approx(0.004910925647760832, abs=1e-10)
    assert abs(rho(4.0, 1e-9) - want) <= 1e-9


def test_rho_offgrid_interpolation():
    # exercises the non-grid evaluation path against the closed-form oracle
    for u in (2.25, 2.5, 2.753, 2.9990234375):
        assert abs(rho(u, 1e-10) - oracle_rho_23(u)) <= 1e-10


def test_rho_tightest_tolerance():
    assert abs(rho(2.0, 1e-12) - (1.0 - log(2.0))) <= 1e-12


def test_rho_validation():
    # NaN fails every comparison, so only a test that u lies in the range refuses it
    for u in (-0.1, 50.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match=r"^u must be in \[0, 50\.0\], got "):
            rho(u)
    with pytest.raises(ParameterError):
        rho(2.0, 1e-13)


def test_rho_table_refuses_a_table_that_does_not_decrease(monkeypatch):
    # piece 1 made constant: the table would stay flat on (1, 2]
    pieces = dickman._pieces()
    monkeypatch.setattr(dickman, "_pieces", lambda: ((0.5,), *pieces[1:]))
    with pytest.raises(ParameterError, match=r"^internal: table violates monotonicity/positivity$"):
        rho_table(3.0, 0.25)


def test_rho_step_halving_stability():
    # two successive Richardson extrapolations agree to the tolerance
    k = 256
    r1 = solve_grid(3, k)
    r2 = solve_grid(3, 2 * k)
    r3 = solve_grid(3, 4 * k)
    e1 = (4.0 * r2[::2] - r1) / 3.0
    e2 = (4.0 * r3[::2] - r2) / 3.0
    assert abs(e2[2 * 3 * k] - e1[3 * k]) <= 1e-9
    assert float(np.max(np.abs(e2[::2] - e1))) <= 1e-9


# --- tables -------------------------------------------------------------------


def test_table_all_ones_to_u1():
    table = rho_table(1.0, 0.25)
    assert list(table.values) == [1.0] * 5


def test_table_matches_closed_form_at_2():
    table = rho_table(3.0, 0.125)
    idx = round(2.0 / 0.125)
    assert abs(table.values[idx] - (1.0 - log(2.0))) <= 1e-9
    assert table.abs_error_bound <= 1e-9


def test_table_positive_and_strictly_decreasing():
    table = rho_table(10.0, 0.0625)
    vals = table.values
    k = round(1 / 0.0625)
    assert np.all(vals > 0)
    assert np.all(vals[: k + 1] == 1.0)
    tail = vals[k:]
    assert np.all(np.diff(tail) < 0)
    # rho(10) is genuinely tiny yet still resolved as positive
    assert vals[-1] < 1e-10


def test_table_interior_consistent_with_pointwise():
    table = rho_table(4.0, 0.25)
    for idx in range(4, len(table.values)):
        u = idx * 0.25
        assert abs(table.values[idx] - rho(u, 1e-9)) <= 2e-9


def test_table_residual_of_delay_ode():
    # finite-difference check of u*rho'(u) + rho(u-1) = 0 on (1, 10]
    tol = 1e-9
    step = 1.0 / 512
    table = rho_table(10.0, step)
    vals = table.values
    k = 512
    worst = 0.0
    for m in range(1, 10):
        base = m * k
        for i in range(base + 2, base + k - 1):
            d1 = (-vals[i + 2] + 8 * vals[i + 1] - 8 * vals[i - 1] + vals[i - 2]) / (12 * step)
            residual = (i * step) * d1 + vals[i - k]
            worst = max(worst, abs(residual))
    assert worst <= 10 * tol


@pytest.mark.parametrize("u_max", [-1.0, 0.0, 0.5, 60.0, float("nan")])
def test_table_names_u_max_out_of_range(u_max):
    with pytest.raises(ParameterError, match=rf"^u_max must be in \[1, 50.0\], got {u_max}$"):
        rho_table(u_max, 0.5)


def test_table_validation():
    with pytest.raises(ParameterError):
        rho_table(3.0, 0.3)  # 0.3 does not divide 1
    with pytest.raises(ParameterError):
        rho_table(0.5, 0.25)
    with pytest.raises(ParameterError):
        rho_table(3.0, -0.125)


def test_table_step_not_power_of_two():
    # 1/48 divides 1 but is not a divisor of the solver's default base
    # resolution; the output grid must still land exactly on solver nodes
    table = rho_table(3.0, 1.0 / 48)
    assert len(table.values) == 3 * 48 + 1
    idx2 = 2 * 48
    assert abs(table.values[idx2] - (1.0 - log(2.0))) <= 1e-9
    assert abs(table.values[idx2 + 24] - oracle_rho_23(2.5)) <= 1e-8


def test_table_csv(capsys):
    # the table's CSV is written by the command line's one CSV writer
    from degcert import cli

    table = rho_table(2.0, 0.5)
    assert cli.main(["dickman", "--table", "--u-max", "2", "--step", "0.5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "u,rho,error_bound"
    assert len(lines) == 1 + len(table.values)
    rows = [line.split(",") for line in lines[1:]]
    assert [float(val) for _, val, _ in rows] == table.values.tolist()  # repr round-trips
    u, val, err = rows[-1]
    assert float(u) == 2.0
    assert abs(float(val) - (1.0 - log(2.0))) <= 1e-9
    assert float(err) <= 1e-9


# --- Taylor-piece evaluator --------------------------------------------------------


def decimal_rho_pieces(terms=100):
    """The module's coefficient recurrence in 40-digit decimal arithmetic,
    with more terms than the library keeps."""
    pieces = []
    with localcontext() as ctx:
        ctx.prec = 40
        d = [Decimal(1)] + [Decimal(0)] * (terms - 1)
        for k in range(1, 50):
            c = [Decimal(0)] * terms
            for i in range(terms - 1):
                c[i + 1] = (d[i] + i * c[i]) / ((k + 1) * (i + 1))
            c[0] = sum(c[i] / (i + 1) for i in range(1, terms)) / k
            pieces.append(c)
            d = c
    return pieces


def test_rho_relative_error_against_decimal_recurrence():
    # backs dickman.ABS_ERROR_BOUND: rho <= 1, so this relative bound is
    # also an absolute one
    pieces = decimal_rho_pieces()
    us = [1 + j / 100 for j in range(1, 4901)] + [1 + j / 64 for j in range(1, 49 * 64 + 1)]
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        for u in us:
            top = ceil(u)
            s = Decimal(top) - Decimal(u)
            want = Decimal(0)
            for c in reversed(pieces[top - 2]):
                want = want * s + c
            worst = max(worst, float(abs(Decimal(rho(u)) - want) / want))
    assert worst <= dickman.ABS_ERROR_BOUND


def gauss_legendre(f, a, b, nodes=20):
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    return half * sum(wi * f(a + half * (xi + 1.0)) for xi, wi in zip(x, w))


@pytest.mark.parametrize("u", [2.5, 5.0, 5.5, 10.0, 10.25, 20.0, 20.75, 35.0, 35.5, 49.5, 50.0])
def test_rho_window_identity(u):
    # u * rho(u) = integral of rho over [u-1, u], split at the integer where
    # rho has a kink; rho is smooth on each part, so Gauss-Legendre is exact
    # far below the tolerance
    cuts = sorted({u - 1.0, float(floor(u)), u})
    integral = sum(gauss_legendre(rho, a, b) for a, b in zip(cuts, cuts[1:]))
    assert integral == pytest.approx(u * rho(u), rel=1e-12, abs=0.0)


def test_rho_matches_richardson_reference_grid():
    k = 2048
    coarse = solve_grid(6, k)
    fine = solve_grid(6, 2 * k)
    ref = (4.0 * fine[::2] - coarse) / 3.0
    got = np.array([rho(i / k) for i in range(len(ref))])
    assert float(np.max(np.abs(got - ref))) <= 1e-12


def test_table_to_50_equals_pointwise_bit_for_bit():
    table = rho_table(50.0, 1.0 / 512)  # runs the table's own checks
    assert len(table.values) == 50 * 512 + 1
    assert table.abs_error_bound == dickman.ABS_ERROR_BOUND
    assert all(v == rho(i / 512) for i, v in enumerate(table.values))


def test_table_node_budget():
    with pytest.raises(CapacityError):
        rho_table(50.0, 1e-9)
    with pytest.raises(CapacityError):
        rho_table(3.0, 5e-324)  # 1/step overflows a float


# --- theoretical density --------------------------------------------------------


def test_theoretical_density_n1():
    assert theoretical_density(1) == 1.0


def test_theoretical_density_n3():
    v = theoretical_density(3)
    assert 0.0155 <= v <= 0.0170
    assert v == pytest.approx(rho(3.0, 1e-9) / 3.0, rel=1e-12)
    assert v == pytest.approx(oracle_rho_23(3.0) / 3.0, abs=1e-9)


def test_theoretical_density_n4():
    # phi(24)/24 = 8/24 = 1/3
    v = theoretical_density(4)
    assert v == pytest.approx(oracle_rho_34(4.0) / 3.0, abs=1e-9)


def test_theoretical_density_n2():
    v = theoretical_density(2)
    assert v == pytest.approx((1.0 - log(2.0)) / 2.0, abs=1e-10)


# theoretical_density(n).hex() for n = 1..10
DENSITY_HEX = [
    "0x1.0000000000000p+0", "0x1.3a37a020b8c22p-3", "0x1.097773d5cbbb6p-6",
    "0x1.ad1f8c1124532p-10", "0x1.8cc0bb854dcb2p-14", "0x1.5fa51f992ca76p-18",
    "0x1.ad48c087d1a62p-23", "0x1.fbabcdf9a673ep-28", "0x1.fecd02d57db62p-33",
    "0x1.bd8ff3f5ddd6dp-38",
]


@pytest.mark.parametrize("n", range(1, 9))
def test_theoretical_density_scales_rho_by_the_counted_totient(n):
    fact = factorial(n)
    phi = sum(1 for a in range(fact) if gcd(a, fact) == 1)
    assert theoretical_density(n) == float(Fraction(phi, fact)) * rho(float(n))


def test_theoretical_density_bits_are_pinned():
    assert [theoretical_density(n).hex() for n in range(1, 11)] == DENSITY_HEX


def test_theoretical_density_validation():
    with pytest.raises(ParameterError):
        theoretical_density(0)
    with pytest.raises(ParameterError):
        theoretical_density(11)


def test_theoretical_density_takes_no_tol():
    # rho's error bound already lies below every tol it accepts
    with pytest.raises(TypeError):
        theoretical_density(3, 1e-9)


def test_module_doctests():
    import doctest

    results = doctest.testmod(dickman)
    assert results.failed == 0 and results.attempted >= 2
