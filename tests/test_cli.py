import argparse
import inspect
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import log
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import arith, certify, cli, density
from test_certify import (
    M89, M89_DEGREE, M89_Q_EXAMPLE, M89_QS, PSI12, assembled_certificate, pseudoprime_certificate,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out)


# --- certify ------------------------------------------------------------------


def test_certify_5005_text(capsys):
    code, out, _ = run(capsys, "certify", "--n", "3", "--d", "5005")
    assert code == 0
    assert "q = 13: i = 1, j = 0, k = 468" in out
    assert "PASS" in out


def test_certify_5005_json_schema(capsys):
    code, payload = run_json(capsys, "certify", "--n", "3", "--d", "5005", "--format", "json")
    assert code == 0
    assert set(payload) == {"schema_version", "command", "certificate", "verification"}
    assert payload["schema_version"] == 1
    cert = payload["certificate"]
    assert set(cert) == {"schema_version", "kind", "n", "d", "mode", "entries", "premises"}
    assert all(set(e) == {"q", "i", "j", "k"} for e in cert["entries"])
    ver = payload["verification"]
    assert set(ver) == {
        "schema_version",
        "kind",
        "n",
        "d",
        "mode",
        "passed",
        "conditional_note",
        "checks",
    }
    assert ver["passed"] is True


def test_certify_noncoprime_exit2(capsys):
    code, out, _ = run(capsys, "certify", "--n", "3", "--d", "5004")
    assert code == 2
    assert "gcd" in out


def test_certify_large_prime_factor_exit2(capsys):
    code, out, _ = run(capsys, "certify", "--n", "3", "--d", "4955")
    assert code == 2
    assert "991" in out  # 4955 = 5 * 991; the inequality fails for q = 991


def test_certify_huge_n_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "--n", "100000000", "--d", "5005")
    assert code == 2
    assert "2^n" in out
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("d, code", [("-5005", 1), ("0", 1), ("1", 2)])
def test_certify_d_below_two(capsys, d, code):
    got, out, err = run(capsys, "certify", "--n", "3", "--d", d)
    assert got == code
    assert ("d must be >= 1" in err) if code == 1 else ("d = 1 < 2^n for n = 3" in out)


@pytest.mark.parametrize("qs", [(), ("--qs", "7")])
@pytest.mark.parametrize("d", ["0", "-5"])
def test_verify_q_example_d_below_one(capsys, d, qs):
    # without --qs, d is not factored before the checker refuses it
    assert run(capsys, "verify-q-example", "--d", d, *qs) == (1, "", f"error: d must be >= 1, got {d}\n")


def test_certify_json_failure_payload(capsys):
    code, payload = run_json(capsys, "certify", "--n", "3", "--d", "5004", "--format", "json")
    assert code == 2
    assert payload["qualifies"] is False
    assert "gcd" in payload["reason"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certify_reports_a_failed_verification(monkeypatch, capsys, fmt):
    # no certificate the builder makes fails its verifier, so the verifier
    # returns the real report of 5005 with its first check flipped
    real = certify.verify_certificate(certify.build_certificate(3, 5005))
    first = real.checks[0]._replace(passed=False, detail="flipped")
    flipped = real._replace(passed=False, checks=(first, *real.checks[1:]))
    monkeypatch.setattr(certify, "verify_certificate", lambda cert: flipped)
    code, out, _ = run(capsys, "certify", "--n", "3", "--d", "5005", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["verification"]["passed"] is False
    else:
        assert f"verification: FAIL ({len(real.checks)} checks)\n" in out
        assert f"\n  FAIL {first.name} [{first.context}]: flipped\n" in out


# --- check (serialized certificate round trip) ---------------------------------


def test_check_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "certify", "--n", "3", "--d", "5005", "--out", str(cert_file))
    assert code == 0
    code, out, _ = run(capsys, "check", "--cert", str(cert_file))
    assert code == 0
    assert "PASS" in out


def test_check_detects_tampering(tmp_path, capsys):
    cert_file = tmp_path / "c.json"
    run(capsys, "certify", "--n", "3", "--d", "5005", "--out", str(cert_file))
    text = cert_file.read_text().replace('"k":468', '"k":469')
    cert_file.write_text(text)
    code, out, _ = run(capsys, "check", "--cert", str(cert_file))
    assert code == 2
    assert "FAIL" in out


def test_check_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--cert", str(tmp_path / "nope.json"))
    assert code == 1


def test_check_non_utf8_file_is_usage_error(tmp_path, capsys):
    cert_file = tmp_path / "c.json"
    cert_file.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "check", "--cert", str(cert_file))
    assert code == 1
    assert "not UTF-8" in err


def _check_payload(tmp_path, capsys, payload):
    cert_file = tmp_path / "c.json"
    cert_file.write_text(json.dumps(payload))
    return run(capsys, "check", "--cert", str(cert_file))


@pytest.mark.parametrize(
    "field, value",
    [("entries", [1]), ("entries", {"q": 13}), ("premises", "x"), ("premises", [None])],
)
def test_check_malformed_shape_is_usage_error(tmp_path, capsys, field, value):
    payload = certify.certificate_to_dict(certify.build_certificate(3, 5005))
    payload[field] = value
    code, _, err = _check_payload(tmp_path, capsys, payload)
    assert code == 1
    assert "list of JSON objects" in err


@pytest.mark.parametrize("version", [True, 1.0])
def test_check_refuses_a_schema_version_that_only_equals_1(tmp_path, capsys, version):
    payload = certify.certificate_to_dict(certify.build_certificate(3, 5005))
    payload["schema_version"] = version
    code, _, err = _check_payload(tmp_path, capsys, payload)
    assert code == 1
    assert "unsupported schema_version" in err


@pytest.mark.parametrize("q", [10**60 + 7, 10**309])
def test_check_huge_entry_fails_verification(tmp_path, capsys, q):
    # exact integer roots: no float overflow near 1e308, no stall for a
    # large q with a small exponent
    payload = certify.certificate_to_dict(certify.build_certificate(3, 5005))
    payload["entries"][0]["q"] = q
    code, out, _ = _check_payload(tmp_path, capsys, payload)
    assert code == 2
    assert "FAIL" in out


def test_check_weak_certificate_with_large_n_fails_verification(tmp_path, capsys):
    # the i_range detail shows n! - 1, which has 5736 digits for n = 2000
    entry = {"q": 5, "i": 1, "j": 0, "k": 1}
    payload = {"schema_version": 1, "kind": "certificate", "n": 2000, "d": 10**700,
               "mode": "WEAK", "entries": [entry], "premises": []}
    code, out, _ = _check_payload(tmp_path, capsys, payload)
    assert code == 2
    assert "-bit integer" in out


def test_check_strong_pseudoprime_entry_fails_verification(tmp_path, capsys):
    # PSI12 passes Miller-Rabin to the bases 2..37 but is composite
    payload = certify.certificate_to_dict(pseudoprime_certificate())
    code, out, _ = _check_payload(tmp_path, capsys, payload)
    assert code == 2
    assert f"q_prime_power [q={PSI12}]" in out


def test_certify_refuses_a_prime_above_psi13(tmp_path, capsys):
    out_file = tmp_path / "c.json"
    code, out, _ = run(capsys, "certify", "--n", "3", "--d", str(M89_DEGREE), "--out", str(out_file))
    assert code == 2
    assert f"does not qualify: prime factor {M89} exceeds psi13" in out
    assert not out_file.exists()


def test_check_refuses_an_entry_above_psi13(tmp_path, capsys):
    payload = certify.certificate_to_dict(assembled_certificate(3, M89_DEGREE, certify.Mode.FULL))
    code, out, _ = _check_payload(tmp_path, capsys, payload)
    assert code == 2
    assert f"q_prime_power [q={M89}]: q = {M89}: its root exceeds psi13" in out


def test_certify_exits_3_when_factoring_passes_the_brent_bound(monkeypatch, capsys):
    monkeypatch.setattr(arith, "BRENT_MAX_R", 2**10)
    d = pseudoprime_certificate().d
    code, _, err = run(capsys, "certify", "--n", "3", "--d", str(d))
    assert code == 3
    assert "BRENT_MAX_R = 1024" in err


def test_check_deeply_nested_json_is_usage_error(tmp_path, capsys):
    cert_file = tmp_path / "c.json"
    cert_file.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "check", "--cert", str(cert_file))
    assert code == 1
    assert "invalid certificate JSON" in err


_INT = st.integers(min_value=-(10**400), max_value=10**400)
# prime powers up to 400 digits, so that entries get past the prime-power check
_Q = st.builds(pow, st.sampled_from([2, 5, 7, 13, 10**9 + 7]), st.integers(1, 1300)).filter(
    lambda q: q < 10**400
) | _INT
_CERT = st.fixed_dictionaries(
    {
        "schema_version": st.just(1),
        "kind": st.just("certificate"),
        "mode": st.sampled_from(["FULL", "WEAK"]),
        "n": st.integers(-5, 1000),
        "d": st.integers(-5, 10**400),
        "entries": st.lists(st.fixed_dictionaries({"q": _Q, "i": _INT, "j": _INT, "k": _INT}), max_size=4),
        "premises": st.lists(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(["KOLLAR_QN", "KOLLAR_BINOM", "ABELIAN_FACTORIAL", "X"]), "q": _Q},
                optional={"k": _INT},
            ),
            max_size=6,
        ),
    }
)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_CERT, st.sampled_from([None, "schema_version", "kind", "mode", "n", "d", "entries", "premises"]), _JSON)
def test_check_is_total_on_fuzzed_files(payload, field, junk):
    # the exit-code contract holds for any certificate file: no exception
    # escapes cli.main.  Most files are well-formed with arbitrary values;
    # the rest have one field replaced by arbitrary JSON.
    if field is not None:
        payload[field] = junk
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        assert cli.main(["check", "--cert", path]) in (0, 1, 2, 3)
    finally:
        os.unlink(path)


# --- enumerate / smallest -------------------------------------------------------


def test_enumerate_json(capsys):
    code, payload = run_json(
        capsys, "enumerate", "--n", "3", "--d-max", "5005", "--format", "json"
    )
    assert code == 0
    assert payload["degrees"] == [5005]
    assert payload["count"] == 1


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d-max", "5005", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["d", "5005"]


@pytest.mark.parametrize("fmt, header", [("text", "1734 qualifying degrees <= 1000000"), ("csv", "d")])
def test_enumerate_lists_one_degree_a_line(capsys, fmt, header):
    # the listing's exact bytes: the header, then each degree and a newline
    ds = certify.enumerate_qualifying(3, 10**6)
    assert len(ds) == 1734
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d-max", "1e6", "--format", fmt)
    assert (code, out) == (0, header + "\n" + "".join(f"{d}\n" for d in ds))


def test_smallest_text(capsys):
    code, out, _ = run(capsys, "smallest", "--n", "3")
    assert code == 0
    assert out.strip() == "5005"


def test_smallest_budget_capacity_exit3(capsys):
    code, _, err = run(capsys, "smallest", "--n", "3", "--budget", "100")
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (("--n", "3", "--budget", "0"), 1, "error: budget must be >= 1, got 0"),
        (("--n", "3", "--budget", "-5"), 1, "error: budget must be >= 1, got -5"),
        (("--n", "3", "--budget", "100000000000"), 0, "5005"),
        (("--n", "7", "--budget", "1e11"), 3, "no qualifying degree found for n = 7, mode = FULL up to budget 100000000000"),
        (("--n", "6"), 3, "no qualifying degree found for n = 6, mode = FULL up to budget 10000000000"),
        (("--n", "6", "--budget", "2e11"), 0, "192875738341"),
    ],
)
def test_smallest_budget_exit_codes(capsys, argv, code, shown):
    got, out, err = run(capsys, "smallest", *argv)
    assert got == code
    assert shown in out + err


@pytest.mark.parametrize("budget", [(), ("--budget", "1e4000")])
def test_smallest_shows_a_huge_n_or_budget_by_its_bit_length(capsys, budget):
    code, out, err = run(capsys, "smallest", "--n", "1e4000", *budget)
    assert code == 3 and out == ""
    assert "<13288-bit integer>" in err and len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--n", "3", "--N", "1e4000"),
        ("ihc", "--n", "3", "--N", "1e4000"),
        ("enumerate", "--n", "3", "--d-max", "1e4000"),
        ("diagnostics", "--n", "3", "--checkpoints", "1e4000"),
    ],
)
def test_sieve_commands_show_a_huge_bound_by_its_bit_length(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "<13288-bit integer>" in err and len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (("enumerate", "--n", "300000", "--d-max", "100"), 0, "0 qualifying degrees <= 100"),
        (("smallest", "--n", "300000"), 3, "capacity error"),
        (("density", "--n", "300000", "--N", "1000000"), 0, "count = 0 of N = 1000000"),
        (("ihc", "--n", "300000", "--N", "1000000"), 0, "count = 0 in [1, 1000000]"),
        (("density", "--n", "300000", "--N", "20000000000"), 3, "capacity error"),
        # malformed input is refused before the budget, and any bound past
        # the budget is refused before the least degree c is compared
        (("density", "--n", "2", "--N", "20000000000"), 1, "error: n must be >= 3, got 2"),
        (("enumerate", "--n", "2", "--d-max", "20000000000"), 1, "error: n must be >= 3, got 2"),
        (("enumerate", "--n", "300000", "--d-max", "20000000000"), 3, "capacity error"),
        (("diagnostics", "--n", "0", "--checkpoints", "100000000000"), 1, "error: mertens_sum requires n >= 1, got 0"),
        (
            ("diagnostics", "--n", "3", "--checkpoints", "100000000000", "--lam", "0"),
            1,
            "error: lambda must be positive, got 0",
        ),
        # a bad n is named before lambda**n is formed
        (
            ("diagnostics", "--n", "-1000000", "--checkpoints", "10", "--lam", "3/2"),
            1,
            "error: mertens_sum requires n >= 1, got -1000000",
        ),
    ],
)
def test_sieve_commands_answer_huge_n_at_once(capsys, argv, code, shown):
    # every qualifying degree exceeds 2^n, so no command needs 300000!
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert got == code and shown in out + err
    assert elapsed < 0.5


def test_density_checks_lambda_before_the_sieve_budget(capsys):
    # a malformed request is a usage error even when N is also over budget
    code, _, err = run(capsys, "density", "--n", "3", "--N", "20000000000", "--mode", "lambda-prime")
    assert code == 1
    assert "lam" in err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("--n", "1", "--N", "200000000", "--lam", "1"), "walk prime bound 200000000 exceeds 10^8"),
        (("--n", "1", "--N", "10000000001", "--lam", "1"), "sieve bound 10000000001 exceeds budget 10000000000"),
    ],
)
def test_density_lambda_prime_bound_exit3_at_once(capsys, argv, shown):
    # the lambda walk lists the primes up to iroot(lambda**n * N, n); the sieve
    # budget is checked first, then that bound is held to 10**8
    for mode in ("lambda-primepower", "lambda-prime"):
        start = time.perf_counter()
        code, out, err = run(capsys, "density", "--mode", mode, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", f"capacity error: {shown}\n")


# --- dickman --------------------------------------------------------------------

_USAGE_DICKMAN = (
    "usage: degcert dickman [-h] (--u U | --table) [--u-max U_MAX] [--step STEP]\n"
    "                       [--format {text,json,csv}]\n"
)


def test_dickman_point(capsys):
    code, out, _ = run(capsys, "dickman", "--u", "2")
    assert code == 0
    assert out.strip().startswith("0.3068528194")


def test_dickman_table_csv(capsys):
    code, out, _ = run(capsys, "dickman", "--table", "--u-max", "2", "--step", "0.5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u,rho,error_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert [u for u, _, _ in rows] == ["0", "0.5", "1", "1.5", "2"]  # one row per node
    assert [rho for _, rho, _ in rows[:3]] == ["1.0"] * 3
    assert abs(float(rows[-1][1]) - (1.0 - log(2.0))) <= 1e-9
    assert all(float(err) <= 1e-9 for _, _, err in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ("--table", "--format", "json"),
        ("--table",),
        ("--u", "2"),
        ("--u", "2", "--format", "csv"),
        ("--table", "--format", "csv"),
    ],
)
def test_dickman_takes_no_out(tmp_path, capsys, argv):
    # a table goes to stdout only; `> FILE` writes it to a file
    out_file = tmp_path / "rho.out"
    code, out, err = run(capsys, "dickman", *argv, "--out", str(out_file))
    assert (code, out) == (1, "")
    assert f"error: unrecognized arguments: --out {out_file}\n" in err
    assert not out_file.exists()


def test_dickman_u_with_table_is_usage_error(capsys, monkeypatch):
    # the table has no single u to evaluate
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "dickman", "--table", "--u", "2")
    assert (code, out) == (1, "")
    assert err == _USAGE_DICKMAN + "error: argument --u: not allowed with argument --table\n"


@pytest.mark.parametrize(
    "argv", [("--step", "0.5", "--u-max", "9"), ("--step", "0.125"), ("--u-max", "3"), ("--format", "csv")]
)
def test_dickman_u_with_table_options_is_usage_error(capsys, argv):
    # --u-max, --step and --format csv shape only a table
    code, out, err = run(capsys, "dickman", "--u", "2", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--table" in err


def test_dickman_bad_tol_usage(capsys):
    # every value carries the fixed error bound 1e-14, so the CLI takes no tol
    code, _, err = run(capsys, "dickman", "--u", "2", "--tol", "1e-15")
    assert code == 1
    assert err.endswith("error: unrecognized arguments: --tol 1e-15\n")


def test_dickman_missing_u_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = run(capsys, "dickman")
    assert code == 1
    assert err == _USAGE_DICKMAN + "error: one of the arguments --u --table is required\n"


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_dickman_table_non_finite_step_usage(capsys, step):
    code, out, err = run(capsys, "dickman", "--table", "--step", step)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--table", "--u-max", "-1"), "error: u_max must be in [1, 50.0], got -1.0\n"),
        (("--table", "--u-max", "0"), "error: u_max must be in [1, 50.0], got 0.0\n"),
        (("--table", "--u-max", "60"), "error: u_max must be in [1, 50.0], got 60.0\n"),
        (("--table", "--u-max", "nan"), "error: u_max must be in [1, 50.0], got nan\n"),
        (("--u", "60"), "error: u must be in [0, 50.0], got 60.0\n"),
    ],
)
def test_dickman_out_of_range_names_its_option(capsys, argv, err):
    assert run(capsys, "dickman", *argv) == (1, "", err)


def test_dickman_table_over_node_budget_exits_3_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "dickman", "--table", "--u-max", "50", "--step", "1e-9")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err.startswith("capacity error:")


# --- density / ihc / diagnostics -------------------------------------------------


def test_density_json(capsys):
    code, payload = run_json(
        capsys,
        "density",
        "--n",
        "3",
        "--N",
        "6000",
        "--checkpoints",
        "5004,5005,6000",
        "--format",
        "json",
    )
    assert code == 0
    assert payload["count"] == 1
    assert payload["samples"] == [[5004, 0], [5005, 1], [6000, 1]]
    assert payload["mode"] == "PROP16_FULL"


def test_checkpoints_e_notation_is_exact(capsys):
    code, payload = run_json(
        capsys, "density", "--n", "3", "--N", "6000", "--checkpoints", "5.005e3,6E3", "--format", "json"
    )
    assert code == 0
    assert payload["samples"] == [[5005, 1], [6000, 1]]


@pytest.mark.parametrize("token", ["1.00000000001e3", "5004.5", "1e-3", "10/2", "inf", "1e999999999"])
def test_checkpoints_non_integer_exit1(capsys, token):
    code, _, err = run(capsys, "density", "--n", "3", "--N", "6000", "--checkpoints", token)
    assert code == 1
    assert "not an integer" in err


@pytest.mark.parametrize("command", ["density", "diagnostics"])
def test_checkpoints_skip_empty_tokens(capsys, command):
    argv = (command, "--n", "3") + (("--N", "6000") if command == "density" else ())
    assert run(capsys, *argv, "--checkpoints", "5004,,6000,") == run(capsys, *argv, "--checkpoints", "5004,6000")


@pytest.mark.parametrize("lam_pow", ["--lam-pow=-1/2", "--lam-pow=0"])
def test_density_nonpositive_lam_pow_exit1(capsys, lam_pow):
    code, out, err = run(capsys, "density", "--n", "3", "--N", "100", "--mode", "lambda-prime", lam_pow)
    assert (code, out) == (1, "")
    assert err == f"error: lambda**n must be positive, got {lam_pow.split('=')[1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "3", "--d-max", "1000"),
        ("smallest", "--n", "3"),
        ("density", "--n", "3", "--N", "1000"),
        ("ihc", "--n", "3", "--N", "1000"),
        ("diagnostics", "--n", "3", "--checkpoints", "1000"),
    ],
)
def test_walk_commands_refuse_threads(capsys, argv):
    # no command asks for a worker count: the sieves take the CPU count
    code, out, err = run(capsys, *argv, "--threads", "2")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("command", ["ihc", "diagnostics"])
def test_sieve_commands_take_threads(capsys, monkeypatch, command):
    # the worker count is the CPU count; the recorded calls stand in for the
    # sieves, so this starts no threads
    calls = []
    report = density.IhcReport(n=3, N=1000, range_lo=1, count=0, fraction=0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(density, "ihc_fraction", lambda *args, threads: calls.append(("ihc", threads)) or report)
    monkeypatch.setattr(
        density, "convergence_diagnostics", lambda *args, lam, threads: calls.append(("diagnostics", threads)) or []
    )
    argv = ("--N", "1000") if command == "ihc" else ("--checkpoints", "1000")
    assert run(capsys, command, "--n", "3", *argv)[0] == 0
    assert calls == [(command, 3)]


def test_density_csv_trajectory(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "--n",
        "3",
        "--N",
        "6000",
        "--checkpoints",
        "5005,6000",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,count,empirical,theoretical"
    assert lines[1].startswith("5005,1,")


def test_density_lambda_mode(capsys):
    code, payload = run_json(
        capsys,
        "density",
        "--n",
        "3",
        "--N",
        "100",
        "--mode",
        "lambda-primepower",
        "--lam",
        "10",
        "--format",
        "json",
    )
    assert code == 0
    assert payload["count"] == 18
    assert payload["theoretical_is_heuristic"] is True
    assert payload["lambda"] == "10"


def test_density_bad_lambda_usage(capsys):
    code, _, err = run(capsys, "density", "--n", "3", "--N", "100", "--mode", "lambda-prime", "--lam", "abc")
    assert code == 1
    assert "error: argument --lam: not a rational number: 'abc'\n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--n", "3", "--N", "100", "--mode", "lambda-prime", "--lam-pow", "1/0"),
        # an empty value is refused, not taken for an omitted option
        ("density", "--n", "3", "--N", "100", "--lam", ""),
        ("density", "--n", "3", "--N", "100", "--lam-pow", ""),
        ("diagnostics", "--n", "3", "--checkpoints", "10,100", "--lam", "abc"),
    ],
    ids=["lam-pow 1/0", "empty lam", "empty lam-pow", "diagnostics lam"],
)
def test_rational_options_refuse_a_non_rational(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"error: argument {argv[-2]}: not a rational number: {argv[-1]!r}\n" in err


def test_density_lam_pow_flag(capsys):
    # lambda**3 = 1/2 expresses the irrational lambda = 2**(-1/3) exactly
    code, payload = run_json(
        capsys,
        "density",
        "--n",
        "3",
        "--N",
        "30000",
        "--mode",
        "lambda-primepower",
        "--lam-pow",
        "1/2",
        "--format",
        "json",
    )
    assert code == 0
    assert payload["lambda"] is None
    assert payload["lambda_pow"] == "1/2"
    # the PROP16_FULL set is contained in this one
    code2, full = run_json(
        capsys, "density", "--n", "3", "--N", "30000", "--format", "json"
    )
    assert payload["count"] >= full["count"] > 0


def test_density_both_lambdas_usage_error(capsys):
    code, _, err = run(
        capsys,
        "density", "--n", "3", "--N", "100", "--mode", "lambda-prime",
        "--lam", "1", "--lam-pow", "1",
    )
    assert code == 1


@pytest.mark.parametrize("mode", ["prop16-full", "prop16-weak"])
@pytest.mark.parametrize("flag", [("--lam", "5"), ("--lam-pow", "1/2")], ids=["lam", "lam-pow"])
def test_density_lambda_flag_in_prop16_mode_is_usage_error(capsys, mode, flag):
    # the certificate modes have no lambda to apply
    code, out, err = run(capsys, "density", "--n", "3", "--N", "100", "--mode", mode, *flag)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "LAMBDA modes" in err


def test_ihc_json(capsys):
    code, payload = run_json(capsys, "ihc", "--n", "3", "--N", "1000", "--format", "json")
    assert code == 0
    assert payload["count"] == 138
    assert payload["fraction"] == 138 / 1000


def test_diagnostics_csv(capsys):
    code, out, _ = run(
        capsys,
        "diagnostics",
        "--n",
        "3",
        "--checkpoints",
        "10,100",
        "--lam",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,prime_power_ratio,mertens,tail_small,tail_large,ratio_bound"
    assert lines[1].startswith("10,0.7,")


@pytest.mark.parametrize(
    "argv",
    [
        ("dickman", "--table", "--u-max", "2", "--step", "0.5"),
        ("density", "--n", "3", "--N", "20000", "--checkpoints", "5005,20000"),
        ("diagnostics", "--n", "3", "--checkpoints", "10,100", "--lam", "1"),
        ("enumerate", "--n", "3", "--d-max", "20000"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_csv_table_ends_its_lines_with_lf(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.count("\n") > 1 and out.endswith("\n")
    assert "\r" not in out


def test_diagnostics_capacity_exit3(capsys):
    code, _, err = run(capsys, "diagnostics", "--n", "3", "--checkpoints", "100000000000")
    assert code == 3


# --- verify-q-example -------------------------------------------------------------


def test_verify_q_example_pass(capsys):
    code, out, _ = run(capsys, "verify-q-example", "--d", "53599")
    assert code == 0
    for k in (8876, 8567, 7790, 3968):
        assert str(k) in out


def test_verify_q_example_json(capsys):
    code, payload = run_json(
        capsys, "verify-q-example", "--d", "53599", "--qs", "7,13,19,31", "--format", "json"
    )
    assert code == 0
    assert payload["passed"] is True
    assert [c["k"] for c in payload["checks"]] == [8876, 8567, 7790, 3968]


def test_verify_q_example_incomplete_exit2(capsys):
    code, out, _ = run(capsys, "verify-q-example", "--d", "53599", "--qs", "7")
    assert code == 2
    assert "not exactly the prime divisors" in out


def test_verify_q_example_repeated_q_exit2(capsys):
    code, out, _ = run(capsys, "verify-q-example", "--d", "53599", "--qs", "7,13,19,31,31")
    assert code == 2
    assert out.startswith("d = 53599: FAIL\n  FAIL: qs are not exactly the prime divisors of d\n")


@pytest.mark.parametrize("d", ["6", "53604"])
def test_verify_q_example_zero_q_exit2(capsys, d):
    # 6 | d, so q = 0 reaches the q | k check with k = d / 6
    code, out, err = run(capsys, "verify-q-example", "--d", d, "--qs", "0")
    assert code == 2 and err == ""
    assert f"q = 0: k = {int(d) // 6}, passed = False" in out


@pytest.mark.parametrize("d", ["6", "53604"])
def test_verify_q_example_zero_q_json_exit2(capsys, d):
    code, payload = run_json(capsys, "verify-q-example", "--d", d, "--qs", "0", "--format", "json")
    assert code == 2
    assert payload["passed"] is False
    (check,) = payload["checks"]
    assert (check["q"], check["k"], check["q_divides_k"]) == (0, int(d) // 6, False)


def test_verify_q_example_refuses_a_q_above_psi13(capsys):
    qs = ",".join(map(str, M89_QS))
    code, out, _ = run(capsys, "verify-q-example", "--d", str(M89_Q_EXAMPLE), "--qs", qs)
    assert code == 2
    # the qs are exactly the prime divisors of d; the failure is that M89 is above psi13
    assert out.startswith(
        f"d = {M89_Q_EXAMPLE}: FAIL\n  FAIL: q = {M89} is not a proved prime: it exceeds psi13 = {arith.PSI13}\n"
    )
    assert "not exactly the prime divisors" not in out
    assert out.rstrip().splitlines()[-1].startswith(f"  q = {M89}: k = ")
    assert out.rstrip().endswith("passed = False")


def test_verify_q_example_with_qs_does_not_factor_d(capsys):
    # the tests' 95-digit d defeats Brent's method; PSI12 is no proved prime
    cert = pseudoprime_certificate()
    qs = ",".join(str(e.q) for e in cert.entries)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify-q-example", "--d", str(cert.d), "--qs", qs)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "FAIL: qs are not exactly the prime divisors of d" in out
    assert f"FAIL: q = {PSI12} is not a proved prime\n" in out


def test_verify_q_example_d_1_has_no_q_to_check(capsys):
    # every q's condition needs d >= 7**3 + 228, and 1 has no prime divisor
    assert run(capsys, "verify-q-example", "--d", "1") == (2, "d = 1: FAIL\n  FAIL: no q to check\n", "")
    code, payload = run_json(capsys, "verify-q-example", "--d", "1", "--format", "json")
    assert code == 2
    assert (payload["checks"], payload["covers_prime_divisors"], payload["passed"]) == ([], True, False)


def test_verify_q_example_empty_qs_means_the_prime_divisors(capsys):
    assert run(capsys, "verify-q-example", "--d", "53599", "--qs", ",") == run(capsys, "verify-q-example", "--d", "53599")


def test_verify_q_example_without_qs_factors_d_once(capsys, monkeypatch):
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda d: calls.append(d) or factorize(d))
    code, _, _ = run(capsys, "verify-q-example", "--d", "53599")
    assert code == 0 and calls == [53599]


# --- integer options -----------------------------------------------------------------

# every integer option of every command that has one, with plain values that run fast
_INTEGER_ARGV = {
    "certify": ["--n", "3", "--d", "5005"],
    "enumerate": ["--n", "3", "--d-max", "20000"],
    "smallest": ["--n", "3", "--budget", "10000"],
    "density": ["--n", "3", "--N", "20000", "--checkpoints", "5005,10000"],
    "ihc": ["--n", "3", "--N", "1000", "--range-lo", "100"],
    "diagnostics": ["--n", "3", "--checkpoints", "10,100"],
    "verify-q-example": ["--d", "53599", "--qs", "7,13,19,31"],
}
_INTEGER_OPTIONS = [(command, argv[i]) for command, argv in _INTEGER_ARGV.items() for i in range(0, len(argv), 2)]
# each spells every token of a value in e-notation or as an integral decimal
_SPELLINGS = {"e": lambda t: f"{Decimal(t):e}", "point": lambda t: f"{t}.0", "negative-exponent": lambda t: f"{t}0e-1"}


def _with_value(command, option, value):
    argv = list(_INTEGER_ARGV[command])
    argv[argv.index(option) + 1] = value
    return [command, *argv]


@pytest.mark.parametrize("spelling", _SPELLINGS)
@pytest.mark.parametrize("command,option", _INTEGER_OPTIONS, ids=[" ".join(o) for o in _INTEGER_OPTIONS])
def test_integer_options_read_e_notation_exactly(capsys, command, option, spelling):
    plain = [command, *_INTEGER_ARGV[command]]
    value = plain[plain.index(option) + 1]
    spelled = ",".join(map(_SPELLINGS[spelling], value.split(",")))
    expected = run(capsys, *plain)
    assert expected[0] == 0
    assert run(capsys, *_with_value(command, option, spelled)) == expected


@pytest.mark.parametrize("token", ["1.5", "1e-3", "inf", "x", "1__0"])
@pytest.mark.parametrize("command,option", _INTEGER_OPTIONS, ids=[" ".join(o) for o in _INTEGER_OPTIONS])
def test_integer_options_refuse_a_non_integer(capsys, command, option, token):
    code, out, err = run(capsys, *_with_value(command, option, token))
    assert (code, out) == (1, "")
    assert f"error: argument {option}: not an integer: {token!r}\n" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify-q-example", "--d", "7" * 4300, "--qs", "7"), 2),
        (("verify-q-example", "--d", "1e4299", "--qs", "7"), 2),
        (("verify-q-example", "--d", "7" * 4301, "--qs", "7"), 1),
        (("verify-q-example", "--d", "1e4300", "--qs", "7"), 1),
        # a 4101-digit checkpoint is read, and the sieve budget refuses it
        (("diagnostics", "--n", "3", "--checkpoints", "1" + "0" * 4100), 3),
    ],
    ids=["4300 digits", "1e4299", "4301 digits", "1e4300", "4101-digit checkpoint"],
)
def test_integer_options_read_up_to_4300_digits(capsys, argv, code):
    got, _, err = run(capsys, *argv)
    assert got == code
    assert ("not an integer" in err) == (code == 1)


def _reference_integer(text):
    """The integer reader as it was before it read through cli._parse_fraction:
    float() for the syntax, then Decimal for integrality and the exponent."""
    try:
        float(text)  # refuses misplaced underscores, which Decimal drops ("1__0" would be 10)
        value = Decimal(text)
    except (ValueError, InvalidOperation):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value() or value.adjusted() >= 4300:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _read(reader, text):
    try:
        return reader(text)
    except argparse.ArgumentTypeError as exc:
        return f"refused: {exc}"


_ARABIC_INDIC = "".join(map(chr, range(0x660, 0x66A)))
_EDGE_TOKENS = [
    "0", "1", "-1", "+3", "007", "5005", "1e8", "1E8", "1e+8", "1.0e4", "1.00000000001e3", "1.5", "1e-3",
    "100e-2", "0.1e1", "1.", ".5", "-0", "-0.0e0", "1_000", "1__0", "_1", "1_", "1e8_0", "1e_8", "1_e8",
    "1_000.000", "1._0", "١٢٣", "٣e٢", "1٢", "١_٠", " 5 ", "\t7\n", "\xa09", "\x1c1", "1 0", "", " ", "nan",
    "-nan", "inf", "-Infinity", "snan", "x", "0x10", "1e", "e5", ".", "4/2", "1/1", "-6/3", "1e4299",
    "-1e4299", "1e4300", "-1e4300", "9" * 4300, "9" * 4301, "1" + "0" * 4300, "0" * 5000 + "1",
    "1." + "0" * 4400, "1" + "0" * 4400 + "e-200", "1e99999999", "1e-99999999", "0e-99999999", "0e99999999",
    "0e4299", "0e4300", "0e-4301", "1e-4300", "5e-4300",
]


@pytest.mark.parametrize("text", _EDGE_TOKENS, ids=[ascii(t)[:24] for t in _EDGE_TOKENS])
def test_integer_reads_edge_tokens_as_the_reference_does(text):
    assert _read(cli._integer, text) == _read(_reference_integer, text)


_TOKENS = st.one_of(
    st.text("0123456789" + _ARABIC_INDIC + "_.eE+-/ ", max_size=12),
    st.builds(
        "{}{}{}".format,
        st.one_of(
            st.sampled_from(["0", "-0", "0.0", "٠", "1", "1.5", "10", "1_0"]),
            st.text("0123456789" + _ARABIC_INDIC + "_.+- ", max_size=8),
        ),
        st.sampled_from(["e", "E", "e+", "E-", "e_"]),
        st.integers(-5000, 5000),
    ),
)


@settings(max_examples=1500, deadline=None)
@given(_TOKENS)
def test_integer_reads_as_the_reference_does(text):
    assert _read(cli._integer, text) == _read(_reference_integer, text)


def test_the_4300_digit_rule_is_written_once():
    integer, fraction = (inspect.getsource(f) for f in (cli._integer, cli._parse_fraction))
    assert "_parse_fraction(" in integer
    assert not any(word in integer for word in ("float(", "Decimal(", "4300"))
    assert "10**4300" not in fraction  # built once, as cli._BOUND


# A rational is bounded by its value, not by its spelling: a zero spelled with
# any exponent below 4300 is 0, and a long spelling of a small value is read.
@pytest.mark.parametrize(
    "text, value",
    [
        ("0e-5000", 0), ("-0e-99999999", 0), ("1." + "0" * 4400, 1), ("0" * 5000 + "7", 7),
        ("5e-4300", Fraction(1, 2 * 10**4299)),
    ],
    ids=["0e-5000", "-0e-99999999", "1.000...", "000...7", "5e-4300"],
)
def test_rationals_are_bounded_by_value(text, value):
    assert cli._parse_fraction(text) == value


@pytest.mark.parametrize(
    "text", ["0e4300", "1e4300", "1e-4300", "1." + "0" * 4400 + "1", "1/" + "1" * 4301, "\x1c1", "1__0", "nan", "1/0"]
)
def test_rationals_past_the_bound_or_misspelled_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match=f"^not a rational number: {re.escape(repr(text))}$"):
        cli._parse_fraction(text)


# Each echoes a 4001-digit integer or rational in a ParameterError (exit 1);
# arith._show_int writes it as its sign and bit length.
_HUGE_ECHOES = [
    ("certify", "--n=-1e4000", "--d", "5"),
    ("certify", "--n", "3", "--d=-1e4000"),
    ("smallest", "--n", "3", "--budget=-1e4000"),
    ("density", "--n=-1e4000", "--N", "10"),
    ("density", "--n", "3", "--N=-1e4000"),
    ("enumerate", "--n=-1e4000", "--d-max", "10"),
    ("verify-q-example", "--d=-1e4000"),
    ("ihc", "--n", "3", "--N=-1e4000"),
    ("ihc", "--n", "3", "--N", "10", "--range-lo", "1e4000"),
    ("diagnostics", "--n=-1e4000", "--checkpoints", "10"),
    ("density", "--n", "3", "--N", "1e4000", "--checkpoints", "0"),
    ("density", "--n", "3", "--N", "100", "--mode", "lambda-prime", "--lam=-1e4000"),
    ("diagnostics", "--n", "3", "--checkpoints", "100", "--lam=-1e4000"),
]


@pytest.mark.parametrize("argv", _HUGE_ECHOES, ids=" ".join)
def test_usage_errors_show_a_huge_number_by_its_bit_length(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "<13288-bit integer>" in err and len(err.encode()) <= 300
    assert ("-<13288-bit integer>" in err) == any(a.endswith("=-1e4000") for a in argv)


_LAMBDA = ["--N", "100", "--mode", "lambda-prime"]


# Inputs whose threshold, sum identity or lambda**n would pass 4300 digits,
# rationals that would, an n past the float range, and a lambda**(-n) or tail
# bound past it: each exits by the contract within a few seconds,
# in a fresh interpreter, so that an input that never finishes fails the case.
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("certify", "--n", "100", "--d", "1" + "0" * 42 + "31"), 2, ""),
        (("certify", "--n", "3000", "--d", "1" + "0" * 997 + "453"), 2, ""),
        (("check", "--cert", "{sum}"), 2, ""),
        (("check", "--cert", "{sum_zero}"), 2, ""),
        (("density", "--n", "3", *_LAMBDA, "--lam", "1e99999999"), 1, "not a rational number"),
        (("density", "--n", "3", *_LAMBDA, "--lam=-1e5000"), 1, "not a rational number"),
        (("density", "--n", "3", *_LAMBDA, "--lam", "1e2000"), 1, "more than 4300 digits"),
        (("density", "--n", "3", *_LAMBDA, "--lam", "1e2000", "--format", "json"), 1, "more than 4300 digits"),
        (("density", "--n", "1e6", *_LAMBDA, "--lam", "3/2"), 1, "more than 4300 digits"),
        (("density", "--n", "1e8", *_LAMBDA, "--lam", "3/2"), 1, "more than 4300 digits"),
        (("diagnostics", "--n", "1e8", "--checkpoints", "10,100", "--lam", "3/2"), 1, "more than 4300 digits"),
        (("diagnostics", "--n", "1e4000", "--checkpoints", "10"), 0, ""),
        (("density", "--n", "1e4000", *_LAMBDA, "--lam", "1"), 0, ""),
        (("smallest", "--n", "1e4000"), 3, "no qualifying degree found"),
        (("diagnostics", "--n", "3", "--checkpoints", "100", "--lam", "1e-200"), 1, "lambda**(-n) exceeds the float range"),
        (("diagnostics", "--n", "1", "--checkpoints", "100", "--lam", "1e-310"), 1, "lambda**(-n) exceeds the float range"),
        (
            ("diagnostics", "--n", "3", "--checkpoints", "1e8", "--lam", "1e-102", "--format", "json"),
            1,
            "exp>=2 tail bound at m = 100000000 exceeds the float range",
        ),
    ],
    ids=[
        "45-digit d, n = 100", "1001-digit d, n = 3000", "sum identity", "sum identity, i*q + j = 0",
        "lam 1e99999999", "lam -1e5000", "lam 1e2000", "lam 1e2000 json", "lam 3/2, n = 1e6", "lam 3/2, n = 1e8",
        "diagnostics lam 3/2, n = 1e8", "diagnostics, n = 1e4000", "lam 1, n = 1e4000", "smallest, n = 1e4000",
        "diagnostics lam 1e-200", "diagnostics lam 1e-310, n = 1", "diagnostics lam 1e-102 json",
    ],
)
def test_huge_values_exit_by_the_contract(tmp_path, argv, code, err):
    # n = 5000 and q = d = 7**5000 (4226 digits): q**n would have 21 million digits
    q = 7**5000
    for name, j in (("sum", 1), ("sum_zero", -q)):
        entry = certify.PrimePowerCertificate(q=q, i=1, j=j, k=1)
        cert = certify.Certificate(n=5000, d=q, mode=certify.Mode.FULL, entries=(entry,), premises=())
        (tmp_path / f"{name}.json").write_text(certify.certificate_to_json(cert))
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    script = "import sys\nfrom degcert import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    proc = _fresh_interpreter(script, *argv, timeout=10)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and err in proc.stderr


# --- usage behaviour ---------------------------------------------------------------


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    cli.main(["smallest", "--n", "3"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["certify", "--n", "3", "--d", "5005"]) == 0
    assert cli.main(["frobnicate"]) == 1
    assert built == []


def test_unknown_command_exit1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_version_and_help_exit0(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "degcert" in out
    assert cli.main(["--help"]) == 0


def test_missing_required_flag_exit1(capsys):
    assert cli.main(["certify", "--n", "3"]) == 1


# (argv, exit code, exact stdout, exact stderr) of text output that no other
# test reads, and of usage errors, whose stderr is the usage line and the error
_USAGE_CERTIFY = (
    "usage: degcert certify [-h] --n N --d D [--mode {full,weak}] [--out OUT]\n"
    "                       [--format {text,json}]\n"
)
_COMMANDS = "certify,check,enumerate,smallest,dickman,density,ihc,diagnostics,verify-q-example"
_USAGE_TOP = f"usage: degcert [-h] [--version]\n               {{{_COMMANDS}}}\n               ...\n"
_CHOICES = ", ".join(f"'{c}'" for c in _COMMANDS.split(","))
TEXT_CASES = [
    (
        ["enumerate", "--n", "3", "--d-max", "20000"],
        0,
        "5 qualifying degrees <= 20000\n5005\n12155\n17017\n17765\n19019\n",
        "",
    ),
    (
        ["dickman", "--table", "--u-max", "2", "--step", "0.5"],
        0,
        "0.000000 1.0\n0.500000 1.0\n1.000000 1.0\n1.500000 0.5945348918918356\n2.000000 0.3068528194400547\n",
        "",
    ),
    (
        ["density", "--n", "3", "--N", "20000", "--checkpoints", "5005,10000,20000"],
        0,
        "count = 5 of N = 20000\nempirical = 0.00025\ntheoretical = 0.016202796097043858\n"
        "  m = 5005: count = 1, empirical = 0.0001998001998001998\n"
        "  m = 10000: count = 1, empirical = 0.0001\n"
        "  m = 20000: count = 5, empirical = 0.00025\n",
        "",
    ),
    (
        ["diagnostics", "--n", "3", "--checkpoints", "10,100"],
        0,
        "m = 10: Pi(m)/m = 0.7, mertens = 0.6761904761904762\n"
        "m = 100: Pi(m)/m = 0.35, mertens = 0.9694838677155376\n",
        "",
    ),
    (
        ["diagnostics", "--n", "3", "--checkpoints", "10,100", "--lam", "1"],
        0,
        "m = 10: Pi(m)/m = 0.7, mertens = 0.6761904761904762  exp>=2 bound = 0.48611111111111105\n"
        "m = 100: Pi(m)/m = 0.35, mertens = 0.9694838677155376  exp>=2 bound = 0.6152769904258\n",
        "",
    ),
    (
        ["certify", "--n", "3"],
        1,
        "",
        _USAGE_CERTIFY + "error: the following arguments are required: --d\n",
    ),
    (
        ["smallest", "--n", "3", "--threads", "0"],
        1,
        "",
        _USAGE_TOP + "error: unrecognized arguments: --threads 0\n",
    ),
    (
        ["ihc", "--n", "3", "--N", "10", "--threads", "0"],
        1,
        "",
        _USAGE_TOP + "error: unrecognized arguments: --threads 0\n",
    ),
    (
        ["frobnicate"],
        1,
        "",
        _USAGE_TOP + f"error: argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})\n",
    ),
]


@pytest.mark.parametrize("argv,code,out,err", TEXT_CASES, ids=[" ".join(c[0]) for c in TEXT_CASES])
def test_text_and_usage_output_is_byte_exact(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal width
    assert run(capsys, *argv) == (code, out, err)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degcert.cli", "smallest", "--n", "3"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5005"


# Each case runs in a fresh interpreter, which then reports on stderr which
# of the modules that only the sieve and walk paths need it has loaded, and
# whether dataclasses is among them: every record is a NamedTuple.
_REPORT_LOADED = (
    "print(*(m for m in ('numpy', 'concurrent.futures', 'dataclasses') if m in sys.modules), file=sys.stderr)\n"
)
_COLD_CASES = [
    (["certify", "--n", "3", "--d", "5005"], 0, ""),
    (["check", "--cert", "{valid}"], 0, ""),
    (["dickman", "--u", "3"], 0, ""),
    (["verify-q-example", "--d", "53599"], 0, ""),
    (["--version"], 0, ""),
    (["certify", "--n", "3"], 1, ""),
    (["smallest", "--n", "3"], 0, ""),
]


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fresh_interpreter(script, *argv, timeout=60):
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=_src_env(), timeout=timeout
    )


@pytest.mark.parametrize("argv,code,loaded", _COLD_CASES, ids=[" ".join(c[0]) for c in _COLD_CASES])
def test_certificate_commands_start_without_numpy(tmp_path, argv, code, loaded):
    cert = tmp_path / "valid.json"
    cert.write_text(certify.certificate_to_json(certify.build_certificate(3, 5005)))
    argv = [str(cert) if a == "{valid}" else a for a in argv]
    script = "import sys\nfrom degcert import cli\ncode = cli.main(sys.argv[1:])\n" + _REPORT_LOADED + "sys.exit(code)\n"
    proc = _fresh_interpreter(script, *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == loaded
    if argv[0] == "smallest":
        assert proc.stdout == "5005\n"


def test_import_degcert_loads_neither_numpy_nor_the_thread_pool():
    proc = _fresh_interpreter("import sys, degcert\n" + _REPORT_LOADED)
    assert (proc.returncode, proc.stderr) == (0, "\n")


def test_import_degcert_loads_no_degcert_module():
    # the package root holds only __version__; each name is imported from its module
    proc = _fresh_interpreter("import sys, degcert\nprint(*sorted(m for m in sys.modules if m.startswith('degcert.')))\n")
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_by_sigpipe():
    # `degcert enumerate ... | head -1`: the 4 MB list overflows any pipe
    # buffer, so a write after the reader has gone is certain to fail
    argv = ["enumerate", "--n", "3", "--d-max", "1e8"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "degcert.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env()
    )
    assert proc.stdout.readline() == b"427006 qualifying degrees <= 100000000\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "argv",
    [
        ["smallest", "--n", "3"],
        ["--version"],
        # the listing outgrows the buffer, so a write inside _emit_json fails
        ["enumerate", "--n", "3", "--d-max", "1e7", "--format", "json"],
    ],
)
def test_full_stdout_is_an_error_with_exit_1(argv):
    # a buffered stdout first fails to write when it is flushed: main flushes it,
    # so the error is reported, and the interpreter's last flush finds nothing
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "degcert.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


# --- byte-exact JSON output ---------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"

# (golden file stem, expected exit code, argv); "{valid}" and "{tampered}"
# stand for certificate files written by the test.  Each golden file holds
# the exact stdout of `degcert <argv> --format json`; when an output change
# is intended, rewrite the file from that command and review the diff.
GOLDEN_CASES = [
    ("certify_5005", 0, ["certify", "--n", "3", "--d", "5005"]),
    ("certify_4955", 2, ["certify", "--n", "3", "--d", "4955"]),
    ("check_pass", 0, ["check", "--cert", "{valid}"]),
    ("check_fail", 2, ["check", "--cert", "{tampered}"]),
    ("enumerate", 0, ["enumerate", "--n", "3", "--d-max", "20000"]),
    ("smallest", 0, ["smallest", "--n", "4"]),
    ("dickman_u", 0, ["dickman", "--u", "2.5"]),
    ("dickman_table", 0, ["dickman", "--table", "--u-max", "2", "--step", "0.5"]),
    ("density_checkpoints", 0, ["density", "--n", "3", "--N", "20000", "--checkpoints", "5005,10000,20000"]),
    ("density_lam", 0, ["density", "--n", "3", "--N", "100", "--mode", "lambda-primepower", "--lam", "10"]),
    ("density_lam_pow", 0, ["density", "--n", "3", "--N", "20000", "--mode", "lambda-prime", "--lam-pow", "1/2"]),
    ("ihc", 0, ["ihc", "--n", "3", "--N", "1000", "--range-lo", "100"]),
    ("diagnostics", 0, ["diagnostics", "--n", "3", "--checkpoints", "10,100"]),
    ("diagnostics_lam", 0, ["diagnostics", "--n", "3", "--checkpoints", "10,100", "--lam", "1"]),
    ("verify_q_example_pass", 0, ["verify-q-example", "--d", "53599", "--qs", "7,13,19,31"]),
    ("verify_q_example_fail", 2, ["verify-q-example", "--d", "53599", "--qs", "7,11"]),
]


@pytest.mark.parametrize("name,code,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_json_output_is_byte_exact(tmp_path, capsys, name, code, argv):
    text = certify.certificate_to_json(certify.build_certificate(3, 5005))
    files = {"{valid}": tmp_path / "valid.json", "{tampered}": tmp_path / "tampered.json"}
    files["{valid}"].write_text(text)
    files["{tampered}"].write_text(text.replace('"k":468', '"k":469'))
    argv = [str(files.get(a, a)) for a in argv]
    got_code, out, err = run(capsys, *argv, "--format", "json")
    assert (got_code, err) == (code, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


# --- README ---------------------------------------------------------------------------


def _readme_cli_lines():
    """The `degcert ...` lines of README's CLI block, in order."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```\n")[1]
    return [line for line in block.splitlines() if line.startswith("degcert ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # in order, in one directory: `check --cert cert.json` reads the file that
    # `certify ... --out cert.json` writes
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 14
    outputs = {}
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line
        outputs[line.split("#")[0].strip()] = out
    assert outputs["degcert smallest --n 3"] == "5005\n"
    assert outputs["degcert dickman --u 2"].startswith("0.3068528194")
