import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degcert import certify, cli


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


def test_certify_json_failure_payload(capsys):
    code, payload = run_json(capsys, "certify", "--n", "3", "--d", "5004", "--format", "json")
    assert code == 2
    assert payload["qualifies"] is False
    assert "gcd" in payload["reason"]


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
        (("enumerate", "--n", "300000", "--d-max", "100"), 0, "0 qualifying degrees <= 100"),
        (("smallest", "--n", "300000"), 3, "capacity error"),
        (("density", "--n", "300000", "--N", "1000000"), 0, "count = 0 of N = 1000000"),
        (("ihc", "--n", "300000", "--N", "1000000"), 0, "count = 0 in [1, 1000000]"),
        (("density", "--n", "300000", "--N", "20000000000"), 3, "capacity error"),
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


# --- dickman --------------------------------------------------------------------


def test_dickman_point(capsys):
    code, out, _ = run(capsys, "dickman", "--u", "2", "--tol", "1e-10")
    assert code == 0
    assert out.strip().startswith("0.3068528194")


def test_dickman_table_csv(capsys):
    code, out, _ = run(
        capsys,
        "dickman",
        "--table",
        "--u-max",
        "1.0",
        "--step",
        "0.25",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,rho,error_bound"
    assert len(lines) == 6
    assert all(line.split(",")[1] == "1.0" for line in lines[1:])


def test_dickman_bad_tol_usage(capsys):
    code, _, err = run(capsys, "dickman", "--u", "2", "--tol", "1e-15")
    assert code == 1


def test_dickman_missing_u_usage(capsys):
    code, _, err = run(capsys, "dickman")
    assert code == 1


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


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit1(capsys, threads):
    code, _, err = run(capsys, "smallest", "--n", "3", "--threads", threads)
    assert code == 1
    assert "--threads" in err


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
    assert "do not cover" in out


# --- usage behaviour ---------------------------------------------------------------


def test_unknown_command_exit1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_version_and_help_exit0(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "degcert" in out
    assert cli.main(["--help"]) == 0


def test_missing_required_flag_exit1(capsys):
    assert cli.main(["certify", "--n", "3"]) == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degcert.cli", "smallest", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5005"


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
