"""Command-line interface.

Exit codes are a contract: 0 success, 1 usage error, 2 predicate false
(a degree that does not qualify, or a failed verification), 3 capacity
exceeded.  All JSON output is key-sorted and schema-versioned; CSV output
is meant for trajectory plotting elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cache

from . import __version__, arith, certify, density, dickman
from .errors import CapacityError, DecompositionError, ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PREDICATE_FALSE = 2
EXIT_CAPACITY = 3
_BOUND = 10**4300  # every numerator and denominator read stays below it


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; the contract reserves 2 for
    # predicate-false, so usage problems are rerouted to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _parse_fraction(text: str) -> Fraction:
    """A rational read exactly, "p/q" or a decimal such as "-2.5e3", refused when its
    numerator or denominator would have more than 4300 digits; _integer reads through it."""
    try:
        if "/" in text:
            value = Fraction(text)
        else:
            float(text)  # refuses misplaced underscores, which Decimal drops ("1__0" would be 10)
            decimal = Decimal(text)
            # an exponent past 4300 either way is refused before Fraction expands it; 0e-5000 is 0
            if decimal.adjusted() >= 4300 or (decimal and decimal.adjusted() < -4300):
                raise ValueError
            value = Fraction(decimal)  # ValueError on nan, OverflowError on inf
        if max(abs(value.numerator), value.denominator) >= _BOUND:
            raise ValueError
        return value
    except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _integer(text: str) -> int:
    """An integer read exactly: a rational without "/" whose denominator is
    1, so "1e8" and "1.0e4" are accepted, "1.00000000001e3" is not."""
    with contextlib.suppress(argparse.ArgumentTypeError):
        if "/" not in text and (value := _parse_fraction(text)).denominator == 1:
            return value.numerator
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _integers(text: str) -> list[int]:
    """Comma-separated integers, each read by _integer; empty tokens are skipped."""
    return [_integer(t) for t in text.split(",") if t.strip()]


def _emit_json(command: str, **fields) -> None:
    """Print one command's JSON payload: the fields (JSON types only) plus
    schema_version and command, key-sorted; report records are passed
    through _asdict.  The text is streamed in batches of encoder chunks, so
    a long listing is never held as one string."""
    payload = {"schema_version": certify.SCHEMA_VERSION, "command": command, **fields}
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _emit_csv(header, rows) -> None:
    """Print a CSV table, LF-terminated: the header, then one line per row,
    each cell as str() gives it (a float's shortest repr, None as None)."""
    for row in (header, *rows):
        print(",".join(map(str, row)))


def cmd_certify(args) -> int:
    try:
        cert = certify.build_certificate(args.n, args.d, certify.Mode(args.mode.upper()))
    except DecompositionError as exc:
        if args.format == "json":
            _emit_json("certify", n=args.n, d=args.d, mode=args.mode.upper(), qualifies=False, reason=str(exc))
        else:
            print(f"degree {args.d} does not qualify: {exc}")
        return EXIT_PREDICATE_FALSE
    report = certify.verify_certificate(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(certify.certificate_to_json(cert))
    if args.format == "json":
        _emit_json(
            "certify",
            certificate=certify.certificate_to_dict(cert),
            verification=certify.report_to_dict(report),
        )
    else:
        print(f"d = {cert.d}, n = {cert.n}, mode = {cert.mode.value}")
        for e in cert.entries:
            print(f"  q = {e.q}: i = {e.i}, j = {e.j}, k = {e.k}")
        status = "PASS" if report.passed else "FAIL"
        print(f"verification: {status} ({len(report.checks)} checks)")
        for c in report.failures():
            print(f"  FAIL {c.name} [{c.context}]: {c.detail}")
        print(f"note: {certify.VerificationReport.CONDITIONAL_NOTE}")
    return EXIT_OK if report.passed else EXIT_PREDICATE_FALSE


def cmd_check(args) -> int:
    try:
        with open(args.cert, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"certificate file is not UTF-8: {exc}") from None
    cert = certify.certificate_from_json(text)
    report = certify.verify_certificate(cert)
    if args.format == "json":
        _emit_json("check", verification=certify.report_to_dict(report))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"certificate for d = {cert.d} (n = {cert.n}, {cert.mode.value}): {status}")
        for c in report.failures():
            print(f"  FAIL {c.name} [{c.context}]: {c.detail}")
    return EXIT_OK if report.passed else EXIT_PREDICATE_FALSE


def cmd_enumerate(args) -> int:
    ds = certify.enumerate_qualifying(args.n, args.d_max, certify.Mode(args.mode.upper()))
    if args.format == "json":
        _emit_json("enumerate", n=args.n, mode=args.mode.upper(), d_max=args.d_max, count=len(ds), degrees=ds)
    else:
        print("d" if args.format == "csv" else f"{len(ds)} qualifying degrees <= {args.d_max}")
        sys.stdout.writelines(f"{d}\n" for d in ds)
    return EXIT_OK


def cmd_smallest(args) -> int:
    d = certify.smallest_qualifying(args.n, certify.Mode(args.mode.upper()), budget=args.budget)
    if args.format == "json":
        _emit_json("smallest", n=args.n, mode=args.mode.upper(), d=d)
    else:
        print(d)
    return EXIT_OK


def cmd_dickman(args) -> int:
    if args.table:
        u_max = 3.0 if args.u_max is None else args.u_max
        step = 0.125 if args.step is None else args.step
        table = dickman.rho_table(u_max, step)
        if args.format == "csv":
            rows = ((f"{i * table.step:.10g}", float(v), table.abs_error_bound)
                    for i, v in enumerate(table.values))
            _emit_csv(("u", "rho", "error_bound"), rows)
        elif args.format == "json":
            _emit_json("dickman", **{**table._asdict(), "values": table.values.tolist()})
        else:
            for idx, v in enumerate(table.values):
                print(f"{idx * table.step:.6f} {float(v)!r}")
        return EXIT_OK
    if args.u_max is not None or args.step is not None or args.format == "csv":
        raise ParameterError("--u-max, --step and --format csv apply only to --table")
    value = dickman.rho(args.u)
    if args.format == "json":
        _emit_json("dickman", u=args.u, rho=value)
    else:
        print(repr(value))
    return EXIT_OK


def cmd_density(args) -> int:
    mode = density.DensityMode(args.mode.upper().replace("-", "_"))
    report = density.empirical_density(
        args.n, args.N, mode, lam=args.lam, lam_pow=args.lam_pow, checkpoints=args.checkpoints
    )
    if args.format == "json":
        fields = report._asdict()
        lams = (fields.pop("lam"), fields.pop("lam_pow"))  # Fractions, written as "4/5"
        fields["lambda"], fields["lambda_pow"] = (None if v is None else str(v) for v in lams)
        _emit_json("density", **fields)
    elif args.format == "csv":
        samples = report.samples or ((report.N, report.count),)
        rows = ((m, c, c / m, report.theoretical) for m, c in samples)
        _emit_csv(("m", "count", "empirical", "theoretical"), rows)
    else:
        print(f"count = {report.count} of N = {report.N}")
        print(f"empirical = {report.empirical!r}")
        tag = " (heuristic target)" if report.theoretical_is_heuristic else ""
        print(f"theoretical = {report.theoretical!r}{tag}")
        if report.samples:
            for m, c in report.samples:
                print(f"  m = {m}: count = {c}, empirical = {c / m!r}")
    return EXIT_OK


def cmd_ihc(args) -> int:
    report = density.ihc_fraction(args.n, args.N, args.range_lo, threads=os.cpu_count() or 1)
    if args.format == "json":
        _emit_json("ihc", **report._asdict())
    else:
        print(f"count = {report.count} in [{report.range_lo}, {report.N}]")
        print(f"fraction = {report.fraction!r}")
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    rows = density.convergence_diagnostics(args.n, args.checkpoints, lam=args.lam, threads=os.cpu_count() or 1)
    if args.format == "json":
        _emit_json("diagnostics", n=args.n, rows=[r._asdict() for r in rows])
    elif args.format == "csv":
        # one column per field, in field order, as the JSON rows name them
        _emit_csv(density.DiagnosticsRow._fields, rows)
    else:
        for r in rows:
            extra = ""
            if r.ratio_bound is not None:
                extra = f"  exp>=2 bound = {r.ratio_bound!r}"
            print(f"m = {r.m}: Pi(m)/m = {r.prime_power_ratio!r}, mertens = {r.mertens!r}{extra}")
    return EXIT_OK


def cmd_verify_q_example(args) -> int:
    # a d below 1 goes unfactored, for verify_rational_example to refuse
    qs = args.qs or ([p for p, _ in arith.factorize(args.d).factors] if args.d >= 1 else [])
    report = certify.verify_rational_example(args.d, qs)
    if args.format == "json":
        _emit_json("verify-q-example", **{**report._asdict(), "checks": [c._asdict() for c in report.checks]})
    else:
        print(f"d = {report.d}: {'PASS' if report.passed else 'FAIL'}")
        if not report.checks:
            print("  FAIL: no q to check")
        for q in (c.q for c in report.checks if not c.q_is_prime):
            why = f": it exceeds psi13 = {arith.PSI13}" if q > arith.PSI13 else ""
            print(f"  FAIL: q = {q} is not a proved prime{why}")
        # a q above psi13 may be prime, so whether the qs cover d is then unknown
        if not report.covers_prime_divisors and all(c.q <= arith.PSI13 for c in report.checks):
            print("  FAIL: qs are not exactly the prime divisors of d")
        for c in report.checks:
            print(f"  q = {c.q}: k = {c.k}, passed = {c.passed}" + (" (near-miss k)" if c.near_miss_k else ""))
    return EXIT_OK if report.passed else EXIT_PREDICATE_FALSE


@cache
def build_parser() -> _Parser:
    parser = _Parser(prog="degcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"degcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    modes = tuple(m.value.lower() for m in certify.Mode)

    def common(p, fmt=("text", "json")):
        p.add_argument("--format", choices=fmt, default="text")

    p = sub.add_parser("certify", help="build and verify a certificate for one degree")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--mode", choices=modes, default="full")
    p.add_argument("--out", help="write the canonical certificate JSON here")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("check", help="verify a serialized certificate")
    p.add_argument("--cert", required=True)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("enumerate", help="list qualifying degrees up to a bound")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d-max", type=_integer, required=True)
    p.add_argument("--mode", choices=modes, default="full")
    common(p, fmt=("text", "json", "csv"))
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("smallest", help="smallest qualifying degree")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--mode", choices=modes, default="full")
    p.add_argument("--budget", type=_integer, default=None)
    common(p)
    p.set_defaults(fn=cmd_smallest)

    p = sub.add_parser("dickman", help="evaluate rho(u) or tabulate it")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--u", type=float)
    shape.add_argument("--table", action="store_true")
    p.add_argument("--u-max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    common(p, fmt=("text", "json", "csv"))
    p.set_defaults(fn=cmd_dickman)

    p = sub.add_parser("density", help="empirical qualifying-degree density")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--N", type=_integer, required=True)
    density_modes = tuple(m.value.lower().replace("_", "-") for m in density.DensityMode)
    p.add_argument("--mode", choices=density_modes, default="prop16-full")
    p.add_argument("--lam", type=_parse_fraction, help="lambda as a rational, e.g. 4/5")
    p.add_argument("--lam-pow", type=_parse_fraction,
                   help="lambda**n as an exact rational, for irrational lambda such as (C(n,2)-1)**(-1/n)")
    p.add_argument("--checkpoints", type=_integers, help="comma-separated m values")
    common(p, fmt=("text", "json", "csv"))
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("ihc", help="count the degrees with a prime p > n whose inequality holds,"
                       " a lower bound on the fraction with f_n(d) != 1")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--range-lo", type=_integer, default=1)
    common(p)
    p.set_defaults(fn=cmd_ihc)

    p = sub.add_parser("diagnostics", help="Pi(m)/m and mertens convergence checkpoints")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--checkpoints", type=_integers, required=True)
    p.add_argument("--lam", type=_parse_fraction, help="enable exponent>=2 tail bounds with this lambda")
    common(p, fmt=("text", "json", "csv"))
    p.set_defaults(fn=cmd_diagnostics)

    p = sub.add_parser("verify-q-example", help="check the d = q^3 + 6k example arithmetic")
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--qs", type=_integers, help="comma-separated prime list; defaults to the prime divisors of d")
    common(p)
    p.set_defaults(fn=cmd_verify_q_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # usage errors, --help and --version print and leave
            code = exc.code
        else:
            code = args.fn(args)
        sys.stdout.flush()  # a write error that the buffer holds surfaces here, not at exit
        return code
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # a closed stdout (`... | head -1`) ends the process by SIGPIPE, as it ends other
    # Unix filters, not as a usage error; imported here so in-process main pays nothing
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main has reported it; the bytes left in the buffer go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
