#!/usr/bin/env python3
"""The degcert benchmark.

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 36 --trace 0

Runs one workload (sieve, search or point-queries) against the degcert
sources in src/ of the checkout it sits in, checks every answer, prints the
figures by name with their units, writes a result file with the machine
record, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures without tracing and reports the end-to-end metrics.
--trace 1 runs every operation twice, untraced and traced, in alternating
order, and reports the per-layer metrics (per pass of the workload) and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer as tracing  # noqa: E402  (sits next to this file)
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s"}

# Figures named per workload; each is also a per-layer entry so that a
# traced run can report it (as 0 on the workloads it does not apply to).
WORKLOAD_FIGURES = {
    "sieve": {"sieve_mint_per_s": "Mint/s", "density_t1_s": "s", "density_t2_s": "s"},
    "search": {"search_wall_s": "s", "smallest_s": "s", "enumerate_s": "s"},
    "point-queries": {"queries_per_s": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms"},
}

# Per-layer metrics and their units; each name is <span>.<field>.
PER_LAYER = {
    "arith.lpp_segment.calls": "count",
    "arith.lpp_segment.ints": "count",
    "arith.lpp_segment.self_s": "s",
    "arith.lpp_segment.ns_per_int": "ns/int",
    "arith.coprime_mask.self_s": "s",
    "arith.coprime_mask.ns_per_int": "ns/int",
    "arith.sieve_segment.ints": "count",
    "arith.sieve_segment.self_s": "s",
    "arith.sieve_segment.ns_per_int": "ns/int",
    "arith.primes_upto.calls": "count",
    "arith.primes_upto.self_s": "s",
    "arith.map_segments.self_s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.self_s": "s",
    "arith.is_prime.calls": "count",
    "arith.prime_power_root.calls": "count",
    "arith.prime_power_root.self_s": "s",
    "certify.scan.calls": "count",
    "certify.scan.ints": "count",
    "certify.scan.hits": "count",
    "certify.scan.self_s": "s",
    "certify.scan.hit_ratio": "ratio",
    "certify.build.calls": "count",
    "certify.build.self_s": "s",
    "certify.build.rejected": "count",
    "certify.verify.calls": "count",
    "certify.verify.self_s": "s",
    "certify.verify.failed_reports": "count",
    "certify.serde.self_s": "s",
    "density.empirical.self_s": "s",
    "density.ihc.self_s": "s",
    "density.thread_busy_frac": "ratio",
    "dickman.rho.calls": "count",
    "dickman.rho.self_s": "s",
    "dickman.theoretical_density.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
    "cli.exit.3": "count",
    "cli.uncaught": "count",
    "trace.overhead_frac": "ratio",
}

# The CLI cold start: a fresh interpreter imports degcert and certifies the
# smallest qualifying degree.
SETUP_PROBE = "import sys; from degcert import cli; sys.exit(cli.main(['certify', '--n', '3', '--d', '5005']))"
SETUP_RUNS = {"full": 11, "tiny": 1}

# The speed of the 2-vCPU host the benchmark was sized on drifts by a third
# within minutes with its neighbours' load (the same sieve pass took 10.5 s
# and 16.6 s eight minutes apart), and both the workloads and the set-up
# probes follow it.  A fixed kernel of the benchmark's own, timed between
# operations throughout a run, tracks that speed; the end-to-end times are
# scaled by REF_NOMINAL_S over its median time in the run (not on a workload
# whose Workload.scaled is false).  Over ten seeds this cut the quartile
# spread of the point-queries pass time from 0.32 to 0.11.  The unscaled
# times are printed and kept in the result file.
REF_KERNEL = """
import sys, time
import numpy as np
a = np.zeros(1 << 22, dtype=np.int64)  # 32 MiB: out of cache, like a sieve segment
for _ in sys.stdin:
    start = time.perf_counter()
    for p in range(3, 60, 2):  # strided updates, like the sieve kernels
        a[::p] += p
    acc = 0
    for i in range(50_000):  # an integer loop, like the scalar code
        acc += i * i % 7
    print(time.perf_counter() - start, flush=True)
"""
REF_SAMPLES = {"full": 40, "tiny": 2}
REF_NOMINAL_S = 0.035  # about the kernel's time on that host in a fast spell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--out", help="result file (default .bench_build/perfbench/<run>.json)")
    args = parser.parse_args(argv)

    if not (SRC / "degcert" / "__init__.py").is_file():
        print(f"error: no degcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    profile = workloads.PROFILES[args.profile]

    probes: list[float] = []
    refs: list[float] = []
    n_probes, n_refs = SETUP_RUNS[args.profile], REF_SAMPLES[args.profile]

    def between_ops(elapsed_frac: float) -> None:
        # at most one of each per gap, so that they spread over the run
        if reference is not None and len(refs) < n_refs and elapsed_frac >= len(refs) / n_refs:
            refs.append(reference())
        if len(probes) < n_probes and elapsed_frac >= len(probes) / n_probes:
            probes.append(setup_probe())

    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        build = workloads.WORKLOADS[args.workload]
        extra = (tmp,) if args.workload == "point-queries" else ()
        wl = build(args.seed, profile, *extra)
        if args.trace == 0:
            setup_probe()  # writes the bytecode cache; not counted
            with reference_kernel() if wl.scaled else contextlib.nullcontext() as reference:
                between_ops(0.0)
                plain, traced = run_passes(wl.ops, args.seconds, wl.nominal_pass_s, between=between_ops)
            while len(probes) < n_probes:
                probes.append(setup_probe())
            tracer = None
        else:
            tracer = tracing.Tracer()
            tracer.install("degcert")
            try:
                plain, traced = run_passes(wl.ops, args.seconds, wl.nominal_pass_s, tracer)
            finally:
                tracer.uninstall()

    runs = [r for r in (plain, traced) if r is not None]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = not any(cat == "wrong" for _, cat, _ in failures)
    summary = summarize(plain)
    by_kind = kind_latencies(wl.ops, plain)
    figures = workload_figures(args.workload, wl.ops, summary)
    figures["error_rate"] = len(failures) / attempted

    if args.trace == 0:
        scale = REF_NOMINAL_S / statistics.median(refs) if refs else 1.0
        metrics = {
            "setup_s": statistics.median(probes) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_s": summary["wall_s"] * scale,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, traced)
        # each op's traced and untraced calls alternate, so host drift moves
        # both sides of this ratio alike
        metrics["trace.overhead_frac"] = (sum(summarize(traced)["medians"].values())
                                          / sum(summary["medians"].values()) - 1)
        for name in (n for figs in WORKLOAD_FIGURES.values() for n in figs):
            metrics[name] = figures.get(name, 0.0)
        metrics["error_rate"] = figures["error_rate"]
        units = per_layer_units()

    machine = machine_record(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} profile={args.profile} "
          f"passes={plain['passes']}" + (f"+{traced['passes']} traced" if traced else ""))
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in figures.items():
        unit = WORKLOAD_FIGURES[args.workload].get(name, "ratio")
        extra = ""
        if name.startswith("query_p"):
            extra = f" (of {summary['samples']} samples)"
        elif name == "error_rate":
            extra = f" ({len(failures)} failed / {attempted} attempted)"
        print(f"{name} = {value:.6g} {unit}{extra}")
    for name, value in metrics.items():
        if name not in figures:
            print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace == 0 and not refs:
        print("  (times on this workload are not scaled)")
    if refs:
        print(f"  unscaled: setup {statistics.median(probes):.4g} s, pass {summary['wall_s']:.4g} s; "
              f"reference kernel {statistics.median(refs) * 1e3:.4g} ms (median of {len(refs)}), "
              f"scale {REF_NOMINAL_S / statistics.median(refs):.4g}")
    for label, lat in by_kind.items():
        print(f"  latency of {label}: p50 {lat['p50_ms']:.4g} ms, p99 {lat['p99_ms']:.4g} ms "
              f"({lat['samples']} samples)")
    if tracer is not None and tracer.absent:
        print("absent layer names (reported as 0): " + ", ".join(tracer.absent))
    for key, (cat, msg) in list({key: (cat, msg) for key, cat, msg in failures}.items())[:10]:
        print(f"FAILED [{cat}] {key}: {msg}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "profile": args.profile, "machine": machine, "passes": plain["passes"],
        "traced_passes": traced["passes"] if traced else 0,
        "figures": figures, "samples": summary["samples"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "op_median_s": summary["medians"], "kind_latency": by_kind,
        "setup_probes_s": probes, "pass_s": plain["pass_s"], "reference_s": refs,
        "absent": tracer.absent if tracer else [],
        "attempted": attempted, "failed": len(failures),
        "failures": [{"op": k, "kind": c, "message": m} for k, c, m in failures[:100]],
    }
    out = Path(args.out) if args.out else work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"result file: {out}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer_units() -> dict[str, str]:
    units = dict(PER_LAYER)
    for figs in WORKLOAD_FIGURES.values():
        units.update(figs)
    units["error_rate"] = "ratio"
    return units


@contextlib.contextmanager
def reference_kernel():
    """Yield a function that times one run of REF_KERNEL.  The kernel runs
    in a helper process, so that its memory stays out of peak_rss_mb."""
    with subprocess.Popen([sys.executable, "-c", REF_KERNEL], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        def sample() -> float:
            proc.stdin.write("go\n")
            proc.stdin.flush()
            return float(proc.stdout.readline())
        try:
            yield sample
        finally:
            proc.stdin.close()  # the helper's loop ends; leaving the with waits for it


def setup_probe() -> float:
    """CPU time (user + system) of one cold probe.  CPU time rather than wall
    time: a probe is a single busy process, and its CPU time leaves out any
    time it waits for a core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def run_passes(ops, seconds: float, nominal_pass_s: float, tracer=None,
               between: Callable[[float], None] | None = None) -> tuple[dict, dict | None]:
    """Run whole passes over ops in order, timing each call and checking
    each answer outside the timed region.  With a tracer, every op runs
    twice in a row, untraced and traced, the order alternating from op to
    op; returns the untraced run and the traced one (None without a tracer).
    between, if given, is called after every op with the share of seconds
    elapsed.

    The pass count is the number of nominal passes that fit in seconds, so
    runs of a workload do the same work and a faster program ends sooner.
    A slower machine runs fewer: no pass starts that would, at the mean pass
    time so far, end more than a tenth past the time given.
    """
    modes = (None,) if tracer is None else (None, tracer)
    passes = max(1, int(seconds // (nominal_pass_s * len(modes))))
    runs = [{"latencies": {op.key: [] for op in ops}, "pass_s": [], "failures": [],
             "attempted": 0, "passes": 0, "windows": []} for _ in modes]
    begin = time.perf_counter()
    for done in range(1, passes + 1):
        for run in runs:
            run["pass_s"].append(0.0)
            run["passes"] = done
        for idx, op in enumerate(ops):
            order = range(len(modes))
            for mode in (order if (idx + done) % 2 else reversed(order)):
                run_op(op, runs[mode], modes[mode])
            if between is not None:
                between((time.perf_counter() - begin) / seconds)
        elapsed = time.perf_counter() - begin
        if elapsed * (done + 1) / done > 1.1 * seconds:
            break
    return runs[0], (runs[1] if tracer is not None else None)


def run_op(op, run: dict, tracer) -> None:
    result = exc = None
    if tracer is not None:
        tracer.start_op()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as err:  # the operation boundary: every error is an outcome
        exc = err
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
        run["windows"].append((start, end, op))
    run["latencies"][op.key].append(end - start)
    run["pass_s"][-1] += end - start
    run["attempted"] += 1
    outcome = op.check(result, exc)
    if outcome is not None:
        run["failures"].append((op.key, *outcome))


def summarize(run: dict) -> dict:
    lat = run["latencies"]
    medians = {k: statistics.median(v) for k, v in lat.items() if v}
    pooled = np.array([x for v in lat.values() for x in v])
    return {
        "medians": medians,
        # The median pass, not the sum of per-operation medians: this host
        # flips between a fast and a slow state within seconds, and per-op
        # medians all flip together with the share of slow time in a run.
        "wall_s": statistics.median(run["pass_s"]),
        "p50_ms": float(np.percentile(pooled, 50)) * 1e3,
        "p99_ms": float(np.percentile(pooled, 99)) * 1e3,
        "samples": len(pooled),
    }


def kind_latencies(ops, run: dict) -> dict[str, dict]:
    """Latency percentiles per kind of operation (and path: library or CLI),
    so a claim about one kind does not hang on the workload's mix."""
    pooled: dict[str, list[float]] = {}
    for op in ops:
        label = op.kind + (" via cli" if op.module == "cli" else "")
        pooled.setdefault(label, []).extend(run["latencies"][op.key])
    return {label: {"samples": len(v), "p50_ms": float(np.percentile(v, 50)) * 1e3,
                    "p99_ms": float(np.percentile(v, 99)) * 1e3}
            for label, v in sorted(pooled.items()) if v}


def workload_figures(workload: str, ops, summary: dict) -> dict[str, float]:
    med = summary["medians"]
    by_kind = lambda kind: sum(med[op.key] for op in ops if op.kind == kind)
    if workload == "sieve":
        return {
            "sieve_mint_per_s": sum(op.ints for op in ops) / summary["wall_s"] / 1e6,
            "density_t1_s": by_kind("density_t1"),
            "density_t2_s": by_kind("density_t2"),
        }
    if workload == "search":
        return {"search_wall_s": summary["wall_s"], "smallest_s": by_kind("smallest"),
                "enumerate_s": by_kind("enumerate")}
    return {"queries_per_s": len(ops) / summary["wall_s"], "query_p50_ms": summary["p50_ms"],
            "query_p99_ms": summary["p99_ms"]}


def layer_metrics(tracer, run: dict) -> dict[str, float]:
    spans = tracer.spans
    self_t = tracing.self_times(spans)
    passes = run["passes"]
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    attrs: dict[tuple[str, str], float] = {}
    for s in spans:
        selfs[s.name] = selfs.get(s.name, 0.0) + self_t[s.sid]
        if s.attrs.get("segment"):
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, val in s.attrs.items():
            if key == "exit":
                key = f"exit.{val}"
                val = 1
            attrs[(s.name, key)] = attrs.get((s.name, key), 0) + val

    def per_pass(x: float) -> float:
        return x / passes

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric.startswith("cli.exit.") or metric == "cli.uncaught":
            key = metric[len("cli."):]
            out[metric] = per_pass(attrs.get(("cli.main", key), 0))
        elif field == "calls":
            out[metric] = per_pass(tracer.counts.get(span, 0) if span == "arith.is_prime" else calls.get(span, 0))
        elif field == "self_s":
            out[metric] = per_pass(selfs.get(span, 0.0))
        elif field == "ns_per_int":
            ints = attrs.get((span, "ints"), 0)
            out[metric] = selfs.get(span, 0.0) * 1e9 / ints if ints else 0.0
        elif field == "hit_ratio":
            ints = attrs.get((span, "ints"), 0)
            out[metric] = attrs.get((span, "hits"), 0) / ints if ints else 0.0
        elif field in ("ints", "hits", "rejected", "failed_reports"):
            out[metric] = per_pass(attrs.get((span, field), 0))
    out["density.thread_busy_frac"] = thread_busy_frac(spans, run["windows"])
    return out


def thread_busy_frac(spans, windows) -> float:
    """Segment time summed over the threads that ran it, over threads x wall,
    for the density jobs that asked for more than one thread.  (The segment
    map runs a single segment in the calling thread.)"""
    jobs = [(s, e, op.threads) for s, e, op in windows if op.module == "density" and op.threads > 1]
    if not jobs:
        return 0.0
    busy = 0.0
    for s in spans:
        if s.attrs.get("segment"):
            if any(lo <= s.start and s.end <= hi for lo, hi, _ in jobs):
                busy += s.end - s.start
    return busy / sum(t * (hi - lo) for lo, hi, t in jobs)


def machine_record(seed: int) -> dict:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": src_lines,
    }


if __name__ == "__main__":
    sys.exit(main())
