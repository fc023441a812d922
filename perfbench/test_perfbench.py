"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tracer as tracing
from tracer import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def run_bench(workload: str, trace: int, tmp_path: Path, cwd: Path = ROOT) -> tuple[dict, dict, str]:
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text()), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    last, record, stdout = run_bench(workload, trace, tmp_path)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    section = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert set(last["metrics"]) == {m["name"] for m in section}
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == DECLARED[name]
        assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert metric["value"] > 0, name
    # The only failures the seed program shows are hostile certificates
    # that crash the checker; every other answer must be right.
    assert last["failed"] == record["failed"]
    assert all(f["op"].startswith("check") and f["kind"] == "crash" and "hostile" in f["message"]
               for f in record["failures"])
    assert {"nproc", "cpu", "python", "numpy", "seed", "src_lines"} <= set(record["machine"])
    assert record["machine"]["seed"] == 7


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_are_declared(trace, tmp_path):
    _, _, stdout = run_bench("sieve", trace, tmp_path)
    printed = re.findall(r"^\s*([A-Za-z0-9_.\-]+) = [-+0-9.e]+ (\S+)", stdout, flags=re.M)
    assert printed
    for name, unit in printed:
        assert name in DECLARED, name
        assert DECLARED[name] == unit, name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sieve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_with_threaded_children():
    main, worker_a, worker_b = 1, 2, 3
    spans = [
        Span(1, "root", 0.0, 10.0, 0, main),
        Span(2, "child", 1.0, 3.0, 1, main),
        Span(3, "grandchild", 1.5, 2.5, 2, main),
        Span(4, "segment", 2.0, 6.0, 1, worker_a),  # overlaps child and segment 5
        Span(5, "segment", 5.0, 8.0, 1, worker_b),
        Span(6, "late", 9.5, 11.0, 1, worker_a),  # runs past its parent's end
    ]
    st = tracing.self_times(spans)
    # children of root cover [1, 8] and [9.5, 10]: 7.5 of its 10 seconds
    assert st[1] == pytest.approx(2.5)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(4.0)
    assert st[5] == pytest.approx(3.0)
    assert st[6] == pytest.approx(1.5)


def test_tracer_records_worker_segments_under_the_calling_layer():
    sys.path.insert(0, str(ROOT / "src"))
    from degcert import density

    tr = tracing.Tracer()
    tr.install("degcert")
    try:
        tr.start_op()
        density.ihc_fraction(3, 3 * (1 << 22) - 1, threads=2)
        tr.end_op()
    finally:
        tr.uninstall()
    assert density.ihc_fraction.__name__ == "ihc_fraction"  # restored
    by_id = {s.sid: s for s in tr.spans}
    (ihc,) = [s for s in tr.spans if s.name == "density.ihc" and not s.attrs.get("segment")]
    (segmap,) = [s for s in tr.spans if s.name == "arith.map_segments"]
    segments = [s for s in tr.spans if s.attrs.get("segment")]
    assert ihc.parent == tr.job and segmap.parent == ihc.sid
    assert len(segments) == 3
    assert all(s.name == "density.ihc" and s.parent == segmap.sid for s in segments)
    assert any(s.thread != threading.main_thread().ident for s in segments)
    assert all(v >= -1e-9 for v in tracing.self_times(tr.spans).values())
    assert all(s.parent in by_id or s.parent == tr.job for s in tr.spans)


def test_missing_traced_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + [
        ("arith", "no_such_function", "arith.gone", {}),
        ("no_such_module", "f", "gone.f", {}),
    ])
    tr = tracing.Tracer()
    tr.install("degcert")
    tr.uninstall()
    assert tr.absent == ["arith.no_such_function", "no_such_module.f"]


def test_primes_upto_inside_coprime_mask_is_not_a_span():
    sys.path.insert(0, str(ROOT / "src"))
    from degcert import arith

    tr = tracing.Tracer()
    tr.install("degcert")
    try:
        tr.start_op()
        arith.coprime_mask(0, 1000, 5)
        arith.primes_upto(100)
        tr.end_op()
    finally:
        tr.uninstall()
    names = [s.name for s in tr.spans]
    assert names.count("arith.primes_upto") == 1
    assert names.count("arith.coprime_mask") == 1


def test_traced_and_untraced_calls_alternate():
    import run
    import workloads

    tr = tracing.Tracer()
    seen = []
    ops = [workloads.Op(f"op{i}", "k", lambda: seen.append(tr.active), lambda r, e: None) for i in range(4)]
    plain, traced = run.run_passes(ops, 1.0, 10.0, tr)
    assert seen == [False, True, True, False, False, True, True, False]
    assert plain["attempted"] == traced["attempted"] == 4
    assert len(traced["windows"]) == 4 and not plain["windows"]
