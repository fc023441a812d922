"""Spans around calls into degcert's modules, recorded from outside.

The benchmark replaces the traced functions on their modules (and on every
degcert module that imported them by name) with timing wrappers while a
traced pass runs, and restores them afterwards.  Nothing under src/ knows
about it.  A name that no longer exists is reported as absent; the run goes
on without it.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # the enclosing span, or the operation's id at top level
    thread: int
    attrs: dict = field(default_factory=dict)


def _ints(args, kwargs) -> dict:
    lo = args[0] if args else kwargs["lo"]
    hi = args[1] if len(args) > 1 else kwargs["hi"]
    return {"ints": hi - lo}


def _scan_ints(args, kwargs) -> dict:
    lo, hi = args[1], args[2]
    return {"ints": max(hi - max(lo, 1), 0)}


# Every traced name lives here and nowhere else: (module, attribute, span
# name, what to record).  "args" records from the arguments before the call,
# "result" from the return value, "error" from an exception it raised;
# "not_under" names a span inside which a call is not recorded (its time
# stays with that span).
# _map_segments is the one private name: it is the threaded segment map, and
# wrapping it is how per-segment work in worker threads becomes visible.
TRACED: list[tuple[str, str, str, dict[str, Any]]] = [
    ("arith", "largest_prime_power_segment", "arith.lpp_segment", {"args": _ints}),
    ("arith", "coprime_mask", "arith.coprime_mask", {"args": _ints}),
    ("arith", "sieve_segment", "arith.sieve_segment", {"args": _ints}),
    # base-prime rebuilds, not the primes <= n that coprime_mask asks for
    # once per segment
    ("arith", "primes_upto", "arith.primes_upto", {"not_under": "arith.coprime_mask"}),
    ("arith", "factorize", "arith.factorize", {}),
    ("arith", "prime_power_root", "arith.prime_power_root", {}),
    ("arith", "_map_segments", "arith.map_segments", {}),
    ("certify", "scan_qualifying", "certify.scan", {
        "args": _scan_ints,
        "result": lambda r: {"hits": sum(len(a) for a in r)},
    }),
    ("certify", "build_certificate", "certify.build", {
        "error": lambda e: {"rejected": int(type(e).__name__ == "DecompositionError")},
    }),
    ("certify", "verify_certificate", "certify.verify", {
        "result": lambda r: {"failed_reports": int(not r.passed)},
    }),
    ("certify", "certificate_to_json", "certify.serde", {}),
    ("certify", "certificate_from_json", "certify.serde", {}),
    ("certify", "certificate_to_dict", "certify.serde", {}),
    ("certify", "report_to_dict", "certify.serde", {}),
    ("density", "empirical_density", "density.empirical", {}),
    ("density", "ihc_fraction", "density.ihc", {}),
    ("dickman", "rho", "dickman.rho", {}),
    ("dickman", "theoretical_density", "dickman.theoretical_density", {}),
    ("cli", "main", "cli.main", {
        "result": lambda r: {"exit": r},
        "error": lambda e: {"uncaught": 1},
    }),
]

# Called far too often for a span each; counted only.
COUNTED: list[tuple[str, str, str]] = [
    ("arith", "is_prime", "arith.is_prime"),
]


class Tracer:
    """Records spans while active; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.active = False
        self.job = 0  # the open benchmark operation; parent of spans in fresh threads
        # next() on itertools.count is a single C call, so ids stay unique
        # across worker threads without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, outer: int | None = None) -> tuple[int, int, float]:
        """Start a span; on an empty stack (a fresh worker thread) its parent
        is outer if given, else the current operation."""
        st = self._stack()
        parent = st[-1][0] if st else (self.job if outer is None else outer)
        sid = next(self._ids)
        st.append((sid, name))
        return sid, parent, time.perf_counter()

    def close(self, sid: int, parent: int, name: str, start: float, attrs: dict) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), attrs))

    def start_op(self) -> None:
        """Begin recording one benchmark operation; its spans share its id."""
        self.job = next(self._ids)
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def current(self) -> tuple[int, str] | None:
        st = self._stack()
        return st[-1] if st else None

    # -- patching -----------------------------------------------------------

    def install(self, package: str) -> None:
        homes = {}
        for mod_name in {entry[0] for entry in TRACED + COUNTED}:
            try:
                homes[mod_name] = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for mod_name, attr, span_name, rec in TRACED:
            self._patch(homes, modules, mod_name, attr, lambda f, s=span_name, r=rec: self._wrap(f, s, r))
        for mod_name, attr, counter in COUNTED:
            self._patch(homes, modules, mod_name, attr, lambda f, c=counter: self._count(f, c))

    def _patch(self, homes, modules, mod_name, attr, make) -> None:
        orig = getattr(homes.get(mod_name), attr, None)
        if orig is None:
            if f"{mod_name}.{attr}" not in self.absent:
                self.absent.append(f"{mod_name}.{attr}")
            return
        wrapped = make(orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def _count(self, fn, counter: str):
        def counted(*args, **kwargs):
            if self.active:
                # dict update under the GIL; only the main thread reaches
                # is_prime (scalar factorization), so no update is lost
                self.counts[counter] = self.counts.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name: str, rec: dict):
        if name == "arith.map_segments":
            return self._wrap_map(fn, name)
        on_args, on_result, on_error = rec.get("args"), rec.get("result"), rec.get("error")
        not_under = rec.get("not_under")

        def traced(*args, **kwargs):
            if not self.active or (not_under and (self.current() or (0, ""))[1] == not_under):
                return fn(*args, **kwargs)
            attrs = on_args(args, kwargs) if on_args else {}
            sid, parent, start = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error:
                    attrs.update(on_error(exc))
                self.close(sid, parent, name, start, attrs)
                raise
            if on_result:
                attrs.update(on_result(result))
            self.close(sid, parent, name, start, attrs)
            return result
        return traced

    def _wrap_map(self, fn, name: str):
        """The segment map: its span, plus one span per segment that carries
        on the caller's layer name, so work a worker thread does for
        density.empirical is counted as density.empirical."""

        def traced(seg_fn, ranges, threads, *rest, **kwargs):
            if not self.active:
                return fn(seg_fn, ranges, threads, *rest, **kwargs)
            caller = self.current()
            seg_name = caller[1] if caller else "arith.segment"
            sid, parent, start = self.open(name)

            def segment(r):
                seg_id, seg_parent, seg_start = self.open(seg_name, outer=sid)
                try:
                    return seg_fn(r)
                finally:
                    self.close(seg_id, seg_parent, seg_name, seg_start, {"segment": 1})

            try:
                return fn(segment, ranges, threads, *rest, **kwargs)
            finally:
                self.close(sid, parent, name, start, {"threads": threads})
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children
    cover (children in worker threads may overlap; their union counts once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out
