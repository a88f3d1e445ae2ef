"""Outside-in tracing: wrap public echspec callables with spans.

Each wrapped call records ``(span id, parent id, op id, function, start, end,
count)``. The parent is the innermost open span, so spans nest exactly in a
single thread; the op id is the root span of the benchmark op that caused
the call. A span's self time is its duration minus the durations of its
direct children.

Calls inside echspec resolve their callees through module globals (``cli``
imports ``spectrum_range`` by name, ``barnes_zeta`` calls the module-level
``hurwitz_zeta``), so every module namespace that binds a traced function is
patched, and restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "echspec",
    "echspec.spectrum",
    "echspec.asymptotics",
    "echspec.zeta",
    "echspec.envelope",
    "echspec.cli",
)


def _length(result, args):
    return len(result)


def _one(result, args):
    return 1


# function -> (home module, metric bucket, how many values one call produces)
TRACED = {
    "spectrum_range": ("echspec.spectrum", "spectrum", _length),
    "nth_capacity": ("echspec.spectrum", "spectrum", _one),
    "count_leq": ("echspec.spectrum", "spectrum", _one),
    "distinct_values_leq": ("echspec.spectrum", "spectrum", _one),
    "floor_sum": ("echspec.spectrum", "spectrum.floor_sum", None),
    "d_sequence": ("echspec.asymptotics", "asymptotics", _length),
    "weyl_count": ("echspec.asymptotics", "asymptotics", _one),
    "weyl_fit": ("echspec.asymptotics", "asymptotics", lambda r, a: len(a[1])),
    "exponent_fit": ("echspec.asymptotics", "asymptotics", lambda r, a: len(a[0])),
    "window_sups": ("echspec.asymptotics", "asymptotics", None),
    "main": ("echspec.cli", "cli", None),
    "emit": ("echspec.cli", "cli.emit", lambda r, a: len(a[2])),
    "ech_zeta": ("echspec.zeta", "zeta", None),
    "laurent_at": ("echspec.zeta", "zeta", None),
    "riemann_zeta": ("echspec.zeta", "zeta", None),
    "barnes_zeta": ("echspec.zeta", "zeta.barnes", None),
    "hurwitz_zeta": ("echspec.zeta", "zeta.hurwitz", None),
    "capacity_envelope": ("echspec.envelope", "envelope", None),
    "F_bounds": ("echspec.envelope", "envelope", None),
}
OP = "op"  # root span of one benchmark op; its self time is harness overhead


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._op = 0
        self._next = 1

    def _open(self) -> int:
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._open()
            n = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result, args)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self._op, name, t0, t1, n))

        return traced

    @contextlib.contextmanager
    def op(self):
        """Root span around one benchmark op."""
        sid = self._open()
        self._op = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, sid, OP, t0, t1, 0))
            self._op = 0

    @contextlib.contextmanager
    def installed(self):
        """Patch every module namespace that binds a traced function."""
        modules = [importlib.import_module(m) for m in MODULES]
        patched = []
        for name, (home, _, count) in TRACED.items():
            original = getattr(importlib.import_module(home), name)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))
        try:
            yield
        finally:
            for mod, name, original in patched:
                setattr(mod, name, original)

    def drain(self) -> dict:
        """Per-function self time, calls and counts over the recorded spans;
        clears the record."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            child[parent] += t1 - t0
        self_s, calls, counts = defaultdict(float), Counter(), Counter()
        for sid, _, _, name, t0, t1, n in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
            calls[name] += 1
            counts[name] += n
        total = len(self.spans)
        self.spans.clear()
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts), "spans": total}


def bucket_totals(summary: dict) -> dict:
    """Self time per metric bucket (``spectrum``, ``zeta.barnes``, ...)."""
    out = defaultdict(float)
    for name, t in summary["self_s"].items():
        out[TRACED[name][1] if name in TRACED else name] += t
    return dict(out)
