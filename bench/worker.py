"""Run one workload's op list in this process; stream results to run.py.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH, so the
process holds only the program and the workload, and its peak RSS is the
workload's. Protocol: one JSON object per stdout line. The first (warm-up)
pass sends every op's output text, untimed; the last line carries the
timings of the measured passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import echspec  # noqa: E402
import echspec.cli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _lib_text(op: dict, result) -> str:
    """Library results rendered as text for the checker (outside the timer)."""
    fn = op["op"]
    if fn == "d_sequence":
        return "".join(
            f"{p.j},{p.c.numerator},{p.c.denominator},{p.d!r},{p.d_err!r}\n" for p in result
        )
    if fn == "distinct_values_leq":
        return "".join(f"{R},{n}\n" for R, n in zip(op["radii"], result))
    return "".join(f"{k},{c.numerator},{c.denominator}\n" for k, c in result)


def _call_lib(op: dict):
    fn = getattr(echspec, op["op"])  # looked up per call, so tracing patches apply
    E = echspec.Ellipsoid(op["a"], op["b"])
    if op["op"] == "nth_capacity":
        return [(k, fn(E, k)) for k in range(op["k0"], op["k1"] + 1)]
    if op["op"] == "distinct_values_leq":
        return [fn(E, Fraction(R)) for R in op["radii"]]
    return fn(E, op["k0"], op["k1"])


def run_op(op: dict, argv: list[str] | None, span=contextlib.nullcontext):
    """(seconds, exit code or None, error text or None, stdout text). ``span``
    wraps exactly the timed region."""
    out = io.StringIO()
    code, error, result = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), span():
        t0 = time.perf_counter()
        try:
            if argv is not None:
                code = echspec.cli.main(argv)
            else:
                result = _call_lib(op)
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    text = out.getvalue()
    if result is not None:
        text = _lib_text(op, result)
    return dt, code, error, text


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    proto = sys.stdout

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    ops = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    argvs = [workloads.argv(op) if op["via"] == "cli" else None for op in ops]
    # A traced run times an untraced and a traced pass per round.
    min_passes = 1 if args.tiny else 3 if args.trace else workloads.MIN_PASSES

    digests = []
    for i, op in enumerate(ops):
        dt, code, error, text = run_op(op, argvs[i])
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        send({"i": i, "code": code, "error": error, "out": text})

    tracer = Tracer()
    mismatched = set()

    def one_pass(traced: bool) -> dict:
        """Raw op times, and the kernel timings that bracket them (speed.py)."""
        gc.collect()
        times, marks, kernel = [], [], [speed.kernel_time()]
        since = 0.0
        for i, op in enumerate(ops):
            dt, code, error, text = run_op(op, argvs[i], tracer.op if traced else contextlib.nullcontext)
            times.append(dt)
            marks.append(len(kernel) - 1)
            if hashlib.sha256(text.encode()).hexdigest() != digests[i]:
                mismatched.add(i)
            since += dt
            if since >= speed.EVERY_S or i == len(ops) - 1:
                kernel.append(speed.kernel_time())
                since = 0.0
        return {"times": times, "marks": marks, "kernel": kernel}

    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(plain) < min_passes:
        plain.append(one_pass(False))
        if args.trace:
            with tracer.installed():
                traced.append(one_pass(True))
            traced[-1]["layers"] = tracer.drain()
    send(
        {
            "passes": plain,
            "traced_passes": traced,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "mismatched": sorted(mismatched),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
