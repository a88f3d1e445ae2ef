"""echspec benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload table|deep|analytic --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``. The workload's op list (from workloads.py) runs in a fresh worker
process: one warm-up pass whose outputs are checked by refcheck.py, then
timed passes until S seconds have passed (at least MIN_PASSES). With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the result carries the per-layer
metrics of the traced ones. The last stdout line is the JSON result; the
lines before it are a readable report and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED, bucket_totals  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CODE = "import echspec.cli; echspec.cli.build_parser()"
RUN_LIMIT_S = 170.0  # the whole run, worker and checks included
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(src: str, samples: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of fresh interpreters that import the CLI and
    build its parser, each bracketed by kernel timings (speed.py); one
    untimed run first compiles the bytecode."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=_env(src), check=True, timeout=60)
    times, kernel = [], [speed.kernel_time()]
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(src), check=True, timeout=60)
        times.append(time.perf_counter() - t0)
        kernel.append(speed.kernel_time())
    return speed.scale(times, list(range(samples)), kernel), times


def run_worker(args, src: str, budget: float) -> tuple[list[dict], dict]:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.Popen(cmd, env=_env(src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = [json.loads(ln) for ln in out.decode().splitlines()]
    return lines[:-1], lines[-1]


def tail_percentile(n_design: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, for the
    sample count the workload is designed for."""
    for p in PERCENTILES:
        if n_design * (1 - p / 100) >= 10:
            return p
    return None


def nearest_rank(sorted_xs: list[float], p: float) -> float:
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(p: dict) -> list[float]:
    return speed.scale(p["times"], p["marks"], p["kernel"])


def end_to_end(args, ops, verdicts, final, setup) -> tuple[dict, list[str]]:
    setup, setup_raw = setup
    passes = [_scaled(p) for p in final["passes"]]
    raw_wall = statistics.median(sum(p["times"]) for p in final["passes"])
    kernel = statistics.median(k for p in final["passes"] for k in p["kernel"])
    walls = [sum(p) for p in passes]
    wall = statistics.median(walls)
    samples = sorted(t for p in passes for t in p)
    rows = sum(v.rows for v in verdicts)
    n_design = len(ops) * (1 if args.tiny else workloads.MIN_PASSES)
    p = tail_percentile(n_design)
    if p is None:
        tail, tail_note = samples[-1], f"max of {len(samples)} samples: too few ops for a tail percentile"
    else:
        tail = nearest_rank(samples, p)
        beyond = sum(1 for t in samples if t > tail)
        tail_note = f"p{p:g} of {len(samples)} samples ({len(ops)} ops x {len(passes)} passes), {beyond} beyond"
    bad = sum(1 for v in verdicts if v.hard or v.soft)
    m = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "rows_per_s": metric(rows / wall, "rows/s"),
        "op_p50_ms": metric(1e3 * statistics.median(samples), "ms"),
        "op_tail_ms": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(final["maxrss_kb"] / 1024, "MiB"),
        "ok_rate": metric((len(ops) - bad) / len(ops), "ratio"),
        "max_rel_err": metric(max(v.max_rel_err for v in verdicts), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters (raw {statistics.median(setup_raw):.4g} s)",
        "wall_s": f"median of {len(passes)} passes of {len(ops)} ops (raw {raw_wall:.4g} s; "
        f"speed kernel median {1e3 * kernel:.3g} ms, nominal {1e3 * speed.NOMINAL_S:g} ms)",
        "rows_per_s": f"{rows} rows per pass",
        "op_tail_ms": tail_note,
        "ok_rate": f"error_rate {bad / len(ops):.4f} = {bad} of {len(ops)} ops failed "
        f"({sum(1 for v in verdicts if v.hard)} hard, "
        f"{sum(1 for v in verdicts if v.soft and not v.hard)} only beyond their reported error)",
        "max_rel_err": "mixed error |x - ref| / 2^floor(log2 max(1, |ref|)) over every checked float",
    }
    lines = [f"  {k:<14} {v['value']:<14.6g} {v['unit']:<7} {notes.get(k, '')}" for k, v in m.items()]
    return m, lines


LAYERS = {  # layer -> metric buckets whose self time it sums
    "cli": ("cli", "cli.emit"),
    "asymptotics": ("asymptotics",),
    "spectrum": ("spectrum", "spectrum.floor_sum"),
    "zeta": ("zeta", "zeta.barnes", "zeta.hurwitz"),
    "envelope": ("envelope",),
    "bench": ("op",),
}
DESIGNATED = {"table": ("cli", "asymptotics"), "deep": ("spectrum",), "analytic": ("zeta",)}


def per_layer(args, ops, outputs, final) -> tuple[dict, list[str]]:
    def one(summary: dict) -> dict:
        s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
        b = bucket_totals(summary)

        def total(bucket):
            return sum(counts.get(f, 0) for f, (_, bk, _) in TRACED.items() if bk == bucket)

        spectrum_time = b.get("spectrum", 0.0) + b.get("spectrum.floor_sum", 0.0)
        values = total("spectrum")
        return {
            "spectrum.self_s": b.get("spectrum", 0.0),
            "spectrum.values": values,
            "spectrum.values_per_s": values / spectrum_time if spectrum_time else 0.0,
            "spectrum.floor_sum_calls": calls.get("floor_sum", 0),
            "spectrum.floor_sum_s": s.get("floor_sum", 0.0),
            "asymptotics.self_s": b.get("asymptotics", 0.0),
            "asymptotics.points": total("asymptotics"),
            "cli.self_s": s.get("main", 0.0),
            "cli.emit_s": s.get("emit", 0.0),
            "cli.rows": counts.get("emit", 0),
            "zeta.ech_calls": calls.get("ech_zeta", 0),
            "zeta.barnes_calls": calls.get("barnes_zeta", 0),
            "zeta.hurwitz_calls": calls.get("hurwitz_zeta", 0),
            "zeta.laurent_calls": calls.get("laurent_at", 0),
            "zeta.self_s": b.get("zeta", 0.0),
            "zeta.barnes_self_s": b.get("zeta.barnes", 0.0),
            "zeta.hurwitz_self_s": b.get("zeta.hurwitz", 0.0),
            "envelope.calls": calls.get("capacity_envelope", 0),
            "envelope.F_bounds_calls": calls.get("F_bounds", 0),
            "envelope.self_s": b.get("envelope", 0.0),
            "bench.self_s": s.get("op", 0.0),
            "trace.spans": summary["spans"],
        }

    per_pass = []
    for p in final["traced_passes"]:
        m = one(p["layers"])
        factor = sum(_scaled(p)) / sum(p["times"])
        for k in m:
            if k.endswith("_s"):
                m[k] *= factor
        m["spectrum.values_per_s"] /= factor
        per_pass.append(m)
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["cli.bytes_out"] = sum(
        len(o["out"].encode()) for op, o in zip(ops, outputs) if op["via"] == "cli"
    )
    plain = statistics.median(sum(_scaled(p)) for p in final["passes"])
    traced = statistics.median(sum(_scaled(p)) for p in final["traced_passes"])
    values["trace.overhead_s"] = traced - plain
    m = {k: metric(v, UNITS[k]) for k, v in values.items()}

    buckets = [bucket_totals(p["layers"]) for p in final["traced_passes"]]
    share = {
        layer: statistics.median(sum(b.get(k, 0.0) for k in keys) / sum(b.values()) for b in buckets)
        for layer, keys in LAYERS.items()
    }
    lines = [f"  {k:<26} {v['value']:<14.6g} {v['unit']}" for k, v in m.items()]
    lines.append(f"  traced pass {traced:.3f} s, untraced {plain:.3f} s "
                 f"(medians of {len(final['traced_passes'])} each)")
    lines.append("  self-time share: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in share.items()))
    top = max((k for k in share if k != "bench"), key=share.get)
    mine = DESIGNATED[args.workload]
    largest = all(sum(share[k] for k in mine) >= share[k] for k in share if k not in mine)
    lines.append(f"  designated layer {'+'.join(mine)}: {100 * sum(share[k] for k in mine):.1f}%, "
                 f"{'largest' if largest else 'NOT the largest'} (top single layer: {top})")
    return m, lines


UNITS = {
    "spectrum.self_s": "s", "spectrum.values": "count", "spectrum.values_per_s": "1/s",
    "spectrum.floor_sum_calls": "count", "spectrum.floor_sum_s": "s",
    "asymptotics.self_s": "s", "asymptotics.points": "count",
    "cli.self_s": "s", "cli.emit_s": "s", "cli.rows": "count", "cli.bytes_out": "bytes",
    "zeta.ech_calls": "count", "zeta.barnes_calls": "count", "zeta.hurwitz_calls": "count",
    "zeta.laurent_calls": "count", "zeta.self_s": "s", "zeta.barnes_self_s": "s",
    "zeta.hurwitz_self_s": "s",
    "envelope.calls": "count", "envelope.F_bounds_calls": "count", "envelope.self_s": "s",
    "bench.self_s": "s", "trace.spans": "count", "trace.overhead_s": "s",
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every size (self-tests)")
    args = p.parse_args()
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "echspec", "__init__.py")):
        print(f"error: no echspec sources under {src}; run from a checkout root", file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup(src, 2 if args.tiny else SETUP_SAMPLES)
    outputs, final = run_worker(args, src, RUN_LIMIT_S - (time.perf_counter() - started))

    import refcheck  # mpmath stays out of the worker and the setup timings

    ops = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    zref = refcheck.ZetaReference()
    t0 = time.perf_counter()
    verdicts = [refcheck.check_op(op, o["code"], o["error"], o["out"], zref) for op, o in zip(ops, outputs)]
    checked_s = time.perf_counter() - t0
    mismatched = set(final["mismatched"])
    failed = sum(1 for i, v in enumerate(verdicts) if v.hard or i in mismatched)

    print(f"echspec benchmark: workload={args.workload} seed={args.seed} ops={len(ops)} "
          f"trace={args.trace} (outputs checked in {checked_s:.1f} s, run {time.perf_counter() - started:.1f} s)")
    if args.trace:
        metrics, lines = per_layer(args, ops, outputs, final)
    else:
        metrics, lines = end_to_end(args, ops, verdicts, final, setup)
    print("\n".join(lines))
    for i, v in enumerate(verdicts):
        what = workloads.argv(ops[i]) if ops[i]["via"] == "cli" else ops[i]["op"]
        for kind, msg in ([("FAIL", m) for m in v.hard] + [("beyond reported error", m) for m in v.soft])[:3]:
            print(f"  op {i} {what}: {kind}: {msg}")
    for i in sorted(mismatched):
        print(f"  op {i}: FAIL: output changed between passes")

    import numpy

    stdout = "".join(o["out"] for o in outputs)
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }
    print("env: " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
