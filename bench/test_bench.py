"""Self-tests of the benchmark: the result line carries every declared metric,
the benchmark refuses to run without the program, and the checker is not
vacuous. Run with ``python3 -m pytest bench`` from the checkout root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import refcheck
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = [sys.executable, os.path.join("bench", "run.py")]


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(cwd, *args):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize(
    "workload, trace",
    [("table", 0), ("deep", 0), ("analytic", 0), ("deep", 1)],
)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    report = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert name in report and unit in report
    assert '"stdout_sha256"' in report


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workloads_are_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
        assert workloads.generate(w, 7) != workloads.generate(w, 8)


def test_negative_zeta_points_are_attached_to_the_flag():
    op = {"via": "cli", "op": "zeta", "a": "1", "b": "2", "s": (-2.5, 1.0), "convention": "full"}
    assert "-s=-2.5,1.0" in workloads.argv(op)


def _capacity_csv(a, b, k0, k1, tamper=None):
    A, B, den = refcheck.scaled(a, b)
    vals = refcheck.lattice_window(A, B, 0, (k1 + 1) * max(A, B))[k0 : k1 + 1]
    lines = ["k,c_num,c_den,c_float"]
    for k, v in zip(range(k0, k1 + 1), vals.tolist()):
        c = Fraction(v, den) + (Fraction(1, den) if k == tamper else 0)
        lines.append(f"{k},{c.numerator},{c.denominator},{float(c)!r}")
    return "\n".join(lines) + "\n"


def _check(op, text):
    return refcheck.check_op(op, 0, None, text, refcheck.ZetaReference())


def test_checker_passes_correct_capacities_and_flags_a_planted_wrong_one():
    op = {"via": "cli", "op": "capacities", "a": "2/3", "b": "5/7", "k0": 40, "k1": 60}
    good = _check(op, _capacity_csv("2/3", "5/7", 40, 60))
    assert not good.hard and not good.soft and good.rows == 21
    bad = _check(op, _capacity_csv("2/3", "5/7", 40, 60, tamper=47))
    assert any("k=47" in msg for msg in bad.hard)


def test_checker_flags_a_planted_wrong_defect():
    op = {"via": "lib", "op": "d_sequence", "a": "1", "b": "1", "k0": 3, "k1": 3}
    exact = 2 - mpmath.sqrt(6)  # c_3 = 2 on E(1, 1)
    ok = f"3,2,1,{float(exact)!r},{2.0**-49!r}\n"
    assert not _check(op, ok).hard and not _check(op, ok).soft
    off = f"3,2,1,{float(exact) + 1e-13!r},{2.0**-49!r}\n"
    assert _check(op, off).soft


def test_checker_flags_out_of_bound_zeta_values():
    op = {"via": "cli", "op": "zeta", "a": "1", "b": "2", "s": (-1.5, 3.0), "convention": "full"}
    with mpmath.workdps(30):
        ref = complex(refcheck.ZetaReference().value("1", "2", complex(-1.5, 3.0), "full"))

    def row(value, err):
        return f"s_re,s_im,value_re,value_im,err\n-1.5,3,{value.real!r},{value.imag!r},{err!r}\n"

    assert not _check(op, row(ref, 1e-10)).soft
    beyond = _check(op, row(ref * (1 + 1e-8), 1e-10))
    assert beyond.soft and not beyond.hard
    assert _check(op, row(ref * (1 + 1e-3), 1e-10)).hard


def test_zeta_reference_matches_a_row_sum():
    # Interior sum over m, n >= 1 of (m + 2n)^-3, summed row by row instead of
    # through the residue-class form the reference uses.
    with mpmath.workdps(30):
        rows = mpmath.nsum(lambda n: mpmath.zeta(3, 2 * n + 1), [1, mpmath.inf])
        ref = refcheck.ZetaReference().value("1", "2", 3, "interior")
    assert abs(ref - rows) < 1e-15
