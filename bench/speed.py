"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a small shared virtual machine whose speed drifts:
a fixed pure-Python loop timed every few seconds ranges over almost a factor
of two within minutes. Raw op latencies inherit that drift, which swamps the
changes the benchmark exists to detect. So the worker times a fixed kernel
between ops, at least every ``EVERY_S`` seconds of measured work, and each
op's latency is scaled by ``NOMINAL_S / k``, where ``k`` is the mean of the
kernel times just before and just after the stretch of work that holds it.
The kernel does not touch echspec, so no change to the program can move it;
timings are reported in seconds of a machine on which the kernel takes
``NOMINAL_S``. Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

NOMINAL_S = 0.005
EVERY_S = 0.25


def kernel_time() -> float:
    """Best of three timings of integer Euclid steps, Fractions, float
    formatting and dict rows: the kinds of work echspec does."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, rows = 0, []
        for i in range(1, 700):
            n, p, q, m = i, 7 * i + 3, i // 3, 97
            while True:
                if p >= m:
                    acc += (n - 1) * n // 2 * (p // m)
                    p %= m
                if q >= m:
                    acc += n * (q // m)
                    q %= m
                y = p * n + q
                if y < m:
                    break
                n, q, m, p = y // m, y % m, p, m
            c = Fraction(acc % 1000003, 514229)
            rows.append({"k": i, "c": f"{c.numerator / c.denominator:.17g}", "z": complex(i, 1) ** -1.5})
        best = min(best, time.perf_counter() - t0)
    return best


def scale(times: list[float], marks: list[int], kernel: list[float]) -> list[float]:
    """Scaled op times: op i lies between kernel timings marks[i] and
    marks[i] + 1."""
    return [t * NOMINAL_S * 2 / (kernel[m] + kernel[m + 1]) for t, m in zip(times, marks)]
