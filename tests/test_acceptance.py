"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
result of every criterion is visible in the saved run log, then asserts.
Shared million-point defect sequences are computed once per session and the
construction time is charged to the criterion that requires them.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from echspec import (
    Ellipsoid,
    EnvelopeConstants,
    ZetaConvention,
    capacity_envelope,
    count_leq,
    d_sequence,
    ech_zeta,
    exponent_fit,
    barnes_zeta,
    floor_sum,
    hurwitz_zeta,
    laurent_at,
    nth_capacity,
    r1_bar,
    riemann_zeta,
    spectrum_range,
    weyl_fit,
)

from oracles import brute_spectrum, direct_zeta_sum

TEST_ELLIPSOIDS = [
    Ellipsoid(1, 1),
    Ellipsoid(1, 2),
    Ellipsoid(3, 7),
    Ellipsoid(1, F(665857, 470832)),
]

GOLDEN = Ellipsoid(1, F(832040, 514229))


def announce(capsys, num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"ACCEPTANCE {num}: {status} [{elapsed:.1f}s / budget {budget:.0f}s] {detail}",
            flush=True,
        )


@pytest.fixture(scope="module")
def square_defects():
    t0 = time.perf_counter()
    pts = d_sequence(Ellipsoid(1, 1), 1, 10**6)
    return pts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def golden_defects():
    t0 = time.perf_counter()
    pts = d_sequence(GOLDEN, 10**5, 10**6)
    return pts, time.perf_counter() - t0


def test_criterion_1_spectrum_oracle(capsys):
    t0 = time.perf_counter()
    worst = None
    for E in TEST_ELLIPSOIDS:
        expected = brute_spectrum(E.a, E.b, 10**4 + 1)
        got = [c for _, c in spectrum_range(E, 0, 10**4)]
        if got != expected:
            worst = (E.a, E.b)
            break
        for k in (0, 1, 17, 5000, 10**4):
            assert nth_capacity(E, k) == expected[k]
    elapsed = time.perf_counter() - t0
    ok = worst is None and elapsed < 10.0
    announce(capsys, 1, ok, elapsed, 10, "spectrum equals brute-force enumeration, 4 ellipsoids, k <= 1e4")
    assert worst is None, f"mismatch for axes {worst}"
    assert elapsed < 10.0


def test_criterion_2_floor_sum_random(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1234)
    bad = 0
    for _ in range(10**5):
        n = rng.randint(0, 1000)
        p = rng.randint(0, 1000)
        q = rng.randint(0, 1000)
        m = rng.randint(1, 1000)
        naive = int(((p * np.arange(n, dtype=np.int64) + q) // m).sum())
        if floor_sum(n, p, q, m) != naive:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    announce(capsys, 2, ok, elapsed, 5, f"floor_sum exact on 1e5 random instances ({bad} mismatches)")
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_3_closed_forms(capsys):
    t0 = time.perf_counter()
    E = Ellipsoid(1, 1)
    for t in range(1001):
        assert count_leq(E, t) == (t + 1) * (t + 2) // 2
    bad = 0
    for k, c in spectrum_range(E, 0, 10**6):
        expected = (math.isqrt(8 * k + 1) - 1) // 2
        if c != expected:
            bad += 1
    for k in (0, 10, 99999, 10**6):
        assert nth_capacity(E, k) == (math.isqrt(8 * k + 1) - 1) // 2
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    announce(capsys, 3, ok, elapsed, 10, "triangular closed forms for counting and extraction")
    assert bad == 0
    assert elapsed < 10.0


def test_criterion_4_weyl_coefficient(capsys):
    t0 = time.perf_counter()
    E = Ellipsoid(1, 1)
    fit = weyl_fit(E, list(range(100, 1001, 50)))
    ratio = 1.0 / fit.coefficient  # (2^d - 1)/vol = 1 against the fitted C
    elapsed = time.perf_counter() - t0
    ok = abs(fit.coefficient - 0.5) < 0.01 and fit.exponent <= 1.05 and elapsed < 30.0
    announce(
        capsys,
        4,
        ok,
        elapsed,
        30,
        f"C={fit.coefficient:.4f} (|C-1/2|<0.01), remainder exponent "
        f"{fit.exponent:.3f}<=1.05; periodicity count exceeds fit by factor "
        f"{ratio:.3f} (open question, factor about 2)",
    )
    assert abs(fit.coefficient - 0.5) < 0.01
    assert fit.exponent <= 1.05
    assert elapsed < 30.0


def test_criterion_5_defect_limits(capsys, square_defects, golden_defects):
    sq_pts, sq_time = square_defects
    g_pts, g_time = golden_defects
    t0 = time.perf_counter()
    lo, hi = -1.5 - 1e-6, -0.5 + 1e-6
    violations = [p for p in sq_pts if not (lo <= p.d <= hi)]
    d_max = max(p.d for p in sq_pts)
    limit = float(GOLDEN.a + GOLDEN.b) / 2.0
    g_dev = max(abs(abs(p.d) - limit) for p in g_pts)
    signs = {1 if p.d > 0 else -1 for p in g_pts[-1000:]}
    elapsed = time.perf_counter() - t0 + sq_time + g_time
    ok_square = not violations
    ok_golden = g_dev < 0.1
    ok = ok_square and ok_golden and elapsed < 60.0
    announce(
        capsys,
        5,
        ok,
        elapsed,
        60,
        f"square interval check: {len(violations)} of 1e6 outside "
        f"[-1.5,-0.5] (max d = {d_max:.6f}); golden-ratio convergent "
        f"max||d|-{limit:.6f}| = {g_dev:.4f} < 0.1, sign {sorted(signs)}",
    )
    assert ok_golden, f"golden deviation {g_dev}"
    assert elapsed < 60.0
    assert ok_square, (
        f"{len(violations)} defects leave the stated interval: at every "
        f"triangular index j = t(t+1)/2 the defect t - sqrt(t^2 + t) exceeds "
        f"-1/2, peaking at d_1 = 1 - sqrt(2) = {d_max:.6f}"
    )


def test_criterion_6_defect_exponent(capsys, square_defects, golden_defects):
    sq_pts, _ = square_defects
    g_pts, _ = golden_defects
    t0 = time.perf_counter()
    fit_sq = exponent_fit([p for p in sq_pts if p.j >= 1000], 12)
    fit_g = exponent_fit(g_pts, 12)
    elapsed = time.perf_counter() - t0
    ok = fit_sq.exponent <= 0.05 and fit_g.exponent <= 0.05 and elapsed < 60.0
    announce(
        capsys,
        6,
        ok,
        elapsed,
        60,
        f"window-sup exponents {fit_sq.exponent:.4f} (square) and "
        f"{fit_g.exponent:.4f} (golden) <= 0.05, far inside the 2/5 bound",
    )
    assert fit_sq.exponent <= 0.05
    assert fit_g.exponent <= 0.05
    assert elapsed < 60.0


def test_criterion_7_zeta_identities(capsys):
    t0 = time.perf_counter()
    E = Ellipsoid(1, 1)
    rng = random.Random(777)
    worst = 0.0
    n = 0
    while n < 20:
        s = complex(rng.uniform(-2.0, 4.0), rng.uniform(-4.0, 4.0))
        if min(abs(s - 1), abs(s - 2)) < 0.05:
            continue
        ref = riemann_zeta(s - 1)
        err = abs(barnes_zeta(s, 1.0, E) - ref) / abs(ref)
        worst = max(worst, err)
        n += 1
    h_worst = max(abs(hurwitz_zeta(0.0, x) - (0.5 - x)) for x in [0.25, 0.5, 1.0, 3.7])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and h_worst < 1e-10 and elapsed < 5.0
    announce(
        capsys,
        7,
        ok,
        elapsed,
        5,
        f"diagonal collapse rel err {worst:.2e} < 1e-8 at 20 points; "
        f"hurwitz(0,x)=1/2-x to {h_worst:.2e}",
    )
    assert worst < 1e-8
    assert h_worst < 1e-10
    assert elapsed < 5.0


def test_criterion_8_residues_one_two(capsys):
    t0 = time.perf_counter()
    E = Ellipsoid(1, 2)
    res2 = {}
    res1 = {}
    for conv in (ZetaConvention.INTERIOR, ZetaConvention.FULL):
        f = lambda s, c=conv: ech_zeta(s, E, c)
        res2[conv] = laurent_at(f, 2.0).residue.real
        res1[conv] = laurent_at(f, 1.0).residue.real
    val0 = ech_zeta(0.0, E, ZetaConvention.INTERIOR).real
    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(r - 0.5) < 1e-6 for r in res2.values())
        and abs(res1[ZetaConvention.FULL] - 0.75) < 1e-6
        and abs(res1[ZetaConvention.INTERIOR] + 0.75) < 1e-6
        and abs(val0 - 11.0 / 24.0) < 1e-6
        and elapsed < 10.0
    )
    announce(
        capsys,
        8,
        ok,
        elapsed,
        10,
        f"Res(s=2)={res2[ZetaConvention.FULL]:.8f} both continuable conventions; "
        f"Res(s=1)=+-{abs(res1[ZetaConvention.FULL]):.6f} with expected signs; "
        f"interior value at 0 = {val0:.8f} vs 11/24",
    )
    for conv, r in res2.items():
        assert abs(r - 0.5) < 1e-6, conv
    assert abs(res1[ZetaConvention.FULL] - 0.75) < 1e-6
    assert abs(res1[ZetaConvention.INTERIOR] + 0.75) < 1e-6
    assert abs(val0 - 11.0 / 24.0) < 1e-6
    assert elapsed < 10.0


def test_criterion_9_direct_sum_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for E in TEST_ELLIPSOIDS:
        for s in (3.0, 4.0):
            for conv in (ZetaConvention.INTERIOR, ZetaConvention.FULL):
                direct, tail = direct_zeta_sum(E, s, 10**5, conv)
                gap = abs(ech_zeta(s, E, conv) - direct)
                worst = max(worst, gap - tail)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    announce(
        capsys,
        9,
        ok,
        elapsed,
        30,
        f"continued values within tail bound of partial sums "
        f"(worst overshoot {worst:.2e} <= 1e-8)",
    )
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_10_envelope_scaling(capsys):
    t0 = time.perf_counter()
    k = EnvelopeConstants()
    ratios = []
    r1_dev = 0.0
    for p in range(4, 11):
        j = 10.0**p
        res = capacity_envelope(j, k)
        ratios.append((res.c_hi - res.c_lo) / j**0.4)
        r1_dev = max(r1_dev, abs(r1_bar(j, k) - 2.0 * math.pi * math.sqrt(j / k.vol)))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    r1_bound = 2.0 * k.c0 * math.pi**2 * 4.0 / k.vol + 1.0
    elapsed = time.perf_counter() - t0
    ok = spread < 0.2 and r1_dev <= r1_bound and elapsed < 5.0
    announce(
        capsys,
        10,
        ok,
        elapsed,
        5,
        f"width/j^0.4 spread {100 * spread:.1f}% < 20% over j in 1e4..1e10; "
        f"max|r1 - leading| = {r1_dev:.4g} <= {r1_bound:.4g}",
    )
    assert spread < 0.2
    assert r1_dev <= r1_bound
    assert elapsed < 5.0
