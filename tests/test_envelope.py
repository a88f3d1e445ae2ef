import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echspec.envelope
from echspec import (
    EnvelopeConstants,
    F_bounds,
    NoRoot,
    TooSmallJ,
    capacity_envelope,
    r1_bar,
    r2_threshold,
)
from echspec.envelope import FOUR_PI_SQ

from oracles import rho_zero


def bisect_larger_root(j, k, hi=1e12):
    """Independent bracketed bisection for the larger root of the threshold
    quadratic, as an oracle for the closed form."""
    alpha = k.vol / FOUR_PI_SQ

    def g(r):
        return alpha * r * r - k.c0 * r - (k.q + j)

    lo = 0.0
    assert g(hi) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_sup_below(pred, r_base):
    """sup{r >= r_base : pred(r)} by doubling and then all 200 bisection
    steps, with the number of predicate calls made before the bisection."""
    if not pred(r_base):
        return r_base, 1
    lo, hi, calls = r_base, max(2.0 * r_base, 1.0), 2
    while pred(hi):
        lo, hi, calls = hi, 2.0 * hi, calls + 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, calls


def count_F_bounds(monkeypatch) -> list[float]:
    """Patch the envelope's F_bounds to record the radius of every call."""
    radii = []
    inner = echspec.envelope.F_bounds

    def counted(r, j, k):
        radii.append(r)
        return inner(r, j, k)

    monkeypatch.setattr(echspec.envelope, "F_bounds", counted)
    return radii


def count_bound_evaluations(monkeypatch) -> list[tuple[int, float]]:
    """Patch the envelope's per-index bounds to record (bound index, radius)
    for every evaluation of F_lo, F_hi, Fp_lo or Fp_hi (index 0 to 3)."""
    evals = []
    inner = echspec.envelope._bounds

    def counted(j, k):
        r1, bounds = inner(j, k)
        return r1, tuple((lambda r, i=i, f=f: evals.append((i, r)) or f(r)) for i, f in enumerate(bounds))

    monkeypatch.setattr(echspec.envelope, "_bounds", counted)
    return evals


def four_predicate_r2(j, k):
    """r2_threshold as it was with all four validity predicates, the maximum
    of their sups, as the reference for the two-predicate form."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    base = max(r1_bar(j, k), 1e-9)
    rho0 = rho_zero()

    def f_hi(r):
        return F_bounds(r, j, k)[1]

    def cubic_root(r):
        F = f_hi(r)
        return F > 0 and k.c1 * F ** (1.0 / 3.0) >= rho0 * r ** (2.0 / 3.0)

    preds = [
        lambda r: f_hi(r) / r >= (1.0 / (9.0 * k.c3)) ** 3 * r,
        lambda r: f_hi(r) / r >= r,
    ]
    if k.c1 > 0:
        preds += [cubic_root, lambda r: F_bounds(r, j, k)[3] >= (3.0 / (4.0 * k.c1)) ** 3 * r]
    return max(echspec.envelope._sup_below(p, base) for p in preds)


def outcome(f, *args):
    """The float f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_case(rng):
    """A seeded (j, EnvelopeConstants) pair; each of j, c0, c1, c2 is zero a
    tenth of the time, q is negative a third of the time, and c1 spans
    1e-6..1e6."""

    def scale(lo, hi):
        return 0.0 if rng.random() < 0.1 else 10 ** rng.uniform(lo, hi)

    q = rng.choice([0.0, 10 ** rng.uniform(-3, 3), -(10 ** rng.uniform(-3, 3))])
    k = EnvelopeConstants(q=q, c0=scale(-3, 3), c1=scale(-6, 6), c2=scale(-3, 3), vol=10 ** rng.uniform(-1, 5))
    return scale(-2, 12), k


SWEEP_JS = sorted({10.0 ** (3 + i / 4) for i in range(6 * 4 + 1)})  # envelope -k 3..9 --per-decade 4
NON_DEFAULT = EnvelopeConstants(vol=1000.0, c1=2.0, c2=0.5, q=3.0, c0=0.25)


class TestR1:
    def test_degenerate_is_sqrt(self):
        k = EnvelopeConstants(q=0.0, c0=0.0, vol=FOUR_PI_SQ)
        for j in [1.0, 4.0, 100.0]:
            assert abs(r1_bar(j, k) - math.sqrt(j)) < 1e-12

    @given(
        j=st.floats(0.0, 1e8),
        c0=st.floats(0.0, 10.0),
        q=st.floats(0.0, 5.0),
        vol=st.floats(1.0, 1e5),
    )
    @settings(max_examples=80)
    def test_matches_bisection(self, j, c0, q, vol):
        k = EnvelopeConstants(q=q, c0=c0, vol=vol)
        r = r1_bar(j, k)
        oracle = bisect_larger_root(j, k)
        assert abs(r - oracle) <= 1e-7 * max(1.0, oracle)

    def test_root_satisfies_quadratic(self):
        k = EnvelopeConstants()
        r = r1_bar(1e6, k)
        assert abs(r * r * k.vol / FOUR_PI_SQ - k.c0 * r - 1e6) < 1e-4

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            r1_bar(-1.0, EnvelopeConstants())

    def test_empty_defining_set(self):
        # q + j far below -c0^2 pi^2 / vol: the quadratic has no real root
        with pytest.raises(NoRoot, match="defining set empty"):
            r1_bar(3.0, EnvelopeConstants(q=-1e9))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda j, k: r1_bar(j, k),
            lambda j, k: F_bounds(1.0, j, k),
            lambda j, k: r2_threshold(j, k),
            lambda j, k: capacity_envelope(j, k),
        ],
        ids=["r1_bar", "F_bounds", "r2_threshold", "capacity_envelope"],
    )
    def test_j_past_the_float_range(self, entry):
        with pytest.raises(ValueError, match=r"^j exp\(921\.034\) overflows a float$"):
            entry(10**400, EnvelopeConstants())


class TestRhoZero:
    def test_defining_equation(self):
        r = rho_zero()
        assert abs(r + r**2 + r**3 + r**4 - 1.0 / 3.0) < 1e-14

    def test_bracket(self):
        assert 0.25 < rho_zero() < 0.26


class TestFBounds:
    def test_collapse_without_fluctuation(self):
        # with c2 = 0 the brackets pin down F exactly
        k = EnvelopeConstants(c2=0.0)
        j = 1e5
        r = 3.0 * r1_bar(j, k)
        F_lo, F_hi, Fp_lo, Fp_hi = F_bounds(r, j, k)
        assert F_lo == F_hi
        assert Fp_lo == Fp_hi

    def test_brackets_ordered(self):
        k = EnvelopeConstants()
        j = 1e5
        for mult in [1.0, 2.0, 10.0]:
            r = mult * r1_bar(j, k)
            F_lo, F_hi, Fp_lo, Fp_hi = F_bounds(r, j, k)
            assert F_lo <= F_hi and Fp_lo <= Fp_hi

    def test_value_at_r1(self):
        # at r = r1 everything but the leading term vanishes
        k = EnvelopeConstants()
        j = 777.0
        r1 = r1_bar(j, k)
        F_lo, F_hi, _, _ = F_bounds(r1, j, k)
        lead = 0.5 * r1 * r1 * k.vol
        assert abs(F_lo - lead) < 1e-9 * lead
        assert abs(F_hi - lead) < 1e-9 * lead

    def test_transcription(self):
        # independent re-derivation of the bracket formulas
        k = EnvelopeConstants(q=0.3, c0=0.7, c2=1.9, vol=50.0)
        j = 4321.0
        r1 = r1_bar(j, k)
        r = 5.0 * r1
        qj = k.q + j
        lead = 0.5 * r1 * r1 * k.vol
        fluct = 2.0 * k.c2 * (math.sqrt(r) - math.sqrt(r1))
        base = lead + r * (qj / r1 - qj / r)
        F_lo, F_hi, _, _ = F_bounds(r, j, k)
        assert abs(F_lo - (base - r * fluct)) < 1e-9 * abs(base)
        assert abs(F_hi - (base + r * fluct)) < 1e-9 * abs(base)

    def test_rejects_radius_below_r1(self):
        k = EnvelopeConstants()
        with pytest.raises(ValueError):
            F_bounds(0.5 * r1_bar(100.0, k), 100.0, k)

    @pytest.mark.parametrize(
        "entry", [lambda j, k: F_bounds(1.0, j, k), r2_threshold], ids=["F_bounds", "r2_threshold"]
    )
    def test_r1_zero_message_fits_each_caller(self, entry):
        # at q + j = 0 and c0 = 0, r1 = 0: the one message names r1, not a caller
        with pytest.raises(ValueError, match=r"^r1_bar\(j\) = 0 is not positive; the F brackets divide by r1$"):
            entry(1.0, EnvelopeConstants(q=-1.0, c0=0.0))


class TestR2:
    def test_grows_with_j(self):
        # with order-one constants the threshold grows like sqrt(F) ~ j^{5/8}...
        k = EnvelopeConstants()
        t1 = r2_threshold(1e4, k)
        t2 = r2_threshold(1e6, k)
        assert t2 > t1 > 0

    def test_monotone_in_j(self):
        k = EnvelopeConstants()
        vals = [r2_threshold(j, k) for j in [1e3, 1e5, 1e7, 1e9]]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_exceeds_r1(self):
        k = EnvelopeConstants()
        j = 1e6
        assert r2_threshold(j, k) >= r1_bar(j, k)

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError, match="^j must be nonnegative$"):
            r2_threshold(-1.0, EnvelopeConstants())

    @pytest.mark.parametrize("k", [EnvelopeConstants(), NON_DEFAULT])
    def test_probes_no_radius_below_r1(self, k, monkeypatch):
        evals = count_bound_evaluations(monkeypatch)
        for p in range(3, 10):
            j = 10.0**p
            evals.clear()
            r2_threshold(j, k)
            assert evals and min(r for _, r in evals) >= r1_bar(j, k)

    def test_matches_four_predicate_reference(self):
        # same float, or same exception type and message, as the maximum over
        # all four validity predicates
        rng = random.Random(15)
        cases = [random_case(rng) for _ in range(3000)]
        cases += [(j, EnvelopeConstants(c1=c1)) for j in (0.0, 1e5) for c1 in (1e-6, 1e6)]
        errors = 0
        for j, k in cases:
            want = outcome(four_predicate_r2, j, k)
            assert outcome(r2_threshold, j, k) == want, (j, k)
            errors += isinstance(want, tuple)
        assert 0 < errors < len(cases) // 2
        ks = [k for _, k in cases]
        assert {0.0} <= {j for j, _ in cases} and any(k.q < 0 for k in ks)
        assert all(any(getattr(k, c) == 0.0 for k in ks) for c in ("c0", "c1", "c2"))

    @pytest.mark.parametrize("c1", [1e-50, 1e-100, 1e-200])
    @pytest.mark.parametrize("j", [10.0, 1e4, 1e9])
    def test_fourth_constant_past_the_float_range(self, j, c1):
        # (3/(4 c1))^3 overflows at c1 = 1e-200: no finite Fp_hi meets P4, so
        # r2 is P1's sup, as it is where P4 still runs at c1 = 1e-50 and 1e-100
        k = EnvelopeConstants(c1=c1)
        base, K = max(r1_bar(j, k), 1e-9), (1.0 / (9.0 * k.c3)) ** 3
        p1 = echspec.envelope._sup_below(lambda r: F_bounds(r, j, k)[1] / r >= K * r, base)
        assert r2_threshold(j, k) == p1

    def test_fourth_predicate_not_redundant(self):
        # vol = 1e-5 is below 2K, K = (1/(9 c3))^3 ~ 1.69e-5, so P1 fails at
        # the base radius and alone would give r2 = r1; P4 sets r2 here
        j, k = 1e12, EnvelopeConstants(vol=1e-5, c2=1e5)
        r1 = r1_bar(j, k)
        assert F_bounds(r1, j, k)[1] / r1 < (1.0 / (9.0 * k.c3)) ** 3 * r1
        assert r2_threshold(j, k) > 200 * r1
        assert not capacity_envelope(j, k).admissible

    def test_first_predicate_implied_pointwise(self):
        # F_hi/r >= r and the rho0 cubic-root condition each imply
        # F_hi/r >= K r, in the exact float expressions r2 used to probe
        rng = random.Random(16)
        rho0 = rho_zero()
        held = [0, 0]
        for _ in range(3000):
            j, k = random_case(rng)
            try:
                r1 = r1_bar(j, k)
            except echspec.EchspecError:
                continue
            if r1 <= 0:
                continue
            r = max(r1, 1e-9) * 10 ** rng.uniform(0, 12)
            F = F_bounds(r, j, k)[1]
            p1 = F / r >= (1.0 / (9.0 * k.c3)) ** 3 * r
            p2 = F / r >= r
            p3 = k.c1 > 0 and F > 0 and k.c1 * F ** (1.0 / 3.0) >= rho0 * r ** (2.0 / 3.0)
            assert p1 or not (p2 or p3), (j, k, r)
            held[0] += p2
            held[1] += p3
        assert min(held) > 100

    def test_sup_below_stops_at_adjacent_floats(self):
        rng = random.Random(10)
        for _ in range(1000):
            base = 10 ** rng.uniform(-0.3, 6)
            t = base * 10 ** rng.uniform(-0.5, 3)
            for pred in (lambda r: r <= t, lambda r: r < t, lambda r: r * r * r <= t * t * t):
                ref, bracket_calls = full_sup_below(pred, base)
                calls = []
                got = echspec.envelope._sup_below(lambda r: calls.append(r) or pred(r), base)
                assert got == ref, (base, t)
                assert len(calls) - bracket_calls <= 64, (base, t)


class TestCapacityEnvelope:
    def test_basic_shape(self):
        k = EnvelopeConstants()
        res = capacity_envelope(1e6, k)
        assert res.e_lo <= res.e_hi
        assert res.c_lo == res.e_lo / (2.0 * math.pi)
        assert res.c_hi == res.e_hi / (2.0 * math.pi)
        assert res.r3 == 1e6**0.8

    def test_width_scaling(self):
        # envelope width grows like j^{2/5} across the default sweep
        k = EnvelopeConstants()
        ratios = []
        for p in range(4, 11):
            res = capacity_envelope(10.0**p, k)
            ratios.append((res.e_hi - res.e_lo) / (10.0**p) ** 0.4)
        lo, hi = min(ratios), max(ratios)
        assert (hi - lo) / lo < 0.2

    def test_center_approaches_r1_rate(self):
        # the midpoint settles onto the leading rate j/r1 as j grows
        k = EnvelopeConstants()
        devs = []
        for p in [5, 7, 9]:
            j = 10.0**p
            res = capacity_envelope(j, k)
            mid = 0.5 * (res.e_lo + res.e_hi)
            devs.append(abs(mid / (j / res.r1) - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.1

    def test_flags_result_below_threshold_inadmissible(self):
        # below r2 the result is flagged, not raised
        res = capacity_envelope(1e6, EnvelopeConstants())
        assert not res.admissible
        assert res.r2 > res.r3

    def test_relative_collapse_without_fluctuations(self):
        # with c2 = 0 the envelope is the deterministic core widened by the
        # cubic remainder R with the derived c3
        k = EnvelopeConstants(c2=0.0)
        j = 1e8
        res = capacity_envelope(j, k)
        r1, r3 = res.r1, res.r3
        e_lo_base = j / r1 - j / r3
        e_hi_base = 0.5 * r1**2 * k.vol / r3 + j / r1
        R = 4.0 * k.c3 * (e_hi_base / r3) ** (1.0 / 3.0)
        lo, hi = sorted([e_lo_base * (1.0 - R), e_hi_base * (1.0 + R)])
        assert abs(res.e_lo - lo) <= 1e-12 * abs(lo)
        assert abs(res.e_hi - hi) <= 1e-12 * abs(hi)
        default = capacity_envelope(j, EnvelopeConstants())
        assert res.e_hi - res.e_lo < default.e_hi - default.e_lo

    def test_too_small_j(self):
        k = EnvelopeConstants()
        with pytest.raises(TooSmallJ):
            capacity_envelope(1e-6, k)

    def test_too_small_j_probes_no_radius(self, monkeypatch):
        evals = count_bound_evaluations(monkeypatch)
        radii = count_F_bounds(monkeypatch)
        with pytest.raises(TooSmallJ, match="below r1"):
            capacity_envelope(1.0, EnvelopeConstants(vol=1.0))
        assert evals == radii == []

    def test_too_small_j_at_r1_zero(self, monkeypatch):
        evals = count_bound_evaluations(monkeypatch)
        with pytest.raises(TooSmallJ, match="^r1 = 0 is not positive; the F brackets divide by r1$"):
            capacity_envelope(1.0, EnvelopeConstants(q=-1.0, c0=0.0))
        assert evals == []

    def test_rejects_nonpositive_j(self):
        with pytest.raises(ValueError):
            capacity_envelope(0.0, EnvelopeConstants())

    def test_sweep_F_bounds_calls(self, monkeypatch):
        # one F_bounds call per index, at r3, which evaluates all four bounds;
        # r2's two predicates evaluate one bound each, F_hi or Fp_hi, once per
        # radius: 3,639 radii in r2 and 25 at r3
        evals = count_bound_evaluations(monkeypatch)
        radii = count_F_bounds(monkeypatch)
        r3s = [capacity_envelope(j, EnvelopeConstants()).r3 for j in SWEEP_JS]
        assert len(SWEEP_JS) == 25
        assert radii == r3s
        assert [(i, r) for i, r in evals if i in (0, 2)] == [(i, r) for r in r3s for i in (0, 2)]
        assert len(evals) - 3 * len(radii) == 3664

    def test_deterministic(self):
        k = EnvelopeConstants()
        a = capacity_envelope(123456.0, k)
        b = capacity_envelope(123456.0, k)
        assert a == b


class TestConstants:
    def test_derived_c3(self):
        assert abs(EnvelopeConstants().c3 - 13.0 / 3.0) < 1e-14
        assert EnvelopeConstants(c1=0.0).c3 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeConstants(c1=-1.0)
        with pytest.raises(ValueError):
            EnvelopeConstants(vol=0.0)

    @pytest.mark.parametrize("name", ["q", "c0", "c1", "c2", "vol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            EnvelopeConstants(**{name: bad})
