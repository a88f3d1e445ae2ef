import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echspec import (
    EnvelopeConstants,
    F_bounds,
    TooSmallJ,
    capacity_envelope,
    r1_bar,
    r2_threshold,
    rho_zero,
)
from echspec.envelope import FOUR_PI_SQ


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


class TestR2:
    def test_dominated_by_quadratic_comparison(self):
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
        with pytest.raises(ValueError):
            r2_threshold(-1.0, EnvelopeConstants())


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

    def test_strict_mode_raises_below_threshold(self):
        k = EnvelopeConstants()
        res = capacity_envelope(1e6, k)
        assert not res.admissible
        with pytest.raises(TooSmallJ) as ei:
            capacity_envelope(1e6, k, strict=True)
        assert ei.value.min_j > 1e6

    def test_relative_collapse_without_fluctuations(self):
        # removing the fluctuation and cubic-remainder constants shrinks the
        # envelope to the deterministic core
        k0 = EnvelopeConstants(c2=0.0, c3_override=0.0)
        res0 = capacity_envelope(1e8, k0)
        res1 = capacity_envelope(1e8, EnvelopeConstants())
        width0 = res0.e_hi - res0.e_lo
        width1 = res1.e_hi - res1.e_lo
        assert width0 < 0.1 * width1
        # what remains is exactly the deterministic gap between the two bounds
        qj = res0.j
        gap = 0.5 * res0.r1**2 * k0.vol / res0.r3 + qj / res0.r3
        assert abs(width0 - gap) < 1e-9 * gap

    def test_too_small_j(self):
        k = EnvelopeConstants()
        with pytest.raises(TooSmallJ):
            capacity_envelope(1e-6, k)

    def test_rejects_nonpositive_j(self):
        with pytest.raises(ValueError):
            capacity_envelope(0.0, EnvelopeConstants())

    def test_deterministic(self):
        k = EnvelopeConstants()
        a = capacity_envelope(123456.0, k)
        b = capacity_envelope(123456.0, k)
        assert a == b


class TestConstants:
    def test_derived_c3(self):
        assert abs(EnvelopeConstants().c3 - 13.0 / 3.0) < 1e-14
        assert EnvelopeConstants(c1=0.0).c3 == 1.0
        assert EnvelopeConstants(c3_override=0.0).c3 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeConstants(c1=-1.0)
        with pytest.raises(ValueError):
            EnvelopeConstants(vol=0.0)

    @pytest.mark.parametrize("name", ["q", "c0", "c1", "c2", "vol", "c3_override"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            EnvelopeConstants(**{name: bad})
