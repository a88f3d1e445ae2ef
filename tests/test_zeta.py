import cmath
import math
import random
import time
from fractions import Fraction as F

import mpmath
import pytest

import echspec.zeta
from echspec import (
    DepthExceeded,
    Ellipsoid,
    NonConvergent,
    PoleProximity,
    ZetaConvention,
    barnes_zeta,
    bernoulli,
    direct_zeta_sum,
    ech_zeta,
    hurwitz_zeta,
    laurent_at,
    riemann_zeta,
)

from oracles import distinct_zeta_gaps, double_sum_barnes, interior_zeta_hurwitz

EULER_GAMMA = 0.5772156649015329


class TestBernoulli:
    @pytest.mark.parametrize(
        "k,value",
        [
            (0, F(1)),
            (1, F(-1, 2)),
            (2, F(1, 6)),
            (4, F(-1, 30)),
            (6, F(1, 42)),
            (12, F(-691, 2730)),
        ],
    )
    def test_known_values(self, k, value):
        assert bernoulli(k) == value

    @pytest.mark.parametrize("k", [3, 5, 7, 21])
    def test_odd_vanish(self, k):
        assert bernoulli(k) == 0

    def test_bounds(self):
        with pytest.raises(ValueError):
            bernoulli(-1)
        with pytest.raises(ValueError):
            bernoulli(66)


class TestHurwitz:
    @pytest.mark.parametrize(
        "s,x",
        [
            (3.0, 1.0),
            (2.5, 0.3),
            (0.5, 1.7),
            (-1.5, 2.0),
            (-3.5, 0.25),
            (complex(2.0, 5.0), 1.0),
            (complex(0.5, 14.0), 0.5),
            (complex(-2.0, 3.0), 3.0),
        ],
    )
    def test_against_mpmath(self, s, x):
        ref = complex(mpmath.zeta(s, x))
        got = hurwitz_zeta(s, x)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_negative_integer_values(self):
        # zeta(-n, x) = -B_{n+1}(x)/(n+1)
        x = 0.7
        b2 = x * x - x + 1.0 / 6.0
        assert abs(hurwitz_zeta(-1.0, x) - (-b2 / 2.0)) < 1e-12

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            hurwitz_zeta(1.0 + 1e-8, 1.0)

    def test_depth_guard(self):
        with pytest.raises(DepthExceeded):
            hurwitz_zeta(-4.5, 1.0)
        assert hurwitz_zeta(-4.5, 1.0, depth=8.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)


class TestRiemann:
    @pytest.mark.parametrize(
        "s,value",
        [
            (2.0, math.pi**2 / 6),
            (4.0, math.pi**4 / 90),
            (0.0, -0.5),
            (-1.0, -1.0 / 12.0),
            (-3.0, 1.0 / 120.0),
            (3.0, 1.2020569031595943),
            (0.5, -1.4603545088095868),
        ],
    )
    def test_classical_values(self, s, value):
        assert abs(riemann_zeta(s) - value) < 1e-12 * max(1.0, abs(value))

    def test_first_zero(self):
        s = complex(0.5, 14.134725141734693)
        assert abs(riemann_zeta(s)) < 1e-9


class TestBarnes:
    def test_square_reduces_to_riemann(self):
        # with both axes 1 and offset 1 the double sum collapses by diagonals
        E = Ellipsoid(1, 1)
        for s in [3.7, 2.5, 0.5, -0.7, -2.5, complex(3.0, 4.0), complex(-1.0, 6.0)]:
            got = barnes_zeta(s, 1.0, E)
            ref = riemann_zeta(complex(s) - 1)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_value_at_zero_square(self):
        assert abs(barnes_zeta(0.0, 1.0, Ellipsoid(1, 1)) - (-1.0 / 12.0)) < 1e-12

    def test_against_double_sum(self):
        rng = random.Random(20260823)
        for _ in range(20):
            a = F(rng.randint(1, 8), rng.randint(1, 4))
            b = F(rng.randint(1, 8), rng.randint(1, 4))
            w = rng.uniform(0.2, 3.0)
            s = complex(rng.uniform(2.6, 4.0), rng.uniform(-3.0, 3.0))
            E = Ellipsoid(a, b)
            ref, tol = double_sum_barnes(s, w, float(a), float(b), cutoff=4000.0)
            got = barnes_zeta(s, w, E)
            assert abs(got - ref) <= tol + 1e-9 * abs(ref)

    def test_axis_symmetry(self):
        s = complex(1.3, -2.0)
        v1 = barnes_zeta(s, 0.9, Ellipsoid(F(2, 3), F(7, 5)))
        v2 = barnes_zeta(s, 0.9, Ellipsoid(F(7, 5), F(2, 3)))
        assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))

    def test_pole_guards(self):
        E = Ellipsoid(1, 2)
        with pytest.raises(PoleProximity):
            barnes_zeta(2.0 + 1e-9, 1.0, E)
        with pytest.raises(PoleProximity):
            barnes_zeta(1.0, 1.0, E)

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            barnes_zeta(3.0, 0.0, Ellipsoid(1, 1))


class TestEchZeta:
    def test_square_closed_forms(self):
        E = Ellipsoid(1, 1)
        for s in [3.5, 2.5, 0.5, -0.5, complex(3.0, 2.0)]:
            sc = complex(s)
            zi = ech_zeta(s, E, ZetaConvention.INTERIOR)
            zf = ech_zeta(s, E, ZetaConvention.FULL)
            ref_i = riemann_zeta(sc - 1) - riemann_zeta(sc)
            ref_f = riemann_zeta(sc - 1) + riemann_zeta(sc)
            assert abs(zi - ref_i) <= 1e-10 * max(1.0, abs(ref_i))
            assert abs(zf - ref_f) <= 1e-10 * max(1.0, abs(ref_f))

    def test_convention_difference_is_axis_sum(self):
        E = Ellipsoid(F(1), F(5, 3))
        a, b = float(E.a), float(E.b)
        for s in [3.1, 0.7, complex(2.5, 1.5)]:
            sc = complex(s)
            diff = ech_zeta(s, E, ZetaConvention.FULL) - ech_zeta(s, E, ZetaConvention.INTERIOR)
            ref = (a ** (-sc) + b ** (-sc)) * riemann_zeta(sc)
            assert abs(diff - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_value_at_zero_interior(self):
        for a, b in [(F(1), F(1)), (F(1), F(2)), (F(3, 2), F(7, 3))]:
            E = Ellipsoid(a, b)
            ref = 0.25 + (float(b / a) + float(a / b)) / 12.0
            assert abs(ech_zeta(0.0, E, ZetaConvention.INTERIOR) - ref) < 1e-9

    @pytest.mark.parametrize(
        "a,b",
        [(F(2), F(3)), (F(3), F(5)), (F(5), F(3)), (F(3, 2), F(5, 7)), (F(7), F(11))]
        + [(F(1), F(89, 55))],
    )
    def test_distinct_matches_gap_oracle(self, a, b):
        E = Ellipsoid(a, b)
        for x in (-2.5, -1.0, 0.0, 0.5, 1.5, 2.0, 3.0, 6.0):
            for y in (0.0, 2.0, -9.0):
                s = complex(x, y)
                ref = distinct_zeta_gaps(s, a, b)
                got = ech_zeta(s, E, ZetaConvention.DISTINCT)
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), s

    @pytest.mark.parametrize("a,b,step", [(F(2), F(3), 1), (F(3, 2), F(5, 7), F(1, 14))])
    def test_distinct_residue_at_one(self, a, b, step):
        E = Ellipsoid(a, b)
        exp = laurent_at(lambda s: ech_zeta(s, E, ZetaConvention.DISTINCT), 1.0)
        assert abs(exp.residue - 1.0 / float(step)) <= 1e-8 + exp.quad_err

    def test_distinct_pole_guard(self):
        with pytest.raises(PoleProximity):
            ech_zeta(1.0, Ellipsoid(F(3, 2), F(5, 7)), ZetaConvention.DISTINCT)

    def test_distinct_golden_approximant_matches_direct_sum(self):
        E = Ellipsoid(1, F(6765, 4181))
        direct, tail = direct_zeta_sum(E, 3.0, 200000, ZetaConvention.DISTINCT)
        got = ech_zeta(3.0, E, ZetaConvention.DISTINCT)
        assert abs(got - direct) <= tail + 1e-9

    def test_distinct_term_limit_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(DepthExceeded):
            ech_zeta(0.5, Ellipsoid(1, F(1000000007, 1000000000)), ZetaConvention.DISTINCT)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "a,b",
        [(F(1), F(2)), (F(2), F(1)), (F(2), F(3)), (F(3), F(2))]
        + [(F(1, 2), F(3, 2)), (F(3, 2), F(1, 2))],
    )
    def test_continued_values_match_hurwitz_oracle(self, a, b):
        E = Ellipsoid(a, b)
        for x in (-2.0, -1.3, -0.4, 0.5, 1.5, 2.5, 3.7, 6.0):
            for y in (0.0, 1.5, -7.0, 15.0):
                s = complex(x, y)
                ref_i = interior_zeta_hurwitz(s, a, b)
                ref_f = ref_i + (float(a) ** -s + float(b) ** -s) * complex(mpmath.zeta(s))
                got_i = ech_zeta(s, E, ZetaConvention.INTERIOR)
                got_f = ech_zeta(s, E, ZetaConvention.FULL)
                assert abs(got_i - ref_i) <= 1e-8 * max(1.0, abs(ref_i)), s
                assert abs(got_f - ref_f) <= 1e-8 * max(1.0, abs(ref_f)), s

    def test_barnes_calls_per_convention(self, monkeypatch):
        calls = []
        barnes = echspec.zeta.barnes_zeta

        def counting(*args, **kwargs):
            calls.append(args)
            return barnes(*args, **kwargs)

        monkeypatch.setattr(echspec.zeta, "barnes_zeta", counting)
        E = Ellipsoid(F(3, 2), F(5, 7))
        for conv, want in [
            (ZetaConvention.INTERIOR, 1),
            (ZetaConvention.FULL, 1),
            (ZetaConvention.DISTINCT, 0),
        ]:
            calls.clear()
            ech_zeta(complex(0.7, 2.0), E, conv)
            assert len(calls) == want, conv

    def test_distinct_square_is_riemann(self):
        # all attained values of E(1,1) are the positive integers
        got = ech_zeta(3.0, Ellipsoid(1, 1), ZetaConvention.DISTINCT)
        assert abs(got - riemann_zeta(3.0)) < 1e-10

    @pytest.mark.parametrize("conv", [ZetaConvention.INTERIOR, ZetaConvention.FULL])
    def test_matches_direct_sum(self, conv):
        E = Ellipsoid(F(3, 2), F(5, 7))
        for s in [3.0, 2.6, complex(3.2, 1.0)]:
            direct, tail = direct_zeta_sum(E, s, 200000, conv)
            got = ech_zeta(s, E, conv)
            assert abs(got - direct) <= tail + 1e-9 * max(1.0, abs(got))

    def test_distinct_matches_direct_sum(self):
        E = Ellipsoid(2, 3)
        s = 3.0
        direct, tail = direct_zeta_sum(E, s, 200000, ZetaConvention.DISTINCT)
        got = ech_zeta(s, E, ZetaConvention.DISTINCT)
        assert abs(got - direct) <= tail


class TestDirectSum:
    def test_requires_convergence_margin(self):
        with pytest.raises(ValueError):
            direct_zeta_sum(Ellipsoid(1, 1), 2.1, 1000)

    def test_tail_bound_shrinks(self):
        E = Ellipsoid(1, 2)
        _, t1 = direct_zeta_sum(E, 3.0, 10000)
        _, t2 = direct_zeta_sum(E, 3.0, 100000)
        assert t2 < t1


class TestLaurent:
    def test_riemann_pole(self):
        exp = laurent_at(riemann_zeta, 1.0)
        assert abs(exp.residue - 1.0) < 1e-9
        assert abs(exp.constant - EULER_GAMMA) < 1e-9

    def test_regular_point(self):
        exp = laurent_at(cmath.exp, 0.5)
        assert abs(exp.residue) < 1e-12
        assert abs(exp.constant - math.exp(0.5)) < 1e-12

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1), F(2)), (F(3, 2), F(7, 3))])
    @pytest.mark.parametrize("conv", [ZetaConvention.INTERIOR, ZetaConvention.FULL])
    def test_residue_at_two(self, a, b, conv):
        E = Ellipsoid(a, b)
        exp = laurent_at(lambda s: ech_zeta(s, E, conv), 2.0)
        ref = 1.0 / float(a * b)
        assert abs(exp.residue - ref) <= 1e-8 + exp.quad_err

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(1), F(2)), (F(3, 2), F(7, 3))])
    def test_residue_at_one(self, a, b):
        E = Ellipsoid(a, b)
        half_axes = 0.5 * (1.0 / float(a) + 1.0 / float(b))
        ei = laurent_at(lambda s: ech_zeta(s, E, ZetaConvention.INTERIOR), 1.0)
        ef = laurent_at(lambda s: ech_zeta(s, E, ZetaConvention.FULL), 1.0)
        assert abs(ei.residue + half_axes) <= 1e-8 + ei.quad_err
        assert abs(ef.residue - half_axes) <= 1e-8 + ef.quad_err

    def test_nonconvergent_raises(self):
        with pytest.raises(NonConvergent):
            laurent_at(lambda s: cmath.exp(1.0 / (s - 0.5000001)), 0.5, radius=0.01)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            laurent_at(cmath.exp, 0.0, radius=-1.0)
        with pytest.raises(ValueError):
            laurent_at(cmath.exp, 0.0, n_points=8)
