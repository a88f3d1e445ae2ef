import cmath
import math
import random
import re
import time
from fractions import Fraction as F

import mpmath
import pytest

import echspec.cli
import echspec.zeta
from echspec import (
    DepthExceeded,
    EchspecError,
    Ellipsoid,
    NonConvergent,
    PoleProximity,
    ZetaConvention,
    barnes_zeta,
    bernoulli,
    ech_laurent_pair,
    ech_zeta,
    hurwitz_zeta,
    laurent_at,
    riemann_zeta,
)

from oracles import (
    barnes_tail_terms,
    barnes_zeta_at_negative_integer,
    barnes_zeta_hurwitz,
    direct_zeta_sum,
    distinct_zeta_gaps,
    distinct_zeta_hurwitz,
    double_sum_barnes,
    ech_zeta_at_negative_integer,
    interior_zeta_hurwitz,
    laurent_constant,
)

EULER_GAMMA = 0.5772156649015329


def count_kernel_work(monkeypatch) -> list:
    """[shifts the kernel evaluates, Barnes tails evaluated (each sums the three
    series of its integral, half and tail at one shift), complex powers of
    a float: three per distinct summation point of a kernel call and one per power
    outside the kernel], counted while the test runs"""
    work = [0, 0, 0]
    eta, em_tail, pow_ = echspec.zeta._eta, echspec.zeta._em_tail, echspec.zeta._pow

    def counting_eta(s, xs):
        work[0] += len(xs)
        return eta(s, xs)

    def counting_tail(*args):
        work[1] += 1
        return em_tail(*args)

    def counting_pow(x, p):
        work[2] += 1
        return pow_(x, p)

    monkeypatch.setattr(echspec.zeta, "_eta", counting_eta)
    monkeypatch.setattr(echspec.zeta, "_em_tail", counting_tail)
    monkeypatch.setattr(echspec.zeta, "_pow", counting_pow)
    return work


def summation_points(s, xs) -> int:
    """How many distinct points x + N >= cutoff(s), N >= 0 the least integer,
    the shifts xs reach: the kernel raises each to three powers once."""
    cut = max(16.0, 0.5 * abs(complex(s).imag) + 8.0)
    return len({x + max(0, math.ceil(cut - x)) for x in xs})


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
        with pytest.raises(DepthExceeded):
            hurwitz_zeta(complex(0.5, 1.0001e4), 1.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)

    @pytest.mark.parametrize(
        "s,x", [(2.0, math.inf), (2.0, math.nan), (math.nan, 1.0), (complex(2.0, math.inf), 1.0)]
    )
    def test_rejects_non_finite(self, s, x):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, x)

    def test_huge_x_underflows_to_finite(self):
        # the kernel's X ** (-s - 1) = 1e100 ** -4 underflows; Python's integer
        # complex power turns that into nan
        ref = complex(mpmath.zeta(3, 1e100))
        assert abs(hurwitz_zeta(3, 1e100) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("s", [3, 3.5])
    def test_tiny_x_head_overflow_raises(self, s):
        # the head's (x + n) ** -s = 1e600 or more: CPython raises
        # ZeroDivisionError for the integer power, OverflowError otherwise
        with pytest.raises(ValueError, match="overflows a float"):
            hurwitz_zeta(s, 1e-200)
        with pytest.raises(ValueError, match="overflows a float"):
            barnes_zeta(s, 1e-200, Ellipsoid(1, 2))

    def test_offset_past_the_float_range(self):
        with pytest.raises(ValueError, match=r"^offset x = exp\(921\.034\) overflows a float$"):
            hurwitz_zeta(3, 10**400)
        with pytest.raises(ValueError, match=r"^offset w = exp\(921\.034\) overflows a float$"):
            barnes_zeta(3, 10**400, Ellipsoid(1, 2))


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
        cases = [
            (F(rng.randint(1, 8), rng.randint(1, 4)), F(rng.randint(1, 8), rng.randint(1, 4)),
             rng.uniform(0.2, 3.0), complex(rng.uniform(2.6, 4.0), rng.uniform(-3.0, 3.0)))
            for _ in range(20)
        ]
        # w >= cutoff * max(a, b): the head is empty and the tail is the whole sum
        cases += [
            (F(1), F(2), 100.0, complex(3.5, 1.0)),
            (F(2), F(3), 500.0, complex(3.2, -2.0)),
            (F(1), F(30), 1000.0, complex(4.0, 0.5)),
        ]
        for a, b, w, s in cases:
            E = Ellipsoid(a, b)
            ref, tol = double_sum_barnes(s, w, float(a), float(b), cutoff=4000.0)
            got = barnes_zeta(s, w, E)
            assert abs(got - ref) <= tol + 1e-9 * abs(ref)

    def test_axis_symmetry(self):
        s = complex(1.3, -2.0)
        v1 = barnes_zeta(s, 0.9, Ellipsoid(F(2, 3), F(7, 5)))
        v2 = barnes_zeta(s, 0.9, Ellipsoid(F(7, 5), F(2, 3)))
        assert v1 == v2

    def test_pole_guards(self):
        E = Ellipsoid(1, 2)
        with pytest.raises(PoleProximity):
            barnes_zeta(2.0 + 1e-9, 1.0, E)
        with pytest.raises(PoleProximity):
            barnes_zeta(1.0, 1.0, E)

    def test_depth_guard(self):
        with pytest.raises(DepthExceeded):
            barnes_zeta(-4.5, 1.0, Ellipsoid(1, 2))
        with pytest.raises(DepthExceeded):
            barnes_zeta(complex(3.0, 1e300), 1.0, Ellipsoid(1, 2))

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            barnes_zeta(3.0, 0.0, Ellipsoid(1, 1))

    @pytest.mark.parametrize(
        "s,w", [(3.0, math.inf), (3.0, math.nan), (complex(3.0, math.nan), 1.0)]
    )
    def test_rejects_non_finite(self, s, w):
        with pytest.raises(ValueError):
            barnes_zeta(s, w, Ellipsoid(1, 2))

    @pytest.mark.parametrize(
        "a,b", [(F(1), F(30)), (F(2), F(3)), (F(3, 2), F(5, 7)), (F(1, 2), F(3, 2))]
    )
    def test_cost_and_value_independent_of_axis_order(self, a, b, monkeypatch):
        work = count_kernel_work(monkeypatch)
        lo, hi = sorted((a, b))
        points = [complex(-3.9, 0.5), complex(-2.9, 0.5), -1.3, complex(0.5, 10.0)]
        points += [complex(2.5, -16.0), complex(3.0, 1.0), 6.0]
        for s in points:
            for w in (lo, lo / 3):
                got = []
                for E in (Ellipsoid(a, b), Ellipsoid(b, a)):
                    work[:] = [0, 0, 0]
                    got.append((barnes_zeta(s, w, E), tuple(work)))
                assert got[0] == got[1], (s, w)
                # cutoff 16 and w < max(a, b) make a head of 16 shifts, three powers
                # at each distinct summation point; past it one power xN^(1-s),
                # and a^-s, serve the tail's three series at xN
                points_reached = summation_points(s, [float((w + n * hi) / lo) for n in range(16)])
                assert got[0][1] == (16, 1, 3 * points_reached + 2), (s, w)
            for conv in ZetaConvention:
                assert ech_zeta(s, Ellipsoid(a, b), conv) == ech_zeta(s, Ellipsoid(b, a), conv)
        # an offset past cutoff * max(a, b) leaves an empty head, and one tail,
        # the three series of the integral, half and tail at the offset
        work[:] = [0, 0, 0]
        barnes_zeta(3.0, 16 * max(a, b) + 1, Ellipsoid(a, b))
        assert work == [0, 1, 2]

    def test_tail_series_matches_its_terms_one_by_one(self):
        # _em_tail sums the tail as one series in (s)_q; barnes_tail_terms sums its 12 terms
        # c_k (1 + S_k) one by one at 40 digits, over X^(1-s). That power is CPython's complex
        # power, whose phase error grows as |Im s| log X, so the float power scales the oracle:
        # the series is held to 16 eps times the sum of its terms' magnitudes, plus the rounding
        # of a value below the normal range.
        rng, eps, normal = random.Random(39), 2.0**-52, 0
        for _ in range(300):
            s = complex(rng.uniform(-3.999, 30.0), rng.uniform(-1000.0, 1000.0))
            beta = 10.0 ** rng.uniform(0.0, 60.0)
            X = max(echspec.zeta._cutoff(s), 16 * beta) * rng.choice((1.0, rng.uniform(1.0, 100.0)))
            tail, p = echspec.zeta._em_tail(s, beta, X)[3], echspec.zeta._pow(X, 1 - s)
            want, magnitude = barnes_tail_terms(s, beta, X)
            assert abs(tail - want * p) <= 16 * eps * magnitude * abs(p) + 2.0**-1072, (s, beta, X)
            normal += abs(p) > 2.0**-1000
        assert normal >= 150


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
        + [(F(1), F(89, 55)), (F(17), F(19)), (F(1), F(377, 233))],
    )
    def test_distinct_matches_gap_oracle(self, a, b):
        # A' = 55, 17 and 233 take the Barnes tail, whose two integrals share
        # the pole at s = 2 that DISTINCT does not have
        E = Ellipsoid(a, b)
        points = [complex(x, y) for x in (-2.5, -1.0, 0.0, 0.5, 1.5, 2.0, 3.0, 6.0) for y in (0.0, 2.0, -9.0)]
        points += [complex(2 - 1e-7), complex(2 + 1e-7), complex(2, 1e-7)]
        for s in points:
            ref = distinct_zeta_gaps(s, a, b)
            got = ech_zeta(s, E, ZetaConvention.DISTINCT)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), s

    def test_gap_oracle_matches_class_oracle(self):
        for s in (complex(3.0), complex(0.5, 2.0), complex(-2.5, -9.0), complex(2.0), complex(30.0)):
            ref = distinct_zeta_hurwitz(s, F(1), F(89, 55))
            assert abs(distinct_zeta_gaps(s, F(1), F(89, 55)) - ref) <= 1e-15 * abs(ref), s

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

    def test_one_kernel_call_per_sum(self, monkeypatch):
        # the first 16 DISTINCT shifts and the Barnes head each go to the
        # kernel as one list; the integral, half and tail terms of a Barnes
        # tail are one call at one shift: for DISTINCT on A' = 4181 at
        # x0 = 16 B'/A' and at B' = 6765, for the Barnes value at xN = 25
        seen, tails = [], []
        eta, em_tail = echspec.zeta._eta, echspec.zeta._em_tail
        monkeypatch.setattr(echspec.zeta, "_eta", lambda s, xs: seen.append(xs) or eta(s, xs))
        monkeypatch.setattr(echspec.zeta, "_em_tail", lambda *a: tails.append(a[2]) or em_tail(*a))
        ech_zeta(3.0, Ellipsoid(1, F(6765, 4181)), ZetaConvention.DISTINCT)
        barnes_zeta(3.0, 2.0, Ellipsoid(2, 3))
        assert sorted(tails) == [25.0, 16 * 6765 / 4181, 6765.0]
        assert [(type(xs), len(xs)) for xs in seen] == [(list, 16), (list, 16)]

    def test_shared_summation_points(self, monkeypatch):
        # on E(1, 2) the head shifts 1, 3, ..., 31 reach 9 summation points: the
        # eight odd shifts below 16 all sum from 16, and each point's three
        # powers serve all its shifts; on E(3/2, 5/7) no point repeats
        work = count_kernel_work(monkeypatch)
        for (a, b), points in [((1, 2), 9), ((F(3, 2), F(5, 7)), 16)]:
            for s in (complex(0.7, 2.0), 3.0, complex(-2.5, 9.0)):
                work[:] = [0, 0, 0]
                ech_zeta(s, Ellipsoid(a, b), ZetaConvention.FULL)
                assert work == [16, 1, 3 * points + 3], (a, b, s)

    def test_distinct_cost_is_independent_of_a_prime(self, monkeypatch):
        # with A' = 514229, 16 kernel shifts and two tails per value, and
        # the powers x0^(1-s), B'^(1-s) and (step A')^-s
        work = count_kernel_work(monkeypatch)
        E = Ellipsoid(1, F(832040, 514229))
        for s in (3.0, 0.5, complex(-2.5, 9.0), 2.0):
            work[:] = [0, 0, 0]
            ech_zeta(s, E, ZetaConvention.DISTINCT)
            assert work == [16, 2, 3 * 16 + 3], s

    def test_distinct_at_a_prime_past_a_million(self):
        # A' = 10^9: the shifts n B'/A' past the first 16 are two Barnes tails
        E = Ellipsoid(1, F(1000000007, 1000000000))
        t0 = time.perf_counter()
        got = ech_zeta(3.0, E, ZetaConvention.DISTINCT)
        assert time.perf_counter() - t0 < 1.0
        direct, tail = direct_zeta_sum(E, 3.0, 200000, ZetaConvention.DISTINCT)
        assert abs(got - direct) <= tail + 1e-9
        # the lattice points with n >= A' repeat the rest shifted by B' (a = 1),
        # so DISTINCT is FULL less the Barnes value at w = B'
        for s in (0.5, -1.5, complex(0.5, 14.0), complex(-2.9, 0.5)):
            got = ech_zeta(s, E, ZetaConvention.DISTINCT)
            ref = ech_zeta(s, E, ZetaConvention.FULL) - barnes_zeta(s, 1000000007.0, E)
            assert abs(got - ref) <= 1e-12 * abs(got), s

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

    @pytest.mark.parametrize("a,b", [(F(1), F(2)), (F(2), F(3)), (F(1, 2), F(3, 2))])
    def test_near_zero_matches_hurwitz_oracle(self, a, b):
        # Re s = 0 puts the k = 1 Barnes tail term at the Hurwitz pole, where
        # (s)_1 cancels it; the cancellation must cost no accuracy.
        E = Ellipsoid(a, b)
        for s in (5e-5, -5e-5, complex(9e-5, 2e-5), 1e-6):
            s = complex(s)
            ref_i = interior_zeta_hurwitz(s, a, b)
            ref_f = ref_i + (float(a) ** -s + float(b) ** -s) * complex(mpmath.zeta(s))
            got_i = ech_zeta(s, E, ZetaConvention.INTERIOR)
            got_f = ech_zeta(s, E, ZetaConvention.FULL)
            assert abs(got_i - ref_i) <= 1e-10 * max(1.0, abs(ref_i)), s
            assert abs(got_f - ref_f) <= 1e-10 * max(1.0, abs(ref_f)), s

    @pytest.mark.parametrize("a,b", [(F(1), F(2)), (F(2), F(3)), (F(1, 2), F(3, 2))])
    def test_edge_of_region_matches_hurwitz_oracle(self, a, b):
        # the Barnes tail evaluates the kernel at Re s - 1 < -4.9, past the
        # region the public functions accept
        E = Ellipsoid(a, b)
        for s in (complex(-3.9, 0.5), -3.95, complex(-3.99, 3.0)):
            s = complex(s)
            ref = interior_zeta_hurwitz(s, a, b)
            got = ech_zeta(s, E, ZetaConvention.INTERIOR)
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref)), s

    @pytest.mark.parametrize("conv", list(ZetaConvention))
    def test_depth_guard(self, conv):
        with pytest.raises(DepthExceeded):
            ech_zeta(complex(-4.5, 1.0), Ellipsoid(F(3, 2), F(5, 7)), conv)
        with pytest.raises(DepthExceeded):
            ech_zeta(complex(3.0, 1e300), Ellipsoid(F(3, 2), F(5, 7)), conv)

    @pytest.mark.parametrize(
        "a,b",
        [(F(1), F(10**10)), (F(10**10), F(1))]
        + [(F(1), F(10**e)) for e in (12, 14, 20)]
        + [(F(10**e), F(1)) for e in (12, 14, 20)],
    )
    def test_wide_ellipsoid_at_integer_s(self, a, b):
        # the terms with n >= 1 are below 1e-299, so FULL is zeta(30) to double
        # precision; the Barnes head and tail raise 1e10-sized shifts to
        # integer powers that underflow, and from b/a = 1e12 the tail
        # coefficient overflows where its kernel value underflows
        ref = complex(mpmath.zeta(30))
        got = ech_zeta(30, Ellipsoid(a, b), ZetaConvention.FULL)
        assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("s,e", [(0.5, 20), (complex(0.5, 15), 60)])
    def test_huge_axis_ratio_left_of_the_poles(self, s, e):
        # FULL on E(1, b) is zeta(s) + sum_n zeta(s, n b), whose expansion in
        # 1/b is exact to double precision after its b^-s term for b >= 1e20.
        # The Barnes tail coefficient overflows there, before its kernel
        # values underflow, and the terms it leaves reach 1e-6 of the value.
        b = mpmath.mpf(10) ** e
        ms = mpmath.mpc(s)
        ref = mpmath.zeta(ms) + b ** (1 - ms) * mpmath.zeta(ms - 1) / (ms - 1) + b**-ms * mpmath.zeta(ms) / 2
        got = ech_zeta(s, Ellipsoid(1, 10**e), ZetaConvention.FULL)
        assert abs(got - complex(ref)) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("s,e", [(-3.5, 60), (complex(-3.5, 2), 65), (complex(-2.9, 0.5), 70)])
    def test_thin_ellipsoid_whose_barnes_lead_overflows(self, s, e):
        # xN = 16 b here, so the integral's lead xN^(2-s) is past the float
        # range while its share of the value, xN^(2-s)/b, is not. The head and
        # the integral cancel from about 16^(2 - Re s) times the value, as on
        # any ellipsoid at Re s < -2: 1e-6 leaves room for that loss alone.
        b = mpmath.mpf(10) ** e
        ms = mpmath.mpc(s)
        interior = b ** (1 - ms) * mpmath.zeta(ms - 1) / (ms - 1) - b**-ms * mpmath.zeta(ms) / 2
        full = interior + mpmath.zeta(ms) * (1 + b**-ms)
        for conv, ref in [(ZetaConvention.INTERIOR, interior), (ZetaConvention.FULL, full)]:
            got = ech_zeta(s, Ellipsoid(1, 10**e), conv)
            assert abs(got - complex(ref)) <= 1e-6 * abs(ref), conv

    @pytest.mark.parametrize("conv", [ZetaConvention.INTERIOR, ZetaConvention.FULL])
    def test_thin_ellipsoid_past_the_float_range(self, conv):
        # about 7e311 on E(1, 10^70) at s = -3.5
        with pytest.raises(ValueError, match="overflows a float"):
            ech_zeta(-3.5, Ellipsoid(1, 10**70), conv)

    @pytest.mark.parametrize("conv", list(ZetaConvention))
    @pytest.mark.parametrize(
        "s,a,b",
        [
            (3, F(1, 10**200), F(1)),  # the axis power a^-s = 1e600
            (3.08, F(1, 10**100), F(1, 10**100)),  # a^-s finite, the Barnes value not
            (3, F(1, 10**200), F(10**200)),  # head shifts b/a = 1e400 past the float range
        ],
    )
    def test_overflow_raises(self, s, a, b, conv):
        with pytest.raises(ValueError, match="overflows a float"):
            ech_zeta(s, Ellipsoid(a, b), conv)

    @staticmethod
    def count_barnes_calls(monkeypatch) -> list:
        calls = []
        barnes = echspec.zeta.barnes_zeta
        monkeypatch.setattr(echspec.zeta, "barnes_zeta", lambda *a: calls.append(a) or barnes(*a))
        return calls

    def test_barnes_calls_per_convention(self, monkeypatch):
        # INTERIOR and FULL make one Barnes pass and no barnes_zeta call: a head
        # of 16 shifts, whose first gives zeta(s), and a tail of three series at xN,
        # with xN^(1-s), a^-s and the axis power; DISTINCT sums A' = 10 Hurwitz values
        calls = self.count_barnes_calls(monkeypatch)
        work = count_kernel_work(monkeypatch)
        E = Ellipsoid(F(3, 2), F(5, 7))
        for conv, want in [
            (ZetaConvention.INTERIOR, [16, 1, 3 * 16 + 3]),
            (ZetaConvention.FULL, [16, 1, 3 * 16 + 3]),
            (ZetaConvention.DISTINCT, [10, 0, 3 * 10 + 1]),
        ]:
            work[:] = [0, 0, 0]
            ech_zeta(complex(0.7, 2.0), E, conv)
            assert (calls, work) == ([], want), conv

    def test_residues_cost(self, monkeypatch, capsys):
        # residues prints exact residues and values at 0 and takes each constant
        # from one complex-step pass: no Barnes value and no contour. On E(3/2, 5/7) a
        # pass evaluates the 16 head shifts in one kernel call, the first of them
        # the Riemann value, and the integral, half and tail as one Barnes tail,
        # three series from one power xN^(1-s); with a^-s and b^-s, 3 * 16 + 3 powers
        # per pole.
        calls = self.count_barnes_calls(monkeypatch)
        contours = []
        monkeypatch.setattr(echspec.zeta, "laurent_at", lambda *a, **k: contours.append(a))
        work = count_kernel_work(monkeypatch)
        for _ in range(2):
            work[:] = [0, 0, 0]
            assert echspec.cli.main(["residues", "-a", "3/2", "-b", "5/7"]) == 0
            capsys.readouterr()
            assert (len(calls), len(contours), work) == (0, 0, [2 * 16, 2, 2 * 51])

    def test_distinct_square_is_riemann(self):
        # all attained values of E(1,1) are the positive integers
        got = ech_zeta(3.0, Ellipsoid(1, 1), ZetaConvention.DISTINCT)
        assert abs(got - riemann_zeta(3.0)) < 1e-10

    def test_distinct_on_an_axis_past_the_float_range(self):
        # the distinct values of E(10^400, 1) are the integers, so it is zeta(s);
        # INTERIOR and FULL need the axes as floats and name the one that is not
        E = Ellipsoid(10**400, 1)
        assert ech_zeta(3.0, E, ZetaConvention.DISTINCT) == riemann_zeta(3.0)
        for conv in (ZetaConvention.INTERIOR, ZetaConvention.FULL):
            with pytest.raises(ValueError, match=r"axis a = exp\(921.034\) overflows a float"):
                ech_zeta(3.0, E, conv)
        with pytest.raises(ValueError, match=r"axis b = exp\(-921.034\) is outside"):
            barnes_zeta(3.0, 1, Ellipsoid(1, F(1, 10**400)))

    def test_distinct_lead_past_the_float_range(self):
        # E(1, 1 + 10^-70) has A' = 10^70: at s = -3 the lead's exp(z), with
        # z = 5 log(A'/N), overflows a float before the value check sees it
        with pytest.raises(ValueError, match=r"^distinct zeta overflows a float at s=\(-3\+0j\)$"):
            ech_zeta(-3, Ellipsoid(1, F(10**70 + 1, 10**70)), ZetaConvention.DISTINCT)

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


class TestOneBarnesPass:
    """INTERIOR and FULL take zeta(s) from the Barnes head at w = lo, whose first
    shift is lo/lo = 1.0: each value is, bit for bit, barnes_zeta(s, lo, E) plus
    hi^-s or minus lo^-s times riemann_zeta(s), each with its own kernel call."""

    AXES = [(F(1), F(2)), (F(2), F(3)), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 7))]
    AXES += [(F(1), F(1000)), (F(1, 1000), F(1))]

    @staticmethod
    def points() -> list[complex]:
        rng = random.Random(20261019)
        pts = [complex(rng.uniform(-3.9, 30.0), rng.uniform(-100.0, 100.0)) for _ in range(40)]
        pts += [complex(rng.uniform(-3.9, 30.0)) for _ in range(10)]
        pts += [complex(-3.9), complex(-3.9, 100.0), complex(30.0), complex(0.5, -100.0)]
        return pts + [complex(x, y) for x in (-3.0, -2.9, -2.75) for y in (0.0, 0.5)]

    @pytest.mark.parametrize("a,b", AXES + [(b, a) for a, b in AXES])
    def test_matches_barnes_plus_riemann(self, a, b):
        E = Ellipsoid(a, b)
        lo, hi = sorted((float(a), float(b)))
        for s in self.points():
            Z, zeta = barnes_zeta(s, lo, E), riemann_zeta(s)
            assert repr(ech_zeta(s, E, ZetaConvention.FULL)) == repr(Z + hi**-s * zeta), s
            assert repr(ech_zeta(s, E, ZetaConvention.INTERIOR)) == repr(Z + -(lo**-s) * zeta), s

    @pytest.mark.parametrize("a,b", [(F(2), F(3)), (F(3, 2), F(5, 7))])
    def test_guard_messages_are_barnes_zetas(self, a, b):
        E = Ellipsoid(a, b)
        lo = min(float(a), float(b))
        for s in (1, 2, -4, complex(-4.0, 1.0), complex(3.0, 1e4 + 1), complex(3.0, -2e4)):
            with pytest.raises(EchspecError) as want:
                barnes_zeta(s, lo, E)
            for conv in (ZetaConvention.INTERIOR, ZetaConvention.FULL):
                with pytest.raises(type(want.value)) as got:
                    ech_zeta(s, E, conv)
                assert str(got.value) == str(want.value), (s, conv)
        with pytest.raises(PoleProximity, match=re.escape("barnes_zeta pole at s=1,2 (s=(2+0j))")):
            ech_zeta(2, E, ZetaConvention.INTERIOR)
        with pytest.raises(DepthExceeded, match=re.escape("Re(s)=-4.0 beyond")):
            ech_zeta(-4, E, ZetaConvention.FULL)


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

    @pytest.mark.parametrize("a,b", [(F(1), F(2)), (F(2), F(3)), (F(1, 2), F(3, 2))])
    @pytest.mark.parametrize("conv", [ZetaConvention.INTERIOR, ZetaConvention.FULL])
    @pytest.mark.parametrize("s0", [1.0, 2.0])
    def test_closed_form_residue_within_quad_err(self, a, b, conv, s0):
        # The reported error alone must cover the closed forms 1/(ab) at s = 2
        # and +-(a+b)/(2ab) at s = 1, with the parameters `residues` uses.
        E = Ellipsoid(a, b)
        exp = laurent_at(lambda s: ech_zeta(s, E, conv), s0, radius=0.3, n_points=64, tol=1e-10)
        if s0 == 2.0:
            want = 1 / (a * b)
        else:
            want = (a + b) / (2 * a * b) * (1 if conv is ZetaConvention.FULL else -1)
        assert abs(exp.residue - float(want)) <= exp.quad_err

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            laurent_at(cmath.exp, 0.0, radius=-1.0)
        with pytest.raises(ValueError):
            laurent_at(cmath.exp, 0.0, n_points=8)


MPMATH_ELLIPSOIDS = [(F(1), F(2)), (F(2), F(3)), (F(1, 2), F(3, 2)), (F(3, 2), F(5, 7))]
CONVENTIONS = (ZetaConvention.INTERIOR, ZetaConvention.FULL)
# ellipsoids on which the complex step moves the last bits of a constant
STEP_MOVED = [(F(1), F(10, 3)), (F(3), F(10)), (F(3, 2), F(5))]


class TestLaurentPair:
    @pytest.mark.parametrize("a,b", MPMATH_ELLIPSOIDS + STEP_MOVED)
    @pytest.mark.parametrize("s0", [1, 2])
    def test_constant_within_bound_of_mpmath(self, a, b, s0):
        for lau, conv in zip(ech_laurent_pair(s0, Ellipsoid(a, b)), CONVENTIONS):
            ref = laurent_constant(s0, a, b, conv)
            assert abs(lau.constant - ref) <= lau.quad_err, conv

    @pytest.mark.parametrize("a,b", MPMATH_ELLIPSOIDS + [(F(1), F(832040, 514229))])
    def test_exact_residues_and_values_at_zero(self, a, b):
        zero = F(1, 4) + (a / b + b / a) / 12
        res1 = (a + b) / (2 * a * b)
        want = {0: ((0, zero), (0, zero - 1)), 1: ((-res1, None), (res1, None)), 2: ((1 / (a * b), None),) * 2}
        for s0, rows in want.items():
            for lau, (res, value) in zip(ech_laurent_pair(s0, Ellipsoid(a, b)), rows):
                assert lau.center == s0 and lau.residue == float(res)
                if value is not None:
                    assert lau.constant == float(value)
                    assert lau.quad_err == 2.0**-53 * max(1.0, abs(float(value)))
                assert lau.quad_err >= 2.0**-53 * max(1.0, abs(float(res)))

    @pytest.mark.parametrize(
        "a,b",
        MPMATH_ELLIPSOIDS
        + [(F(1), F(832040, 514229)), (F(1), F(10**12)), (F(10**12), F(1))],
    )
    @pytest.mark.parametrize("s0", [1, 2])
    def test_agrees_with_contour(self, a, b, s0):
        # laurent_at, the contour quadrature, is the independent cross-check
        E = Ellipsoid(a, b)
        for lau, conv in zip(ech_laurent_pair(s0, E), CONVENTIONS):
            ref = laurent_at(lambda s: ech_zeta(s, E, conv), s0, radius=0.3, n_points=64, tol=1e-10)
            assert abs(lau.constant - ref.constant) <= lau.quad_err + ref.quad_err, conv

    @staticmethod
    def thin_constants(s0, E) -> list:
        """(INTERIOR, FULL) constants at s0 from FULL's expansion in 1/B, B = b/a,
        whose next term is O(B^-4), times a^-s; INTERIOR is FULL - (a^-s + b^-s) zeta(s)."""
        lo, hi = sorted((E.a, E.b))
        with mpmath.workdps(60 + len(str(hi // lo))):
            a, b = (mpmath.mpf(x.numerator) / x.denominator for x in (lo, hi))
            B = b / a

            def full(s):
                return a**-s * (
                    mpmath.zeta(s) + B ** (1 - s) * mpmath.zeta(s - 1) / (s - 1)
                    + B**-s * mpmath.zeta(s) / 2 + s * B ** (-s - 1) * mpmath.zeta(s + 1) / 12
                )

            fs = [lambda s: full(s) - (a**-s + b**-s) * mpmath.zeta(s), full]
            h = mpmath.mpf("1e-20")
            return [float((f(s0 + h) + f(s0 - h)) / 2) for f in fs]

    def test_bound_covers_a_thin_ellipsoid(self):
        # On E(1, 10^12) the head derivatives add up to about 400, and the
        # constant at 1 is off by 3.3e-12. On E(10^-153, 1) a derivative passes the
        # float range midway through the pass, but not its 2^-100 multiple; on
        # E(10^110, 249/170) the Barnes tail's kernel values underflow.
        cases = [(s0, E) for s0 in (1, 2) for E in (Ellipsoid(1, 10**12), Ellipsoid(10**12, 1))]
        cases += [(1, Ellipsoid(F(1, 10**e), 1)) for e in (150, 153)]
        cases += [(1, Ellipsoid(10**110, F(249, 170)))]
        for s0, E in cases:
            for lau, ref in zip(ech_laurent_pair(s0, E), self.thin_constants(s0, E)):
                assert abs(lau.constant - ref) <= lau.quad_err, (s0, E)

    @pytest.mark.parametrize("e", [154, 160])
    def test_thinner_ellipsoid_past_the_overflow(self, e):
        # from e = 154 a^-s times the integral part is past the float range, so the
        # parts keep a^-s / a^-s0 and the sums are scaled by a^-s0: the constant
        # near E(10^-160, 1), about -9.19e159, is held to the same bound
        E = Ellipsoid(F(1, 10**e), 1)
        for lau, ref in zip(ech_laurent_pair(1, E), self.thin_constants(1, E)):
            assert abs(lau.constant - ref) <= lau.quad_err <= 1e-10 * abs(ref)

    def test_overflow_message_is_stable(self):
        E = Ellipsoid(F(1, 10**160), 1)
        messages = set()
        for _ in range(2):
            with pytest.raises(ValueError, match="overflows a float") as info:
                ech_laurent_pair(2, E)
            messages.add(str(info.value))
        (msg,) = messages
        assert "object at" not in msg and repr(2.0**-100) not in msg

    def test_both_axis_orders_agree(self):
        for s0 in (0, 1, 2):
            assert ech_laurent_pair(s0, Ellipsoid(F(3, 2), F(5, 7))) == ech_laurent_pair(
                s0, Ellipsoid(F(5, 7), F(3, 2))
            )

    @pytest.mark.parametrize("s0", [-1, 0.5, 3])
    def test_rejects_other_points(self, s0):
        with pytest.raises(ValueError, match="s0 = 0, 1 or 2"):
            ech_laurent_pair(s0, Ellipsoid(1, 2))

    @pytest.mark.parametrize("s0", [0, 1, 2])
    def test_bound_above_tol_raises(self, s0):
        E = Ellipsoid(1, 2)
        lau = ech_laurent_pair(s0, E)[0]
        assert lau == ech_laurent_pair(s0, E, tol=lau.quad_err)[0]
        with pytest.raises(NonConvergent, match="rounding bound"):
            ech_laurent_pair(s0, E, tol=lau.quad_err / 2)

    def test_value_at_zero_past_the_float_range(self):
        # 1/4 + (a/b + b/a)/12 is about 8.3e398 on E(10^400, 1)
        with pytest.raises(ValueError, match=r"^value at s=0 exp\(918\.549\) overflows a float$"):
            ech_laurent_pair(0, Ellipsoid(10**400, 1))


# Measured error of ech_zeta at s = -k, k = 0..3, against the exact oracle: the
# larger of INTERIOR and FULL, rounded up. It grows with k because the Barnes
# head and integral term cancel from about xN^(2 + k) down to the value.
# Direction 1 of ROADMAP.md replaces these measurements with reported bounds.
NEGATIVE_INTEGER_ERRORS = {
    (F(1), F(2)): (1.9e-14, 6.0e-16, 4.6e-12, 1.7e-10),
    (F(2), F(3)): (1.3e-14, 1.6e-13, 5.0e-12, 1.6e-11),
    (F(1, 2), F(3, 2)): (6.4e-15, 1.6e-13, 7.6e-13, 3.9e-12),
    (F(1), F(832040, 514229)): (1.9e-14, 2.6e-13, 7.4e-12, 7.0e-11),
}

# The same at the fixed probes of the analytic benchmark, s = -3, -2.9 and
# -2.75, each + 0.5i, against the mpmath oracle: the deepest corner it runs.
PROBE_ERRORS = {
    (F(1), F(2)): (4.0e-11, 1.1e-9, 4.5e-11),
    (F(2), F(3)): (4.1e-10, 2.1e-9, 1.2e-10),
    (F(1, 2), F(3, 2)): (3.9e-11, 6.1e-10, 2.5e-12),
}


class TestExactAtNegativeIntegers:
    @pytest.mark.parametrize("a,b", sorted(NEGATIVE_INTEGER_ERRORS))
    def test_residues_values_at_zero_are_the_oracle(self, a, b, capsys):
        assert echspec.cli.main(["residues", "-a", str(a), "-b", str(b)]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:] if ln[0] != "#"]
        at_zero = {r[0]: float(r[4]) for r in rows if r[1] == "0"}
        for conv in CONVENTIONS:
            assert at_zero[conv.value] == float(ech_zeta_at_negative_integer(0, a, b, conv))

    @pytest.mark.parametrize("a,b", sorted(NEGATIVE_INTEGER_ERRORS))
    def test_ech_zeta_within_three_times_measured_error(self, a, b):
        for k, measured in enumerate(NEGATIVE_INTEGER_ERRORS[a, b]):
            for conv in CONVENTIONS:
                want = float(ech_zeta_at_negative_integer(k, a, b, conv))
                assert abs(ech_zeta(-k, Ellipsoid(a, b), conv) - want) <= 3 * measured, (k, conv)

    @pytest.mark.parametrize("a,b", sorted(PROBE_ERRORS))
    def test_deep_probes_within_three_times_measured_error(self, a, b):
        for x, measured in zip((-3.0, -2.9, -2.75), PROBE_ERRORS[a, b]):
            s = complex(x, 0.5)
            ref_i = interior_zeta_hurwitz(s, a, b)
            ref_f = ref_i + (float(a) ** -s + float(b) ** -s) * complex(mpmath.zeta(s))
            for conv, ref in ((ZetaConvention.INTERIOR, ref_i), (ZetaConvention.FULL, ref_f)):
                assert abs(ech_zeta(s, Ellipsoid(a, b), conv) - ref) <= 3 * measured, (s, conv)

    @pytest.mark.parametrize(
        "w,a,b", [(F(2), F(2), F(3)), (F(2, 3), F(2), F(3)), (F(5, 2), F(1), F(3, 2)), (F(1), F(3, 7), F(5, 4))]
    )
    def test_barnes_hurwitz_oracle_is_exact_at_negative_integers(self, w, a, b):
        # the Hurwitz reduction takes any rational offset, on the lattice or off it
        for k in range(4):
            want = float(barnes_zeta_at_negative_integer(k, w, a, b))
            assert abs(barnes_zeta_hurwitz(-k, w, a, b) - want) <= 2.0**-52 * abs(want), k

    def test_oracle_closed_forms(self):
        a, b = F(1), F(2)
        assert ech_zeta_at_negative_integer(3, a, b, ZetaConvention.FULL) == F(3, 80)
        for a, b in NEGATIVE_INTEGER_ERRORS:
            zero = F(1, 4) + (a / b + b / a) / 12
            assert ech_zeta_at_negative_integer(0, a, b, ZetaConvention.INTERIOR) == zero
            assert ech_zeta_at_negative_integer(0, a, b, ZetaConvention.FULL) == zero - 1
        # on E(1, 10^12) the value at 0 is 83333333333.58333...; the float path
        # gives 83333333333.5677 there, and residues prints the exact value
        E = Ellipsoid(1, 10**12)
        big = ech_zeta_at_negative_integer(0, E.a, E.b, ZetaConvention.INTERIOR)
        assert big == F(1, 4) + (F(10**12) + F(1, 10**12)) / 12
        assert abs(ech_zeta(0, E, ZetaConvention.INTERIOR) - float(big)) > 0.01
        assert ech_laurent_pair(0, E)[0].constant == float(big)
