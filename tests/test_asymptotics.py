import math
import random
import sys
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from echspec import (
    DkPoint,
    Ellipsoid,
    FitResult,
    column_exponent_fit,
    contact_volume,
    count_leq,
    d_sequence,
    defect_limits,
    exponent_fit,
    scaled_defects,
    scaled_spectrum,
    weyl_count,
    weyl_fit,
    window_sups,
)
from echspec.asymptotics import DEFECT_REL_ERR
from echspec.spectrum import rational_log

from oracles import defect_limits_by_gcd, weyl_fit_fractions, window_sups_by_edge_list
from test_spectrum import tied_blocks


class TestContactVolume:
    def test_values(self):
        assert contact_volume(Ellipsoid(1, 1)) == 1
        assert contact_volume(Ellipsoid(F(2, 3), F(9, 4))) == F(3, 2)


class TestDefectLimits:
    @given(
        a=st.fractions(F(1, 50), 50, max_denominator=60),
        b=st.fractions(F(1, 50), 50, max_denominator=60),
    )
    @example(a=F(1), b=F(832040, 514229))
    @example(a=F(3), b=F(200, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_gcd_oracle_in_both_axis_orders(self, a, b):
        expected = defect_limits_by_gcd(a, b)
        assert defect_limits(Ellipsoid(a, b)) == defect_limits(Ellipsoid(b, a)) == expected

    def test_criterion_5_interval(self):
        assert defect_limits(Ellipsoid(1, 1)) == (F(-3, 2), F(-1, 2))

    def test_windows_approach_both_ends(self):
        # Near depth J a value c ~ sqrt(2abJ) has about c*g/(ab) copies, so a
        # window of four such runs and more holds several full ones. Returns
        # how far the window's min and max of d_j + (a+b)/2 lie from -g/2 and
        # g/2, and how far past them they reach.
        def window(E, J):
            lo, hi = defect_limits(E)
            c = math.sqrt(2 * E.a * E.b * J)
            n = 4 * (int(c * (hi - lo) / (E.a * E.b)) + 1) + 16
            ds = scaled_defects(E, J, scaled_spectrum(E, J, J + n - 1))
            below, above = float(lo) - min(ds), max(ds) - float(hi)
            return max(abs(below), abs(above)), max(0.0, below) + max(0.0, above)

        rng = random.Random(1308)
        for _ in range(8):
            E = Ellipsoid(F(rng.randint(1, 6), rng.randint(1, 4)), F(rng.randint(1, 6), rng.randint(1, 4)))
            (_, past_4), (off_8, past_8) = window(E, 10**4), window(E, 10**8)
            assert off_8 < 1e-2, E
            assert past_8 < past_4, (E, past_4, past_8)


class TestDSequence:
    def test_d3_square(self):
        pts = d_sequence(Ellipsoid(1, 1), 3, 3)
        (p,) = pts
        assert p.c == 2
        assert abs(p.d - (2 - math.sqrt(6))) <= p.d_err + 1e-15

    def test_exact_capacity_against_sqrt(self):
        E = Ellipsoid(F(3, 2), F(5, 7))
        vol = float(contact_volume(E))
        for p in d_sequence(E, 1, 400):
            ref = float(p.c) - math.sqrt(vol * 2 * p.j)
            assert abs(p.d - ref) < 1e-10

    def test_d0_is_zero(self):
        (p,) = d_sequence(Ellipsoid(1, 2), 0, 0)
        assert p.c == 0 and p.d == 0.0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            d_sequence(Ellipsoid(1, 1), 5, 4)

    def test_capacity_past_the_float_range(self):
        # c_j is about 1.4e400 at j = 10^800: its d_err is a float of c_j
        with pytest.raises(ValueError, match=r"^capacity exp\(921\.381\) overflows a float$"):
            d_sequence(Ellipsoid(1, 1), 10**800, 10**800)

    def test_err_bound_is_small(self):
        pts = d_sequence(Ellipsoid(1, 1), 10**6, 10**6 + 10)
        for p in pts:
            assert p.d_err < 1e-9

    def test_square_defect_bounded(self):
        # on E(1,1) the defect stays within O(1) of zero over a long stretch
        pts = d_sequence(Ellipsoid(1, 1), 1, 5000)
        assert max(abs(p.d) for p in pts) < 2.0


class TestTiedDSequence:
    @pytest.mark.parametrize("E,j0,j1", tied_blocks())
    def test_fields_match_the_per_row_formula(self, E, j0, j1):
        S = E
        vals = scaled_spectrum(S, j0, j1)
        rows = zip(range(j0, j1 + 1), vals, scaled_defects(S, j0, vals))
        old = [(j, F(v, S.den), d, max(1.0, v / S.den) * DEFECT_REL_ERR) for j, v, d in rows]
        got = d_sequence(E, j0, j1)
        assert [(p.j, p.c, p.d, p.d_err) for p in got] == old
        assert all(type(p.c) is F and type(p.d) is float and type(p.d_err) is float for p in got)

    @pytest.mark.parametrize("E,j0,j1", tied_blocks())
    def test_ties_share_one_fraction(self, E, j0, j1):
        got = d_sequence(E, j0, j1)
        for p, q in zip(got, got[1:]):
            assert (p[1] is q[1]) == (p.c == q.c)


class TestDkPoint:
    def test_named_tuple_fields(self):
        assert DkPoint._fields == ("j", "c", "d", "d_err")
        p = DkPoint(j=3, c=F(2), d=-0.25, d_err=1e-15)
        assert p == DkPoint(3, F(2), -0.25, 1e-15) == (3, F(2), -0.25, 1e-15)
        j, c, d, d_err = p
        assert (j, c, d, d_err) == (p.j, p.c, p.d, p.d_err)

    def test_fields_are_read_only(self):
        p = DkPoint(j=3, c=F(2), d=-0.25, d_err=1e-15)
        for name in DkPoint._fields:
            with pytest.raises(AttributeError):
                setattr(p, name, 0)


class TestScaledDefects:
    @pytest.mark.parametrize(
        "a,b,j0,j1",
        [
            (1, 1, 0, 300),
            (2, 3, 500_000, 500_400),
            (1, F(832040, 514229), 11_203_511, 11_203_911),
            (F(3, 2), F(5, 7), 10**9, 10**9 + 50),
        ],
    )
    def test_matches_exact_quotient(self, a, b, j0, j1):
        # Each d is the correctly rounded value of the exact 60-bit quotient.
        S = Ellipsoid(a, b)
        vals = scaled_spectrum(S, j0, j1)
        ds = scaled_defects(S, j0, vals)
        assert len(ds) == len(vals)
        for j, v, d in zip(range(j0, j1 + 1), vals, ds):
            exact = F((v << 60) - math.isqrt((2 * j * S.A * S.B) << 120), S.den << 60)
            assert d == float(exact)

    def test_d_sequence_is_built_from_the_block(self):
        E = Ellipsoid(2, 3)
        S = E
        pts = d_sequence(E, 7, 400)
        vals = scaled_spectrum(S, 7, 400)
        assert [p.c for p in pts] == [F(v, S.den) for v in vals]
        assert [p.d for p in pts] == scaled_defects(S, 7, vals)

    def test_defect_past_the_float_range(self):
        # on E(1, 10^700) every c_j fits a float, but d_1 = 1 - sqrt(2 * 10^700) does not
        E = Ellipsoid(1, 10**700)
        for defects in (lambda: scaled_defects(E, 0, scaled_spectrum(E, 0, 3)), lambda: d_sequence(E, 0, 3)):
            with pytest.raises(ValueError, match=r"^defect d_1 exp\(806\.251\) overflows a float$"):
                defects()


class TestWeylCount:
    def test_square_radius_ten(self):
        s = weyl_count(Ellipsoid(1, 1), 10)
        assert (s.count_classes, s.count_values) == (66, 11)

    def test_one_two_radius_four(self):
        s = weyl_count(Ellipsoid(1, 2), 4)
        assert (s.count_classes, s.count_values) == (9, 5)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            weyl_count(Ellipsoid(1, 1), -1)


class TestWeylFit:
    @pytest.mark.parametrize(
        "a,b,C_expected",
        [(F(1), F(1), 0.5), (F(1), F(2), 0.25)],
    )
    def test_leading_coefficient(self, a, b, C_expected):
        E = Ellipsoid(a, b)
        fit = weyl_fit(E, [F(k) for k in range(50, 401, 25)])
        assert abs(fit.coefficient - C_expected) / C_expected < 0.02
        assert fit.exponent <= 1.05

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            weyl_fit(Ellipsoid(1, 1), [1, 2])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            weyl_fit(Ellipsoid(1, 1), [1, 3, 2])

    def test_radius_zero_is_left_out_of_the_remainder_fit(self):
        # R = 0 adds nothing to C = sum(N R^2)/sum(R^4), and log 0 is not a point
        E = Ellipsoid(1, 2)
        with_zero, without = weyl_fit(E, [0, 1, 2, 3]), weyl_fit(E, [1, 2, 3])
        assert (with_zero.coefficient, with_zero.exponent) == (without.coefficient, without.exponent)
        assert (without.coefficient, without.exponent) == (0.7346938775510204, -0.6169476217570827)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="requires R >= 0"):
            weyl_fit(Ellipsoid(1, 2), [-1, 1, 2])

    def test_radius_below_float_range(self):
        # log R of R = 1e-400 comes from the integer parts, not math.log(0.0)
        R_list = [F(1, 10**400), F(1), F(2), F(3)]
        fit = weyl_fit(Ellipsoid(1, 2), R_list)
        assert math.isfinite(fit.coefficient) and math.isfinite(fit.exponent)

    def test_coefficient_past_float_range(self):
        # C = sum(N R^2)/sum(R^4) is about 10^800 when every radius is near 1e-400
        with pytest.raises(ValueError, match="leading coefficient exp.* overflows a float"):
            weyl_fit(Ellipsoid(1, 2), [F(m, 10**400) for m in (1, 2, 3)])
        with pytest.raises(ValueError, match="overflows a float"):
            weyl_fit(Ellipsoid(F(1, 10**400), 2), [1, 2, 3])

    @given(
        a=st.builds(F, st.integers(1, 60), st.integers(1, 9)),
        b=st.builds(F, st.integers(1, 60), st.integers(1, 9)),
        R_list=st.lists(st.builds(F, st.integers(-3, 10**12), st.integers(1, 9)), max_size=8),
        sort=st.booleans(),
    )
    @example(a=F(1), b=F(2), R_list=[F(m * 10**310) for m in (1, 2, 3)], sort=False)
    @example(a=F(1), b=F(2), R_list=[F(m, 10**400) for m in (1, 2, 3)], sort=False)
    @example(a=F(1, 10**400), b=F(2), R_list=[F(1), F(2), F(3)], sort=False)
    @example(a=F(1), b=F(2), R_list=[F(1, 10**400), F(1), F(2), F(3)], sort=False)
    @example(a=F(3, 7), b=F(5), R_list=[F(0), F(1, 3), F(7, 2), F(10**12, 9)], sort=False)
    @example(a=F(1), b=F(1), R_list=[F(-1), F(1), F(2)], sort=False)
    @example(a=F(1), b=F(1), R_list=[F(1), F(4, 2), F(2)], sort=False)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_reference(self, a, b, R_list, sort):
        # the integer fit against the Fraction formula: the same repr, or the
        # same exception type and message
        E = Ellipsoid(a, b)
        if sort:
            R_list = sorted(set(R_list))

        def outcome(fit):
            try:
                return repr(fit(E, R_list))
            except (ValueError, TypeError) as exc:
                return type(exc), str(exc)

        assert outcome(weyl_fit) == outcome(weyl_fit_fractions)

    @pytest.mark.parametrize("x", [F(1, 10**400), F(1, 10**310), F(3, 10**305), F(7, 3), F(10**400, 3)])
    def test_log_outside_and_inside_the_float_range(self, x):
        exact = math.log(x.numerator) - math.log(x.denominator)
        assert rational_log(x) == pytest.approx(exact, rel=1e-15)
        if 2.0**-1022 <= x <= sys.float_info.max:
            assert rational_log(x) == math.log(x)  # the float path, as before


def _planted(j0, j1, power, coeff=1.0):
    return [
        DkPoint(j=j, c=F(0), d=coeff * j**power, d_err=0.0) for j in range(j0, j1 + 1)
    ]


class TestExponentFit:
    def test_fit_is_the_power_law_alone(self):
        assert FitResult._fields == ("coefficient", "exponent")

    def test_planted_power_law(self):
        fit = exponent_fit(_planted(10, 20000, 0.4), 12)
        assert abs(fit.exponent - 0.4) < 1e-6

    def test_constant_sequence(self):
        fit = exponent_fit(_planted(10, 20000, 0.0, coeff=0.7), 12)
        assert abs(fit.exponent) < 1e-6
        assert abs(fit.coefficient - 0.7) < 1e-6

    def test_square_sequence_is_flat(self):
        pts = d_sequence(Ellipsoid(1, 1), 1000, 50000)
        fit = exponent_fit(pts, 10)
        assert abs(fit.exponent) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exponent_fit([], 5)

    def test_rejects_duplicate_indices(self):
        p = DkPoint(j=3, c=F(1), d=0.5, d_err=0.0)
        with pytest.raises(ValueError):
            exponent_fit([p, p], 2)

    def test_columns_match_points(self):
        pts = d_sequence(Ellipsoid(1, F(89, 55)), 0, 3000)
        fit = column_exponent_fit(range(0, 3001), [p.d for p in pts], 9)
        assert fit == exponent_fit(pts, 9)

    def test_narrow_deep_window_is_quiet(self):
        # Nine indices near 1.1e7 give a meaningless slope whose coefficient
        # overflows; the fit says so with non-finite numbers, not a warning.
        pts = d_sequence(Ellipsoid(1, F(832040, 514229)), 11_203_511, 11_203_519)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = exponent_fit(pts, 12)
        assert fit.coefficient == math.inf  # exp of an intercept near 4517


def _exact_line(pts):
    """The exact least-squares (slope, intercept) through float points (x, y)."""
    X, Y = [F(x) for x, _ in pts], [F(y) for _, y in pts]
    n, sx, sy = len(pts), sum(X), sum(Y)
    slope = (n * sum(x * y for x, y in zip(X, Y)) - sx * sy) / (n * sum(x * x for x in X) - sx * sx)
    return slope, (sy - slope * sx) / n


def _assert_close(got, exact):
    assert abs(F(got) - exact) <= F(1e-13) * max(1, abs(exact)), (got, float(exact))


class TestFitAccuracy:
    """Both fits against the exact rational least-squares fit of the same
    float points, within 1e-13 * max(1, |exact|)."""

    @staticmethod
    def check_column_fit(js, ds, window_count):
        fit = column_exponent_fit(js, ds, window_count)
        pts = [DkPoint(j=j, c=F(0), d=d, d_err=0.0) for j, d in zip(js, ds)]
        sups = [(j, s) for j, s in window_sups(pts, window_count) if s > 1e-15]
        slope, intercept = _exact_line([(math.log(j), math.log(s)) for j, s in sups])
        _assert_close(fit.exponent, slope)
        if fit.coefficient == 0.0:  # exp underflows
            assert intercept < math.log(5e-324)
        elif fit.coefficient == math.inf:  # exp overflows
            assert intercept > math.log(sys.float_info.max)
        else:
            _assert_close(math.log(fit.coefficient), intercept)
        return len(sups)

    def test_random_column_fits(self):
        rng = random.Random(20121)
        sizes = set()
        for _ in range(300):
            n = rng.randint(2, 40)
            if rng.random() < 0.5:  # log-spaced over twelve decades
                js = sorted({int(10 ** rng.uniform(0, 12)) for _ in range(n)})
            else:  # a narrow window at a depth up to 1e12
                j0 = int(10 ** rng.uniform(0, 12))
                js = sorted(j0 + i for i in rng.sample(range(64), n))
            ds = [rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3) for _ in js]
            if len(js) >= 2:
                sizes.add(self.check_column_fit(js, ds, 4 * len(js)))
        assert {2, 3} <= sizes and max(sizes) >= 30

    @pytest.mark.parametrize(
        "a,b,j0,j1",
        [
            (1, F(832040, 514229), 0, 1500),
            (1, F(832040, 514229), 1_000_000, 1_000_500),
            (2, 3, 0, 1500),
            (2, 3, 1_000_000, 1_000_500),
            (1, F(832040, 514229), 11_203_511, 11_203_519),
            (1, 30, 10**11, 10**11 + 15),
        ],
    )
    def test_pinned_dk_windows(self, a, b, j0, j1):
        # The dk windows pinned in tests/test_cli.py::TestByteIdentity, with the
        # CLI's default of 12 windows, and two narrow deep windows.
        S = Ellipsoid(a, b)
        ds = scaled_defects(S, j0, scaled_spectrum(S, j0, j1))
        self.check_column_fit(range(j0, j1 + 1), ds, 12)

    def test_random_weyl_fits(self):
        rng = random.Random(20122)
        for _ in range(60):
            E = Ellipsoid(F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(1, 99), 7))
            radii = (F(rng.randint(1, 10**6), rng.randint(1, 100)) for _ in range(rng.randint(3, 40)))
            R_list = sorted(set(radii))
            if len(R_list) < 3:
                continue
            fit = weyl_fit(E, R_list)
            N = [count_leq(E, r) for r in R_list]
            X = [F(float(r)) ** 2 for r in R_list]
            _assert_close(fit.coefficient, sum(n * x for n, x in zip(N, X)) / sum(x * x for x in X))
            C = sum(n * r * r for n, r in zip(N, R_list)) / sum(r**4 for r in R_list)
            resid = [float(n - C * r * r) for n, r in zip(N, R_list)]
            pts = [(math.log(r), math.log(abs(e))) for r, e in zip(R_list, resid) if abs(e) > 1e-9]
            if len(pts) >= 2:
                _assert_close(fit.exponent, _exact_line(pts)[0])
            else:
                assert fit.exponent == 0.0


class TestWindowSups:
    def test_partitions_all_points(self):
        pts = _planted(1, 100, 0.0, coeff=0.3)
        sups = window_sups(pts, 5)
        assert len(sups) == 5
        assert all(abs(s - 0.3) < 1e-12 for _, s in sups)

    def test_argmax_tracked(self):
        pts = _planted(1, 64, 0.5)
        sups = window_sups(pts, 3)
        # within each geometric window the max of j^0.5 sits at the right edge
        for j_at, s in sups:
            assert abs(s - j_at**0.5) < 1e-12
        assert sups[-1][0] == 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            window_sups([], 3)

    def test_rejects_no_windows_and_no_index_from_one(self):
        with pytest.raises(ValueError, match="window_count must be positive"):
            window_sups(_planted(1, 10, 0.0), 0)
        with pytest.raises(ValueError, match="requires points with j >= 1"):
            column_exponent_fit([0], [0.5], 12)

    @given(
        js=st.lists(st.integers(0, 10**12), min_size=1, max_size=60, unique=True),
        ds=st.lists(st.sampled_from([0.0, 0.5, -0.5, 1e-16, 3.0, -7.25]), min_size=60, max_size=60),
        window_count=st.integers(1, 10**4),
    )
    @example(js=list(range(1, 31)), ds=[1.0] * 60, window_count=10**4)
    def test_matches_edge_list(self, js, ds, window_count):
        # found by bisection over edges made on demand, the windows of the full edge list
        assume(max(js) >= 1)
        js = sorted(js)
        pts = [DkPoint(j, F(0), d, 0.0) for j, d in zip(js, ds)]
        assert window_sups(pts, window_count) == window_sups_by_edge_list(js, ds, window_count)

    def test_index_past_the_float_range(self):
        # the window edges are floats of the indices
        with pytest.raises(ValueError, match=r"^index exp\(711\.499\) overflows a float$"):
            column_exponent_fit([10**309, 10**309 + 1], [1.0, 2.0], 2)

    def test_window_count_past_the_float_range(self):
        pts = [DkPoint(j, F(0), float(j), 0.0) for j in (1, 2, 3)]
        for call in (lambda: column_exponent_fit([1, 2, 3], [1.0, 2.0, 3.0], 10**400),
                     lambda: window_sups(pts, 10**400)):
            with pytest.raises(ValueError, match=r"^window_count exp\(921\.034\) overflows a float$"):
                call()
