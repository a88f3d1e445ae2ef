import math
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import echspec.spectrum
from echspec import (
    Ellipsoid,
    count_leq,
    distinct_values_leq,
    floor_sum,
    nth_capacity,
    scaled_spectrum,
    spectrum_range,
)
from echspec.spectrum import _floor_value, _gaps, _min_mod_linear, as_float, map_distinct

from oracles import (
    bisect_nth_capacity,
    brute_count_leq,
    brute_distinct_leq,
    brute_floor_value,
    brute_gaps,
    brute_spectrum,
    distinct_leq_by_classes,
    naive_floor_sum,
)


class TestFloorSum:
    def test_empty_sum(self):
        assert floor_sum(0, 7, 3, 5) == 0

    def test_small_example(self):
        assert floor_sum(4, 1, 0, 2) == 2  # 0 + 0 + 1 + 1

    @given(
        n=st.integers(0, 200),
        p=st.integers(0, 200),
        q=st.integers(0, 200),
        m=st.integers(1, 200),
    )
    def test_matches_naive(self, n, p, q, m):
        assert floor_sum(n, p, q, m) == naive_floor_sum(n, p, q, m)

    def test_big_arguments(self):
        n, p, q, m = 10**12, 10**11 + 7, 10**10 + 3, 10**9 + 9
        # spot check against a shifted decomposition rather than a loop
        total = floor_sum(n, p, q, m)
        assert total == floor_sum(n, p % m, q % m, m) + (n - 1) * n // 2 * (p // m) + n * (q // m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            floor_sum(3, 1, 0, 0)
        with pytest.raises(ValueError):
            floor_sum(-1, 1, 0, 2)


class TestFloorValue:
    @given(
        n=st.integers(1, 300),
        m=st.integers(1, 300),
        a=st.integers(0, 299),
        b=st.integers(0, 299),
    )
    def test_min_mod_matches_naive(self, n, m, a, b):
        a, b = a % m, b % m
        assert _min_mod_linear(n, m, a, b) == min((a * x + b) % m for x in range(n))

    @given(A=st.integers(1, 200), B=st.integers(1, 200), v=st.integers(0, 5000))
    @example(A=7, B=11, v=6)  # below both axes: only the origin
    @example(A=7, B=11, v=3 * 7 + 2 * 11)  # v is itself a lattice value
    @example(A=9, B=9, v=80)
    @example(A=1, B=13, v=100)
    @example(A=13, B=1, v=100)
    def test_matches_brute(self, A, B, v):
        assert _floor_value(A, B, v) == brute_floor_value(A, B, v)

    @given(
        A=st.integers(10**12 - 10**6, 10**12),
        B=st.integers(10**12 - 10**6, 10**12),
        v=st.integers(0, 10**15),
    )
    @example(A=10**12, B=10**12 - 1, v=10**12 - 2)
    @example(A=10**12, B=10**12, v=10**15 + 5)
    @settings(max_examples=50)
    def test_axes_near_10_to_12(self, A, B, v):
        assert _floor_value(A, B, v) == brute_floor_value(A, B, v)


@st.composite
def gap_args(draw):
    """(a, m, L) with coprime 0 < a < m <= 10^4 and 1 <= L < m - 1, the
    arguments the value walk gives _gaps."""
    m = draw(st.integers(3, 10**4))
    a = draw(st.integers(1, m - 1).filter(lambda a: gcd(a, m) == 1))
    return a, m, draw(st.integers(1, m - 2))


class TestGaps:
    @given(args=gap_args())
    @example(args=(1, 3, 1))
    @example(args=(1, 10**4, 10**4 - 2))
    @example(args=(10**4 - 2, 10**4 - 1, 1))
    @example(args=(10**4 - 2, 10**4 - 1, 10**4 - 3))
    @example(args=(514229, 832040, 1))  # the golden approximant: every quotient is 1
    def test_matches_brute(self, args):
        assert _gaps(*args) == brute_gaps(*args)


FIB_3000, FIB_3001 = 0, 1
for _ in range(3000):
    FIB_3000, FIB_3001 = FIB_3001, FIB_3000 + FIB_3001
# about 3000 continued fraction steps: a recursive Euclid would pass Python's limit
LONG_CF = Ellipsoid(1, F(FIB_3001, FIB_3000))


class TestLongContinuedFraction:
    def test_floor_query_has_no_recursion_limit(self):
        A, B = LONG_CF.A, LONG_CF.B
        count = echspec.spectrum._count_scaled
        v = 10**700 * A
        for axes in ((A, B), (B, A)):
            assert _floor_value(*axes, v) == v
            w = _floor_value(*axes, v - 1)  # the lattice value just below v
            assert count(A, B, w - 1) < count(A, B, w) == count(A, B, v - 1)

    def test_deep_capacities_by_count_duality(self):
        step = F(1, LONG_CF.den)
        for k in range(10**1400, 10**1400 + 20):
            c = nth_capacity(LONG_CF, k)
            assert count_leq(LONG_CF, c) >= k + 1 > count_leq(LONG_CF, c - step)

    def test_value_walk_has_no_recursion_limit(self, monkeypatch):
        # Near k = 10^400 the values are still sparse (L = v // A' has 201
        # digits, B' has 627), so the walk runs a _gaps descent of about 2000
        # steps; near 10^1400 every integer past v0 is already a value.
        k = 10**400
        window = scaled_spectrum(LONG_CF, k, k + 15)
        assert window == [nth_capacity(LONG_CF, j) * LONG_CF.den for j in range(k, k + 16)]
        thresholds = record_counts(monkeypatch)
        scaled_spectrum(LONG_CF, k, k + 15)
        assert sum(map(is_descent, thresholds)) == 1


class TestCountLeq:
    def test_origin_only(self):
        assert count_leq(Ellipsoid(1, 1), 0) == 1

    def test_small_example(self):
        assert count_leq(Ellipsoid(1, 2), 4) == 9

    def test_negative_threshold(self):
        assert count_leq(Ellipsoid(1, 2), -1) == 0
        assert count_leq(Ellipsoid(F(3, 7), F(5, 11)), F(-1, 100)) == 0

    @pytest.mark.parametrize("t", range(0, 50))
    def test_triangular_closed_form(self, t):
        assert count_leq(Ellipsoid(1, 1), t) == (t + 1) * (t + 2) // 2

    @pytest.mark.parametrize(
        "a,b", [(F(1), F(1)), (F(1), F(2)), (F(3), F(7)), (F(2, 3), F(5, 7))]
    )
    def test_matches_enumeration(self, a, b):
        E = Ellipsoid(a, b)
        for t in [F(0), F(1, 3), F(5, 2), F(7), F(31, 4)]:
            assert count_leq(E, t) == brute_count_leq(a, b, t)

    def test_rejects_float_threshold(self):
        with pytest.raises(TypeError):
            count_leq(Ellipsoid(1, 1), 2.5)


class TestNthCapacity:
    def test_empty_orbit_set(self):
        assert nth_capacity(Ellipsoid(1, 1), 0) == 0

    def test_round_examples(self):
        assert nth_capacity(Ellipsoid(1, 1), 3) == 2
        assert nth_capacity(Ellipsoid(1, 2), 6) == 4

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            nth_capacity(Ellipsoid(1, 1), -1)

    @pytest.mark.parametrize(
        "a,b",
        [
            (F(1), F(1)),
            (F(1), F(2)),
            (F(3), F(7)),
            (F(2, 3), F(5, 7)),
            (F(7, 3), F(5, 11)),
            (F(1), F(832040, 514229)),
            (F(1), F(665857, 470832)),
            (F(1), F(1000000007, 1000000000)),
        ],
    )
    def test_matches_brute_force(self, a, b):
        E = Ellipsoid(a, b)
        expected = brute_spectrum(a, b, 200)
        for k in range(200):
            assert nth_capacity(E, k) == expected[k]

    def test_monotone(self):
        E = Ellipsoid(F(3), F(7))
        vals = [nth_capacity(E, k) for k in range(300)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_symmetry(self):
        E, Es = Ellipsoid(F(2, 3), F(5, 7)), Ellipsoid(F(5, 7), F(2, 3))
        for k in [0, 1, 17, 100]:
            assert nth_capacity(E, k) == nth_capacity(Es, k)

    def test_scaling(self):
        lam = F(7, 5)
        E = Ellipsoid(F(1), F(3, 2))
        El = Ellipsoid(lam, lam * F(3, 2))
        for k in [0, 3, 42, 250]:
            assert nth_capacity(El, k) == lam * nth_capacity(E, k)

    def test_counting_extraction_duality(self):
        E = Ellipsoid(F(2, 3), F(5, 7))
        for k in [0, 5, 33, 120]:
            c = nth_capacity(E, k)
            assert count_leq(E, c) >= k + 1
            if c > 0:
                # predecessor attained value leaves at most k elements below
                S = E
                v = c.numerator * (S.den // c.denominator)
                from echspec.spectrum import _count_scaled

                assert _count_scaled(S.A, S.B, v - 1) <= k

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 60))
    @settings(max_examples=60)
    def test_duality_random(self, A, B, k):
        E = Ellipsoid(A, B)
        c = nth_capacity(E, k)
        assert count_leq(E, c) >= k + 1


GOLDEN = Ellipsoid(1, F(832040, 514229))
SEARCH_ELLIPSOIDS = {
    "golden": GOLDEN,
    "silver": Ellipsoid(1, F(665857, 470832)),
    "E1_1e12": Ellipsoid(1, 10**12),
    "E1e12_1": Ellipsoid(10**12, 1),
    "near_one": Ellipsoid(1, F(1000000007, 1000000000)),
    "E7/3_5/11": Ellipsoid(F(7, 3), F(5, 11)),
}
# 61 log-spaced indices from 1 to 10^15
LOG_KS = sorted({int(10 ** (e / 4)) for e in range(61)})


def record_counts(monkeypatch) -> list:
    """Patch the spectrum's Euclidean passes to record each one: the threshold
    v of every _count_scaled call, the arguments (A, B, v) of every
    _floor_value query, and ("gaps", a, m, L) for every _gaps descent."""
    thresholds = []
    count, floor_value = echspec.spectrum._count_scaled, echspec.spectrum._floor_value
    gaps = echspec.spectrum._gaps

    def counted(A, B, v):
        thresholds.append(v)
        return count(A, B, v)

    def queried(A, B, v):
        thresholds.append((A, B, v))
        return floor_value(A, B, v)

    def descended(a, m, L):
        thresholds.append(("gaps", a, m, L))
        return gaps(a, m, L)

    monkeypatch.setattr(echspec.spectrum, "_count_scaled", counted)
    monkeypatch.setattr(echspec.spectrum, "_floor_value", queried)
    monkeypatch.setattr(echspec.spectrum, "_gaps", descended)
    return thresholds


def is_descent(x) -> bool:
    return isinstance(x, tuple) and x[0] == "gaps"


F60, F61 = 1548008755920, 2504730781961
# A ratio with a denominator of 1.5e12, where a window once cost seconds
LARGE_DEN = Ellipsoid(1, F(F61, F60))


class TestModelGuidedSearch:
    @pytest.mark.parametrize("E", SEARCH_ELLIPSOIDS.values(), ids=SEARCH_ELLIPSOIDS)
    def test_matches_bisection(self, E):
        for k in [*range(301), *LOG_KS]:
            assert nth_capacity(E, k) == bisect_nth_capacity(E, k)

    @given(
        A=st.integers(1, 10**12),
        B=st.integers(1, 10**12),
        den=st.integers(1, 10**6),
        k=st.integers(0, 10**15),
    )
    @example(A=1, B=1, den=1, k=0)
    @example(A=10**12, B=10**12 - 1, den=1, k=10**15)
    @settings(max_examples=150, deadline=None)
    def test_random_axes_match_bisection(self, A, B, den, k):
        E, Es = Ellipsoid(F(A, den), F(B, den)), Ellipsoid(F(B, den), F(A, den))
        c = nth_capacity(E, k)
        assert c == bisect_nth_capacity(E, k) == nth_capacity(Es, k)
        # the k-th value lies in the proven bracket [r - A - B, r + 1]
        S = E
        r = math.isqrt(2 * S.A * S.B * (k + 1))
        assert r - S.A - S.B <= c * S.den <= r + 1


class TestSearchCost:
    @pytest.mark.parametrize("E", SEARCH_ELLIPSOIDS.values(), ids=SEARCH_ELLIPSOIDS)
    def test_at_most_twice_bisection(self, E, monkeypatch):
        thresholds = record_counts(monkeypatch)
        S = E
        for k in [*range(50), *LOG_KS]:
            thresholds.clear()
            nth_capacity(E, k)
            r = math.isqrt(2 * S.A * S.B * (k + 1))
            width = r + 1 - max(0, r - S.A - S.B)  # of the bracket [r - A - B, r + 1]
            assert len(thresholds) <= 2 * (width - 1).bit_length() + 2  # 2 ceil(log2 width) + 2

    @pytest.mark.parametrize(
        "a,b", [(1, F(832040, 514229)), (1, 10**12), (F(7, 3), F(5, 11)), (2, 3)]
    )
    def test_axis_order_makes_the_same_counts(self, a, b, monkeypatch):
        thresholds = record_counts(monkeypatch)
        for k in [*range(50), *LOG_KS]:
            nth_capacity(Ellipsoid(a, b), k)
            forward = thresholds[:]
            thresholds.clear()
            nth_capacity(Ellipsoid(b, a), k)
            assert thresholds == forward
            thresholds.clear()
            # windows, in either branch, make the same passes too
            for width in (1, 16, 1000):
                scaled_spectrum(Ellipsoid(a, b), k, k + width - 1)
                forward = thresholds[:]
                thresholds.clear()
                scaled_spectrum(Ellipsoid(b, a), k, k + width - 1)
                assert thresholds == forward
                thresholds.clear()

    @pytest.mark.parametrize("E", [Ellipsoid(1, 10**12), Ellipsoid(10**12, 1)], ids=["E1_1e12", "E1e12_1"])
    def test_values_below_the_larger_axis_take_no_pass(self, E, monkeypatch):
        # below B = 10^12 the spectrum is 0, 1, 2, ... once each, so v_k = k
        thresholds = record_counts(monkeypatch)
        for k in LOG_KS:
            if k < 10**12 - 16:
                assert nth_capacity(E, k) == k
                assert scaled_spectrum(E, k, k + 15) == list(range(k, k + 16))
        assert thresholds == []

    @pytest.mark.parametrize("k", [10**9, 10**11, 10**13, 10**15])
    def test_large_denominator_window_makes_one_search(self, k, monkeypatch):
        # A 16-row window on E(1, F61/F60) makes the passes of the search for
        # its first value and nothing more (that search ends in a floor query,
        # which gives the copies of v0), then walks value to value with one
        # _gaps descent (measured), where walking the lines or scanning the
        # integers in [v0, v1] took 3.5e4-3.5e6 steps.
        thresholds = record_counts(monkeypatch)
        nth_capacity(LARGE_DEN, k)
        search = thresholds[:]
        thresholds.clear()
        scaled_spectrum(LARGE_DEN, k, k + 15)
        assert isinstance(search[-1], tuple)
        assert [x for x in thresholds if not is_descent(x)] == search
        assert sum(map(is_descent, thresholds)) == 1

    def test_golden_deep_count_pin(self, monkeypatch):
        # 51 log-spaced indices from 10^6 to 10^11 on the golden approximant;
        # bisection over the old bracket [r - A - B, r + A + B] made 1090
        # counts, and the model-guided search without the floor query 335.
        # Moves only when the search changes on purpose.
        thresholds = record_counts(monkeypatch)
        for i in range(51):
            nth_capacity(GOLDEN, int(10 ** (6 + i / 10)))
        queries = sum(isinstance(x, tuple) for x in thresholds)
        assert (len(thresholds) - queries, queries) == (89, 47)

    def test_golden_cost_is_flat_in_depth(self, monkeypatch):
        # 241 log-spaced indices from 10^3 to 10^15: 2.0-3.2 passes per value
        # on average in each decade, and at most 6 (the measured worst, near
        # 10^9), where counts alone took up to 17 at 10^3 and 13 at 10^6.
        thresholds = record_counts(monkeypatch)
        for e in range(60, 301):
            thresholds.clear()
            nth_capacity(GOLDEN, int(10 ** (e / 20)))
            assert len(thresholds) <= 6


class TestSpectrumRange:
    def test_triangular_prefix(self):
        assert [c for _, c in spectrum_range(Ellipsoid(1, 1), 0, 5)] == [0, 1, 1, 2, 2, 2]

    def test_single_index(self):
        assert spectrum_range(Ellipsoid(1, 2), 0, 0) == [(0, F(0))]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            spectrum_range(Ellipsoid(1, 1), 3, 2)
        with pytest.raises(ValueError, match="k0 must be nonnegative"):
            scaled_spectrum(Ellipsoid(1, 1), -1, 3)

    def test_agrees_with_nth(self):
        E = Ellipsoid(3, 7)
        block = spectrum_range(E, 0, 1000)
        assert [k for k, _ in block] == list(range(1001))
        for k, c in block[::37]:
            assert c == nth_capacity(E, k)

    def test_interior_block(self):
        E = Ellipsoid(F(2, 3), F(5, 7))
        block = spectrum_range(E, 50, 80)
        for k, c in block:
            assert c == nth_capacity(E, k)

    def test_exact_past_the_float_range(self):
        # no value is made a float, so c_k near 1.4e400 comes out exact
        E, k = Ellipsoid(1, 1), 10**800
        block = spectrum_range(E, k, k + 3)
        assert len(block) == 4 and [c for _, c in block] == scaled_spectrum(E, k, k + 3)
        for j, c in block:
            assert count_leq(E, c - 1) <= j < count_leq(E, c)

    @given(
        A=st.integers(1, 1000),
        B=st.integers(1, 1000),
        den=st.integers(1, 30),
        k0=st.integers(0, 10**10),
        width=st.integers(0, 40),
    )
    @example(A=1, B=1000, den=1, k0=10**10, width=40)
    @example(A=7, B=997, den=30, k0=10**10 - 16, width=16)
    @settings(deadline=1000)
    def test_axis_order_does_not_matter(self, A, B, den, k0, width):
        # The deadline is the point: enumeration cost must not grow with the
        # axis skew when the smaller axis comes first.
        a, b = F(A, den), F(B, den)
        block = spectrum_range(Ellipsoid(a, b), k0, k0 + width)
        assert block == spectrum_range(Ellipsoid(b, a), k0, k0 + width)
        for k, c in block:
            assert c == nth_capacity(Ellipsoid(a, b), k)


def tied_blocks():
    """(E, k0, k1) blocks whose edges sit inside runs of tied values. On the
    golden approximant the first tie is c = 832040 = 832040 * 1 =
    514229 * (832040/514229), a run of two at index about 2.1e11: one block
    ends on its first copy, one starts on its second."""
    first = count_leq(GOLDEN, 832040 - F(1, 514229))  # values below 832040
    return [
        (Ellipsoid(2, 3), 1_003, 1_998),
        (Ellipsoid(1, 1), 55 + 2, 210 + 5),  # c = 10 fills 55..65, c = 20 fills 210..230
        (GOLDEN, first - 40, first),
        (GOLDEN, first + 1, first + 40),
    ]


# Whether each block of tied_blocks starts inside a run, and ends inside one.
EDGES_IN_RUNS = [(True, True), (True, True), (False, True), (True, False)]


class TestTiedValues:
    def test_block_edges_cut_runs(self):
        # the fixture is what it says
        cuts = [
            (nth_capacity(E, k0 - 1) == nth_capacity(E, k0), nth_capacity(E, k1) == nth_capacity(E, k1 + 1))
            for E, k0, k1 in tied_blocks()
        ]
        assert cuts == EDGES_IN_RUNS
        assert nth_capacity(GOLDEN, tied_blocks()[2][2]) == 832040

    @pytest.mark.parametrize("E,k0,k1", tied_blocks())
    def test_spectrum_range_is_nth_capacity(self, E, k0, k1):
        block = spectrum_range(E, k0, k1)
        assert block == [(k, nth_capacity(E, k)) for k in range(k0, k1 + 1)]

    @pytest.mark.parametrize("E,k0,k1", tied_blocks())
    def test_ties_share_one_fraction(self, E, k0, k1):
        block = spectrum_range(E, k0, k1)
        for (_, c), (_, c_next) in zip(block, block[1:]):
            assert (c is c_next) == (c == c_next)
        assert len({id(c) for _, c in block}) == len({c for _, c in block})

    @pytest.mark.parametrize("E,k0,k1", tied_blocks())
    def test_make_runs_once_per_distinct_value(self, E, k0, k1):
        vals = scaled_spectrum(E, k0, k1)
        calls = []

        def make(v):
            calls.append(v)
            return [v]

        out = map_distinct(make, vals)
        assert calls == sorted(set(vals))
        assert out == [[v] for v in vals]
        assert all((x is y) == (v == w) for x, y, v, w in zip(out, out[1:], vals, vals[1:]))

    def test_empty_block(self):
        assert map_distinct(str, []) == []


def _walks(E, k0, k1, monkeypatch):
    """Whether scaled_spectrum walks the lattice lines for this window rather
    than from value to value, seen by the line walk's one bisect_right call."""
    calls = []
    bisect_right = echspec.spectrum.bisect_right
    monkeypatch.setattr(echspec.spectrum, "bisect_right", lambda *a: calls.append(a) or bisect_right(*a))
    scaled_spectrum(E, k0, k1)
    monkeypatch.undo()
    return bool(calls)


class TestWindows:
    @pytest.mark.parametrize(
        "a,b,k0,width,walks",
        [
            (F(3), F(7), 0, 300, True),
            (F(2, 3), F(5, 7), 10, 400, True),
            (F(3), F(7), 500, 3, False),
            (F(4), F(6), 300, 20, False),
            (F(1), F(1), 200, 0, False),
            (F(1), F(1000), 6058, 2, False),  # the line walk's second search outweighs 3 rows
            (F(3), F(200, 7), 9640, 42, False),  # past the Frobenius number, 2 copies a value
        ],
    )
    def test_both_branches_match_brute(self, a, b, k0, width, walks, monkeypatch):
        E = Ellipsoid(a, b)
        assert _walks(E, k0, k0 + width, monkeypatch) == walks
        got = [c for _, c in spectrum_range(E, k0, k0 + width)]
        assert got == brute_spectrum(a, b, k0 + width + 1)[k0:]

    @pytest.mark.parametrize(
        "E,k0,width",
        [
            (Ellipsoid(3, F(200, 7)), 9640, 42),
            (Ellipsoid(F(200, 7), 3), 15743, 89),
            (Ellipsoid(F(200, 7), 3), 141195, 195),
            (Ellipsoid(3, F(200, 7)), 219859, 2205),
        ],
    )
    def test_value_walk_past_the_frobenius_number(self, E, k0, width, monkeypatch):
        # Past 21*200 - 21 - 200 every integer is a value with at least
        # (w + 21) // 4200 copies: few steps, each the w + 1 case, so these
        # windows walk from value to value.
        assert not _walks(E, k0, k0 + width, monkeypatch)
        want = [bisect_nth_capacity(E, k) * E.den for k in range(k0, k0 + width + 1)]
        assert scaled_spectrum(E, k0, k0 + width) == want

    @given(
        A=st.integers(1, 30),
        B=st.integers(1, 30),
        den=st.integers(1, 6),
        k0=st.integers(0, 400),
        width=st.integers(0, 300),
    )
    @settings(max_examples=80)
    def test_window_matches_brute(self, A, B, den, k0, width):
        a, b = F(A, den), F(B, den)
        got = [c for _, c in spectrum_range(Ellipsoid(a, b), k0, k0 + width)]
        assert got == brute_spectrum(a, b, k0 + width + 1)[k0:]

    @pytest.mark.parametrize(
        "E,k0,k1,walks",
        [
            (Ellipsoid(F(2, 3), F(5, 7)), 0, 1500, True),
            (Ellipsoid(3, F(200, 7)), 10**9, 10**9 + 300, False),
            (Ellipsoid(2, 3), 10**5, 10**5 + 3000, False),
            (GOLDEN, 10**7, 10**7 + 200, False),
            (Ellipsoid(2, 3), 13000, 32999, False),  # 20,000 rows, 236 distinct values
        ],
    )
    def test_block_is_concatenated_single_windows(self, E, k0, k1, walks, monkeypatch):
        S = E
        assert _walks(E, k0, k1, monkeypatch) == walks
        singles = [v for k in range(k0, k1 + 1) for v in scaled_spectrum(S, k, k)]
        assert scaled_spectrum(S, k0, k1) == singles

    @given(
        A=st.integers(1, 10**12),
        B=st.integers(1, 10**12),
        den=st.integers(1, 10**6),
        k0=st.integers(0, 10**15),
        width=st.integers(1, 64),
    )
    @example(A=1, B=1, den=1, k0=10**15, width=64)
    @example(A=6, B=10, den=1, k0=10**9, width=64)  # gcd 2
    @example(A=1, B=10**12, den=1, k0=10**12 - 30, width=64)  # across the larger axis
    @example(A=10**9, B=10**9 + 7, den=10**9, k0=10**11, width=64)
    @example(A=514229, B=832040, den=514229, k0=10**7, width=64)
    @example(A=F60, B=F61, den=F60, k0=10**13, width=16)
    @example(A=F60, B=F61, den=F60, k0=0, width=64)
    @settings(max_examples=60, deadline=None)
    def test_window_matches_bisection(self, A, B, den, k0, width):
        a, b = F(A, den), F(B, den)
        E = Ellipsoid(a, b)
        want = [bisect_nth_capacity(E, k) * E.den for k in range(k0, k0 + width)]
        assert scaled_spectrum(E, k0, k0 + width - 1) == want
        assert scaled_spectrum(Ellipsoid(b, a), k0, k0 + width - 1) == want

    def test_window_inside_a_long_tie_run(self):
        # On E(1, 1) the value v has v + 1 copies, at indices v(v+1)/2 onwards;
        # near k = 10^13 that is about 4.5 million copies of one value.
        E, v = Ellipsoid(1, 1), 4472135
        start = v * (v + 1) // 2
        assert nth_capacity(E, start - 1) == v - 1 and nth_capacity(E, start) == v
        assert nth_capacity(E, start + v) == v and nth_capacity(E, start + v + 1) == v + 1
        S = E
        assert scaled_spectrum(S, start + 1000, start + 1015) == [v] * 16
        mid = start + v // 2
        assert scaled_spectrum(S, mid, mid + 10**6 - 1) == [v] * 10**6
        assert scaled_spectrum(S, start + v - 4, start + v + 5) == [v] * 5 + [v + 1] * 5

    @pytest.mark.parametrize("k", [10**12, 10**13, 10**15])
    @pytest.mark.parametrize(
        "E", [Ellipsoid(1, 1), GOLDEN, Ellipsoid(3, F(200, 7))], ids=["E11", "golden", "E3"]
    )
    def test_depth_sweep(self, E, k):
        # A 16-value window must not cost more the deeper it sits; walking
        # the lattice lines took 0.4-1.3 s here already at k = 10^12.
        t0 = time.perf_counter()
        block = spectrum_range(E, k, k + 15)
        assert time.perf_counter() - t0 < 0.05
        step = F(1, E.den)
        assert [j for j, _ in block] == list(range(k, k + 16))
        for j, c in block:
            assert c == nth_capacity(E, j)
            assert count_leq(E, c) >= j + 1 > count_leq(E, c - step)


class TestDistinctValues:
    def test_square(self):
        assert distinct_values_leq(Ellipsoid(1, 1), 5) == 6

    def test_one_two(self):
        assert distinct_values_leq(Ellipsoid(1, 2), 4) == 5

    def test_negative(self):
        assert distinct_values_leq(Ellipsoid(1, 2), -3) == 0

    @pytest.mark.parametrize(
        "a,b", [(F(1), F(1)), (F(3), F(7)), (F(2, 3), F(5, 7)), (F(4), F(6))]
    )
    def test_matches_enumeration(self, a, b):
        E = Ellipsoid(a, b)
        for t in [F(0), F(3, 2), F(8), F(25)]:
            assert distinct_values_leq(E, t) == brute_distinct_leq(a, b, t)

    @given(
        p=st.integers(1, 10**4),
        q=st.integers(1, 10**3),
        r=st.integers(1, 10**4),
        s=st.integers(1, 10**3),
        t=st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**3),
    )
    @example(p=9973, q=997, r=1, s=1, t=F(10**12 - 1, 997))
    @example(p=9973, q=997, r=7919, s=991, t=F(-(10**12), 7))
    @settings(deadline=None)
    def test_matches_class_sum(self, p, q, r, s, t):
        # The oracle loops over the residue classes, with no floor sum
        E = Ellipsoid(F(p, q), F(r, s))
        expected = distinct_leq_by_classes(E, t)
        assert distinct_values_leq(E, t) == expected
        assert distinct_values_leq(Ellipsoid(F(r, s), F(p, q)), t) == expected

    @pytest.mark.parametrize("a,b", [("1", "30"), ("3", "200/7"), ("1", "832040/514229")])
    @pytest.mark.parametrize("count", [10**6, 10**8, 10**11])
    def test_matches_class_sum_deep(self, a, b, count):
        # radii where the lattice count is about 10^6, 10^8 and 10^11
        E = Ellipsoid(a, b)
        t = math.isqrt(2 * count * E.A * E.B) // E.den
        for E in (E, Ellipsoid(b, a)):
            assert distinct_values_leq(E, t) == distinct_leq_by_classes(E, t)

    @pytest.mark.parametrize("a,b", [("1", "30"), ("3", "200/7"), ("1", "832040/514229")])
    def test_axis_order_makes_the_same_counts(self, a, b, monkeypatch):
        count = echspec.spectrum._count_scaled
        calls = []
        def record(*args):
            calls.append(args)
            return count(*args)
        monkeypatch.setattr(echspec.spectrum, "_count_scaled", record)
        for E in (Ellipsoid(a, b), Ellipsoid(b, a)):
            for t in (0, 17, 10**6):
                distinct_values_leq(E, t)
        half = len(calls) // 2
        assert half == 6 and calls[:half] == calls[half:]


# The float range ends halfway between the largest float and 2^1024: there
# float() rounds up, to even, and overflows.
FLOAT_EDGE = 2**1024 - 2**970


class TestAsFloat:
    @given(num=st.integers(-(10**700), 10**700), den=st.integers(1, 10**700))
    @example(num=FLOAT_EDGE - 1, den=1)
    @example(num=FLOAT_EDGE, den=1)
    @example(num=-FLOAT_EDGE, den=1)
    @example(num=FLOAT_EDGE * 3 - 1, den=3)
    @example(num=1, den=10**400)
    @example(num=10**700, den=7)
    def test_is_float_or_the_readme_error(self, num, den):
        # float(x) wherever that succeeds, ValueError exactly where it overflows
        x = F(num, den)
        try:
            want = float(x)
        except OverflowError:
            with pytest.raises(ValueError, match=r"^x exp\(\d+\.?\d*(e\+\d+)?\) overflows a float$"):
                as_float(x, "x")
        else:
            assert as_float(x, "x") == want

    def test_names_the_quantity_and_its_log(self):
        with pytest.raises(ValueError, match=r"^axis a = exp\(921\.034\) overflows a float$"):
            as_float(10**400, "axis a =")
        assert as_float(F(1, 10**400), "x") == 0.0  # below the range: only overflow is an error


class TestEllipsoid:
    def test_rejects_nonpositive(self):
        for a, b in [(0, 1), (1, F(-2, 3)), ("-1/2", 1), (2, "0/3"), (F(1, 3), 0)]:
            with pytest.raises(ValueError, match="^ellipsoid axes must be positive$"):
                Ellipsoid(a, b)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Ellipsoid(1.5, 2)

    @given(
        a=st.fractions(min_value=F(1, 10**9), max_value=10**9, max_denominator=10**9),
        b=st.fractions(min_value=F(1, 10**9), max_value=10**9, max_denominator=10**9),
    )
    @example(a=F(2, 3), b=F(5, 7))
    def test_scaled_is_exact(self, a, b):
        E = Ellipsoid(a, b)
        assert E.den == math.lcm(a.denominator, b.denominator)
        assert F(E.A, E.den) == E.a == a and F(E.B, E.den) == E.b == b

    def test_integer_form_is_fixed_and_outside_identity(self):
        E = Ellipsoid(F(2, 3), F(5, 7))
        assert (E.A, E.B, E.den) == (14, 15, 21)
        for name in ("a", "b", "A", "B", "den"):
            with pytest.raises(AttributeError):
                setattr(E, name, 1)
            with pytest.raises(AttributeError):
                delattr(E, name)
        assert (E.a, E.b, E.A, E.B, E.den) == (F(2, 3), F(5, 7), 14, 15, 21)
        # repr, == and hash see the axes only, as before the integer form was stored
        E = Ellipsoid(1, 2)
        assert repr(E) == "Ellipsoid(a=Fraction(1, 1), b=Fraction(2, 1))"
        assert E == Ellipsoid(F(2, 2), "2") and hash(E) == hash(Ellipsoid(F(2, 2), "2"))
        assert E != Ellipsoid(2, 1)
