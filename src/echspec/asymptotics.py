"""Sub-leading asymptotics of the spectrum: the defect sequence
d_j = c_j - sqrt(vol * 2j), Weyl counting samples, and power-law fits.

The square root is taken with 60 fractional bits via integer isqrt, so the
recorded defect carries a certified rounding bound well below the scales
at which the O(1) limits are distinguished. The Weyl fit's coefficient,
residuals and checks are exact integers over one denominator, with floats
only at the coefficient and the logs. Power laws come from one centred
math.fsum least-squares line in log-log coordinates, with no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .spectrum import (
    Ellipsoid,
    as_float,
    as_rational,
    count_leq,
    distinct_values_leq,
    map_distinct,
    rational_log,
    scaled_spectrum,
)

_SQRT_BITS = 60
DEFECT_REL_ERR = 2.0**-50  # d_err = max(1, c) * DEFECT_REL_ERR


class DkPoint(NamedTuple):
    """One defect sample: index j, exact capacity c_j, defect d and its rounding bound d_err."""

    j: int
    c: Fraction
    d: float
    d_err: float


@dataclass(frozen=True)
class FitResult:
    """A power law coefficient * x^exponent."""

    coefficient: float
    exponent: float


@dataclass(frozen=True)
class WeylSample:
    """Counts at radius R: lattice classes (with multiplicity) and distinct values."""

    R: Fraction
    count_classes: int
    count_values: int


def contact_volume(E: Ellipsoid) -> Fraction:
    """Contact volume of the ellipsoid boundary; equals a*b, the value fixed
    by consistency of the zeta residue at s=2 with 1/(a*b)."""
    return E.a * E.b


def scaled_defects(E: Ellipsoid, j0: int, values: list[int]) -> list[float]:
    """Defects d_j = (v - sqrt(2jAB))/den for the scaled capacities
    values[i] = v of index j = j0 + i.

    The root is floor(sqrt(2jAB) * 2^_SQRT_BITS) by integer isqrt and the
    quotient is one correctly rounded int division, so each d lies within
    max(1, v/den) * DEFECT_REL_ERR of the exact defect. A defect past the
    float range raises ValueError naming it.
    """
    bits = _SQRT_BITS
    root_arg = (2 * E.A * E.B) << (2 * bits)
    den = E.den << bits
    isqrt = math.isqrt
    try:
        return [((v << bits) - isqrt(root_arg * j)) / den for j, v in enumerate(values, j0)]
    except OverflowError:  # the same divisions again, to name the first that overflows
        for j, v in enumerate(values, j0):
            as_float(Fraction((v << bits) - isqrt(root_arg * j), den), f"defect d_{j}")
        raise


def d_sequence(E: Ellipsoid, j0: int, j1: int) -> list[DkPoint]:
    """Defect samples d_j = c_j - sqrt(vol * 2j) for j in [j0, j1]: exact
    c_j and the scaled_defects of the block. Tied c_j share one Fraction."""
    if j0 > j1:
        raise ValueError("d_sequence requires j0 <= j1")
    den = E.den
    vals = scaled_spectrum(E, j0, j1)
    as_float(Fraction(vals[-1], den), "capacity")  # so every v / den below it fits
    exact = map_distinct(lambda v: (Fraction(v, den), max(1.0, v / den) * DEFECT_REL_ERR), vals)
    ds = scaled_defects(E, j0, vals)
    return [DkPoint(j, c, d, e) for j, (c, e), d in zip(range(j0, j1 + 1), exact, ds)]


def weyl_count(E: Ellipsoid, R) -> WeylSample:
    """Counting function sample at radius R: lattice classes and distinct values."""
    R = as_rational(R)
    if R.numerator < 0:  # a Fraction's denominator is positive
        raise ValueError("weyl_count requires R >= 0")
    return WeylSample(
        R=R,
        count_classes=count_leq(E, R),
        count_values=distinct_values_leq(E, R),
    )


def _line_fit(pts: list[tuple[float, float]]) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the
    points (x, y): centred two-pass math.fsum sums about the rounded means, less
    the products of the deviation sums, so narrow x ranges (16 indices near
    1e11) stay exact to rounding. Equal xs give a nan slope."""
    n = len(pts)
    x0, y0 = (math.fsum(c) / n for c in zip(*pts))
    dx, dy = [x - x0 for x, _ in pts], [y - y0 for _, y in pts]
    sx, sy = math.fsum(dx), math.fsum(dy)
    sxx = math.fsum(u * u for u in dx) - sx * sx / n
    sxy = math.fsum(u * v for u, v in zip(dx, dy)) - sx * sy / n
    slope = sxy / sxx if sxx else math.nan
    return slope, y0 - slope * x0


def weyl_fit(E: Ellipsoid, R_list) -> FitResult:
    """Least-squares leading coefficient C of N(R) ~ C*R^2 over the samples
    (classes convention), exact then rounded, and the remainder exponent: the
    fsum line fit of log|N - C*R^2| > 1e-9 on log R > 0 (0.0 if under two are).

    In integers over one denominator, R_i = P_i/L: the checks compare the P_i,
    C = L^2 S/D with S = sum N_i P_i^2 and D = sum P_i^4, and the residuals are
    e_i/D, e_i = N_i D - P_i^2 S. Only C and the logs are floats."""
    R_list = [as_rational(R) for R in R_list]
    if len(R_list) < 3:
        raise ValueError("weyl_fit requires at least 3 samples")
    L = math.lcm(*(R.denominator for R in R_list))
    P = [R.numerator * (L // R.denominator) for R in R_list]
    if any(p >= q for p, q in zip(P, P[1:])):
        raise ValueError("weyl_fit requires strictly increasing R")
    if P[0] < 0:
        raise ValueError("weyl_fit requires R >= 0")
    N, sq = [count_leq(E, r) for r in R_list], [p * p for p in P]
    S, D = sum(n * s for n, s in zip(N, sq)), sum(s * s for s in sq)
    coefficient = as_float(Fraction(S * L * L, D), "leading coefficient")
    resid = [n * D - s * S for n, s in zip(N, sq)]
    cut_p, cut_q = (1e-9).as_integer_ratio()  # |e|/D > 1e-9 exactly, as a Fraction compares
    kept = [(rational_log(r), rational_log(Fraction(abs(e), D)))
            for r, p, e in zip(R_list, P, resid) if p > 0 and abs(e) * cut_q > cut_p * D]
    exponent = _line_fit(kept)[0] if len(kept) >= 2 else 0.0
    return FitResult(coefficient, exponent)


def _window_sups(js, ds, window_count: int) -> list[tuple[int, float]]:
    if not js:
        raise ValueError("window_sups requires nonempty input")
    if window_count < 1:
        raise ValueError("window_count must be positive")
    pts = [(j, d) for j, d in zip(js, ds) if j >= 1]
    if not pts:
        raise ValueError("window_sups requires points with j >= 1")
    j_lo, j_hi = as_float(pts[0][0], "index"), as_float(pts[-1][0] + 1, "index")
    ratio = (j_hi / j_lo) ** (1.0 / as_float(window_count, "window_count"))

    def edge(w: int) -> float:  # nondecreasing in w, and above every j at window_count
        return j_hi if w == window_count else j_lo * ratio**w

    sups = []
    w, upper = 0, edge(1)
    best_j, best = None, -1.0
    for j, d in pts:
        if j >= upper:
            if best_j is not None:
                sups.append((best_j, best))
            best_j, best = None, -1.0
            lo, hi = w + 1, window_count - 1  # bisect for the first window past w holding j
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if j >= edge(mid + 1) else (lo, mid)
            w, upper = lo, edge(lo + 1)
        if abs(d) > best:
            best_j, best = j, abs(d)
    if best_j is not None:
        sups.append((best_j, best))
    return sups


def window_sups(points: list[DkPoint], window_count: int) -> list[tuple[int, float]]:
    """Per-window sup statistics: (argmax index, max |d|) over geometric
    windows partitioning the index range of the points."""
    return _window_sups([p.j for p in points], [p.d for p in points], window_count)


def column_exponent_fit(js, ds, window_count: int) -> FitResult:
    """Growth exponent of |d_j| from the columns js (strictly increasing) and
    ds: the centred fsum line fit of log per-window sup on log of the index
    attaining it. Flat (O(1)) sequences fit an exponent near zero; a planted
    power law j^p is recovered exactly. A degenerate window set can give
    non-finite numbers (an overflowing coefficient is inf), with no error."""
    if not js:
        raise ValueError("exponent_fit requires nonempty input")
    if any(j >= k for j, k in zip(js, js[1:])):
        raise ValueError("exponent_fit requires strictly increasing j")
    sups = [(j, s) for j, s in _window_sups(js, ds, window_count) if s > 1e-15]
    if len(sups) < 2:
        raise ValueError("exponent_fit requires at least two usable windows")
    slope, intercept = _line_fit([(math.log(j), math.log(s)) for j, s in sups])
    try:
        coefficient = math.exp(intercept)
    except OverflowError:
        coefficient = math.inf
    return FitResult(coefficient, slope)


def exponent_fit(points: list[DkPoint], window_count: int) -> FitResult:
    """column_exponent_fit over the j and d of the points."""
    return column_exponent_fit([p.j for p in points], [p.d for p in points], window_count)
