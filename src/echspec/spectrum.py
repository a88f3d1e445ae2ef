"""Exact computation of the ellipsoid action spectrum.

The spectrum of E(a, b) is the sorted multiset {m*a + n*b : m, n >= 0}.
After clearing denominators every spectrum value is an integer, so
counting, k-th value extraction, and range extraction are all done in
exact integer arithmetic: a Euclidean floor-sum kernel gives lattice
counts under a line in O(log) integer steps, and capacities come out of
an exact integer search on the scaled value guided by the count's area
model, which ends in one Euclidean floor query once a count lands on k + 1
(2-3 passes per value on average at any depth on an approximant, at most
about twice a bisection's). An index window k0..k1 costs one such search,
for v0 = v_k0, then either a second, for v1, and a walk of the lattice lines
up to v1 (a wide window), or a walk from each value straight to the next by
Slater's three-gap theorem, O(1) per distinct value (a narrow one, at any
depth and any denominator). The Fraction edge converts once
per distinct value (map_distinct): u Fractions for n rows, u = 63 for 20,000
rows of E(2, 3) and 1,413 for E(1, 1) 1..10^6. as_float is the one
exact-to-float edge: past the float range it raises ValueError naming the
quantity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction


class EchspecError(Exception):
    """Base class of every echspec error other than an invalid argument,
    which raises ValueError or TypeError, and a value past the float range,
    which raises ValueError."""


class NonConvergent(EchspecError):
    """Quadrature or bracketing failed to stabilize."""


def as_rational(x) -> Fraction:
    """Coerce to an exact rational; floats are rejected, never rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rational_log(x: Fraction) -> float:
    """log of a positive rational; outside the normal float range, from its integer parts."""
    try:
        f = x.numerator / x.denominator  # float(x), which math.log(x) would take
    except OverflowError:
        f = 0.0  # past the float range: from the integer parts, as below it
    return math.log(f) if f >= 2.0**-1022 else math.log(x.numerator) - math.log(x.denominator)


def as_float(x, name: str) -> float:
    """float(x), or past the float range a ValueError naming the quantity."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} exp({rational_log(abs(x)):.6g}) overflows a float") from None


@dataclass(frozen=True)
class Ellipsoid:
    """E(a, b) with exact rational axes, and their integer form a = A/den,
    b = B/den with den the lcm of the denominators: the one currency of the
    exact algorithms. A, B and den take no part in repr, == or hash."""

    a: Fraction
    b: Fraction
    A: int = field(init=False, repr=False, compare=False)
    B: int = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __init__(self, a, b):
        a, b = as_rational(a), as_rational(b)
        if a.numerator <= 0 or b.numerator <= 0:  # a Fraction's denominator is positive
            raise ValueError("ellipsoid axes must be positive")
        den = math.lcm(a.denominator, b.denominator)
        A, B = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        for name, value in (("a", a), ("b", b), ("A", A), ("B", B), ("den", den)):
            object.__setattr__(self, name, value)

    def safe_coefficient_bound(self) -> int:
        """Largest lattice coefficient below which a high-denominator rational
        approximant of an irrational axis ratio cannot create spurious ties:
        m*A + n*B collisions with m, n below max(denominator) would force a
        relation the approximant does not satisfy."""
        return max(self.a.denominator, self.b.denominator)


def floor_sum(n: int, p: int, q: int, m: int) -> int:
    """Sum of floor((p*i + q)/m) for i = 0..n-1, by Euclidean swap/modulo
    reduction in O(log max(p, m)) integer steps."""
    if n < 0 or p < 0 or q < 0 or m < 1:
        raise ValueError("floor_sum requires n, p, q >= 0 and m >= 1")
    ans = 0
    while True:
        if p >= m:
            ans += (n - 1) * n // 2 * (p // m)
            p %= m
        if q >= m:
            ans += n * (q // m)
            q %= m
        y_max = p * n + q
        if y_max < m:
            return ans
        n, q, m, p = y_max // m, y_max % m, p, m


def _min_mod_linear(n: int, m: int, a: int, b: int) -> int:
    """min of (a*x + b) mod m over 0 <= x < n, for n >= 1 and 0 <= a, b < m,
    by the Euclidean reduction floor_sum makes, as a loop. Rising by a <= m/2,
    the least values follow the wraps past m; falling by m - a < m/2, they
    precede the wraps below 0, or end the run. Either way they are again
    linear mod a or m - a, so m at least halves in each pass."""
    best = b
    while a:
        if 2 * a <= m:
            n, m, a, b = (a * (n - 1) + b) // m, a, -m % a, (b - m) % a
        else:
            best = min(best, (a * (n - 1) + b) % m)
            c = m - a
            n, m, a, b = (c * (n - 1) + m - 1 - b) // m, c, m % c, b % c
        if not n:
            return best
        best = min(best, b)
    return best


def _gaps(a: int, m: int, L: int) -> tuple[int, int, int, int]:
    """(t1, d1, t2, d2) for coprime 0 < a < m and 1 <= L < m - 1: t1 is the
    least t >= 1 with t*a mod m = d1 in [1, L], and t2 the least with
    t*a mod m = m - d2 in [m - L, m). A Euclidean descent on the two
    one-sided residues: the larger side takes away the other as often as it
    may before it drops to L or below, or below the other."""
    tu, xu, td, xd = 1, a, 1, m - a
    while xu > L or xd > L:
        if xu > xd:
            k = min((xu - 1) // xd, (xu - L - 1) // xd + 1)
            tu, xu = tu + k * td, xu - k * xd
        else:
            k = min((xd - 1) // xu, (xd - L - 1) // xu + 1)
            td, xd = td + k * tu, xd - k * xu
    return tu, xu, td, xd


def _count_scaled(A: int, B: int, v: int) -> int:
    """#{(m, n) in Z>=0^2 : m*A + n*B <= v} for integer v."""
    if v < 0:
        return 0
    M = v // A
    # sum over m of floor((v - m*A)/B) + 1, reversed so the slope is +A
    return floor_sum(M + 1, A, v - M * A, B) + M + 1


def _floor_value(A: int, B: int, v: int) -> int:
    """Largest m*A + n*B <= v for integer v >= 0: v less the least
    (v - m*A) mod B over 0 <= m <= v//A."""
    return v - _min_mod_linear(v // A + 1, B, -A % B, v % B)


def _scaled_threshold(E: Ellipsoid, t: Fraction) -> int:
    """Largest integer v with v/den <= t; m*A + n*B <= t*den iff m*A + n*B <= v."""
    return (t.numerator * E.den) // t.denominator


def count_leq(E: Ellipsoid, t) -> int:
    """Number of lattice points (m, n) >= 0 with m*a + n*b <= t, exactly."""
    t = as_rational(t)
    return _count_scaled(E.A, E.B, _scaled_threshold(E, t))


def _nth_scaled(E: Ellipsoid, k: int) -> tuple[int, int]:
    """Scaled value v of the k-th (0-indexed, with multiplicity) spectrum
    element, and count(v) where the search learns it for free, else 0.

    Cost in Euclidean passes (counts, then at most one floor query): on the
    golden approximant E(1, 832040/514229), 2.0-3.2 per value on average in
    each decade from k = 10^3 to 10^15, at most 6. Below the larger axis the
    values are 0, A, 2A, ... once each (A the smaller axis), so there
    v_k = k*A takes no pass: on E(1, 10^12) for every k < 10^12. Where the
    area model is poor it still bisects: about 30 counts on
    E(1, 1000000007/1000000000); never more than 2 ceil(log2(A + B + 1)) + 2."""
    if k < 0:
        raise ValueError("index k must be nonnegative")
    A, B, t = E.A, E.B, k + 1
    small, big = sorted((A, B))
    if k * small < big:
        return k * small, t
    # The unit squares of the lattice points under v cover the triangle under
    # v and fit in the triangle under v + A + B, so v^2 <= 2AB*count(v) and
    # count(v) <= (v + A + B)^2/(2AB): as count(v_k - 1) <= k, the answer
    # lies in [r - A - B, r + 1], and count(lo - 1) < t <= count(hi) holds.
    AB, h = A * B, (A + B) // 2
    r = math.isqrt(2 * AB * t)
    lo, hi = max(0, r - A - B), r + 1
    # Probe where the model count(v) ~ ((v + h)^2 - h^2)/(2AB) reaches t - 1/2,
    # then step along its slope (v + h)/AB. Any probe in [lo, hi) keeps the
    # answer exact; bisect instead when the probe is outside, or when bisection
    # could not then finish within 2*bit_length of the first width in all.
    # A count of exactly t at v > lo ends the search: v_k is then the largest
    # lattice value <= v (axes sorted, so both axis orders do the same work),
    # and no lattice value lies between the two, so count(v_k) = t.
    budget = 2 * (hi - lo).bit_length()
    v = math.isqrt(AB * (2 * t - 1) + h * h) - h
    while lo < hi:
        if not lo <= v < hi or budget <= (hi - lo).bit_length():
            v = (lo + hi) // 2
        budget -= 1
        c = _count_scaled(A, B, v)
        if c == t and lo < v:
            return _floor_value(big, small, v), t
        if c >= t:
            hi = v
        else:
            lo = v + 1
        v += (2 * (t - c) - 1) * AB // (2 * (v + h)) or 1
    return lo, 0


def nth_capacity(E: Ellipsoid, k: int) -> Fraction:
    """The k-th element (0-indexed, with multiplicity) of the sorted multiset
    {m*a + n*b}. Exact search on the scaled integer value, never on floats."""
    return Fraction(_nth_scaled(E, k)[0], E.den)


def scaled_spectrum(E: Ellipsoid, k0: int, k1: int) -> list[int]:
    """Scaled spectrum values v_k = den * c_k for indices k0..k1 inclusive,
    as plain Python ints; the integer currency the rest of the package
    builds on. Cost: one search for v0 = v_k0, which also yields the copies
    of v0 unless it ended by bisection (then one count). A window whose second
    search, for v1 = v_k1, and whose rows and lattice lines up to about v1
    cost less to find, build and sort than a step per distinct value in
    [v0, v1] walks those lines. Any other walks from value to value:
    O(1) per distinct value plus an O(log(A + B)) descent each time it passes
    a multiple of min(A, B), so a narrow window costs the same at any depth
    and any denominator."""
    if k0 < 0:
        raise ValueError("index k0 must be nonnegative")
    if k0 > k1:
        raise ValueError("scaled_spectrum requires k0 <= k1")
    v0, c0 = _nth_scaled(E, k0)
    first = (c0 or _count_scaled(E.A, E.B, v0)) - k0  # copies of v0 from index k0 on
    n = k1 - k0 + 1
    small, big = sorted((E.A, E.B))
    g = math.gcd(small, big)
    Ap, Bp = small // g, big // g
    r1 = math.isqrt(2 * small * big * (k1 + 1)) + 1  # v1 <= r1, as in _nth_scaled
    # In rows: the line walk makes one search, for v1, and sorts about n rows
    # on r1 // big lines; the value walk steps once per distinct value, at most
    # (r1 - v0) // g or ceil(n / per) times. A search costs 64 rows, a line 6,
    # a step 12 (3-12 us; 0.5; 1.0-1.7; against 0.07-0.1 us a row, 2 vCPUs).
    per = max(1, (v0 // g + Ap) // (Ap * Bp))  # least copies of a value >= v0
    step = 10 if v0 > g * (Ap * Bp - Ap - Bp) else 12  # past Frobenius: w + 1, 0.85x
    if 64 + 6 * (r1 // big) + n <= step * min((r1 - v0) // g, -(-n // per)):
        # Walk the lines base = 0, big, 2*big, ... <= v1; stepping by the
        # larger generator makes the loop count the same in either axis order.
        v1 = v0 if n <= first else _nth_scaled(E, k1)[0]
        vals: list[int] = []
        for base in range(0, v1 + 1, big):
            n_lo = max(0, -((base - v0) // small))  # ceil((v0 - base)/small)
            vals.extend(range(base + n_lo * small, v1 + 1, small))
        vals.sort()
        skip = bisect_right(vals, v0) - first  # copies of v0 before index k0
        return vals[skip : skip + n]
    # Walk from value to value. With A' = small/g and B' = big/g coprime, a
    # multiple w*g of g is a value iff the least m with m*A' + n*B' = w,
    # its position p = w/A' mod B', is at most L = w // A'; it then has
    # (w - p*A') // (A'*B') + 1 copies. Up to the next multiple (L + 1)*A',
    # itself a value (of position L + 1 < B'), the positions of w + 1, w + 2,
    # ... turn by inv = 1/A' mod B', so by Slater's three-gap theorem (N. B.
    # Slater, Proc. Cambridge Philos. Soc. 63, 1967) the next value lies t1,
    # t2 or t1 + t2 ahead; _gaps finds them once per L.
    inv, ApBp = pow(Ap, -1, Bp), Ap * Bp
    w = v0 // g
    p, gap_L = w * inv % Bp, 0
    vals = [v0] * min(first, n)
    while len(vals) < n:
        q, L = (p + inv) % Bp, w // Ap
        if q <= (w + 1) // Ap:  # w + 1 is a value, as always once L >= B' - 1
            t = 1
        elif not L:  # w = 0, and A' comes next
            t, q = Ap, 1
        else:
            if gap_L != L:
                gap_L, (t1, d1, t2, d2) = L, _gaps(inv, Bp, L)
            t, q = (t1, p + d1) if p + d1 <= L else (t2, p - d2) if p >= d2 else (t1 + t2, p + d1 - d2)
            t, q = min((t, q), ((L + 1) * Ap - w, L + 1))  # at most to (L + 1)*A'
        w, p = w + t, q
        vals += [w * g] * min((w - p * Ap) // ApBp + 1, n - len(vals))
    return vals


def map_distinct(make, values: list[int]) -> list:
    """[make(v) for v in values]; make runs once per run of equal values."""
    last = made = None
    return [made if v == last else (made := make(last := v)) for v in values]


def spectrum_range(E: Ellipsoid, k0: int, k1: int) -> list[tuple[int, Fraction]]:
    """Spectrum values for the index block [k0, k1], element-wise equal to
    repeated nth_capacity, at the cost of scaled_spectrum: one search and
    O(1) per distinct value for a narrow block, two searches and a walk of
    the v1/max(A, B) lattice lines for a wide one. Ties share a Fraction."""
    cs = map_distinct(lambda v: Fraction(v, E.den), scaled_spectrum(E, k0, k1))
    return list(zip(range(k0, k1 + 1), cs))


def distinct_values_leq(E: Ellipsoid, t) -> int:
    """Number of distinct values of m*a + n*b in [0, t].

    With g = gcd(A, B), each value is m*A + n*B for exactly one pair with
    n < A/g, and the pairs with n >= A/g are the whole lattice shifted by
    lcm(A, B): the count is the lattice count less its shifted copy."""
    T = _scaled_threshold(E, as_rational(t))
    small, big = sorted((E.A, E.B))  # one call order for E(a, b) and E(b, a)
    return _count_scaled(big, small, T) - _count_scaled(big, small, T - math.lcm(small, big))
