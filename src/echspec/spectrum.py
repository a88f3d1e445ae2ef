"""Exact computation of the ellipsoid action spectrum.

The spectrum of E(a, b) is the sorted multiset {m*a + n*b : m, n >= 0}.
After clearing denominators every spectrum value is an integer, so
counting, k-th value extraction, and range extraction are all done in
exact integer arithmetic: a Euclidean floor-sum kernel gives lattice
counts under a line in O(log) integer steps, and capacities come out of
an exact integer search on the scaled value guided by the count's area
model (2-3 counts per value from k = 10^11 on an approximant, at most about
twice a bisection's). An index window k0..k1 costs two such searches, for
its end values v0 and v1, plus min(v1/max(A, B), (v1 - v0)/gcd(A, B))
steps: walking the lattice lines up to v1, or counting the multiplicity
of each value in [v0, v1]. The Fraction edge converts once per distinct
value (map_distinct): u Fractions for n rows, u = 63 for 20,000 rows of
E(2, 3) and 1,413 for E(1, 1) 1..10^6. as_float is the one exact-to-float
edge: past the float range it raises ValueError naming the quantity.
"""

from __future__ import annotations

import math
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
        if float(x) >= 2.0**-1022:  # the least normal float
            return math.log(x)
    except OverflowError:
        pass
    return math.log(x.numerator) - math.log(x.denominator)


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
        if a <= 0 or b <= 0:
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


def _count_scaled(A: int, B: int, v: int) -> int:
    """#{(m, n) in Z>=0^2 : m*A + n*B <= v} for integer v."""
    if v < 0:
        return 0
    M = v // A
    # sum over m of floor((v - m*A)/B) + 1, reversed so the slope is +A
    return floor_sum(M + 1, A, v - M * A, B) + M + 1


def _scaled_threshold(E: Ellipsoid, t: Fraction) -> int:
    """Largest integer v with v/den <= t; m*A + n*B <= t*den iff m*A + n*B <= v."""
    return (t.numerator * E.den) // t.denominator


def count_leq(E: Ellipsoid, t) -> int:
    """Number of lattice points (m, n) >= 0 with m*a + n*b <= t, exactly."""
    t = as_rational(t)
    return _count_scaled(E.A, E.B, _scaled_threshold(E, t))


def _nth_scaled(E: Ellipsoid, k: int) -> int:
    """Scaled value of the k-th (0-indexed, with multiplicity) spectrum element."""
    if k < 0:
        raise ValueError("index k must be nonnegative")
    # The unit squares of the lattice points under v cover the triangle under
    # v and fit in the triangle under v + A + B, so v^2 <= 2AB*count(v) and
    # count(v) <= (v + A + B)^2/(2AB): as count(v_k - 1) <= k, the answer
    # lies in [r - A - B, r + 1], and count(lo - 1) < t <= count(hi) holds.
    A, B, t = E.A, E.B, k + 1
    AB, h = A * B, (A + B) // 2
    r = math.isqrt(2 * AB * t)
    lo, hi = max(0, r - A - B), r + 1
    # Probe where the model count(v) ~ ((v + h)^2 - h^2)/(2AB) reaches t - 1/2,
    # then step along its slope (v + h)/AB. Any probe in [lo, hi) keeps the
    # answer exact; bisect instead when the probe is outside, or when bisection
    # could not then finish within 2*bit_length of the first width in all.
    budget = 2 * (hi - lo).bit_length()
    v = math.isqrt(AB * (2 * t - 1) + h * h) - h
    while lo < hi:
        if not lo <= v < hi or budget <= (hi - lo).bit_length():
            v = (lo + hi) // 2
        budget -= 1
        c = _count_scaled(A, B, v)
        if c >= t:
            hi = v
        else:
            lo = v + 1
        v += (2 * (t - c) - 1) * AB // (2 * (v + h)) or 1
    return lo


def nth_capacity(E: Ellipsoid, k: int) -> Fraction:
    """The k-th element (0-indexed, with multiplicity) of the sorted multiset
    {m*a + n*b}. Exact search on the scaled integer value, never on floats."""
    return Fraction(_nth_scaled(E, k), E.den)


def scaled_spectrum(E: Ellipsoid, k0: int, k1: int) -> list[int]:
    """Scaled spectrum values v_k = den * c_k for indices k0..k1 inclusive,
    as plain Python ints; the integer currency the rest of the package
    builds on. Cost: two searches for v0 = v_k0 and v1 = v_k1, then
    min(v1/max(A, B), (v1 - v0)/g) steps with g = gcd(A, B)."""
    if k0 < 0:
        raise ValueError("index k0 must be nonnegative")
    if k0 > k1:
        raise ValueError("scaled_spectrum requires k0 <= k1")
    v0 = _nth_scaled(E, k0)
    v1 = _nth_scaled(E, k1)
    skip = k0 - _count_scaled(E.A, E.B, v0 - 1)  # copies of v0 before index k0
    n = k1 - k0 + 1
    small, big = sorted((E.A, E.B))
    g = math.gcd(small, big)
    vals: list[int] = []
    if v1 // big <= (v1 - v0) // g:
        # Walk the lines base = 0, big, 2*big, ... <= v1; stepping by the
        # larger generator makes the loop count the same in either axis order.
        for base in range(0, v1 + 1, big):
            n_lo = max(0, -((base - v0) // small))  # ceil((v0 - base)/small)
            vals.extend(range(base + n_lo * small, v1 + 1, small))
        vals.sort()
        return vals[skip : skip + n]
    # Count each multiple w*g of g in [v0, v1]. With A' = small/g and
    # B' = big/g coprime, m*A' + n*B' = w forces m = w/A' mod B'; the least
    # such m leaves r = w - m*A', and there are r // (A'*B') + 1 solutions
    # if r >= 0, none otherwise. Only v0 is cut at the front, only v1 at the end.
    Ap, Bp = small // g, big // g
    inv, ApBp = pow(Ap, -1, Bp), Ap * Bp
    for w in range(v0 // g, v1 // g + 1):
        r = w - (w * inv % Bp) * Ap
        if r >= 0:
            vals += [w * g] * min(r // ApBp + 1 - skip, n - len(vals))
            skip = 0
    return vals


def map_distinct(make, values: list[int]) -> list:
    """[make(v) for v in values]; make runs once per run of equal values."""
    last = made = None
    return [made if v == last else (made := make(last := v)) for v in values]


def spectrum_range(E: Ellipsoid, k0: int, k1: int) -> list[tuple[int, Fraction]]:
    """Spectrum values for the index block [k0, k1], element-wise equal to
    repeated nth_capacity, at the cost of scaled_spectrum: two searches
    plus min(v1/max(A, B), (v1 - v0)/gcd(A, B)) steps. Ties share a Fraction."""
    cs = map_distinct(lambda v: Fraction(v, E.den), scaled_spectrum(E, k0, k1))
    return list(zip(range(k0, k1 + 1), cs))


def distinct_values_leq(E: Ellipsoid, t) -> int:
    """Number of distinct values of m*a + n*b in [0, t].

    All values are multiples of g = gcd(A, B); each residue class r mod A/g
    of t/g has a unique minimal representation, which reduces the count to
    one floor-sum."""
    t = as_rational(t)
    T = _scaled_threshold(E, t)
    if T < 0:
        return 0
    g = math.gcd(E.A, E.B)
    X = T // g
    Ap, Bp = E.A // g, E.B // g
    if Ap > Bp:
        Ap, Bp = Bp, Ap
    M = min(Ap - 1, X // Bp)
    return floor_sum(M + 1, Bp, X - M * Bp, Ap) + M + 1
