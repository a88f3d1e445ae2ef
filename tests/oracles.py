"""Independent brute-force oracles used across the test suite.

Everything here enumerates or sums naively, or evaluates closed forms in
exact or mpmath arithmetic; none of it shares code with the fast paths it
checks. It uses three package functions: the exact bernoulli;
scaled_spectrum, which direct_zeta_sum sums over to check the zeta
functions (tests/test_spectrum.py checks it against brute_spectrum); and
count_leq, the exact lattice count that bisect_nth_capacity searches over
(checked against brute_count_leq).
"""

import math
from fractions import Fraction
from math import factorial, gcd

from echspec import Ellipsoid, ZetaConvention, bernoulli, count_leq, scaled_spectrum


def naive_floor_sum(n, p, q, m):
    return sum((p * i + q) // m for i in range(n))


def brute_spectrum(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """First `count` elements of the sorted multiset {m*a + n*b}, by explicit
    enumeration under a growing cutoff."""
    cutoff = max(a, b)
    while True:
        vals = []
        m = 0
        while m * a <= cutoff:
            n = 0
            while m * a + n * b <= cutoff:
                vals.append(m * a + n * b)
                n += 1
            m += 1
        if len(vals) >= count:
            vals.sort()
            return vals[:count]
        cutoff *= 2


def bisect_nth_capacity(E: Ellipsoid, k: int) -> Fraction:
    """The k-th spectrum value (0-indexed, with multiplicity) by plain bisection
    over the public count_leq: the least v = den * c in r - A - B .. r + A + B,
    r = isqrt(2AB(k + 1)), with at least k + 1 lattice values <= v/den."""
    S = E
    r = math.isqrt(2 * S.A * S.B * (k + 1))
    lo, hi = max(0, r - S.A - S.B), r + S.A + S.B
    while lo < hi:
        mid = (lo + hi) // 2
        if count_leq(E, Fraction(mid, S.den)) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, S.den)


def brute_count_leq(a: Fraction, b: Fraction, t: Fraction) -> int:
    if t < 0:
        return 0
    cnt = 0
    m = 0
    while m * a <= t:
        cnt += int((t - m * a) / b) + 1
        m += 1
    return cnt


def brute_distinct_leq(a: Fraction, b: Fraction, t: Fraction) -> int:
    if t < 0:
        return 0
    vals = set()
    m = 0
    while m * a <= t:
        n = 0
        while m * a + n * b <= t:
            vals.add(m * a + n * b)
            n += 1
        m += 1
    return len(vals)


def double_sum_barnes(
    s: complex, w: float, a: float, b: float, cutoff: float = 2000.0
) -> tuple[complex, float]:
    """Direct double summation of the Barnes series over m*a + n*b <= cutoff,
    plus the integral estimate of the remaining tail. Returns (value, tol)
    where tol bounds the error of the estimate; trustworthy for Re(s) > 2.5."""
    import numpy as np

    sigma = s.real
    assert sigma > 2.5
    total = 0.0 + 0.0j
    m = 0
    while m * a <= cutoff:
        n_hi = int((cutoff - m * a) / b)
        v = w + m * a + b * np.arange(n_hi + 1)
        total += complex(np.sum(v ** (-complex(s))))
        m += 1
    # lattice-count density t/(ab) + (1/a + 1/b)/2 integrated against (w+t)^{-s}
    V = w + cutoff
    tail = (1.0 / (a * b)) * (
        V ** (2 - s) / (s - 2) - w * V ** (1 - s) / (s - 1)
    ) + 0.5 * (1.0 / a + 1.0 / b) * V ** (1 - s) / (s - 1)
    tol = 10.0 * V ** (1 - sigma) / min(a, b) ** 2
    return total + tail, tol


def semigroup_gaps(p: int, q: int) -> list[int]:
    """Positive integers outside the numerical semigroup <p, q> (coprime p, q),
    by enumerating every i*p + j*q below p*q, the bound past the Frobenius
    number p*q - p - q."""
    reachable = {i * p + j * q for i in range(q + 1) for j in range(p + 1)}
    return [t for t in range(1, p * q) if t not in reachable]


def distinct_zeta_gaps(s: complex, a: Fraction, b: Fraction) -> complex:
    """Continued sum of v^-s over the distinct nonzero values v of m*a + n*b:
    with A, B the axes over their common denominator den and g = gcd(A, B),
    the values are step*t for t in <A/g, B/g> and step = g/den, so the sum is
    step^-s [zeta(s) - sum over the finitely many gaps t of t^-s]."""
    import mpmath

    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    A, B = int(a * den), int(b * den)
    g = gcd(A, B)
    with mpmath.workdps(40):  # zeta(s) and the gap sum cancel to many digits
        step = mpmath.mpf(g) / den
        s = mpmath.mpc(s)
        gaps = mpmath.fsum(mpmath.mpf(t) ** (-s) for t in semigroup_gaps(A // g, B // g))
        return complex(step ** (-s) * (mpmath.zeta(s) - gaps))


def interior_zeta_hurwitz(s: complex, a: Fraction, b: Fraction) -> complex:
    """Continued sum over m, n >= 1 of (m*a + n*b)^-s, reduced to Hurwitz
    values for b/a = p/q in lowest terms. Then m*a + n*b = (a/q)(m*q + n*p);
    r(k), the number of m, n >= 0 with m*q + n*p = k, obeys r(k + pq) = r(k) + 1
    (the admissible m form one residue class mod p in [0, k/q]). Shifting
    m, n >= 1 down to m, n >= 0 adds p + q to k, so with h_i = (i + p + q)/(pq)
    the sum is (a*p)^-s sum_{i<pq} [zeta(s-1, h_i) + (r(i) - h_i) zeta(s, h_i)]."""
    import mpmath

    with mpmath.workdps(40):
        return complex(_interior_zeta_mp(mpmath.mpc(s), a, b))


def _interior_zeta_mp(s, a: Fraction, b: Fraction):
    """interior_zeta_hurwitz at the working precision, as an mpmath number."""
    import mpmath

    ratio = b / a
    p, q = ratio.numerator, ratio.denominator
    r = [0] * (p * q)
    for m in range(p):
        for n in range(q):
            if m * q + n * p < p * q:
                r[m * q + n * p] += 1
    total = mpmath.mpf(0)
    for i in range(p * q):
        h = mpmath.mpf(i + p + q) / (p * q)
        total += mpmath.zeta(s - 1, h) + (r[i] - h) * mpmath.zeta(s, h)
    return (mpmath.mpf(a.numerator) / a.denominator * p) ** (-s) * total


def laurent_constant(s0: int, a: Fraction, b: Fraction, conv: ZetaConvention) -> float:
    """Constant term of the INTERIOR or FULL spectrum zeta at its simple pole
    s0 = 1 or 2, as the symmetric limit (f(s0 + h) + f(s0 - h)) / 2, whose
    error is O(h^2) = 1e-40; at 60 digits the pole terms, of size 1/h = 1e20,
    cancel and leave 40, of which the float keeps 17. FULL adds the axis
    terms (a^-s + b^-s) zeta(s) of interior_zeta_hurwitz."""
    import mpmath

    with mpmath.workdps(60):
        h = mpmath.mpf("1e-20")
        fa, fb = (mpmath.mpf(x.numerator) / x.denominator for x in (a, b))

        def f(s):
            v = _interior_zeta_mp(s, a, b)
            return v if conv is ZetaConvention.INTERIOR else v + (fa**-s + fb**-s) * mpmath.zeta(s)

        return float((f(s0 + h) + f(s0 - h)) / 2)


def direct_zeta_sum(
    E: Ellipsoid,
    s,
    j_max: int,
    conv: ZetaConvention = ZetaConvention.FULL,
    margin: float = 0.25,
) -> tuple[complex, float]:
    """Partial sum of c_j^{-s} over the actual spectrum plus a rigorous tail
    bound from c_j >= sqrt(ab*j) - (a+b)/2 and integral comparison.

    The defining-series oracle for the continued evaluations; requires
    Re(s) > 2 + margin.
    """
    s = complex(s)
    if j_max < 1:
        raise ValueError("j_max must be positive")
    sigma = s.real
    if sigma <= 2 + margin:
        raise ValueError(f"direct_zeta_sum requires Re(s) > {2 + margin}")
    S = E
    vals = scaled_spectrum(S, 0, j_max)
    den = float(S.den)
    terms = [(v / den) ** (-s) for v in vals if v > 0]
    total = _pairwise_sum(terms)
    a, b = float(E.a), float(E.b)
    alpha = math.sqrt(a * b)
    beta = 0.5 * (a + b)
    vJ = alpha * math.sqrt(j_max + 1) - beta
    if vJ <= 0:
        raise ValueError("j_max too small for the tail bound to apply")
    tail = (2.0 / alpha**2) * (
        vJ ** (2 - sigma) / (sigma - 2) + beta * vJ ** (1 - sigma) / (sigma - 1)
    )
    if conv is ZetaConvention.FULL:
        return total, tail
    c_max = vals[-1] / den
    if conv is ZetaConvention.INTERIOR:
        for axis in (a, b):
            m_hi = int(c_max / axis)
            total -= _pairwise_sum([(m * axis) ** (-s) for m in range(1, m_hi + 1)])
        return total, tail
    # DISTINCT: drop repeated scaled values
    terms = [(v / den) ** (-s) for u, v in zip([None] + vals[:-1], vals) if v > 0 and v != u]
    return _pairwise_sum(terms), tail


def _pairwise_sum(terms: list[complex]) -> complex:
    """Deterministic pairwise reduction; stable independent of chunking."""
    if not terms:
        return 0.0 + 0.0j
    work = list(terms)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def barnes_zeta_at_negative_integer(k: int, w: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """Exact zeta_2(-k, w | a, b) = k!/(k+2)! B_{2,k+2}(w | a, b), for k >= 0,
    where t^2 e^{wt} / ((e^{at} - 1)(e^{bt} - 1)) = sum_n B_{2,n}(w) t^n/n!.
    Each factor t/(e^{ct} - 1) is (1/c) sum_i B_i (ct)^i/i!, so B_{2,n} is the
    trinomial sum of B_i a^i B_j b^j w^l n!/(i! j! l!) over i + j + l = n,
    over ab."""
    n = k + 2
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            l = n - i - j
            total += (factorial(n) // (factorial(i) * factorial(j) * factorial(l))
                      * bernoulli(i) * a**i * bernoulli(j) * b**j * w**l)
    return Fraction(factorial(k), factorial(k + 2)) * total / (a * b)


def ech_zeta_at_negative_integer(k: int, a: Fraction, b: Fraction, conv: ZetaConvention) -> Fraction:
    """Exact INTERIOR or FULL spectrum zeta of E(a, b) at s = -k: INTERIOR is
    zeta_2(-k, a + b | a, b), and FULL adds the two axes, (a^k + b^k) zeta(-k)
    with zeta(-k) = (-1)^k B_{k+1}/(k + 1)."""
    interior = barnes_zeta_at_negative_integer(k, a + b, a, b)
    if conv is ZetaConvention.INTERIOR:
        return interior
    return interior + (a**k + b**k) * (-1) ** k * bernoulli(k + 1) / (k + 1)
