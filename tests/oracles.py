"""Independent brute-force oracles used across the test suite.

Everything here enumerates or sums naively; none of it shares code with the
fast paths it checks.
"""

from fractions import Fraction
from math import gcd


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

    ratio = b / a
    p, q = ratio.numerator, ratio.denominator
    r = [0] * (p * q)
    for m in range(p):
        for n in range(q):
            if m * q + n * p < p * q:
                r[m * q + n * p] += 1
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        total = mpmath.mpf(0)
        for i in range(p * q):
            h = mpmath.mpf(i + p + q) / (p * q)
            total += mpmath.zeta(s - 1, h) + (r[i] - h) * mpmath.zeta(s, h)
        return complex((mpmath.mpf(a.numerator) / a.denominator * p) ** (-s) * total)
