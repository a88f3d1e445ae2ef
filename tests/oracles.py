"""Independent brute-force oracles used across the test suite.

Everything here enumerates or sums naively, or evaluates closed forms in
exact, decimal or mpmath arithmetic; none of it shares code with the fast paths it
checks. It uses three package functions: the exact bernoulli;
scaled_spectrum, which direct_zeta_sum sums over to check the zeta
functions (tests/test_spectrum.py checks it against brute_spectrum); and
count_leq, the exact lattice count that bisect_nth_capacity searches over
and weyl_fit_fractions fits (checked against brute_count_leq).
weyl_fit_fractions also shares the edge of the fit it checks: as_rational,
as_float and the line fit; its logs are its own (fraction_log).
"""

import decimal
import math
from fractions import Fraction
from functools import cache
from math import factorial, gcd

from echspec import Ellipsoid, FitResult, ZetaConvention, bernoulli, count_leq, scaled_spectrum
from echspec.asymptotics import _line_fit
from echspec.spectrum import as_float, as_rational


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


def brute_floor_value(A: int, B: int, v: int) -> int:
    """Largest m*A + n*B <= v over integers m, n >= 0 (v >= 0), by enumeration
    over m."""
    return max(m * A + (v - m * A) // B * B for m in range(v // A + 1))


def brute_gaps(a: int, m: int, L: int) -> tuple[int, int, int, int]:
    """(t1, d1, t2, d2) by a scan of t = 1..m: t1 is the least t with
    t*a mod m in [0, L], d1 that residue; t2 the least t with t*a mod m in
    [m - L, m), d2 m less that residue."""
    t1 = next(t for t in range(1, m + 1) if t * a % m <= L)
    t2 = next(t for t in range(1, m + 1) if t * a % m >= m - L)
    return t1, t1 * a % m, t2, m - t2 * a % m


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


def distinct_leq_by_classes(E: Ellipsoid, t) -> int:
    """Distinct values of m*a + n*b in [0, t], one residue class at a time:
    with g = gcd(A, B), A' = A/g and B' = B/g, each value is g times
    m*A' + n*B' for exactly one pair with n < A', so the count is the sum
    over n < A' with n*B' <= X = floor(t*den/g) of floor((X - n*B')/A') + 1.
    A loop of min(A', X//B' + 1) steps, with no floor sum."""
    t = Fraction(t)
    g = gcd(E.A, E.B)
    X = t.numerator * E.den // (t.denominator * g)
    Ap, Bp = E.A // g, E.B // g
    return sum((X - n * Bp) // Ap + 1 for n in range(min(Ap, X // Bp + 1)))


def defect_limits_by_gcd(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """The limit interval -(a+b)/2 -+ g/2 of the defects of E(a, b), with the
    rational gcd of a = p1/q1 and b = p2/q2 taken over the product of the
    denominators: g = gcd(p1 q2, p2 q1)/(q1 q2)."""
    p1, q1, p2, q2 = a.numerator, a.denominator, b.numerator, b.denominator
    g = Fraction(gcd(p1 * q2, p2 * q1), q1 * q2)
    return -(a + b) / 2 - g / 2, -(a + b) / 2 + g / 2


def defect_error_decimal(c: Fraction, a: Fraction, b: Fraction, j: int, d: float) -> Fraction:
    """An upper bound on |d - (c - sqrt(2abj))|, from a decimal square root
    carried 40 digits past the digits of 2abj's numerator and denominator,
    which puts its own error near 10^-40 / den or below."""
    r = 2 * a * b * j
    prec = len(str(r.numerator)) + len(str(r.denominator)) + 40
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        root = Fraction((decimal.Decimal(r.numerator) / r.denominator).sqrt())
    # the division and the square root each round once, to prec digits
    return abs(Fraction(d) - c + root) + root / 10 ** (prec - 2)


def fraction_log(x: Fraction) -> float:
    """log of a positive rational: math.log of the Fraction where float(x) is
    a normal float, else from the integer parts."""
    try:
        if float(x) >= 2.0**-1022:
            return math.log(x)
    except OverflowError:
        pass
    return math.log(x.numerator) - math.log(x.denominator)


def weyl_fit_fractions(E: Ellipsoid, R_list) -> FitResult:
    """weyl_fit in Fraction arithmetic, as the package computed it before its
    integer form: C = sum(N R^2)/sum(R^4) and the residuals N - C R^2 as
    Fractions, the 1e-9 cut as a Fraction-float comparison."""
    R_list = [as_rational(R) for R in R_list]
    if len(R_list) < 3:
        raise ValueError("weyl_fit requires at least 3 samples")
    if any(R_list[i] >= R_list[i + 1] for i in range(len(R_list) - 1)):
        raise ValueError("weyl_fit requires strictly increasing R")
    if R_list[0] < 0:
        raise ValueError("weyl_fit requires R >= 0")
    N = [count_leq(E, r) for r in R_list]
    C = sum(n * r * r for n, r in zip(N, R_list)) / sum(r**4 for r in R_list)
    coefficient = as_float(C, "leading coefficient")
    resid = [n - C * r * r for n, r in zip(N, R_list)]
    kept = [(fraction_log(r), fraction_log(abs(e)))
            for r, e in zip(R_list, resid) if r > 0 and abs(e) > 1e-9]
    exponent = _line_fit(kept)[0] if len(kept) >= 2 else 0.0
    return FitResult(coefficient, exponent)


def window_sups_by_edge_list(js, ds, window_count: int) -> list[tuple[int, float]]:
    """Per-window (argmax j, max |d|) over the points with j >= 1, from the
    list of all window_count + 1 geometric edges j_lo * ratio**w and j_hi,
    walked one edge at a time: O(window_count) memory and steps. float()
    stands in for the package's as_float; they agree inside the float range."""
    if not js:
        raise ValueError("window_sups requires nonempty input")
    if window_count < 1:
        raise ValueError("window_count must be positive")
    pts = [(j, d) for j, d in zip(js, ds) if j >= 1]
    if not pts:
        raise ValueError("window_sups requires points with j >= 1")
    j_lo, j_hi = float(pts[0][0]), float(pts[-1][0] + 1)
    ratio = (j_hi / j_lo) ** (1.0 / window_count)
    edges = [j_lo * ratio**w for w in range(window_count)] + [j_hi]
    sups = []
    w = 0
    best_j, best = None, -1.0
    for j, d in pts:
        while j >= edges[w + 1]:
            if best_j is not None:
                sups.append((best_j, best))
            best_j, best = None, -1.0
            w += 1
        if abs(d) > best:
            best_j, best = j, abs(d)
    if best_j is not None:
        sups.append((best_j, best))
    return sups


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


def _distinct_parts(a: Fraction, b: Fraction) -> tuple[int, int, Fraction]:
    """(A', B', step) of E(a, b): with A, B the axes over their common
    denominator den and g = gcd(A, B), A' <= B' are A/g and B/g and step = g/den."""
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    A, B = int(a * den), int(b * den)
    g = gcd(A, B)
    return min(A, B) // g, max(A, B) // g, Fraction(g, den)


@cache
def _gap_factors(p: int, q: int) -> list[tuple[int, int]]:
    """(t, f) for each gap t of <p, q>, ascending, f the least prime factor of
    t (t itself for 1 and for a prime), by a sieve below p*q."""
    least = list(range(p * q))
    for f in range(2, math.isqrt(p * q - 1) + 1):
        if least[f] == f:
            for m in range(f * f, p * q, f):
                least[m] = min(least[m], f)
    return [(t, least[t]) for t in semigroup_gaps(p, q)]


def distinct_zeta_gaps(s: complex, a: Fraction, b: Fraction) -> complex:
    """Continued sum of v^-s over the distinct nonzero values v of m*a + n*b:
    the values are step*t for t in <A', B'>, so the sum is step^-s [zeta(s) -
    sum over the finitely many gaps t of t^-s]. The smallest element is A',
    so zeta(s) and the gap sum cancel to about Re s log10(A') digits, which
    the working precision adds to 45. A divisor of a gap is a gap, since a
    multiple of an element is an element, so t^-s is one mpmath power for 1
    and a prime t, and f^-s (t/f)^-s for a composite t of least prime factor f."""
    import mpmath

    Ap, Bp, step = _distinct_parts(a, b)
    with mpmath.workdps(45 + int(max(0.0, complex(s).real) * math.log10(Ap))):
        s = mpmath.mpc(s)
        power = {}
        for t, f in _gap_factors(Ap, Bp):
            power[t] = mpmath.mpf(t) ** (-s) if f == t else power[f] * power[t // f]
        gaps = mpmath.fsum(power.values())
        return complex((mpmath.mpf(step.numerator) / step.denominator) ** (-s) * (mpmath.zeta(s) - gaps))


def distinct_zeta_hurwitz(s: complex, a: Fraction, b: Fraction) -> complex:
    """The same sum one residue class of <A', B'> modulo A' at a time, at 40
    digits: each element is j A' + n B' for exactly one j >= 0, 0 <= n < A', so
    it is (step A')^-s [zeta(s) + sum_{0<n<A'} zeta(s, n B'/A')]. It needs no
    gap set, so it reaches A' in the thousands."""
    import mpmath

    Ap, Bp, step = _distinct_parts(a, b)
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        total = mpmath.zeta(s) + mpmath.fsum(mpmath.zeta(s, mpmath.mpf(n * Bp) / Ap) for n in range(1, Ap))
        return complex((mpmath.mpf(step.numerator * Ap) / step.denominator) ** (-s) * total)


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


def full_zeta_hurwitz(s: complex, a: Fraction, b: Fraction) -> complex:
    """Continued sum over (m, n) != (0, 0) of (m*a + n*b)^-s at 40 digits:
    interior_zeta_hurwitz plus the axis terms (a^-s + b^-s) zeta(s)."""
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        fa, fb = (mpmath.mpf(x.numerator) / x.denominator for x in (a, b))
        return complex(_interior_zeta_mp(s, a, b) + (fa**-s + fb**-s) * mpmath.zeta(s))


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


def barnes_zeta_hurwitz(s: complex, w: Fraction, a: Fraction, b: Fraction) -> complex:
    """Continued Barnes sum over m, n >= 0 of (w + m*a + n*b)^-s for rational
    w, a, b, reduced to Hurwitz values at 40 digits. With W, A, B the three over
    their common denominator d, g = gcd(A, B) and M = B/g, write n = r + j A/g
    (r < A/g) and m = i + l M (i < M): then w + m*a + n*b = (M A/d)(h + j + l)
    with h = (W + r B + i A)/(M A), and the sum over j, l >= 0 of (h + t)^-s,
    t = j + l, is zeta(s - 1, h) + (1 - h) zeta(s, h)."""
    import mpmath

    d = math.lcm(w.denominator, a.denominator, b.denominator)
    W, A, B = int(w * d), int(a * d), int(b * d)
    g = gcd(A, B)
    M = B // g
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        total = mpmath.mpf(0)
        for r in range(A // g):
            for i in range(M):
                h = mpmath.mpf(W + r * B + i * A) / (M * A)
                total += mpmath.zeta(s - 1, h) + (1 - h) * mpmath.zeta(s, h)
        return complex((mpmath.mpf(d) / (M * A)) ** s * total)


def barnes_tail_terms(s: complex, beta: float, X: float) -> tuple[complex, float]:
    """The Barnes tail of zeta._em_tail over X^(1-s), term by term at 40 digits: the
    Euler-Maclaurin corrections -b_k f^(2k-1)(0), b_k = B_2k/(2k)!, k = 1..12, of
    f(n) = (s - 1) zeta(s, X + n beta) are c_k (1 + S_k), c_k = b_k r^(2k-1) (s - 1) (s)_{2k-2}
    and r = beta/X, with zeta(sig, X), sig = s + 2k - 1, expanded at X to 12 - k terms:
    S_k = (sig - 1)/(2X) + sum_{j<=12-k} b_j (sig - 1) (sig)_{2j-1} X^-2j. Returns the sum of
    the 12 terms and the sum of the magnitudes of the products c_k, c_k (sig - 1)/(2X) and
    c_k b_j (sig - 1) (sig)_{2j-1} X^-2j that make them."""
    import mpmath

    def poch(x, n):  # rising factorial (x)_n, as a plain product
        out = mpmath.mpf(1)
        for i in range(n):
            out *= x + i
        return out

    with mpmath.workdps(40):
        s, beta, X = mpmath.mpc(s), mpmath.mpf(beta), mpmath.mpf(X)
        b = [mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) for k in range(13)]
        r, total, magnitude = beta / X, mpmath.mpf(0), mpmath.mpf(0)
        for k in range(1, 13):
            c, sig = b[k] * r ** (2 * k - 1) * (s - 1) * poch(s, 2 * k - 2), s + 2 * k - 1
            terms = [c, c * (sig - 1) / (2 * X)]
            terms += [c * b[j] * (sig - 1) * poch(sig, 2 * j - 1) * X ** (-2 * j) for j in range(1, 13 - k)]
            total += mpmath.fsum(terms)
            magnitude += mpmath.fsum(abs(t) for t in terms)
        return complex(total), float(magnitude)


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


def rho_zero() -> float:
    """Unique root in (0, 1) of rho + rho^2 + rho^3 + rho^4 = 1/3, by bisection:
    the cubic-root constant rho0 of the capacity envelope."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid + mid**2 + mid**3 + mid**4 < 1.0 / 3.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
