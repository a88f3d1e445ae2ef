"""Meromorphic continuation of Hurwitz, Riemann, Barnes, and spectrum zeta
functions, and their Laurent data at the poles: exact residues, and constants
from one complex-step pass through the same kernel.

Every Hurwitz value comes from one Euler-Maclaurin kernel, the entire function
_eta(s, x) = (s - 1) zeta(s, x), with _eta(1, x) = 1. It takes one s and a list
of shifts x and forms the correction coefficients of s once per call, and the
three powers of a summation point once for all the shifts that reach it; each
caller divides its sum of _eta values by (s - 1) once. The Barnes double zeta
sorts its axes, a <= b, and is a sum of N = ceil(cutoff - w/b) of them, the head
up to the shift xN >= cutoff * b/a, in one kernel call, plus
the integral, half and Euler-Maclaurin tail terms in the larger axis. The cutoff,
the kernel's shift point, depends on Im s alone, so at xN these are one power
xN^(1-s) times 14 series in 1/xN, summed in plain loops, and both axis orders
cost the same and agree bit for bit. Public functions reject non-finite input,
the poles, and points outside Re s > -S_MAX, |Im s| <= IM_MAX once, at entry.
The spectrum zeta has three conventions, one closed form each, with a <= b
sorted and Z(s) = barnes_zeta(s, a), the sum over m >= 1, n >= 0; INTERIOR and
FULL cost one Barnes pass, as its first head shift, a/a = 1, gives (s - 1) zeta(s):

  INTERIOR  sum over m, n >= 1          Z(s) - a^-s zeta(s)
  FULL      sum over (m, n) != (0, 0)   Z(s) + b^-s zeta(s)
  DISTINCT  each attained value once    (step A')^-s [zeta(s) + sum_{0<n<A'} zeta(s, n B'/A')]

where g = gcd(A, B) of the scaled axes, A' <= B' are A/g and B/g, and
step = g/den: each element of <A', B'> is j A' + n B' for exactly one
j >= 0, 0 <= n < A'. DISTINCT has one simple pole, at s = 1, residue 1/step.
Its first N = min(A', ceil(cutoff)) shifts are a Barnes head and the rest the tail at N B'/A'
less the one at B': no convention needs more than ceil(cutoff) shifts and 2 x 14 series.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .spectrum import EchspecError, Ellipsoid, NonConvergent, as_float, rational_log

S_MAX = 4.0
# A Barnes value costs O(|Im s|^2) kernel terms: on E(1,2) at s = 0.5 + 1e4 i
# it took 1.5-2.4 s in six runs (2 vCPU, Python 3.11.7), within 1.2e-11 of mpmath.
IM_MAX = 1e4
POLE_GUARD = 1e-6
_EM_TERMS = 12
# Complex step of the Laurent pass, a power of two, so scaling by it is exact
# and its square terms lie about 2^-200 below every value
_STEP = 2.0**-100


class PoleProximity(EchspecError):
    """Evaluation point within the guard radius of a pole."""


class DepthExceeded(EchspecError):
    """Evaluation point outside the region Re s > -4, |Im s| <= 1e4."""


class ZetaConvention(enum.Enum):
    """Which spectrum values the zeta sum runs over; see the module docstring."""

    INTERIOR = "interior"
    FULL = "full"
    DISTINCT = "distinct"


LaurentExpansion = namedtuple("LaurentExpansion", "center residue constant quad_err")
LaurentExpansion.__doc__ = """Residue and constant at center; quad_err is the reported error bound: the
contour gap plus rounding in laurent_at, a rounding bound in ech_laurent_pair."""


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number, B_1 = -1/2 convention."""
    if k < 0:
        raise ValueError("bernoulli index must be nonnegative")
    if k > 64:
        raise ValueError("bernoulli supported for k <= 64")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    # sum_{i=0}^{k} C(k+1, i) B_i = 0
    acc = Fraction(0)
    for i in range(k):
        acc += math.comb(k + 1, i) * bernoulli(i)
    return -acc / (k + 1)


# B_{2k} / (2k)! as floats, for the Euler-Maclaurin correction terms
_B2K_FACT = [float(bernoulli(2 * k)) / math.factorial(2 * k) for k in range(_EM_TERMS + 1)]


def _cutoff(s: complex) -> float:
    """Shift point of _eta, far past the smallest correction term at s."""
    return max(16.0, 0.5 * abs(s.imag) + 8.0)


def _pow(x: float, p: complex) -> complex:
    """x ** p for x > 0. CPython raises x to an integer complex power of size
    <= 100 by repeated multiplication, which gives nan where the power
    underflows; exp(p log x) gives the finite value there. A power beyond the
    float range raises ValueError, not CPython's OverflowError, or its
    ZeroDivisionError where a negative integer power's inverse underflows."""
    try:
        v = x ** p
        return v if v == v else cmath.exp(p * math.log(x))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{x!r} ** {p} overflows a float") from None


def _eta(s: complex, xs) -> list:
    """[(s - 1) zeta(s, x) for x in xs], by Euler-Maclaurin summation from the point
    X = x + N >= _cutoff(s): entire in s, equal to 1 at s = 1. The one Hurwitz kernel;
    it forms the correction coefficients of s once, and the three powers of each
    point X once, for all the shifts that sum from it. It checks nothing."""
    cut, ms = _cutoff(s), -s
    coefs, poch = [], (s - 1) * s  # B_2k/(2k)! (s - 1) (s)_{2k-1}
    for k in range(1, _EM_TERMS + 1):
        coefs.append(_B2K_FACT[k] * poch)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    vals, points = [], {}
    for x in xs:
        N = math.ceil(cut - x) if x < cut else 0
        head, X = 0.0 + 0.0j, x + N
        try:
            for n in range(N):
                head += (x + n) ** ms
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"{x + n!r} ** {ms} overflows a float") from None
        pt = points.get(X)
        if pt is None:  # the powers of X, once for every shift that sums from X
            pt = points[X] = 0.5 * _pow(X, ms), _pow(X, 1 - s), _pow(X, ms - 1), X * X
        h, q, xpow, X2 = pt
        val = (s - 1) * (head + h) + q  # the cancelling part; the corrections are small beside it
        for c in coefs:
            val += c * xpow
            xpow /= X2
        vals.append(val)
    return vals


def _guard(s: complex, name: str, poles: tuple[int, ...], x: float = 1.0) -> None:
    """Check s, and the offset x of a Hurwitz or Barnes sum, at a public entry."""
    if not (cmath.isfinite(s) and math.isfinite(x) and x > 0):
        raise ValueError(f"{name} requires finite s and a finite offset > 0 (s={s}, offset={x})")
    if any(abs(s - p) < POLE_GUARD for p in poles):
        raise PoleProximity(f"{name} pole at s={','.join(map(str, poles))} (s={s})")
    if s.real <= -S_MAX:
        raise DepthExceeded(f"Re(s)={s.real} beyond the continuation region Re(s) > {-S_MAX}")
    if abs(s.imag) > IM_MAX:
        raise DepthExceeded(f"|Im(s)|={abs(s.imag)} above the limit {IM_MAX}")


def _float_axes(E: Ellipsoid) -> tuple[float, float]:
    """The axes of E as floats, sorted; an axis past the float range, or one
    that rounds to 0.0, raises ValueError naming it."""
    axes = []
    for name, x in (("a", E.a), ("b", E.b)):
        axes.append(as_float(x, f"axis {name} ="))
        if axes[-1] == 0.0:  # zeta needs positive axes
            raise ValueError(f"axis {name} = exp({rational_log(x):.6g}) is outside the float range")
    return min(axes), max(axes)


def hurwitz_zeta(s, x: float) -> complex:
    """Continuation of sum_{n>=0} (x+n)^{-s}, for Re(s) > -S_MAX away from the
    pole at s = 1."""
    s = complex(s)
    x = as_float(x, "offset x =")
    _guard(s, "hurwitz_zeta", (1,), x)
    return _eta(s, (x,))[0] / (s - 1)


def riemann_zeta(s) -> complex:
    """The Riemann zeta function, hurwitz_zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def _barnes_pieces(s, w: float, a: float, b: float):
    """(head, integral, beta, half, tail) of the Barnes sum for sorted axes a <= b, which is
    a^-s [sum(head) + integral / (beta (s - 2)) + half + sum(tail)] / (s - 1): integral =
    _eta(s - 1, xN) without its pole factor and beta = b / a, or where its lead xN^(2-s) is
    past the float range, the integral over b / a and beta = 1."""
    N = max(0, math.ceil(_cutoff(s) - w / b))
    xN, beta = (w + N * b) / a, b / a
    lead, corr, half, tail = _em_tail(s, beta, xN)
    if not cmath.isfinite(lead):  # lead / beta = xN^(1-s) (xN / beta), and its series
        lead, beta = _pow(xN, 1 - s) * (xN / beta), 1.0
    return _eta(s, [(w + n * b) / a for n in range(N)]), lead + lead * corr, beta, half, tail


def _em_tail(s, beta: float, X: float):
    """(lead, corr, half, tail): for X >= _cutoff(s), 16 beta, sum_{n>=0} _eta(s, X + n beta) is
    lead (1 + corr) / (beta (s - 2)) + half + sum(tail), lead = X^(2-s), in 14 parts c (1 + S(sig)),
    S(sig) = (sig - 1)/(2X) + sum_j B_2j/(2j)! (sig - 1) (sig)_{2j-1} X^-2j: _eta(s - 1, X) at s - 1,
    the half X^(1-s)/2 (1 + S(s)), and tail term k, B_2k/(2k)! beta^{2k-1} (s - 1) (s)_{2k-2}
    _eta(s + 2k - 1, X), with c = X^(1-s) B_2k/(2k)! r^{2k-1} (s - 1) (s)_{2k-2}, r = beta/X <= 1/16:
    term j of its S is about r^(2(k + j)), so 12 - k terms drop only those near the dropped k = 13."""
    p = _pow(X, 1 - s)
    u, X2, r, sm1 = X**-2, 2 * X, beta / X, s - 1
    cs, sigs, scaled = [0.5 * p], [sm1, s], r * sm1  # r^{2k-1} (s - 1) (s)_{2k-2}
    for k in range(1, _EM_TERMS + 1):
        t = s + 2 * k
        cs.append(_B2K_FACT[k] * scaled * p)
        sigs.append(t - 1)
        scaled *= r * r * (t - 2) * sigs[-1]
    sums = []
    for i, sig in enumerate(sigs, -1):  # S(sig) of the integral, the half, then tail term i
        n, sig1 = _EM_TERMS - i if i > 0 else _EM_TERMS, sig - 1
        corr, poch = sig1 / X2, sig1 * sig * u  # (sig - 1) (sig)_{2j-1} u^j
        for j in range(1, n):
            corr += _B2K_FACT[j] * poch
            t = sig + 2 * j
            poch *= (t - 1) * t * u
        sums.append(corr + _B2K_FACT[n] * poch if n else corr)
    parts = [c + c * q for c, q in zip(cs, sums[1:])]
    return X * p, sums[0], parts[0], parts[1:]


def _barnes_sum(s: complex, w: float, a: float, b: float) -> tuple[complex, complex]:
    """barnes_zeta at a checked s on sorted axes a <= b, and its head's first value or 0.0."""
    head, integral, beta, half, tail = _barnes_pieces(s, w, a, b)
    total = 0.0 + 0.0j
    for v in (*head, integral / (beta * (s - 2)) + half, *tail):
        total += v
    val = _pow(a, -s) * total / (s - 1)
    if not cmath.isfinite(val):
        raise ValueError(f"barnes_zeta overflows a float at s={s} on axes {a}, {b}")
    return val, head[0] if head else 0.0


def barnes_zeta(s, w, E: Ellipsoid) -> complex:
    """Continuation of sum_{m,n>=0} (w + m*a + n*b)^{-s}, for Re(s) > -S_MAX.

    With the axes sorted, a <= b: a^{-s} times [the Hurwitz values at the
    shifts (w + n*b)/a for n < N = ceil(cutoff - w/b), the first n whose shift
    reaches cutoff * b/a, plus an Euler-Maclaurin tail in n of Hurwitz values].
    """
    s = complex(s)
    w = as_float(w, "offset w =")
    _guard(s, "barnes_zeta", (1, 2), w)
    return _barnes_sum(s, w, *_float_axes(E))[0]


def _distinct_zeta(s: complex, E: Ellipsoid) -> complex:
    """Sum over distinct spectrum values, one Hurwitz value per residue class of <A', B'>
    modulo A'. The two tails' integrals share a pole at s = 2: their leading parts cancel
    through expm1, their corrections carry s - 2, and s = 2 is the real part at 2 + i 2^-100."""
    _guard(s, "distinct zeta", (1,))
    g = math.gcd(E.A, E.B)
    Ap, Bp = sorted((E.A // g, E.B // g))
    N = min(Ap, math.ceil(_cutoff(s)))
    if N < Ap and s == 2:
        return complex(_distinct_zeta(complex(2, _STEP), E).real)
    top = as_float(Fraction((Ap if N < Ap else Ap - 1) * Bp, Ap), "DISTINCT shift n B'/A' =")
    total, *values = _eta(s, [n * Bp / Ap if n else 1.0 for n in range(N)])
    for v in values:
        total += v
    if N < Ap:
        beta = Bp / Ap
        lead, c0, h0, t0 = _em_tail(s, beta, N * Bp / Ap)
        leadB, cB, hB, tB = _em_tail(s, beta, top)
        c0, cB = lead * c0, leadB * cB
        z = (2 - s) * math.log1p((Ap - N) / N)  # B'^(2-s) = x0^(2-s) exp(z)
        try:  # (x0^(2-s) - B'^(2-s)) / (s - 2) = x0^(2-s) expm1(z) / (2 - s)
            lead *= complex(math.expm1(z.real) * math.cos(z.imag) - 2 * math.sin(z.imag / 2) ** 2,
                            math.exp(z.real) * math.sin(z.imag)) / (2 - s)
        except OverflowError:  # exp(z) past the float range: the value check below raises
            lead = math.inf
        total += (lead + (c0 - cB) / (s - 2)) / beta + (h0 - hB)
        for u, v in zip(t0, tB):
            total += u - v
    val = _pow(g / E.den * Ap, -s) * total / (s - 1)
    if not cmath.isfinite(val):
        raise ValueError(f"distinct zeta overflows a float at s={s}")
    return val


def ech_zeta(s, E: Ellipsoid, conv: ZetaConvention = ZetaConvention.FULL) -> complex:
    """Spectrum zeta of E(a, b) in the chosen convention, for Re(s) > -S_MAX, by
    the module docstring's closed forms: INTERIOR and FULL in one Barnes pass."""
    s = complex(s)
    if conv is ZetaConvention.DISTINCT:
        return _distinct_zeta(s, E)
    lo, hi = _float_axes(E)
    _guard(s, "barnes_zeta", (1, 2), lo)
    Z, eta1 = _barnes_sum(s, lo, lo, hi)
    if conv is ZetaConvention.FULL:
        return Z + _pow(hi, -s) * (eta1 / (s - 1))
    return Z + -_pow(lo, -s) * (eta1 / (s - 1))


def ech_laurent_pair(s0, E: Ellipsoid, tol: float = 1e-10) -> tuple[LaurentExpansion, ...]:
    """(INTERIOR, FULL) Laurent data of the spectrum zeta of E(a, b) at its
    poles s0 = 1 and 2, and at s0 = 0 the values, as constants of residue 0.

    The residues and the values at 0 are exact rationals: 1/(ab) at s = 2,
    -(a+b)/(2ab) for INTERIOR and +(a+b)/(2ab) for FULL at s = 1, and
    1/4 + (a/b + b/a)/12 for INTERIOR at 0, one less for FULL; there quad_err
    is the rounding of the float, 2^-53 max(1, |v|). A constant is the
    derivative of (s - s0) f(s) at s0, from one pass of s = s0 + i 2^-100
    through the Barnes pieces, whose first head shift, a/a = 1, also gives
    the Riemann value, with the pole factors taken out by hand: a part's real
    part is its value, and its imaginary part over 2^-100 its derivative. Its
    quad_err is 64 * 2^-52 times the sum of |value| + |derivative| over the
    parts the pass adds: a rounding bound, which covers the printed residue
    too, as the values of the parts sum to it; the kernel's truncation is far
    below it. Where a part overflows (a thin E), the parts keep a^-s / a^-s0 and
    the sums are scaled by a^-s0. A constant that is not finite or a bound
    above tol * max(1, |constant|) raises NonConvergent."""
    AB, sq = E.A * E.B, E.A**2 + E.B**2
    if s0 == 0:  # 1/4 + (a/b + b/a)/12 = (A^2 + 3AB + B^2)/(12AB), a = A/den and b = B/den
        rows = [(0, as_float(v, "value at s=0"), 2.0**-53 * max(1, abs(v)))
                for v in (Fraction(sq + 3 * AB, 12 * AB), Fraction(sq - 9 * AB, 12 * AB))]
    elif s0 in (1, 2):
        (fa, fb), s = _float_axes(E), complex(s0, _STEP)
        try:
            head, integral, beta, half, tail = _barnes_pieces(s, fa, fa, fb)
            # c = (s - s0)/(s - 1) takes a^-s zeta(s) and the pieces of a^-s (s - 1) Z(s)
            # to their shares of (s - s0) f(s); the integral's 1/(s - 2) is folded in
            c, pole = (1.0, s - 2) if s0 == 1 else ((s - 2) / (s - 1), s - 1)
            A, B = _pow(fa, -s), _pow(fb, -s)
        except ValueError:  # the inner message would show the step
            raise ValueError(f"Laurent pass overflows a float at s={s0} on E({fa}, {fb})") from None
        zeta = c * head[0]
        res = Fraction(E.den**2, AB) if s0 == 2 else Fraction(E.den * (E.A + E.B), 2 * AB)
        for m in (1.0, A.real):  # a^-s in each part; where a part overflows, a^-s / a^-s0
            kA, kB = A / m, B / m  # exact at m = 1
            Ac = kA * c
            parts = [Ac * p for p in (*head, half, *tail)] + [kA * integral / (beta * pole)]
            Z, mag = sum(parts), sum(abs(p.real) + abs(p.imag / _STEP) for p in parts)
            if cmath.isfinite(Z) and math.isfinite(mag):
                break
        axes = ((res if s0 == 2 else -res, -(kA * zeta)), (res, kB * zeta))
        rows = [(r, m * ((Z + t).imag / _STEP), m * 2.0**-46 * (mag + abs(t.real) + abs(t.imag / _STEP)))
                for r, t in axes]
    else:
        raise ValueError(f"ech_laurent_pair takes s0 = 0, 1 or 2, not {s0!r}")
    for _, const, err in rows:
        if not (math.isfinite(const) and err <= tol * max(1.0, abs(const))):  # nan fails too
            raise NonConvergent(f"rounding bound {err:.2e} at s={s0} exceeds tol={tol:g}")
    return tuple(LaurentExpansion(complex(s0), complex(r), complex(k), e) for r, k, e in rows)


def laurent_at(
    f,
    s0,
    radius: float = 0.3,
    n_points: int = 64,
    tol: float = 1e-7,
) -> LaurentExpansion:
    """Residue and constant term of f at s0 by trapezoidal contour quadrature
    on |s - s0| = radius; spectrally accurate. quad_err is the change on
    doubling the point count plus the rounding bound 2n * 2^-52 * max|f| *
    max(1, radius) of the 2n-term sums, which the change can fall below."""
    s0 = complex(s0)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_points < 32:
        raise ValueError("n_points must be at least 32")

    # The n-point rule is the even-indexed half of the 2n-point one: the angle
    # 2 pi (2t) / (2n) rounds exactly as 2 pi t / n, so one pass gives both.
    n2 = 2 * n_points
    r1 = c1 = r2 = c2 = 0.0 + 0.0j
    f_max = 0.0
    for t in range(n2):
        z = radius * cmath.exp(2j * math.pi * t / n2)
        fv = f(s0 + z)
        r2 += fv * z
        c2 += fv
        if t % 2 == 0:
            r1 += fv * z
            c1 += fv
        f_max = max(f_max, abs(fv))
    r1, c1, r2, c2 = r1 / n_points, c1 / n_points, r2 / n2, c2 / n2
    delta = max(abs(r1 - r2), abs(c1 - c2))
    if delta > 10 * tol * max(1.0, abs(r2), abs(c2)):
        raise NonConvergent(f"quadrature did not stabilize (delta={delta:.2e})")
    rounding = 2 * n_points * 2.0**-52 * f_max * max(1.0, radius)
    return LaurentExpansion(center=s0, residue=r2, constant=c2, quad_err=delta + rounding)
