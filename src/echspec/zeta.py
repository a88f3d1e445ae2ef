"""Meromorphic continuation of Hurwitz, Riemann, Barnes, and spectrum zeta
functions, and their Laurent data at the poles: exact residues, and constants
from one complex-step pass through the same kernel.

Every Hurwitz value comes from one Euler-Maclaurin kernel, the entire
function _eta(s, x) = (s - 1) zeta(s, x), with _eta(1, x) = 1. It takes one
s and many shifts x, and forms the correction coefficients of s once per
call; each caller divides its sum of _eta values by (s - 1) once. The Barnes
double zeta sorts its axes, a <= b, and is a sum of N = ceil(cutoff - w/b)
of them, the head up to the shift xN >= cutoff * b/a, in one kernel call,
plus an Euler-Maclaurin tail in the larger axis, whose k-th term (s)_{2k-1}
zeta(s+2k-1, xN) is (s)_{2k-2} _eta(s+2k-1, xN); cutoff is the kernel's own
shift point. So both axis orders cost the same and agree bit for bit. The
public functions reject non-finite input, the poles, and points outside the
region Re s > -S_MAX, |Im s| <= IM_MAX once, at entry. The spectrum zeta
comes in three conventions, one closed form each, with a <= b sorted and
Z(s) = barnes_zeta(s, a), the sum over m >= 1, n >= 0:

  INTERIOR  sum over m, n >= 1          Z(s) - a^-s zeta(s)
  FULL      sum over (m, n) != (0, 0)   Z(s) + b^-s zeta(s)
  DISTINCT  each attained value once    (step A')^-s [zeta(s) + sum_{0<n<A'} zeta(s, n B'/A')]

where g = gcd(A, B) of the scaled axes, A' <= B' are A/g and B/g, and
step = g/den: each element of <A', B'> is j A' + n B' for exactly one
j >= 0, 0 <= n < A'. DISTINCT has one simple pole, at s = 1, residue 1/step.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .spectrum import EchspecError, Ellipsoid, NonConvergent, as_float, rational_log

S_MAX = 4.0
# A Barnes value costs O(|Im s|^2) kernel terms: on E(1,2) at s = 0.5 + 1e4 i
# it took 1.7 s (2 vCPU, Python 3.11.7), within 1.2e-11 of mpmath.
IM_MAX = 1e4
POLE_GUARD = 1e-6
_EM_TERMS = 12
_DISTINCT_TERMS_LIMIT = 1_000_000  # bound on A', the Hurwitz terms of DISTINCT
# Complex step of the Laurent pass, a power of two, so scaling by it is exact
# and its square terms lie about 2^-200 below every value
_STEP = 2.0**-100


class PoleProximity(EchspecError):
    """Evaluation point within the guard radius of a pole."""


class DepthExceeded(EchspecError):
    """Evaluation point outside the region Re s > -4, |Im s| <= 1e4, or a
    DISTINCT value that needs more than 10^6 Hurwitz terms (A' > 10^6)."""


class ZetaConvention(enum.Enum):
    """Which spectrum values the zeta sum runs over; see the module docstring."""

    INTERIOR = "interior"
    FULL = "full"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class LaurentExpansion:
    """Residue and constant at center; quad_err is the reported error bound: the
    contour gap plus rounding in laurent_at, a rounding bound in ech_laurent_pair."""

    center: complex
    residue: complex
    constant: complex
    quad_err: float


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


def _eta(s: complex, xs):
    """(s - 1) zeta(s, x) for each shift x in xs, by Euler-Maclaurin summation
    from x + N >= _cutoff(s): entire in s, equal to 1 at s = 1. The one Hurwitz
    kernel; it forms the correction coefficients of s once, and checks nothing."""
    cut, ms = _cutoff(s), -s
    coefs, poch = [], (s - 1) * s  # B_2k/(2k)! (s - 1) (s)_{2k-1}
    for k in range(1, _EM_TERMS + 1):
        coefs.append(_B2K_FACT[k] * poch)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    for x in xs:
        N = max(0, math.ceil(cut - x))
        head = 0.0 + 0.0j
        try:
            for n in range(N):
                head += (x + n) ** ms
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"{x + n!r} ** {ms} overflows a float") from None
        X = x + N
        # form the cancelling part first; the corrections are small beside it
        val = (s - 1) * (head + 0.5 * _pow(X, ms)) + _pow(X, 1 - s)
        xpow, X2 = _pow(X, ms - 1), X * X
        for c in coefs:
            val += c * xpow
            xpow /= X2
        yield val


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
    return next(_eta(s, (x,))) / (s - 1)


def riemann_zeta(s) -> complex:
    """The Riemann zeta function, hurwitz_zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def _barnes_pieces(s, w: float, a: float, b: float):
    """(head, integral, half, tail) of the Barnes sum for sorted axes a <= b,
    which is a^-s [head + integral / (beta (s - 2)) + half + tail] / (s - 1):
    the head and tail lazily yield their terms, and integral = _eta(s - 1, xN)
    comes without its pole factor."""
    N = max(0, math.ceil(_cutoff(s) - w / b))
    xN = (w + N * b) / a
    head = _eta(s, ((w + n * b) / a for n in range(N)))
    return head, next(_eta(s - 1, (xN,))), 0.5 * next(_eta(s, (xN,))), _barnes_tail(s, b / a, xN)


def _barnes_tail(s, beta: float, xN: float):
    coef = beta * (s - 1)  # beta^{2k-1} (s - 1) (s)_{2k-2}
    r = beta / xN
    scaled = r * (s - 1)  # coef / xN^{2k-1}
    for k in range(1, _EM_TERMS + 1):
        sk = s + 2 * k - 1
        if xN < 2.0**60 and cmath.isfinite(coef):
            yield _B2K_FACT[k] * coef * next(_eta(sk, (xN,)))
        else:
            # From xN = 2^60, _eta(sk, xN) = xN^(1-sk) (1 + (sk-1)/(2 xN)) to rounding
            # for |s| <= 1e10. coef overflows only where beta (|s| + 24) > 2.6e13, so
            # xN >= 16 beta makes it so to 1e-14 for |s| <= 1e4. This form cannot make
            # inf * 0, nor drop a term whose kernel value underflows while coef stays
            # finite, as in the Laurent pass, where coef is 2^-100 times a derivative
            yield _B2K_FACT[k] * scaled * (1 + (sk - 1) / (2 * xN)) * _pow(xN, 1 - s)
        coef *= beta * beta * (s + 2 * k - 2) * (s + 2 * k - 1)
        scaled *= r * r * (s + 2 * k - 2) * (s + 2 * k - 1)


def barnes_zeta(s, w, E: Ellipsoid) -> complex:
    """Continuation of sum_{m,n>=0} (w + m*a + n*b)^{-s}, for Re(s) > -S_MAX.

    With the axes sorted, a <= b: a^{-s} times [the Hurwitz values at the
    shifts (w + n*b)/a for n < N = ceil(cutoff - w/b), the first n whose shift
    reaches cutoff * b/a, plus an Euler-Maclaurin tail in n of Hurwitz values].
    """
    s = complex(s)
    w = as_float(w, "offset w =")
    _guard(s, "barnes_zeta", (1, 2), w)
    a, b = _float_axes(E)
    head, integral, half, tail = _barnes_pieces(s, w, a, b)
    total = 0.0 + 0.0j
    for v in head:
        total += v
    total += integral / (b / a * (s - 2)) + half
    for v in tail:
        total += v
    val = _pow(a, -s) * total / (s - 1)
    if not cmath.isfinite(val):
        raise ValueError(f"barnes_zeta overflows a float at s={s} on axes {a}, {b}")
    return val


def _distinct_zeta(s: complex, E: Ellipsoid) -> complex:
    """Sum over distinct spectrum values: A' Hurwitz values, one per residue
    class of the semigroup <A', B'> modulo A'."""
    _guard(s, "distinct zeta", (1,))
    g = math.gcd(E.A, E.B)
    Ap, Bp = sorted((E.A // g, E.B // g))
    if Ap > _DISTINCT_TERMS_LIMIT:
        raise DepthExceeded(
            f"distinct zeta needs {Ap} Hurwitz terms, above the limit {_DISTINCT_TERMS_LIMIT}"
        )
    values = _eta(s, (n * Bp / Ap if n else 1.0 for n in range(Ap)))
    total = next(values)
    for v in values:
        total += v
    return _pow(g / E.den * Ap, -s) * total / (s - 1)


def ech_zeta_pair(s, E: Ellipsoid) -> tuple[complex, complex]:
    """(INTERIOR, FULL) spectrum zeta values of E(a, b) at s, by the closed
    forms in the module docstring, from one Barnes and one Riemann value, for
    Re(s) > -S_MAX."""
    s = complex(s)
    lo, hi = _float_axes(E)
    Z, zeta = barnes_zeta(s, lo, E), riemann_zeta(s)
    return Z + -_pow(lo, -s) * zeta, Z + _pow(hi, -s) * zeta


def ech_zeta(s, E: Ellipsoid, conv: ZetaConvention = ZetaConvention.FULL) -> complex:
    """Spectrum zeta function of E(a, b) under the chosen convention, by the
    closed forms in the module docstring, for Re(s) > -S_MAX."""
    if conv is ZetaConvention.DISTINCT:
        return _distinct_zeta(complex(s), E)
    interior, full = ech_zeta_pair(s, E)
    return full if conv is ZetaConvention.FULL else interior


def ech_laurent_pair(s0, E: Ellipsoid, tol: float = 1e-10) -> tuple[LaurentExpansion, ...]:
    """(INTERIOR, FULL) Laurent data of the spectrum zeta of E(a, b) at its
    poles s0 = 1 and 2, and at s0 = 0 the values, as constants of residue 0.

    The residues and the values at 0 are exact rationals: 1/(ab) at s = 2,
    -(a+b)/(2ab) for INTERIOR and +(a+b)/(2ab) for FULL at s = 1, and
    1/4 + (a/b + b/a)/12 for INTERIOR at 0, one less for FULL; there quad_err
    is the rounding of the float, 2^-53 max(1, |v|). A constant is the
    derivative of (s - s0) f(s) at s0, from one pass of s = s0 + i 2^-100
    through the Barnes pieces and the Riemann kernel value, with the pole
    factors taken out by hand: a part's real part is its value, and its
    imaginary part over 2^-100 its derivative. Its quad_err is 64 * 2^-52
    times the sum of |value| + |derivative| over the parts the pass adds: a
    rounding bound, which covers the printed residue too, as the values of the
    parts sum to it; the kernel's truncation is far below it. A constant that
    is not finite or a bound above tol * max(1, |constant|) raises
    NonConvergent."""
    a, b = sorted((E.a, E.b))
    if s0 == 0:
        zero = Fraction(1, 4) + (a / b + b / a) / 12
        rows = [(0, as_float(v, "value at s=0"), 2.0**-53 * max(1, abs(v))) for v in (zero, zero - 1)]
    elif s0 in (1, 2):
        (fa, fb), s = _float_axes(E), complex(s0, _STEP)
        try:
            head, integral, half, tail = _barnes_pieces(s, fa, fa, fb)
            # c = (s - s0)/(s - 1) takes a^-s zeta(s) and the pieces of a^-s (s - 1) Z(s)
            # to their shares of (s - s0) f(s); the integral's 1/(s - 2) is folded in
            c, pole = (1.0, s - 2) if s0 == 1 else ((s - 2) / (s - 1), s - 1)
            A = _pow(fa, -s)
            parts = [A * c * p for p in (*head, half, *tail)] + [A * integral / (fb / fa * pole)]
            zeta = c * next(_eta(s, (1.0,)))
            res = 1 / (a * b) if s0 == 2 else (a + b) / (2 * a * b)
            axes = ((res if s0 == 2 else -res, -(A * zeta)), (res, _pow(fb, -s) * zeta))
        except ValueError:  # the inner message would show the step
            raise ValueError(f"Laurent pass overflows a float at s={s0} on E({fa}, {fb})") from None
        Z, mag = sum(parts), sum(abs(p.real) + abs(p.imag / _STEP) for p in parts)
        rows = [(r, (Z + t).imag / _STEP, 2.0**-46 * (mag + abs(t.real) + abs(t.imag / _STEP)))
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
