"""Meromorphic continuation of Hurwitz, Riemann, Barnes, and spectrum zeta
functions, with Laurent-coefficient extraction at the poles.

The Hurwitz kernel is continued by Euler-Maclaurin summation; the Barnes
double zeta is a finite sum of Hurwitz values plus an Euler-Maclaurin tail
in the second lattice direction. The spectrum zeta comes in three
conventions, one closed form each, with Z(s) = barnes_zeta(s, a), the sum
over m >= 1, n >= 0:

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

from .spectrum import EchspecError, Ellipsoid, NonConvergent, _spectrum_scaled

S_MAX_DEFAULT = 4.0
POLE_GUARD = 1e-6
_EM_TERMS = 12
_DISTINCT_TERMS_LIMIT = 1_000_000  # bound on A', the Hurwitz terms of DISTINCT


class PoleProximity(EchspecError):
    """Evaluation point within the guard radius of a pole."""


class DepthExceeded(EchspecError):
    """Evaluation point outside the configured continuation region."""


class ZetaConvention(enum.Enum):
    INTERIOR = "interior"
    FULL = "full"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class LaurentExpansion:
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


def hurwitz_zeta(s, x: float, depth: float = S_MAX_DEFAULT) -> complex:
    """Euler-Maclaurin continuation of sum_{n>=0} (x+n)^{-s}.

    Valid for Re(s) > -depth away from the pole at s = 1; the shift point is
    chosen so the correction series is far past its smallest term.
    """
    s = complex(s)
    x = float(x)
    if x <= 0:
        raise ValueError("hurwitz_zeta requires x > 0")
    if abs(s - 1) < POLE_GUARD:
        raise PoleProximity(f"hurwitz_zeta pole at s=1 (|s-1|={abs(s - 1):.2e})")
    if s.real <= -depth:
        raise DepthExceeded(f"Re(s)={s.real} beyond continuation depth {depth}")
    cutoff = max(16.0, 0.5 * abs(s.imag) + 8.0)
    N = max(0, math.ceil(cutoff - x))
    head = 0.0 + 0.0j
    for n in range(N):
        head += (x + n) ** (-s)
    X = x + N
    val = head + X ** (1 - s) / (s - 1) + 0.5 * X ** (-s)
    poch = s  # (s)_{2k-1} = s (s+1) ... (s+2k-2)
    xpow = X ** (-s - 1)
    for k in range(1, _EM_TERMS + 1):
        val += _B2K_FACT[k] * poch * xpow
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        xpow /= X * X
    return val


def riemann_zeta(s, depth: float = S_MAX_DEFAULT) -> complex:
    return hurwitz_zeta(s, 1.0, depth=depth)


def _digamma_large(x: float) -> float:
    """Asymptotic digamma, adequate for the shifted arguments x >= 8 used in
    the Barnes tail."""
    if x < 8:
        raise ValueError("asymptotic digamma needs x >= 8")
    inv2 = 1.0 / (x * x)
    val = math.log(x) - 0.5 / x
    p = inv2
    for k in range(1, _EM_TERMS + 1):
        val -= float(bernoulli(2 * k)) / (2 * k) * p
        p *= inv2
    return val


def barnes_zeta(s, w, E: Ellipsoid, depth: float = S_MAX_DEFAULT) -> complex:
    """Continuation of sum_{m,n>=0} (w + m*a + n*b)^{-s}.

    Computed as a^{-s} * [head sum of Hurwitz values at (w + n*b)/a plus an
    Euler-Maclaurin tail in n]; d/dn of the Hurwitz kernel shifts s by one,
    so every tail term is again a Hurwitz value.
    """
    s = complex(s)
    w = float(w)
    if w <= 0:
        raise ValueError("barnes_zeta requires w > 0")
    if min(abs(s - 1), abs(s - 2)) < POLE_GUARD:
        raise PoleProximity(f"barnes_zeta poles at s=1,2 (s={s})")
    if s.real <= -depth:
        raise DepthExceeded(f"Re(s)={s.real} beyond continuation depth {depth}")
    a, b = float(E.a), float(E.b)
    beta = b / a
    x_min = (max(16.0, 0.5 * abs(s.imag) + 8.0)) * max(1.0, beta)
    N = max(24, math.ceil((x_min * a - w) / b))
    head = 0.0 + 0.0j
    for n in range(N):
        head += hurwitz_zeta(s, (w + n * b) / a, depth=depth + 1)
    xN = (w + N * b) / a
    tail = hurwitz_zeta(s - 1, xN, depth=depth + 1) / (beta * (s - 1))
    tail += 0.5 * hurwitz_zeta(s, xN, depth=depth + 1)
    poch = s
    bpow = beta
    for k in range(1, _EM_TERMS + 1):
        sigma = s + 2 * k - 1
        if abs(sigma - 1) < 1e-4:
            # (s)_{2k-1} vanishes with sigma - 1, cancelling the Hurwitz pole;
            # use the Laurent expansion (sigma-1) zeta(sigma, x) = 1 - (sigma-1) psi(x) + ...
            reduced = 1.0 + 0.0j
            for i in range(2 * k - 2):
                reduced *= s + i
            term = reduced * (1.0 - (sigma - 1) * _digamma_large(xN))
        else:
            term = poch * hurwitz_zeta(sigma, xN, depth=depth + 1)
        tail += _B2K_FACT[k] * bpow * term
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        bpow *= beta * beta
    return a ** (-s) * (head + tail)


def _distinct_zeta(s: complex, E: Ellipsoid, depth: float) -> complex:
    """Sum over distinct spectrum values: A' Hurwitz values, one per residue
    class of the semigroup <A', B'> modulo A'."""
    S = E.scaled()
    g = math.gcd(S.A, S.B)
    Ap, Bp = sorted((S.A // g, S.B // g))
    if Ap > _DISTINCT_TERMS_LIMIT:
        raise DepthExceeded(
            f"distinct zeta needs {Ap} Hurwitz terms, above the limit {_DISTINCT_TERMS_LIMIT}"
        )
    total = riemann_zeta(s, depth=depth)
    for n in range(1, Ap):
        total += hurwitz_zeta(s, n * Bp / Ap, depth=depth)
    return (g / S.den * Ap) ** (-s) * total


def ech_zeta(
    s, E: Ellipsoid, conv: ZetaConvention = ZetaConvention.FULL, depth: float = S_MAX_DEFAULT
) -> complex:
    """Spectrum zeta function of E(a, b) under the chosen convention, by the
    closed forms in the module docstring."""
    s = complex(s)
    if conv is ZetaConvention.DISTINCT:
        return _distinct_zeta(s, E, depth)
    lattice = barnes_zeta(s, E.a, E, depth=depth)
    if conv is ZetaConvention.INTERIOR:
        return lattice - float(E.a) ** (-s) * riemann_zeta(s, depth=depth)
    return lattice + float(E.b) ** (-s) * riemann_zeta(s, depth=depth)


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
    S = E.scaled()
    vals = _spectrum_scaled(S, 0, j_max)
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


def laurent_at(
    f,
    s0,
    radius: float = 0.3,
    n_points: int = 64,
    tol: float = 1e-7,
) -> LaurentExpansion:
    """Residue and constant term of f at s0 by trapezoidal contour quadrature
    on |s - s0| = radius; spectrally accurate, with the error estimated by
    doubling the point count."""
    s0 = complex(s0)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_points < 32:
        raise ValueError("n_points must be at least 32")

    def coeffs(n: int) -> tuple[complex, complex]:
        res = 0.0 + 0.0j
        const = 0.0 + 0.0j
        for t in range(n):
            z = radius * cmath.exp(2j * math.pi * t / n)
            fv = f(s0 + z)
            res += fv * z
            const += fv
        return res / n, const / n

    r1, c1 = coeffs(n_points)
    r2, c2 = coeffs(2 * n_points)
    quad_err = max(abs(r1 - r2), abs(c1 - c2))
    if quad_err > 10 * tol * max(1.0, abs(r2), abs(c2)):
        raise NonConvergent(f"quadrature did not stabilize (delta={quad_err:.2e})")
    return LaurentExpansion(center=s0, residue=r2, constant=c2, quad_err=quad_err)
