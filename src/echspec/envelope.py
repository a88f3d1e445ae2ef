"""Deterministic calculator for the capacity envelope cascade: the
irreducibility threshold r1, the validity threshold r2, the sub/supersolution
brackets on the energy primitive F, and the final two-sided capacity envelope
whose width scales like j^{2/5}; r2's bisections read one bracket per radius.
The cubic-root constant rho0 > 0.25, the root in (0, 1) of
rho + rho^2 + rho^3 + rho^4 = 1/3, sets only a validity condition that P1 of
`r2_threshold` implies.

The constants c0, c1, c2, q, vol are structural inputs: only their
existence, not their values, is determined by the geometry, so defaults are
documented choices that place the swept index range inside the scaling
regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectrum import EchspecError, NonConvergent, as_float

FOUR_PI_SQ = 4.0 * math.pi**2
DEFAULT_VOL = 400.0 * FOUR_PI_SQ  # keeps the default sweep in the j^{2/5} regime
_BRACKET_LIMIT = 1e30


class NoRoot(EchspecError):
    """The defining set of the quadratic threshold is empty."""


class TooSmallJ(EchspecError):
    """r3 = j^{4/5} lies below r1, or r1 is not positive: the F brackets are undefined."""


@dataclass(frozen=True)
class EnvelopeConstants:
    """The structural constants q, c0, c1, c2 and vol of the envelope; c3 is derived from c1."""

    q: float = 0.0
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    vol: float = DEFAULT_VOL

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q, self.c0, self.c1, self.c2, self.vol))):
            raise ValueError("envelope constants must be finite")
        if self.c0 < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("constants c0, c1, c2 must be nonnegative")
        if self.vol <= 0:
            raise ValueError("vol must be positive")

    @property
    def c3(self) -> float:
        """1 + 3t + 3t^2 with t = 2 c1/3, so c3 >= 1."""
        t = 2.0 * self.c1 / 3.0
        return 1.0 + 3.0 * t + 3.0 * t * t


@dataclass(frozen=True)
class EnvelopeResult:
    """The envelope at index j: the radii r1, r2, r3, and the F, energy and capacity brackets."""

    j: float
    r1: float
    r2: float
    r3: float
    F_lo: float
    F_hi: float
    e_lo: float
    e_hi: float
    c_lo: float
    c_hi: float
    admissible: bool


def r1_bar(j: float, k: EnvelopeConstants) -> float:
    """Larger root of r^2 * vol/(4 pi^2) - c0*r - (q+j) = 0, the supremum of
    the set where the quadratic growth has not yet overtaken the linear term."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    j = as_float(j, "j")
    alpha = k.vol / FOUR_PI_SQ
    disc = k.c0 * k.c0 + 4.0 * alpha * (k.q + j)
    if disc < 0:
        raise NoRoot(f"defining set empty: q + j = {k.q + j} < {-k.c0**2 * math.pi**2 / k.vol}")
    return (k.c0 + math.sqrt(disc)) / (2.0 * alpha)


def _bounds(j: float, k: EnvelopeConstants):
    """r1 = r1_bar(j, k) and the sub/supersolution brackets (F_lo, F_hi,
    Fp_lo, Fp_hi) as functions of r >= r1, from constants formed once."""
    r1 = r1_bar(j, k)
    if r1 <= 0:
        raise ValueError(f"r1_bar(j) = {r1:g} is not positive; the F brackets divide by r1")
    qj, c, c3 = k.q + j, 2.0 * k.c2, 3.0 * k.c2
    lead, at_r1, c_r1 = 0.5 * r1 * r1 * k.vol, qj / r1, c * math.sqrt(r1)
    return r1, (
        lambda r: lead + r * (at_r1 - qj / r - c * math.sqrt(r) + c_r1),
        lambda r: lead + r * (at_r1 - qj / r + c * math.sqrt(r) - c_r1),
        lambda r: lead / r + at_r1 - c3 * math.sqrt(r) + c_r1,
        lambda r: lead / r + at_r1 + c3 * math.sqrt(r) - c_r1,
    )


def F_bounds(r: float, j: float, k: EnvelopeConstants) -> tuple[float, float, float, float]:
    """Two-sided brackets (F_lo, F_hi, Fp_lo, Fp_hi) on the energy primitive
    and its derivative at radius r >= r1 = r1_bar(j, k), all four at once."""
    r1, bounds = _bounds(j, k)
    if r < r1:
        raise ValueError(f"F_bounds requires r >= r1_bar(j) = {r1}")
    return tuple(f(r) for f in bounds)


def _sup_below(pred, r_base: float) -> float:
    """sup{r >= r_base : pred(r)} for predicates that eventually fail; returns
    r_base when pred fails immediately."""
    if not pred(r_base):
        return r_base
    lo = r_base
    hi = max(2.0 * r_base, 1.0)
    while pred(hi):
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            raise NonConvergent(f"no falsifying radius below {_BRACKET_LIMIT:.1e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: pred(lo) holds and pred(hi) fails for good
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def r2_threshold(j: float, k: EnvelopeConstants) -> float:
    """Largest radius at which P1, F_hi/r >= K r with K = (1/(9 c3))^3, or
    (when c1 > 0) P4, Fp_hi >= (3/(4 c1))^3 r, still holds; each evaluates its
    one bound once per radius >= base >= r1. P1 implies the other two validity
    inequalities at every radius: F_hi/r >= r, as c3 >= 1 makes fl(K r) <= r; and
    F_hi > 0 with c1 F_hi^(1/3) >= rho0 r^(2/3), i.e. F_hi >= (rho0/c1)^3 r^2,
    whose ratio to K, (9 rho0 c3/c1)^3 >= 900, no rounding undoes (if K
    underflows, P1 is F_hi/r >= 0). An implied predicate brackets and bisects
    to no larger radius, and P1 runs first, raising any NonConvergent theirs
    would, so dropping them changes no float and no exception. P4 stays: at
    j = 1e12, vol = 1e-5 < 2K, c2 = 1e5, P1 fails at r1 and P4 holds to 232 r1.
    Where P4's constant overflows (c1 < 1.3e-103), no radius meets P4: r2 is P1's."""
    r1, (_, F_hi, _, Fp_hi) = _bounds(j, k)
    base, K = max(r1, 1e-9), (1.0 / (9.0 * k.c3)) ** 3
    r2 = _sup_below(lambda r: F_hi(r) / r >= K * r, base)
    if k.c1 > 0:
        try:
            K4 = (3.0 / (4.0 * k.c1)) ** 3
        except OverflowError:
            return r2
        r2 = max(r2, _sup_below(lambda r: Fp_hi(r) >= K4 * r, base))
    return r2


def capacity_envelope(j: float, k: EnvelopeConstants) -> EnvelopeResult:
    """Two-sided capacity envelope at index j with r3 = j^{4/5}.

    Raises TooSmallJ when r3 < r1 or r1 <= 0, where the F brackets are undefined.
    Results below the validity threshold r2 are computed and flagged by
    `admissible`: with order-one constants that threshold is astronomically
    larger than any desk-scale index, while the envelope scaling is already
    visible.
    """
    if j <= 0:
        raise ValueError("j must be positive")
    r1 = r1_bar(j, k)
    r3 = j ** 0.8
    if r1 <= 0:
        raise TooSmallJ(f"r1 = {r1:.6g} is not positive; the F brackets divide by r1")
    if r3 < r1:
        raise TooSmallJ(f"r3 = j^0.8 = {r3:.6g} below r1 = {r1:.6g}")
    r2 = r2_threshold(j, k)
    F_lo, F_hi, _, _ = F_bounds(r3, j, k)
    qj = k.q + j
    sr3 = math.sqrt(r3)
    e_hi_base = 0.5 * r1 * r1 * k.vol / r3 + qj / r1 + 2.0 * k.c2 * sr3
    e_lo_base = qj / r1 - qj / r3 - 2.0 * k.c2 * sr3
    R = (4.0 * k.c3 / r3 ** (1.0 / 3.0)) * max(e_hi_base, 0.0) ** (1.0 / 3.0)
    e_lo = e_lo_base * (1.0 - R)
    e_hi = e_hi_base * (1.0 + R)
    e_lo, e_hi = min(e_lo, e_hi), max(e_lo, e_hi)
    two_pi = 2.0 * math.pi
    return EnvelopeResult(
        j=float(j),
        r1=r1,
        r2=r2,
        r3=r3,
        F_lo=F_lo,
        F_hi=F_hi,
        e_lo=e_lo,
        e_hi=e_hi,
        c_lo=e_lo / two_pi,
        c_hi=e_hi / two_pi,
        admissible=r3 >= r2,
    )
