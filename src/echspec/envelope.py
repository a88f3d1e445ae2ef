"""Deterministic calculator for the capacity envelope cascade: the
irreducibility threshold r1, the cubic-root constant rho0, the validity
threshold r2, the sub/supersolution brackets on the energy primitive F, and
the final two-sided capacity envelope whose width scales like j^{2/5}.

The constants c0, c1, c2, q, vol are structural inputs: only their
existence, not their values, is determined by the geometry, so defaults are
documented choices that place the swept index range inside the scaling
regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .spectrum import EchspecError, NonConvergent

FOUR_PI_SQ = 4.0 * math.pi**2
DEFAULT_VOL = 400.0 * FOUR_PI_SQ  # keeps the default sweep in the j^{2/5} regime
_BRACKET_LIMIT = 1e30


class NoRoot(EchspecError):
    """The defining set of the quadratic threshold is empty."""


class TooSmallJ(EchspecError):
    """r3 = j^{4/5} lies below r1, where the F brackets are undefined."""


@dataclass(frozen=True)
class EnvelopeConstants:
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
    alpha = k.vol / FOUR_PI_SQ
    disc = k.c0 * k.c0 + 4.0 * alpha * (k.q + j)
    if disc < 0:
        raise NoRoot(f"defining set empty: q + j = {k.q + j} < {-k.c0**2 * math.pi**2 / k.vol}")
    return (k.c0 + math.sqrt(disc)) / (2.0 * alpha)


@lru_cache(maxsize=1)
def rho_zero() -> float:
    """Unique root in (0, 1) of rho + rho^2 + rho^3 + rho^4 = 1/3, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid + mid**2 + mid**3 + mid**4 < 1.0 / 3.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def F_bounds(r: float, j: float, k: EnvelopeConstants) -> tuple[float, float, float, float]:
    """Two-sided brackets (F_lo, F_hi, Fp_lo, Fp_hi) on the energy primitive
    and its derivative at radius r, transcribed from the sub/supersolution
    inequalities with r1 = r1_bar(j, k)."""
    r1 = r1_bar(j, k)
    if r1 <= 0:
        raise ValueError("F_bounds requires r1_bar(j) > 0")
    if r < r1:
        raise ValueError(f"F_bounds requires r >= r1_bar(j) = {r1}")
    qj = k.q + j
    lead = 0.5 * r1 * r1 * k.vol
    sr, sr1 = math.sqrt(r), math.sqrt(r1)
    F_lo = lead + r * (qj / r1 - qj / r - 2.0 * k.c2 * sr + 2.0 * k.c2 * sr1)
    F_hi = lead + r * (qj / r1 - qj / r + 2.0 * k.c2 * sr - 2.0 * k.c2 * sr1)
    Fp_lo = lead / r + qj / r1 - 3.0 * k.c2 * sr + 2.0 * k.c2 * sr1
    Fp_hi = lead / r + qj / r1 + 3.0 * k.c2 * sr - 2.0 * k.c2 * sr1
    return F_lo, F_hi, Fp_lo, Fp_hi


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
    """Largest radius at which any of the validity inequalities still holds:
    the cubic-root smallness condition with rho0, and the three linear-growth
    comparisons against the F upper brackets. Each predicate probes F_bounds
    once per radius, and every probed radius is at least base >= r1."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    base = max(r1_bar(j, k), 1e-9)
    rho0 = rho_zero()

    def f_hi(r: float) -> float:
        return F_bounds(r, j, k)[1]

    def cubic_root(r: float) -> bool:
        F = f_hi(r)
        return F > 0 and k.c1 * F ** (1.0 / 3.0) >= rho0 * r ** (2.0 / 3.0)

    preds = [
        lambda r: f_hi(r) / r >= (1.0 / (9.0 * k.c3)) ** 3 * r,
        lambda r: f_hi(r) / r >= r,
    ]
    if k.c1 > 0:
        preds += [cubic_root, lambda r: F_bounds(r, j, k)[3] >= (3.0 / (4.0 * k.c1)) ** 3 * r]
    return max(_sup_below(p, base) for p in preds)


def capacity_envelope(j: float, k: EnvelopeConstants) -> EnvelopeResult:
    """Two-sided capacity envelope at index j with r3 = j^{4/5}.

    Raises TooSmallJ when r3 < r1, where the F brackets are undefined.
    Results below the validity threshold r2 are computed and flagged by
    `admissible`: with order-one constants that threshold is astronomically
    larger than any desk-scale index, while the envelope scaling is already
    visible.
    """
    if j <= 0:
        raise ValueError("j must be positive")
    r1 = r1_bar(j, k)
    r3 = j ** 0.8
    if r3 < r1 or r1 <= 0:
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
