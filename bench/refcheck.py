"""Independent correctness checks for benchmark outputs.

Nothing here imports echspec. Every reference is computed another way:

- capacities: the window [c_k0, c_k1] is enumerated by brute force over the
  larger generator (numpy), and the count below c_k0 is a direct lattice sum,
  never a Euclidean floor sum;
- defects: sqrt(2 j a b) with 128 fractional bits by integer isqrt, compared
  with the printed d against the printed d_err;
- distinct values: one minimal representative per residue class, summed
  directly;
- zeta: for b/a = p/q in lowest terms, r(t + pq) = r(t) + 1 for the number
  r(t) of representations t = m q + n p, which turns the Barnes sum into
  (pq u)^-s sum_h [zeta(s-1, x_h) + (r(h) - x_h) zeta(s, x_h)] with u = a/q
  and x_h = (w + u h)/(pq u); mpmath evaluates the Hurwitz values;
- residues: the closed forms printed in the summary, and Laurent constants
  from the mpmath reference by a symmetric limit;
- envelope: the closed-form cascade for r1, r3, the F brackets and the
  envelope, in mpmath.

Not checked: the fitted summaries (dk's sup_exponent and friends, weyl's
fit_*), and the envelope's r2 and ``admissible``, which come from a bisection.

A float that reports an error estimate must lie within it: |d - ref| <= d_err,
and |x - ref| <= e * max(1, |ref|) for zeta's err and quad_err; a float
without one must meet that with e = DEFAULT_TOL. Missing it is an err-bound
violation. A wrong exact value, a raise, a nonzero exit, or a float whose
error exceeds HARD_TOL is a hard failure. Errors are reported as
|x - ref| / 2^floor(log2 max(1, |ref|)): relative to the binade of the
reference, so a correctly rounded float reads at most 2^-53 whatever its
mantissa, and values near zero do not dominate.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

HARD_TOL = 1e-6
DEFAULT_TOL = 1e-12
DEFECT_BITS = 128

HEADERS = {
    "capacities": ["k", "c_num", "c_den", "c_float"],
    "dk": ["j", "c_num", "c_den", "d", "d_err"],
    "weyl": ["R_num", "R_den", "count_classes", "count_values"],
    "zeta": ["s_re", "s_im", "value_re", "value_im", "err"],
    "residues": [
        "convention", "point", "residue_re", "residue_im", "constant_re", "constant_im", "quad_err",
    ],
    "envelope": [
        "j", "r1", "r2", "r3", "F_lo", "F_hi", "e_lo", "e_hi", "c_lo", "c_hi",
        "width_over_j25", "r1_minus_leading", "admissible",
    ],
}


class Verdict:
    """Findings for one op."""

    def __init__(self):
        self.hard: list[str] = []
        self.soft: list[str] = []
        self.max_rel_err = 0.0
        self.rows = 0

    def fail(self, msg: str):
        self.hard.append(msg)

    def exact(self, what: str, got, want):
        if got != want:
            self.fail(f"{what}: got {got}, want {want}")

    def error(self, what: str, rel: float, within: bool):
        """Record a float's error and whether it is within its reported bound."""
        self.max_rel_err = max(self.max_rel_err, rel)
        if not rel <= HARD_TOL:
            self.fail(f"{what}: error {rel:.3g} beyond {HARD_TOL:g}")
        elif not within:
            self.soft.append(f"{what}: error {rel:.3g} beyond its reported bound")

    def close(self, what: str, got, ref, bound: float | None = None):
        """Compare a printed float (or complex) with an mpmath/rational
        reference; ``bound`` is the error the output reports."""
        ref = mpmath.mpmathify(ref)
        err = abs(mpmath.mpmathify(got) - ref)
        within = err <= (DEFAULT_TOL if bound is None else bound) * max(1, abs(ref))
        self.error(what, float(err / binade(float(abs(ref)))), within)


def binade(x: float) -> float:
    """2^floor(log2 max(1, x)): the scale of a mixed error."""
    return 2.0 ** (math.frexp(max(1.0, x))[1] - 1)


# ------------------------------------------------------------ parsing

def parse_table(cmd: str, text: str, fmt: str, v: Verdict):
    """(rows as lists of strings, summary dict) of a CLI output, or None."""
    header = HEADERS[cmd]
    if fmt == "json":
        try:
            doc = json.loads(text)
            rows = [[str(r[h]) for h in header] for r in doc["rows"]]
            return rows, {k: str(x) for k, x in doc["summary"].items()}
        except (ValueError, KeyError, TypeError) as exc:
            v.fail(f"malformed JSON output: {exc}")
            return None
    lines = text.splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    summary = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    if not data or data[0].split(",") != header:
        v.fail(f"bad CSV header: {data[:1]}")
        return None
    rows = list(csv.reader(data[1:]))
    if any(len(r) != len(header) for r in rows):
        v.fail("CSV row with the wrong number of fields")
        return None
    return rows, summary


# ----------------------------------------------------------- lattice

def scaled(a: str, b: str) -> tuple[int, int, int]:
    """(A, B, den) with a = A/den, b = B/den."""
    fa, fb = Fraction(a), Fraction(b)
    den = math.lcm(fa.denominator, fb.denominator)
    return fa.numerator * (den // fa.denominator), fb.numerator * (den // fb.denominator), den


def _int64_for(n: int):
    if n >= 2**62:
        raise OverflowError("reference lattice sums need values below 2**62")
    return np.int64


def lattice_count(A: int, B: int, v: int) -> int:
    """#{(m, n) >= 0 : m A + n B <= v}, summed over multiples of the larger axis."""
    if v < 0:
        return 0
    g, G = min(A, B), max(A, B)
    m = np.arange(v // G + 1, dtype=_int64_for(v))
    return int(((v - m * G) // g + 1).sum())


def lattice_window(A: int, B: int, lo: int, hi: int) -> np.ndarray:
    """Sorted multiset of lattice values m A + n B in [lo, hi]."""
    g, G = min(A, B), max(A, B)
    base = np.arange(hi // G + 1, dtype=_int64_for(hi)) * G
    n_lo = np.maximum(0, -((base - lo) // g))
    cnt = np.maximum((hi - base) // g - n_lo + 1, 0)
    first = np.repeat(base + n_lo * g, cnt)
    step = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    vals = first + step * g
    vals.sort()
    return vals


def distinct_count(A: int, B: int, T: int) -> int:
    """Distinct values of m A + n B in [0, T]: each residue class mod A'
    (A' <= B' the reduced axes) has one minimal representative n B'."""
    if T < 0:
        return 0
    g = math.gcd(A, B)
    Ap, Bp = sorted((A // g, B // g))
    X = T // g
    rep = np.arange(Ap, dtype=_int64_for(Ap * Bp + X)) * Bp
    rep = rep[rep <= X]
    return int(((X - rep) // Ap + 1).sum())


def check_capacities(v: Verdict, a: str, b: str, k0: int, k1: int, ks, nums, dens) -> list[int]:
    """Exact check of a contiguous block; returns the scaled values."""
    A, B, den = scaled(a, b)
    v.exact("indices", list(ks), list(range(k0, k1 + 1)))
    vals = []
    for num, d in zip(nums, dens):
        if (num * den) % d:
            v.fail(f"capacity {num}/{d} is not a lattice value of E({a},{b})")
            return []
        vals.append(num * den // d)
    if v.hard or not vals:
        return vals
    below = lattice_count(A, B, vals[0] - 1)
    window = lattice_window(A, B, vals[0], vals[-1])
    want = window[k0 - below : k1 - below + 1].tolist() if k0 >= below else []
    if vals != want:
        bad = next((i for i, (x, y) in enumerate(zip(vals, want)) if x != y), min(len(vals), len(want)))
        v.fail(f"E({a},{b}) capacity at k={k0 + bad} disagrees with the lattice count")
    return vals


def check_defects(v: Verdict, a: str, b: str, js, svals, ds, derrs):
    """d_j = c_j - sqrt(2 j a b) against a 128-bit reference and d_err."""
    A, B, den = scaled(a, b)
    unit = den << DEFECT_BITS
    worst, violations = 0.0, 0
    for j, s, d, e in zip(js, svals, ds, derrs):
        X = (s << DEFECT_BITS) - math.isqrt((2 * j * A * B) << (2 * DEFECT_BITS))
        n, m = d.as_integer_ratio()
        diff = abs(n * unit - X * m)  # |d - ref| * m * unit
        rel = diff / (m * unit) / binade(abs(X) / unit)
        worst = max(worst, rel)
        en, em = e.as_integer_ratio()
        if diff * em > en * m * unit:
            violations += 1
    v.error(f"d over {len(ds)} rows" + (f", {violations} beyond d_err" if violations else ""),
            worst, violations == 0)


def check_floats_exact(v: Verdict, what: str, floats, nums, dens):
    """Floats printed for exact rationals, to DEFAULT_TOL."""
    worst = 0.0
    for x, num, d in zip(floats, nums, dens):
        n, m = x.as_integer_ratio()
        worst = max(worst, abs(n * d - num * m) / (m * d) / binade(num / d))
    v.error(what, worst, worst <= DEFAULT_TOL)  # binade scale <= max(1, c): stricter


# ---------------------------------------------------------------- zeta

class ZetaReference:
    """mpmath values of the spectrum zeta for rational axis ratios."""

    def __init__(self, dps: int = 20):
        self.dps = dps
        self._interior = {}

    def interior(self, a: str, b: str, s) -> mpmath.mpc:
        key = (a, b, s)
        if key not in self._interior:
            with mpmath.workdps(max(self.dps, mpmath.mp.dps)):
                self._interior[key] = self._barnes(Fraction(a), Fraction(b), s)
        return self._interior[key]

    @staticmethod
    def _barnes(fa: Fraction, fb: Fraction, s) -> mpmath.mpc:
        """sum over m, n >= 1 of (m a + n b)^-s, as Barnes(s, w = a + b)."""
        ratio = fb / fa
        p, q = ratio.numerator, ratio.denominator
        L = p * q
        u = fa / q
        w = fa + fb
        s = mpmath.mpmathify(s)
        step = mpmath.mpf(u.numerator) / u.denominator * L
        total = mpmath.mpc(0)
        for h in range(L):
            r_h = sum(1 for m in range(h // q + 1) if (h - m * q) % p == 0)
            x = (w + u * h) / (u * L)
            xh = mpmath.mpf(x.numerator) / x.denominator
            total += mpmath.zeta(s - 1, xh) + (r_h - xh) * mpmath.zeta(s, xh)
        return step ** (-s) * total

    def value(self, a: str, b: str, s, convention: str):
        inner = self.interior(a, b, s)
        if convention == "interior":
            return inner
        with mpmath.workdps(max(self.dps, mpmath.mp.dps)):
            s = mpmath.mpmathify(s)
            fa, fb = (mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in (a, b))
            return inner + (fa ** (-s) + fb ** (-s)) * mpmath.zeta(s)

    def constant(self, a: str, b: str, s0: int, convention: str):
        """Constant Laurent term at a simple pole s0, as the symmetric limit
        (f(s0 + h) + f(s0 - h)) / 2 with an error of order h^2; the pole
        terms cancel, so 20 extra digits cover the 12 lost to them."""
        h = mpmath.mpf("1e-12")
        with mpmath.extradps(20):
            up = self.value(a, b, s0 + h, convention)
            dn = self.value(a, b, s0 - h, convention)
            return (up + dn) / 2


# ------------------------------------------------------------ per op

def check_op(op: dict, code, error, text: str, zref: ZetaReference) -> Verdict:
    v = Verdict()
    if error is not None:
        v.fail("raised: " + error.strip().splitlines()[-1])
        return v
    if op["via"] == "cli" and code != 0:
        v.fail(f"exit code {code}")
        return v
    try:
        with mpmath.workdps(zref.dps):
            CHECKS[op["op"]](v, op, text, zref)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        v.fail(f"unparseable output: {exc!r}")
    return v


def _lines(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in text.splitlines() if ln]


def _block(v, op, rows, k_col=0, num_col=1, den_col=2):
    ks = [int(r[k_col]) for r in rows]
    nums = [int(r[num_col]) for r in rows]
    dens = [int(r[den_col]) for r in rows]
    v.rows = len(rows)
    return ks, nums, dens, check_capacities(v, op["a"], op["b"], op["k0"], op["k1"], ks, nums, dens)


def _check_capacities_cli(v, op, text, zref):
    parsed = parse_table("capacities", text, op.get("format", "csv"), v)
    if parsed:
        rows, _ = parsed
        ks, nums, dens, _ = _block(v, op, rows)
        check_floats_exact(v, "c_float", [float(r[3]) for r in rows], nums, dens)


def _check_defect_rows(v, op, rows):
    ks, nums, dens, svals = _block(v, op, rows)
    if svals:
        check_defects(v, op["a"], op["b"], ks, svals,
                      [float(r[3]) for r in rows], [float(r[4]) for r in rows])


def _check_dk(v, op, text, zref):
    parsed = parse_table("dk", text, op.get("format", "csv"), v)
    if parsed:
        _check_defect_rows(v, op, parsed[0])


def _check_lib_block(v, op, text, zref):
    _block(v, op, _lines(text))


def _check_d_sequence(v, op, text, zref):
    _check_defect_rows(v, op, _lines(text))


def _check_distinct(v, op, text, zref):
    A, B, den = scaled(op["a"], op["b"])
    rows = _lines(text)
    v.rows = len(rows)
    v.exact("radii", [r[0] for r in rows], op["radii"])
    for R, n in rows:
        R = Fraction(R)
        v.exact(f"distinct values <= {R}", int(n), distinct_count(A, B, R.numerator * den // R.denominator))


def _check_weyl(v, op, text, zref):
    parsed = parse_table("weyl", text, "csv", v)
    if not parsed:
        return
    rows, _ = parsed
    A, B, den = scaled(op["a"], op["b"])
    v.rows = len(rows)
    radii = [Fraction(int(r[0]), int(r[1])) for r in rows]
    v.exact("radii", radii, [Fraction(R) for R in op["radii"]])
    for R, r in zip(radii, rows):
        T = R.numerator * den // R.denominator
        v.exact(f"classes <= {R}", int(r[2]), lattice_count(A, B, T))
        v.exact(f"values <= {R}", int(r[3]), distinct_count(A, B, T))


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _check_zeta(v, op, text, zref):
    parsed = parse_table("zeta", text, "csv", v)
    if not parsed:
        return
    rows, _ = parsed
    v.rows = len(rows)
    if len(rows) != 1:
        v.fail(f"expected one zeta row, got {len(rows)}")
        return
    s_re, s_im, val_re, val_im, err = (float(x) for x in rows[0])
    v.exact("s", (s_re, s_im), tuple(op["s"]))
    ref = zref.value(op["a"], op["b"], complex(*op["s"]), op["convention"])
    v.close(f"zeta({s_re},{s_im}) {op['convention']}", complex(val_re, val_im), ref, err)


def _check_residues(v, op, text, zref):
    parsed = parse_table("residues", text, "csv", v)
    if not parsed:
        return
    rows, summary = parsed
    v.rows = len(rows)
    a, b = Fraction(op["a"]), Fraction(op["b"])
    res1 = (a + b) / (2 * a * b)
    zero = Fraction(1, 4) + (a * a + b * b) / (12 * a * b)
    layout = [(conv, p) for conv in ("interior", "full") for p in (1, 2, 0)]
    v.exact("row layout", [(r[0], float(r[1])) for r in rows], [(c, float(p)) for c, p in layout])
    if v.hard:
        return
    for (conv, point), r in zip(layout, rows):
        res = complex(float(r[2]), float(r[3]))
        const = complex(float(r[4]), float(r[5]))
        quad_err = float(r[6])
        if point == 0:
            v.exact(f"{conv} residue at 0", res, 0j)
            want = zero if conv == "interior" else zero - 1
            v.close(f"{conv} value at 0", const, _mpf(want), quad_err)
            continue
        want_res = 1 / (a * b) if point == 2 else (res1 if conv == "full" else -res1)
        v.close(f"{conv} residue at {point}", res, _mpf(want_res), quad_err)
        v.close(f"{conv} constant at {point}", const,
                zref.constant(op["a"], op["b"], point, conv), quad_err)
    v.close("expected_res_s2", float(summary["expected_res_s2"]), _mpf(1 / (a * b)))
    v.close("expected_abs_res_s1", float(summary["expected_abs_res_s1"]), _mpf(res1))
    v.close("expected_zero_interior", float(summary["expected_zero_interior"]), _mpf(zero))


def _check_envelope(v, op, text, zref):
    parsed = parse_table("envelope", text, "csv", v)
    if not parsed:
        return
    rows, summary = parsed
    v.rows = len(rows)
    k = dict(f.split("=") for f in summary["constants"].split())
    q, c0, c1, c2, c3, vol = (mpmath.mpf(k[n]) for n in ("q", "c0", "c1", "c2", "c3", "vol"))
    n = op["per_decade"]
    exps = [op["e0"] + Fraction(i, n) for i in range((op["e1"] - op["e0"]) * n + 1)]
    v.exact("row count", len(rows), len(exps))
    t = 2 * c1 / 3
    v.close("c3", float(c3), 1 + 3 * t + 3 * t * t)
    pi = mpmath.pi
    for x, r in zip(exps, rows):
        vals = {h: float(val) for h, val in zip(HEADERS["envelope"], r)}
        v.close(f"j=10^{x}", vals["j"], mpmath.power(10, _mpf(x)))
        j = mpmath.mpf(vals["j"])
        alpha = vol / (4 * pi**2)
        r1 = (c0 + mpmath.sqrt(c0**2 + 4 * alpha * (q + j))) / (2 * alpha)
        r3 = j ** mpmath.mpf("0.8")
        qj = q + j
        lead = r1 * r1 * vol / 2
        F_lo = lead + r3 * (qj / r1 - qj / r3 - 2 * c2 * mpmath.sqrt(r3) + 2 * c2 * mpmath.sqrt(r1))
        F_hi = lead + r3 * (qj / r1 - qj / r3 + 2 * c2 * mpmath.sqrt(r3) - 2 * c2 * mpmath.sqrt(r1))
        e_hi0 = lead / r3 + qj / r1 + 2 * c2 * mpmath.sqrt(r3)
        e_lo0 = qj / r1 - qj / r3 - 2 * c2 * mpmath.sqrt(r3)
        R = 4 * c3 / mpmath.cbrt(r3) * mpmath.cbrt(max(e_hi0, 0))
        e_lo, e_hi = sorted((e_lo0 * (1 - R), e_hi0 * (1 + R)))
        refs = {
            "r1": r1, "r3": r3, "F_lo": F_lo, "F_hi": F_hi, "e_lo": e_lo, "e_hi": e_hi,
            "c_lo": e_lo / (2 * pi), "c_hi": e_hi / (2 * pi),
            "width_over_j25": (e_hi - e_lo) / (2 * pi) / j ** mpmath.mpf("0.4"),
            "r1_minus_leading": r1 - 2 * pi * mpmath.sqrt(j / vol),
        }
        for name, ref in refs.items():
            v.close(f"{name} at j=10^{x}", vals[name], ref)


CHECKS = {
    "capacities": _check_capacities_cli,
    "dk": _check_dk,
    "weyl": _check_weyl,
    "zeta": _check_zeta,
    "residues": _check_residues,
    "envelope": _check_envelope,
    "spectrum_range": _check_lib_block,
    "nth_capacity": _check_lib_block,
    "d_sequence": _check_d_sequence,
    "distinct_values_leq": _check_distinct,
}
