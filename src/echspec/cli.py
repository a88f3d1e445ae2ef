"""Command-line front end.

Subcommands: capacities | weyl | dk | zeta | residues | envelope.
Data goes to stdout as CSV (default) or JSON; diagnostics go to stderr.
Exact rationals are always emitted as integer numerator/denominator pairs,
never as decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .asymptotics import contact_volume, d_sequence, exponent_fit, weyl_count, weyl_fit
from .envelope import EnvelopeConstants, capacity_envelope
from .spectrum import EchspecError, Ellipsoid, spectrum_range
from .zeta import ZetaConvention, ech_zeta, laurent_at


class CLIError(EchspecError):
    """Malformed command-line input; main exits with status 2."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string; decimal notation is rejected so no
    binary rounding can sneak into the exact inputs."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise CLIError(f"decimal input rejected, use p/q form: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"cannot parse rational {text!r}: {exc}") from exc


def parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise CLIError(f"range must be 'lo..hi': {text!r}") from exc
    if lo > hi:
        raise CLIError(f"empty range: {text!r}")
    return lo, hi


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise CLIError(f"cannot parse complex {text!r}: {exc}") from exc
    raise CLIError(f"complex value must be 're' or 're,im': {text!r}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- output

def emit(cfg, header: list[str], rows: list[dict], summary: dict, warnings: list[str]):
    out = sys.stdout
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if cfg.format == "json":
        doc = {
            "config": {k: v for k, v in vars(cfg).items() if k != "func"},
            "rows": rows,
            "summary": summary,
            "warnings": warnings,
        }
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(row[h]) for h in header) + "\n")
        for key, val in summary.items():
            out.write(f"# {key}={val}\n")


# ------------------------------------------------------------- commands

def _ellipsoid(cfg) -> Ellipsoid:
    return Ellipsoid(parse_rational(cfg.a), parse_rational(cfg.b))


def cmd_capacities(cfg) -> int:
    E = _ellipsoid(cfg)
    k0, k1 = parse_range(cfg.range)
    if k0 < 0:
        raise CLIError("capacity indices must be nonnegative")
    rows = [
        {
            "k": k,
            "c_num": c.numerator,
            "c_den": c.denominator,
            "c_float": _fmt(c.numerator / c.denominator),
        }
        for k, c in spectrum_range(E, k0, k1)
    ]
    emit(cfg, ["k", "c_num", "c_den", "c_float"], rows, {}, [])
    return 0


def cmd_weyl(cfg) -> int:
    E = _ellipsoid(cfg)
    if not cfg.R:
        raise CLIError("weyl requires -R")
    R_list = [parse_rational(t) for t in cfg.R.split(",")]
    rows = []
    for R in R_list:
        s = weyl_count(E, R)
        rows.append(
            {
                "R_num": R.numerator,
                "R_den": R.denominator,
                "count_classes": s.count_classes,
                "count_values": s.count_values,
            }
        )
    summary = {}
    warnings = []
    if len(R_list) >= 3 and all(R_list[i] < R_list[i + 1] for i in range(len(R_list) - 1)):
        fit = weyl_fit(E, R_list)
        vol = contact_volume(E)
        summary = {
            "fit_coefficient": _fmt(fit.coefficient),
            "fit_remainder_exponent": _fmt(fit.exponent),
            "coefficient_over_inv_2ab": _fmt(fit.coefficient * 2.0 * float(vol)),
            "coefficient_over_inv_vol": _fmt(fit.coefficient * float(vol)),
        }
        warnings.append(
            "leading coefficient tracks 1/(2ab); the two-periodicity count "
            "(2^d-1)/vol exceeds it by a factor of about 2"
        )
    emit(cfg, ["R_num", "R_den", "count_classes", "count_values"], rows, summary, warnings)
    return 0


def cmd_dk(cfg) -> int:
    E = _ellipsoid(cfg)
    j0, j1 = parse_range(cfg.range)
    if j0 < 0:
        raise CLIError("grading indices must be nonnegative")
    points = d_sequence(E, j0, j1)
    rows = [
        {
            "j": p.j,
            "c_num": p.c.numerator,
            "c_den": p.c.denominator,
            "d": _fmt(p.d),
            "d_err": _fmt(p.d_err),
        }
        for p in points
    ]
    warnings = []
    bound = E.safe_coefficient_bound()
    if bound > 1 and float(points[-1].c) / min(float(E.a), float(E.b)) >= bound:
        warnings.append(
            "lattice coefficients reach the approximant denominator; "
            "ties may be artifacts of the rational approximation"
        )
    summary = {}
    usable = [p for p in points if p.j >= 1]
    if len(usable) >= 2:
        fit = exponent_fit(usable, cfg.windows)
        summary = {
            "sup_exponent": _fmt(fit.exponent),
            "sup_coefficient": _fmt(fit.coefficient),
            "fit_window": f"{fit.window[0]}..{fit.window[1]}",
        }
    emit(cfg, ["j", "c_num", "c_den", "d", "d_err"], rows, summary, warnings)
    return 0


def cmd_zeta(cfg) -> int:
    E = _ellipsoid(cfg)
    if not cfg.s:
        raise CLIError("zeta requires at least one -s")
    conv = ZetaConvention(cfg.convention)
    rows = []
    for text in cfg.s:
        s = parse_complex(text)
        val = ech_zeta(s, E, conv)
        rows.append(
            {
                "s_re": _fmt(s.real),
                "s_im": _fmt(s.imag),
                "value_re": _fmt(val.real),
                "value_im": _fmt(val.imag),
                "err": _fmt(cfg.tol),
            }
        )
    emit(cfg, ["s_re", "s_im", "value_re", "value_im", "err"], rows, {}, [])
    return 0


def cmd_residues(cfg) -> int:
    E = _ellipsoid(cfg)
    a, b = float(E.a), float(E.b)
    rows = []
    warnings = ["distinct convention has no continuation at the poles; skipped"]
    for conv in (ZetaConvention.INTERIOR, ZetaConvention.FULL):
        f = lambda s, c=conv: ech_zeta(s, E, c)
        for s0 in (1.0, 2.0):
            lau = laurent_at(f, s0, radius=0.3, n_points=64, tol=cfg.tol)
            rows.append(
                {
                    "convention": conv.value,
                    "point": _fmt(s0),
                    "residue_re": _fmt(lau.residue.real),
                    "residue_im": _fmt(lau.residue.imag),
                    "constant_re": _fmt(lau.constant.real),
                    "constant_im": _fmt(lau.constant.imag),
                    "quad_err": _fmt(lau.quad_err),
                }
            )
        val0 = ech_zeta(0.0, E, conv)
        rows.append(
            {
                "convention": conv.value,
                "point": _fmt(0.0),
                "residue_re": _fmt(0.0),
                "residue_im": _fmt(0.0),
                "constant_re": _fmt(val0.real),
                "constant_im": _fmt(val0.imag),
                "quad_err": _fmt(0.0),
            }
        )
    summary = {
        "expected_res_s2": _fmt(1.0 / (a * b)),
        "expected_abs_res_s1": _fmt(0.5 * (1.0 / a + 1.0 / b)),
        "expected_zero_interior": _fmt(0.25 + (b / a + a / b) / 12.0),
        "note": "res at s=1 is positive for full and negative for interior",
    }
    emit(
        cfg,
        [
            "convention",
            "point",
            "residue_re",
            "residue_im",
            "constant_re",
            "constant_im",
            "quad_err",
        ],
        rows,
        summary,
        warnings,
    )
    return 0


def cmd_envelope(cfg) -> int:
    e0, e1 = parse_range(cfg.range)
    k = EnvelopeConstants(
        q=cfg.q,
        c0=cfg.c0,
        c1=cfg.c1,
        c2=cfg.c2,
        vol=cfg.vol,
        c3_override=cfg.c3,
    )
    rows = []
    n = max(1, cfg.per_decade)
    js = sorted({10.0 ** (e0 + i / n) for i in range((e1 - e0) * n + 1)})
    for j in js:
        res = capacity_envelope(j, k)
        rows.append(
            {
                "j": _fmt(res.j),
                "r1": _fmt(res.r1),
                "r2": _fmt(res.r2),
                "r3": _fmt(res.r3),
                "F_lo": _fmt(res.F_lo),
                "F_hi": _fmt(res.F_hi),
                "e_lo": _fmt(res.e_lo),
                "e_hi": _fmt(res.e_hi),
                "c_lo": _fmt(res.c_lo),
                "c_hi": _fmt(res.c_hi),
                "width_over_j25": _fmt((res.c_hi - res.c_lo) / res.j**0.4),
                "r1_minus_leading": _fmt(res.r1 - 2.0 * math.pi * math.sqrt(res.j / k.vol)),
                "admissible": int(res.admissible),
            }
        )
    emit(
        cfg,
        [
            "j",
            "r1",
            "r2",
            "r3",
            "F_lo",
            "F_hi",
            "e_lo",
            "e_hi",
            "c_lo",
            "c_hi",
            "width_over_j25",
            "r1_minus_leading",
            "admissible",
        ],
        rows,
        {"constants": f"q={k.q} c0={k.c0} c1={k.c1} c2={k.c2} c3={k.c3} vol={k.vol}"},
        [],
    )
    return 0


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="echspec", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, ellipsoid=True, tol=False):
        if ellipsoid:
            sp.add_argument("-a", required=True, help="first axis, as 'p/q' or integer")
            sp.add_argument("-b", required=True, help="second axis, as 'p/q' or integer")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("capacities", help="exact spectrum values over an index range")
    common(sp)
    sp.add_argument("-k", "--range", required=True, help="inclusive 'lo..hi'")
    sp.set_defaults(func=cmd_capacities)

    sp = sub.add_parser("weyl", help="counting-function samples and quadratic fit")
    common(sp)
    sp.add_argument("-R", required=True, help="comma-separated radii (rationals)")
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("dk", help="defect sequence with window sups and exponent fit")
    common(sp)
    sp.add_argument("-k", "--range", required=True, help="inclusive 'lo..hi'")
    sp.add_argument("--windows", type=int, default=12)
    sp.set_defaults(func=cmd_dk)

    sp = sub.add_parser("zeta", help="spectrum zeta values")
    common(sp, tol=True)
    sp.add_argument("-s", action="append", help="evaluation point 're,im' (repeatable)")
    sp.add_argument(
        "--convention", choices=[c.value for c in ZetaConvention], default="full"
    )
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("residues", help="Laurent data at the poles plus the value at 0")
    common(sp, tol=True)
    sp.set_defaults(func=cmd_residues)

    sp = sub.add_parser("envelope", help="capacity envelope sweep over decades of j")
    common(sp, ellipsoid=False)
    sp.add_argument("-k", "--range", required=True, help="decade exponents 'lo..hi'")
    sp.add_argument("--per-decade", type=int, default=1)
    sp.add_argument("--q", type=float, default=EnvelopeConstants.q)
    sp.add_argument("--c0", type=float, default=EnvelopeConstants.c0)
    sp.add_argument("--c1", type=float, default=EnvelopeConstants.c1)
    sp.add_argument("--c2", type=float, default=EnvelopeConstants.c2)
    sp.add_argument("--c3", type=float, default=None, help="override the derived c3")
    sp.add_argument("--vol", type=float, default=EnvelopeConstants.vol)
    sp.set_defaults(func=cmd_envelope)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return cfg.func(cfg)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, EchspecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
