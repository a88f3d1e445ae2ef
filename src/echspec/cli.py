"""Command-line front end.

Subcommands: capacities | weyl | dk | zeta | residues | envelope. Data goes to
stdout as CSV (default) or JSON; diagnostics go to stderr. The exact capacities
and radii of capacities, weyl and dk are emitted as integer
numerator/denominator pairs, and dk's defect limits as p/q; residues prints its
exact residues and values at s = 0, and its expected_* lines, as .17g floats.
Each cmd_* maps a parsed config to its table, the (header, rows, summary,
warnings) that emit takes. main is the one writer: it writes the table and
returns 0, or prints "error: ..." and returns 2 for a CLIError and 1 for any
other domain error, or returns 1 when the reader closes stdout early. It reads
a plain command line from the option table of parsers built once per process;
argparse reads any other and owns every usage error and help text. residues
takes each Laurent constant from one complex-step pass, with no contour and no
Barnes value. dk fits no sup exponent on less than an octave of indices.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from fractions import Fraction
from functools import cache

from .asymptotics import (
    FitResult,
    column_exponent_fit,
    defect_bound,
    defect_limits,
    scaled_defects,
    weyl_count,
    weyl_fit,
)
from .envelope import EnvelopeConstants, capacity_envelope
from .spectrum import EchspecError, Ellipsoid, as_float, map_distinct, scaled_spectrum
from .zeta import ZetaConvention, ech_laurent_pair, ech_zeta


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
    if len(parts) not in (1, 2):
        raise CLIError(f"complex value must be 're' or 're,im': {text!r}")
    try:
        z = complex(*map(float, parts))
    except ValueError as exc:
        raise CLIError(f"cannot parse complex {text!r}: {exc}") from exc
    if not cmath.isfinite(z):
        raise CLIError(f"complex value must be finite: {text!r}")
    return z


def _positive(kind):
    """argparse type: a finite `kind` value above zero; anything else exits 2,
    an int past the float range too."""
    def parse(text: str):
        value = kind(text)
        try:
            if math.isfinite(value) and value > 0:
                return value
        except OverflowError:
            pass
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
    parse.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return parse


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- output

# Rows are formatted and written this many at a time: holding the whole
# output text at once would add its size to the peak memory of a long table.
_CHUNK_ROWS = 256
# A JSON cell as json.dumps writes it (a float as its .17g text): a str cell is
# a .17g float or a convention name, with nothing to escape. Others: KeyError.
_JSON_CELL = {int: "%s", str: '"%s"', float: '"%.17g"'}


def emit(cfg, header: list[str], rows: list[tuple], summary: dict, warnings: list[str]):
    """Write the rows, tuples in header order, as CSV or as one JSON document,
    _CHUNK_ROWS rows at a time through one % template per row, each cell's form
    taken from the type of the first row's: a float as .17g text. The JSON text
    is what json.dump(doc, out, indent=2) writes: the document without its
    rows, which go in through a template of its row object."""
    out = sys.stdout
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if cfg.format == "json":
        import json  # here, not at the top: only --format json pays for it
        config = {k: v for k, v in vars(cfg).items() if k != "func"}
        doc = json.dumps({"config": config, "rows": [], "summary": summary, "warnings": warnings}, indent=2)
        head, key, tail = doc.partition('"rows": [')  # the key: json writes a " in a string as \"
        cells = [_JSON_CELL[type(cell)] for cell in rows[0]] if rows else []
        row = "\n    {" + ",".join(f"\n      {json.dumps(h)}: {c}" for h, c in zip(header, cells)) + "\n    }"
        head, sep, tail = head + key, ",", ("\n  " if rows else "") + tail + "\n"
    else:
        row = ",".join("%.17g" if type(cell) is float else "%s" for cell in rows[0]) + "\n" if rows else ""
        head, sep = ",".join(header) + "\n", ""
        tail = "".join(f"# {key}={val}\n" for key, val in summary.items())
    out.write(head)
    for i in range(0, len(rows), _CHUNK_ROWS):
        out.write((sep if i else "") + sep.join(map(row.__mod__, rows[i : i + _CHUNK_ROWS])))
    out.write(tail)


# ------------------------------------------------------------- commands

def _ellipsoid(cfg) -> Ellipsoid:
    return Ellipsoid(parse_rational(cfg.a), parse_rational(cfg.b))


def _fit(name: str, warnings: list[str], fit, *args) -> FitResult | None:
    """fit(*args), the rule for printing a fit summary: None, with the one
    warning "<name> fit omitted: <reason>", when the fit raises ValueError or
    the coefficient or exponent the summary prints is not finite."""
    try:
        result = fit(*args)
        if not (math.isfinite(result.coefficient) and math.isfinite(result.exponent)):
            raise ValueError(f"non-finite fit {result}")
        return result
    except ValueError as exc:
        warnings.append(f"{name} fit omitted: {exc}")
        return None


def _sup_fit(js: range, ds: list[float], windows: int) -> FitResult:
    """column_exponent_fit, refused on less than an octave of j >= 1."""
    lo, hi = max(js[0], 1), js[-1]
    if lo < hi < 2 * lo:  # window sups there give any slope; the min keeps .3g off 1
        raise ValueError(f"indices span {min(math.log2(hi / lo), 0.999):.3g} octaves, less than one")
    return column_exponent_fit(js, ds, windows)


def cmd_capacities(cfg) -> tuple:
    E = _ellipsoid(cfg)
    k0, k1 = parse_range(cfg.range)
    if k0 < 0:
        raise CLIError("capacity indices must be nonnegative")
    den = E.den
    def cells(v: int) -> tuple:  # v/den reduced, and its float
        g = math.gcd(v, den)
        return v // g, den // g, f"{v / den:.17g}"
    vals = scaled_spectrum(E, k0, k1)
    as_float(Fraction(vals[-1], den), "capacity")  # so every v / den below it fits
    cs = map_distinct(cells, vals)
    rows = [(k, p, q, c) for k, (p, q, c) in zip(range(k0, k1 + 1), cs)]
    return ["k", "c_num", "c_den", "c_float"], rows, {}, []


def cmd_weyl(cfg) -> tuple:
    E = _ellipsoid(cfg)
    if not cfg.R:
        raise CLIError("weyl requires -R")
    R_list = [parse_rational(t) for t in cfg.R.split(",")]
    rows = []
    for R in R_list:
        s = weyl_count(E, R)
        rows.append((R.numerator, R.denominator, s.count_classes, s.count_values))
    warnings = []
    fit = _fit("weyl", warnings, weyl_fit, E, R_list)
    summary = {
        "fit_coefficient": _fmt(fit.coefficient),
        "fit_remainder_exponent": _fmt(fit.exponent),
    } if fit else {}
    return ["R_num", "R_den", "count_classes", "count_values"], rows, summary, warnings


def cmd_dk(cfg) -> tuple:
    E = _ellipsoid(cfg)
    j0, j1 = parse_range(cfg.range)
    if j0 < 0:
        raise CLIError("grading indices must be nonnegative")
    den = E.den
    js = range(j0, j1 + 1)
    vals = scaled_spectrum(E, j0, j1)
    ds = scaled_defects(E, j0, vals)
    def cells(v: int) -> tuple:  # c = v/den reduced
        g = math.gcd(v, den)
        return v // g, den // g
    cs = map_distinct(cells, vals)
    err = _fmt(defect_bound(E, ds))  # one text, shared by every row
    rows = [(j, p, q, d, err) for j, (p, q), d in zip(js, cs, ds)]
    warnings = []
    fit = _fit("sup exponent", warnings, _sup_fit, js, ds, cfg.windows)
    summary = {
        "sup_exponent": _fmt(fit.exponent),
        "sup_coefficient": _fmt(fit.coefficient),
        "fit_window": f"{max(j0, 1)}..{j1}",
    } if fit else {}
    summary["defect_liminf"], summary["defect_limsup"] = map(str, defect_limits(E))
    return ["j", "c_num", "c_den", "d", "d_err"], rows, summary, warnings


def cmd_zeta(cfg) -> tuple:
    """The `err` column echoes --tol; it is not an error bound."""
    E = _ellipsoid(cfg)
    if not cfg.s:
        raise CLIError("zeta requires at least one -s")
    conv = ZetaConvention(cfg.convention)
    rows = []
    for text in cfg.s:
        s = parse_complex(text)
        val = ech_zeta(s, E, conv)
        rows.append((_fmt(s.real), _fmt(s.imag), _fmt(val.real), _fmt(val.imag), _fmt(cfg.tol)))
    return ["s_re", "s_im", "value_re", "value_im", "err"], rows, {}, []


def cmd_residues(cfg) -> tuple:
    E = _ellipsoid(cfg)
    pairs = [ech_laurent_pair(s0, E, cfg.tol) for s0 in (1, 2, 0)]
    rows = []
    for i, conv in enumerate((ZetaConvention.INTERIOR, ZetaConvention.FULL)):
        for lau in (pair[i] for pair in pairs):
            res, const = lau.residue, lau.constant
            numbers = (lau.center.real, res.real, res.imag, const.real, const.imag, lau.quad_err)
            rows.append((conv.value, *map(_fmt, numbers)))
    summary = {  # the closed forms the rows print, from the same exact rationals
        "expected_res_s2": _fmt(pairs[1][1].residue.real),
        "expected_abs_res_s1": _fmt(pairs[0][1].residue.real),
        "expected_zero_interior": _fmt(pairs[2][0].constant.real),
        "note": "res at s=1 is positive for full and negative for interior",
    }
    header = "convention point residue_re residue_im constant_re constant_im quad_err".split()
    return header, rows, summary, []


def cmd_envelope(cfg) -> tuple:
    e0, e1 = parse_range(cfg.range)
    if e1 > sys.float_info.max_10_exp:
        raise CLIError(f"10**{e1} overflows a float")
    k = EnvelopeConstants(q=cfg.q, c0=cfg.c0, c1=cfg.c1, c2=cfg.c2, vol=cfg.vol)
    rows = []
    n = cfg.per_decade
    js = sorted({10.0 ** (e0 + i / n) for i in range((e1 - e0) * n + 1)})
    for j in js:
        res = capacity_envelope(j, k)
        width = (res.c_hi - res.c_lo) / res.j**0.4
        r1_excess = res.r1 - 2.0 * math.pi * math.sqrt(res.j / k.vol)
        numbers = (res.j, res.r1, res.r2, res.r3, res.F_lo, res.F_hi, res.e_lo, res.e_hi,
                   res.c_lo, res.c_hi, width, r1_excess)
        rows.append((*map(_fmt, numbers), int(res.admissible)))
    header = ("j r1 r2 r3 F_lo F_hi e_lo e_hi c_lo c_hi width_over_j25 r1_minus_leading "
              "admissible").split()
    summary = {"constants": f"q={k.q} c0={k.c0} c1={k.c1} c2={k.c2} c3={k.c3} vol={k.vol}"}
    return header, rows, summary, []


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; main reuses one per process."""
    return _parsers()[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, list]]:
    p = argparse.ArgumentParser(prog="echspec", description="ECH capacities of ellipsoids and their zeta functions.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    table = {}  # per subparser, (action, appends) for each option in the order added

    def add(sp, *flags, **kw):
        table.setdefault(sp, []).append((sp.add_argument(*flags, **kw), kw.get("action") == "append"))

    def common(sp, ellipsoid=True, tol=False):
        if ellipsoid:
            add(sp, "-a", required=True, help="first axis, as 'p/q' or integer")
            add(sp, "-b", required=True, help="second axis, as 'p/q' or integer")
        add(sp, "--format", choices=["csv", "json"], default="csv")
        if tol:
            add(sp, "--tol", type=_positive(float), default=1e-10)

    sp = sub.add_parser("capacities", help="exact spectrum values over an index range")
    common(sp)
    add(sp, "-k", "--range", required=True, help="inclusive 'lo..hi'")
    sp.set_defaults(func=cmd_capacities)

    sp = sub.add_parser("weyl", help="counting-function samples and quadratic fit")
    common(sp)
    add(sp, "-R", required=True, help="comma-separated radii (rationals)")
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("dk", help="defect sequence with window sups and exponent fit")
    common(sp)
    add(sp, "-k", "--range", required=True, help="inclusive 'lo..hi'")
    add(sp, "--windows", type=_positive(int), default=12)
    sp.set_defaults(func=cmd_dk)

    sp = sub.add_parser("zeta", help="spectrum zeta values")
    common(sp, tol=True)
    add(sp, "-s", action="append", help="evaluation point 're,im' (repeatable)")
    add(sp, "--convention", choices=[c.value for c in ZetaConvention], default="full")
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("residues", help="Laurent data at the poles plus the value at 0")
    common(sp, tol=True)
    sp.set_defaults(func=cmd_residues)

    sp = sub.add_parser("envelope", help="capacity envelope sweep over decades of j")
    common(sp, ellipsoid=False)
    add(sp, "-k", "--range", required=True, help="decade exponents 'lo..hi'")
    add(sp, "--per-decade", type=_positive(int), default=1)
    for name, default in zip(EnvelopeConstants._fields, EnvelopeConstants()):
        add(sp, f"--{name}", type=float, default=default)
    sp.set_defaults(func=cmd_envelope)

    return p, sub.choices, {name: table[sp] for name, sp in sub.choices.items()}


_parser = cache(_parsers)  # a parse leaves the parsers as they were, and gets a new namespace


def _plain_parse(name: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace subcommand name's parser makes of args, read from its option
    table: each option spelled out, its value after "=" or as the next token (no
    leading "-" there; never "--", which argparse drops). Other args, a refused
    value or a missing required option give None, for the full parse."""
    _, subs, table = _parser()
    by_flag = {flag: opt for opt in table[name] for flag in opt[0].option_strings}
    got, i = {}, 0
    while i < len(args):
        flag, eq, value = args[i].partition("=")
        if not eq:
            i += 1
            value = args[i] if i < len(args) else "-"
        i += 1
        if flag not in by_flag or value == "--" or (not eq and value.startswith("-")):
            return None
        action, appends = by_flag[flag]
        try:
            value = action.type(value) if action.type else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse's usage errors
            return None
        if action.choices is not None and value not in action.choices:
            return None
        got[action.dest] = [*got.get(action.dest, action.default or ()), value] if appends else value
    if any(action.required and action.dest not in got for action, _ in table[name]):
        return None
    dests = {action.dest: got.get(action.dest, action.default) for action, _ in table[name]}
    return argparse.Namespace(subcommand=name, **dests, func=subs[name].get_default("func"))


def main(argv=None) -> int:
    (parser, subs, table), argv = _parser(), sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _plain_parse(argv[0], argv[1:]) if argv and argv[0] in subs else None
        if cfg is None:
            cfg = parser.parse_args(argv)
            for action, _ in table[cfg.subcommand]:  # argparse 3.11 stores opt=-- as []
                value = getattr(cfg, action.dest)
                if value == [] or isinstance(value, list) and [] in value:
                    subs[cfg.subcommand].error(f"argument {'/'.join(action.option_strings)}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        emit(cfg, *cfg.func(cfg))
        sys.stdout.flush()  # a reader that closed stdout early fails here, not at exit
    except BrokenPipeError:  # what is left in the buffer goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, EchspecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CLIError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
