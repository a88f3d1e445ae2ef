"""Seeded op lists for the three benchmark workloads.

An op is a plain dict. ``via`` says how it is driven: ``"cli"`` ops are argv
lists for ``echspec.cli.main``; ``"lib"`` ops name a public library function
and its arguments. The same (workload, seed) always yields the same list, and
nothing here imports echspec, so the checker can rebuild the inputs without
touching the code under test.

Costs depend on the seed only through jitter inside fixed strata, so every
seed does about the same amount of work; see README.md for why each workload
looks the way it does.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("table", "deep", "analytic")

# Each workload's run repeats its op list; per-op latency percentiles pool
# all timed passes, and the tail percentile is chosen for this many passes.
MIN_PASSES = 5

GOLDEN = ("1", "832040/514229")  # F(30)/F(29), continued fraction of the golden ratio
SILVER = ("1", "665857/470832")  # Pell convergent of sqrt(2)

TABLE_ELLIPSOIDS = (GOLDEN, SILVER, ("2", "3"))
# (op, format, rows): long contiguous blocks; every kind runs on every ellipsoid.
TABLE_KINDS = (
    ("dk", "csv", 20_000),
    ("dk", "json", 10_000),
    ("capacities", "csv", 30_000),
    ("capacities", "json", 10_000),
    ("d_sequence", None, 20_000),
    ("spectrum_range", None, 100_000),
)

# (a, b) with a < b: the request runs as E(a, b), which is the slow order for
# block enumeration today, and again as E(b, a).
DEEP_ELLIPSOIDS = (("1", "30"), ("3", "200/7"), GOLDEN)
# Per ellipsoid, kind i takes depth slots i, i + 4, i + 8 of a 12-point
# log-spaced grid, so the deepest slot runs a CLI capacities block.
DEEP_KINDS = ("nth_capacity", "spectrum_range", "dk", "capacities")
DEEP_DEPTHS = 12
DEEP_LOG10_DEPTH = (6.0, 11.0)
# Seeded jitter of each grid depth, in decades: op cost grows like sqrt(depth)
# in the slow order, so this keeps a run's cost within a few percent of any
# other seed's while every window lands somewhere new.
DEEP_JITTER = 0.02
# Window width of each depth slot. Fixed, because per-index search costs one
# binary search per value: shuffling widths would move op costs across seeds.
DEEP_WIDTHS = (16, 1, 9, 4, 12, 2, 15, 6, 3, 14, 8, 11)

ANALYTIC_ELLIPSOIDS = (("1", "2"), ("2", "3"), ("1/2", "3/2"))
# One seeded point per cell of this grid; both conventions at each point.
ANALYTIC_RE_EDGES = (-2.5, -2.0, -1.5, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
ANALYTIC_IM_EDGES = tuple(float(x) for x in range(-20, 21, 4))
# Fixed probes in the deepest corner of the region, where the continuation
# loses the most accuracy; they make max_rel_err the same for every seed.
ANALYTIC_PROBES = ((-3.0, 0.5), (-2.9, 0.5), (-2.75, 0.5))


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The op list of one workload. ``tiny`` shrinks every size for self-tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"table": _table, "deep": _deep, "analytic": _analytic}[workload](rng, tiny)


def argv(op: dict) -> list[str]:
    """Command line for a ``via == "cli"`` op, as a user would type it."""
    cmd = op["op"]
    if cmd == "envelope":
        return ["envelope", "-k", f"{op['e0']}..{op['e1']}", "--per-decade", str(op["per_decade"])]
    out = [cmd, "-a", op["a"], "-b", op["b"]]
    if cmd in ("capacities", "dk"):
        out += ["-k", f"{op['k0']}..{op['k1']}"]
    elif cmd == "weyl":
        out += ["-R", ",".join(op["radii"])]
    elif cmd == "zeta":
        re, im = op["s"]
        # "-s -2.5,1" would be read as an unknown flag, so the value is attached.
        out += [f"-s={re!r},{im!r}", "--convention", op["convention"]]
    if op.get("format", "csv") != "csv":
        out += ["--format", op["format"]]
    return out


def _cli(cmd: str, **kw) -> dict:
    return {"via": "cli", "op": cmd, **kw}


def _lib(fn: str, **kw) -> dict:
    return {"via": "lib", "op": fn, **kw}


def _table(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    for a, b in TABLE_ELLIPSOIDS:
        for op, fmt, rows in TABLE_KINDS:
            rows = rows // 1000 if tiny else rows
            k0 = int(10 ** rng.uniform(4.0, 6.0))
            span = dict(a=a, b=b, k0=k0, k1=k0 + rows - 1)
            if fmt is None:
                ops.append(_lib(op, **span))
            else:
                ops.append(_cli(op, format=fmt, **span))
    rng.shuffle(ops)
    return ops


def _both_orders(make, a: str, b: str) -> list[dict]:
    return [make(a, b), make(b, a)]


def _deep(rng: random.Random, tiny: bool) -> list[dict]:
    lo, hi = DEEP_LOG10_DEPTH
    depths = 4 if tiny else DEEP_DEPTHS
    if tiny:
        hi = lo + 1.0
    ops = []
    for a, b in DEEP_ELLIPSOIDS:
        for slot in range(depths):
            log_k = lo + (hi - lo) * (slot + 0.5) / depths + rng.uniform(-DEEP_JITTER, DEEP_JITTER)
            k0 = int(10**log_k)
            k1 = k0 + DEEP_WIDTHS[slot] - 1
            kind = DEEP_KINDS[slot % len(DEEP_KINDS)]
            via = _cli if kind in ("capacities", "dk") else _lib
            ops += _both_orders(lambda x, y: via(kind, a=x, b=y, k0=k0, k1=k1), a, b)
        # Counting at large radii: one weyl sweep and one distinct-value count.
        radii = [_radius(rng, a, b, lo + (hi - lo) * (i + rng.random()) / 4) for i in range(4)]
        ops += _both_orders(lambda x, y: _cli("weyl", a=x, b=y, radii=radii), a, b)
        radii = [_radius(rng, a, b, rng.uniform(lo, hi)) for _ in range(4)]
        ops += _both_orders(lambda x, y: _lib("distinct_values_leq", a=x, b=y, radii=radii), a, b)
    rng.shuffle(ops)
    return ops


def _radius(rng: random.Random, a: str, b: str, log10_count: float) -> str:
    """A rational radius whose lattice count is about 10**log10_count."""
    r = math.sqrt(2.0 * float(Fraction(a) * Fraction(b)) * 10**log10_count)
    den = rng.choice((1, 3, 7))
    return f"{int(r * den)}/{den}"


def _analytic(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    re_edges = ANALYTIC_RE_EDGES[:3] if tiny else ANALYTIC_RE_EDGES
    im_edges = ANALYTIC_IM_EDGES[4:7] if tiny else ANALYTIC_IM_EDGES
    points = []
    for i in range(len(re_edges) - 1):
        for j in range(len(im_edges) - 1):
            re = round(rng.uniform(re_edges[i], re_edges[i + 1]), 6)
            im = round(rng.uniform(im_edges[j], im_edges[j + 1]), 6)
            points.append((re, im))
    cells = [(ANALYTIC_ELLIPSOIDS[n % len(ANALYTIC_ELLIPSOIDS)], s) for n, s in enumerate(points)]
    probes = ANALYTIC_PROBES[:1] if tiny else ANALYTIC_PROBES
    cells += [(E, s) for E in ANALYTIC_ELLIPSOIDS for s in probes]
    for (a, b), s in cells:
        for conv in ("interior", "full"):
            ops.append(_cli("zeta", a=a, b=b, s=s, convention=conv))
    for a, b in ANALYTIC_ELLIPSOIDS[:1] if tiny else ANALYTIC_ELLIPSOIDS:
        ops.append(_cli("residues", a=a, b=b))
    e0 = rng.choice((3, 4, 5))
    ops.append(_cli("envelope", e0=e0, e1=e0 + (1 if tiny else 6), per_decade=4))
    rng.shuffle(ops)
    return ops
