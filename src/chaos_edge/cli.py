"""Command-line surface.

One subcommand per operation family; descriptors are JSON files (or ``-``
for stdin), rationals travel as ``p/q`` strings, and JSON output has sorted
keys so equal configurations give byte-identical reports.

Exit codes: 0 success, 2 input error, 3 precondition error, 4 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from . import boundary as bd
from . import entropy as en
from . import periods as pd
from . import renorm as rn
from . import symbolic as sy
from .config import DEFAULT, RunConfig
from .errors import (BudgetExhausted, DescriptorError, DomainEscapeError,
                     PreconditionError)
from .maps import build_base, is_exact, orbit, parse_map, rat, serialize_map, turning_points_of
from .markov import build_markov


def _read_descriptor(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DescriptorError(f"cannot read descriptor: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _emit_csv(rows, header) -> None:
    w = csv.writer(sys.stdout)
    w.writerow(header)
    w.writerows(rows)


def _config_from(args) -> RunConfig:
    """DEFAULT with the subcommand's ``--precision`` and ``--budget``, where it
    has them and they were given."""
    kw = {}
    if getattr(args, "precision", None) is not None:
        kw["precision"] = args.precision
    if getattr(args, "budget", None) is not None:
        kw["piece_budget"] = kw["orbit_budget"] = args.budget
    return DEFAULT.with_(**kw) if kw else DEFAULT


def _path_from(desc: dict) -> bd.ParameterPath:
    if "family" not in desc:
        raise DescriptorError("path descriptor needs a 'family' field")
    fam = desc["family"]
    try:
        if fam == "stunted":
            base = build_base(int(desc["m"]), int(desc.get("epsilon", 1)))
            xi0 = [rat(v) for v in desc["xi0"]]
            direction = [rat(v) for v in desc.get("direction", ["1"] * base.m)]
            return bd.stunted_path(base, xi0, direction, rat(desc["t_lo"]), rat(desc["t_hi"]))
        if fam == "quadratic":
            return bd.quadratic_path(float(desc["t_lo"]), float(desc["t_hi"]))
        if fam == "type_b":
            stages = [(int(e), float(a)) for e, a in desc["stages"]]
            return bd.type_b_path(stages, int(desc.get("stage_index", len(stages) - 1)),
                                  float(desc["t_lo"]), float(desc["t_hi"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DescriptorError(f"bad {fam!r} path descriptor: {exc}") from exc
    raise DescriptorError(f"unknown family {fam!r}")


# -- subcommands -------------------------------------------------------


def cmd_entropy(args) -> None:
    cfg = _config_from(args)
    m = parse_map(_read_descriptor(args.descriptor))
    if args.format == "csv":
        counts, _ = en.lap_series(m, args.n_max, cfg)
        _emit_csv(list(enumerate(counts, start=1)), ["n", "laps"])
        return
    lap = en.entropy_lap(m, args.n_max, cfg)
    out = {"lap": lap.as_dict(), "markov": None}
    if is_exact(m):
        out["markov"] = en.entropy_markov(m, cfg).as_dict()
    _emit_json(out)


def cmd_periods(args) -> None:
    cfg = _config_from(args)
    m = parse_map(_read_descriptor(args.descriptor))
    bound = args.bound
    if bound is None:
        bound = pd.PERIOD_BOUND_EXACT if is_exact(m) else pd.PERIOD_BOUND_FLOAT
    ps = pd.period_set(m, bound, cfg)
    if args.format == "csv":
        orbits = ps.orbits or {p: pd.periodic_points(m, p, cfg) for p in ps.periods}
        rows = [[p, oi, pi, str(x), orb.stability]
                for p in sorted(ps.periods)
                for oi, orb in enumerate(orbits[p])
                for pi, x in enumerate(orb.points)]
        _emit_csv(rows, ["period", "orbit", "index", "point", "stability"])
        return
    verdict, witness = pd.is_power_of_two_spectrum(ps)
    out = ps.as_dict()
    out["spectrum"] = verdict
    if witness is not None:
        out["spectrum_witness"] = witness
    _emit_json(out)


def cmd_kneading(args) -> None:
    m = parse_map(_read_descriptor(args.descriptor))
    nu = sy.kneading(m, args.depth)
    _emit_json({"depth": nu.depth, "nu": nu.as_strings()})


def cmd_shape(args) -> None:
    m = parse_map(_read_descriptor(args.descriptor))
    tau = sy.shape(m)
    _emit_json({"pairs": [list(p) for p in tau.pairs], "value_count": tau.value_count})


def cmd_psi(args) -> None:
    m = parse_map(_read_descriptor(args.descriptor))
    mturn = len(turning_points_of(m))
    base = build_base(mturn, sy.orientation(m))
    res = sy.psi(m, base, args.depth)
    _emit_json({"m": mturn,
                "s": [str(s) for s in res.s],
                "widths": [str(w) for w in res.widths],
                "stunted": serialize_map(res.stunted)})


def cmd_renorm(args) -> None:
    cfg = _config_from(args)
    m = parse_map(_read_descriptor(args.descriptor))
    if args.cascade:
        trace = rn.cascade_trace(m, args.cascade, cfg)
        _emit_json({"depth": trace.depth, "reason": trace.reason,
                    "levels": [{"interval": [str(l.original.lo), str(l.original.hi)],
                                "relative_period": l.relative_period}
                               for l in trace.levels]})
        return
    ri = rn.find_restrictive(m, args.period, cfg)
    if ri is None:
        _emit_json({"restrictive": None, "period": args.period})
        return
    _emit_json({"restrictive": {"lo": str(ri.interval.lo), "hi": str(ri.interval.hi),
                                "turning_hits": list(ri.turning_hits)},
                "period": ri.period})


def cmd_feigenbaum(args) -> None:
    fam = rn.QuadraticFamily()
    est = rn.feigenbaum_delta(fam, args.k_max)
    if args.format == "csv":
        rows = []
        for k, c in enumerate(est.params):
            d = est.deltas[k - 2] if 2 <= k < 2 + len(est.deltas) else ""
            rows.append([k, repr(c), d])
        _emit_csv(rows, ["k", "c_k", "delta_k"])
        return
    _emit_json({"params": [repr(c) for c in est.params],
                "deltas": list(est.deltas),
                "value": est.value,
                "precision_flag": est.precision_flag})


def cmd_boundary(args) -> None:
    cfg = _config_from(args)
    path = _path_from(_read_descriptor(args.descriptor))
    resolution = args.resolution
    if resolution is not None and not path.exact:
        resolution = float(resolution)
    res = bd.locate_boundary(path, bound=args.bound, resolution=resolution, config=cfg)
    report = res.as_dict()
    if path.kind == "quadratic":
        # diagnostic only: the doubling-ratio extrapolation of the
        # accumulation point, for cross-validation against the bracket
        est = rn.feigenbaum_delta(rn.QuadraticFamily(), 8)
        cs = est.params
        report["superstable_extrapolation"] = cs[-1] + (cs[-1] - cs[-2]) / (est.value - 1)
    _emit_json(report)


def cmd_sweep(args) -> None:
    """One CSV row per grid point t = t_lo + (t_hi - t_lo)·k/(grid - 1).  A
    stunted path's rows come from ``_stunted_rows``: each row's int lattice
    is built from the path's numerators (``ParameterPath.lattice_at`` at
    k over grid - 1), and consecutive rows with one transition graph share
    one entropy computation.  A float path's row is its map's lap entropy
    (with ``--with-entropy``), attracting periods and orbit samples."""
    cfg = _config_from(args)
    path = _path_from(_read_descriptor(args.descriptor))
    n = args.grid
    if n < 2:
        raise PreconditionError("grid size must be >= 2")
    if path.exact:
        rows = list(_stunted_rows(path, n, cfg))
    else:
        rows = [_float_row(path, path.t_lo + (path.t_hi - path.t_lo) * k / (n - 1), args, cfg)
                for k in range(n)]
    _emit_csv(rows, ["t", "entropy", "attracting_period", "orbit_samples"])


def _float_row(path, t, args, cfg):
    """A float path's row at t; "error: ..." when t leaves the family."""
    try:
        m = path.map_at(t)
    except ValueError as exc:
        return [str(t), "", "", f"error: {exc}"]
    h = ""
    if args.with_entropy:
        try:
            h = en.entropy_lap(m, args.n_max, cfg).value
        except BudgetExhausted:
            pass
    return [str(t), h, _attracting_summary(m), ";".join(_orbit_samples(m))]


# a sweep prints the first turning point's orbit at steps 513..528; on a
# stunted map that is the first plateau value's orbit at steps 512..527
SAMPLE_STEPS = range(512, 528)


def _ratio_text(y: int, n: int) -> str:
    """``str(Fraction(y, n))`` for n > 0, from the ints."""
    g = math.gcd(y, n)
    return str(y // g) if g == n else f"{y // g}/{n // g}"


def _stunted_rows(path, grid, cfg):
    """The rows of a stunted path at k = 0 .. grid - 1: t, then entropy,
    distinct plateau periods (joined by "/") and orbit samples, all from
    the one breakpoint closure of the int lattice ``path.lattice_at(k,
    grid - 1)`` builds (no map and no ``Fraction`` is made); all three empty
    past ``orbit_budget``, and "error: ..." in the last column when the
    heights leave the admissible set.  The samples are read off the first
    plateau value's recorded preperiod and cycle, each distinct point
    formatted once.  Entropy depends only on the transition graph
    (``graph_entropy`` reads nothing but ``system.rows``), which stays the
    same over runs of a monotone path: a row whose graph equals the last
    one computed reuses its entropy."""
    den, t_lo, span = grid - 1, path.t_lo, path.t_hi - path.t_lo
    # t = (u + v·k)/w
    w = t_lo.denominator * span.denominator * den
    u, v = t_lo.numerator * span.denominator * den, span.numerator * t_lo.denominator
    graph = h = None
    for k in range(grid):
        t = _ratio_text(u + v * k, w)
        try:
            n, lat, values = path.lattice_at(k, den)
        except ValueError as exc:
            yield [t, "", "", f"error: {exc}"]
            continue
        try:
            system = build_markov((n, lat), cfg.orbit_budget)
        except BudgetExhausted:
            yield [t, "", "", ""]
            continue
        if system.rows != graph:
            graph, h = system.rows, en.graph_entropy(system).value
        plateaus = bd.plateau_orbit_analysis(values, system)
        periods = "/".join(str(p) for p in sorted({r.period for r, _ in plateaus}))
        r, points = plateaus[0]
        pre, per = r.preperiod, r.period
        steps = [j if j < pre else pre + (j - pre) % per for j in SAMPLE_STEPS]
        text = {j: _ratio_text(points[j], n) for j in set(steps)}
        yield [t, h, periods, ";".join(map(text.__getitem__, steps))]


def _orbit_samples(m):
    """A float map's orbit samples, stepped by ``maps.orbit``."""
    x = turning_points_of(m)[0]
    return [repr(y) for y in orbit(m, x, SAMPLE_STEPS.stop)[SAMPLE_STEPS.start:]]


def _attracting_summary(m) -> str:
    """Distinct periods, joined by "/", of the attracting cycles that the
    turning points of a float map reach: a period is kept only when the
    cycle's multiplier at the orbit's last point is below 1 in modulus."""
    periods = {p for p, x in bd._attractor_period(m, 20_000, 2048, bd.ATTRACTING_TOL)
               if p is not None and abs(pd.cycle_multiplier(m, x, p)) < 1}
    return "/".join(str(p) for p in sorted(periods))


def _positive(kind):
    """argparse type: a ``kind`` value above 0."""
    def parse(text):
        try:
            value = kind(text)
        except ZeroDivisionError as exc:    # Fraction("1/0"), which argparse lets through
            raise ValueError(text) from exc
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = f"positive {kind.__name__}"
    return parse


OPTIONS = {
    "--depth": dict(type=_positive(int), default=64, help="symbol depth of the kneading data"),
    "--bound": dict(type=_positive(int), default=None, help="periodic-orbit search ceiling"),
    "--n-max": dict(type=_positive(int), default=14, help="lap-growth horizon"),
    "--precision": dict(type=_positive(float), default=None,
                        help="relative width of float root bisection"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--budget": dict(type=_positive(int), default=None,
                     help="pieces per iterate, and exact orbit points: the points "
                          "of the breakpoint closure"),
    "--period": dict(type=int, default=2),
    "--cascade": dict(type=int, default=0, help="trace a doubling cascade to this depth instead"),
    "--k-max": dict(type=int, default=10),
    "--resolution": dict(type=_positive(Fraction), default=None,
                         help="bracket width target, e.g. 1/1073741824 or 1e-6"),
    "--grid": dict(type=int, default=100),
    "--with-entropy": dict(action="store_true",
                           help="include the lap estimate for float families (slow)"),
}

# subcommand -> (help, whether it reads a descriptor, the options it reads);
# main runs the module's cmd_<subcommand>, looked up when it is called so
# that a wrapper bound there (the benchmark's traced run) is the one run
SUBCOMMANDS = {
    "entropy": ("lap and Markov entropy of a map", True,
                ("--n-max", "--format", "--precision", "--budget")),
    "periods": ("period set of a map", True,
                ("--bound", "--format", "--precision", "--budget")),
    "kneading": ("kneading invariant of a map", True, ("--depth",)),
    "shape": ("shape (order pattern of critical values)", True, ()),
    "psi": ("project a map onto the stunted family", True, ("--depth",)),
    "renorm": ("restrictive intervals and cascades", True,
               ("--period", "--cascade", "--precision", "--budget")),
    "feigenbaum": ("superstable parameters and doubling ratio", False,
                   ("--k-max", "--format")),
    "boundary": ("two-sided boundary certificates on a path", True,
                 ("--resolution", "--bound", "--budget")),
    "sweep": ("per-parameter summaries over a grid", True,
              ("--grid", "--with-entropy", "--n-max", "--precision", "--budget")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chaos-edge",
                                 description="One-dimensional dynamics at the boundary of chaos")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, descriptor, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if descriptor:
            p.add_argument("descriptor", help="JSON descriptor file, or - for stdin")
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        globals()[f"cmd_{args.command}"](args)
    except DescriptorError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, DomainEscapeError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
