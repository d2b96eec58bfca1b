"""The three workloads: seeded inputs, screened at set-up, and the
operations of one round.

Every operation calls the program through a module attribute at call time
(``ce.locate_boundary``, ``cli.main``), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import chaos_edge as ce
import chaos_edge.cli as cli

import checks

# exact-locate
EXACT_RESOLUTION = Fraction(1, 2**60)
EXACT_PATHS_PER_M = 16
EXACT_BOUND = 64

# entropy-laps: the seeded maps are cheaper than every closed-form operation
# and fewer, so the median operation is a closed-form one of about a second
# and does not move with the seed
FULL_LAP_HORIZON = {1: 14, 2: 9, 3: 7}     # 16384, 19683 and 16384 laps at the top level
RANDOM_LAP_HORIZON = 12
RANDOM_LAP_CONFIG = ce.RunConfig(piece_budget=2000)
RANDOM_POSITIVE_BAND = (0.4, 1.2)           # Markov entropy of the positive seeded maps
TRAPEZOID = '{"kind":"stunted","m":1,"epsilon":1,"xi":["3/2"]}'
M1_PATH = ('{"family":"stunted","m":1,"epsilon":1,"xi0":["0"],"direction":["1"],'
           '"t_lo":"1/2","t_hi":"3/2"}')
M2_PATH = ('{"family":"stunted","m":2,"epsilon":1,"xi0":["0","0"],"direction":["1","1"],'
           '"t_lo":"1/2","t_hi":"8/3"}')
SWEEP_GRIDS = {1: 201, 2: 151}

# float-locate: fixed inputs as the quadratic and type-B paths are defined;
# the seed picks the parameters whose kneading is computed.  With the default
# resolution (1e-9) the ladder has three rungs.
FLOAT_LADDER = (1e-6, 1e-7)
TYPE_B_RESOLUTION = 0.05
CASCADE_C, CASCADE_DEPTH = -1.401155, 8
FEIGENBAUM_K = 12
KNEADING_DEPTH = 64
SEEDED_KNEADINGS = 16

MARKOV_ZERO_FAULT = ("spectral_radius takes dense eigvals of a defective 0/1 matrix, so "
                     "markov-exact entropy is not 0 on a zero-certified map (ROADMAP item 2)")
QUADRATIC_DEFAULT_FAULT = ("classify_quadratic cannot decide probes near c_inf, so the "
                           "default-resolution quadratic locate raises BudgetExhausted "
                           "(ROADMAP item 4)")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_fault: str = ""       # non-empty: fails today because of this fault
    raises: Optional[type] = None   # the exception the known fault raises; None: a wrong value


def _random_xi(rnd: random.Random, base, q: int, top) -> list:
    """Admissible heights (xi[i] >= -xi[i+1]) in [-e, top] with denominator q."""
    xi = []
    for _ in range(base.m):
        lo = max(-base.e, -xi[-1]) if xi else -base.e
        hi = max(lo, top)
        xi.append(Fraction(rnd.randint(math.ceil(lo * q), math.floor(hi * q)), q))
    return xi


def _kind(path, t) -> str:
    return ce.classify_probe(path, t, EXACT_BOUND).kind


def _cli(args, stdin_text: str):
    """cli.main on a descriptor read from stdin; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------
# exact-locate
# ---------------------------------------------------------------------


def _locate_and_recheck(path):
    res = ce.locate_boundary(path, bound=EXACT_BOUND, resolution=EXACT_RESOLUTION)
    (t0, cert), (t1, wit) = res.zero_side, res.positive_side
    return (res, ce.verify_zero_certificate(path.map_at(t0), cert),
            ce.verify_witness(path.map_at(t1), wit))


def exact_locate(rnd: random.Random) -> list:
    """Paths from a seeded zero-certified map (heights at most e/3) to the
    full map, for m = 1, 2, 3, each located to 2^-60."""
    ops = []
    for m in (1, 2, 3):
        base = ce.build_base(m, 1)
        made = 0
        while made < EXACT_PATHS_PER_M:
            xi0 = _random_xi(rnd, base, rnd.choice((8, 16, 32)), base.e / 3)
            direction = [base.e - x for x in xi0]
            path = ce.stunted_path(base, xi0, direction, 0, 1)
            if _kind(path, path.t_lo) != "zero" or _kind(path, path.t_hi) != "positive":
                continue
            made += 1
            ops.append(Op(
                f"locate m={m} xi0={[str(x) for x in xi0]}",
                lambda p=path: _locate_and_recheck(p),
                lambda out, m=m, xi0=xi0, d=direction: checks.check_exact_locate(
                    out, m, xi0, d, Fraction(0), Fraction(1), EXACT_RESOLUTION)))
    return ops


# ---------------------------------------------------------------------
# entropy-laps
# ---------------------------------------------------------------------


def _markov_zero_map():
    """Zero side of the m=1 path located at 2^-60: a dyadic map just below
    the boundary, certified zero by zero_entropy_certificate."""
    path = ce.stunted_path(ce.build_base(1, 1), [0], [1], Fraction(1, 2), Fraction(3, 2))
    res = ce.locate_boundary(path, bound=EXACT_BOUND, resolution=EXACT_RESOLUTION)
    T = path.map_at(res.zero_side[0])
    if ce.zero_entropy_certificate(T) is None:
        raise RuntimeError("the zero side of the m=1 locate is not zero-certified")
    return T


def _random_entropy_maps(rnd: random.Random) -> list:
    """Per m <= 3, one map in the positive band of Markov entropy and one
    zero-entropy map, denominators 8, 16 or 32."""
    lo, hi = RANDOM_POSITIVE_BAND
    out = []
    for m in (1, 2, 3):
        base = ce.build_base(m, 1)
        for wanted in ("positive", "zero"):
            while True:
                T = ce.build_stunted(base, _random_xi(rnd, base, rnd.choice((8, 16, 32)), base.e))
                try:
                    h = ce.entropy_markov(T).value
                except ce.BudgetExhausted:
                    continue
                if (lo <= h <= hi) if wanted == "positive" else h < 1e-3:
                    out.append(T)
                    break
    return out


def entropy_laps(rnd: random.Random) -> list:
    ops = []
    for T in _random_entropy_maps(rnd):
        ops.append(Op(
            f"entropy m={T.m} xi={[str(x) for x in T.xi]}",
            lambda T=T: (ce.entropy_lap(T, RANDOM_LAP_HORIZON, RANDOM_LAP_CONFIG),
                         ce.entropy_markov(T)),
            checks.check_lap_vs_markov))
    full = {m: ce.full_stunted(ce.build_base(m, 1)) for m in (1, 2, 3)}
    for m, n in FULL_LAP_HORIZON.items():
        ops.append(Op(
            f"full m={m} laps to n={n} and Markov entropy",
            lambda T=full[m], n=n: (ce.lap_series(T, n), ce.entropy_markov(T)),
            lambda out, m=m, n=n: (checks.check_full_laps(out[0], m, n)
                                   or checks.check_full_markov(out[1], m))))
    ops.append(Op(f"full m=2 lap entropy to n={FULL_LAP_HORIZON[2]}",
                  lambda: ce.entropy_lap(full[2], FULL_LAP_HORIZON[2]),
                  lambda out: checks.check_full_lap_entropy(out, 2)))
    for m, bound in ((1, 12), (2, 8)):
        ops.append(Op(f"full m={m} period set to {bound}",
                      lambda T=full[m], b=bound: ce.period_set(T, b),
                      lambda out, b=bound: checks.check_full_periods(out, b)))
    ops.append(Op("cli entropy trapezoid", lambda: _cli(["entropy", "-"], TRAPEZOID),
                  checks.check_cli_entropy))
    for m, desc in ((1, M1_PATH), (2, M2_PATH)):
        grid = SWEEP_GRIDS[m]
        ops.append(Op(f"cli sweep m={m} path grid {grid}",
                      lambda d=desc, g=grid: _cli(["sweep", "-", "--grid", str(g)], d),
                      lambda out, m=m, g=grid: checks.check_cli_sweep(out, g, m)))
    zero_map = _markov_zero_map()
    ops.append(Op("markov entropy of the zero side at 2^-60",
                  lambda: ce.entropy_markov(zero_map), checks.check_exact_zero,
                  known_fault=MARKOV_ZERO_FAULT))
    return ops


# ---------------------------------------------------------------------
# float-locate
# ---------------------------------------------------------------------


def float_locate(rnd: random.Random) -> list:
    ops = []
    for resolution in FLOAT_LADDER:
        ops.append(Op(
            f"quadratic locate [-1.5, -1.3] to {resolution:g}",
            lambda r=resolution: ce.locate_boundary(ce.quadratic_path(-1.5, -1.3),
                                                    bound=32, resolution=r),
            lambda out, r=resolution: checks.check_quadratic_locate(out, r)))
    ops.append(Op("quadratic locate [-1.5, -1.3] at the default resolution",
                  lambda: ce.locate_boundary(ce.quadratic_path(-1.5, -1.3)),
                  lambda out: checks.check_quadratic_locate(out, ce.DEFAULT.resolution_float),
                  known_fault=QUADRATIC_DEFAULT_FAULT, raises=ce.BudgetExhausted))
    ops.append(Op(f"type-B locate to {TYPE_B_RESOLUTION}",
                  lambda: ce.locate_boundary(ce.type_b_path([(2, -1.0)], 0, -2.0, -1.0),
                                             bound=32, resolution=TYPE_B_RESOLUTION),
                  lambda out: checks.check_type_b_locate(out, TYPE_B_RESOLUTION)))
    ops.append(Op(f"cascade trace at c={CASCADE_C} to depth {CASCADE_DEPTH}",
                  lambda: ce.cascade_trace(ce.Quadratic(CASCADE_C), CASCADE_DEPTH),
                  lambda out: checks.check_cascade(out, CASCADE_DEPTH)))
    ops.append(Op(f"feigenbaum delta to k={FEIGENBAUM_K}",
                  lambda: ce.feigenbaum_delta(ce.QuadraticFamily(), FEIGENBAUM_K),
                  checks.check_feigenbaum))
    cs = [-2.0 + 0.6 * rnd.random() for _ in range(SEEDED_KNEADINGS)]
    ops.append(Op(f"psi and kneading of x^2 - 2, kneading of {SEEDED_KNEADINGS} seeded x^2 + c",
                  lambda: (ce.psi(ce.Quadratic(-2.0), ce.build_base(1, -1), KNEADING_DEPTH),
                           [ce.kneading(ce.Quadratic(c), KNEADING_DEPTH) for c in [-2.0] + cs]),
                  lambda out: checks.check_quadratic_symbolic(out, [-2.0] + cs, KNEADING_DEPTH)))
    return ops


WORKLOADS = {
    "exact-locate": exact_locate,
    "entropy-laps": entropy_laps,
    "float-locate": float_locate,
}


def build(name: str, seed: int) -> list:
    """The operations of one round of the named workload, inputs made from seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
