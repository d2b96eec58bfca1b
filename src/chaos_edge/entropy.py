"""Topological entropy: lap growth, exact Markov backend, positivity witnesses.

Entropy is the exponential growth rate of the lap count of the iterates
(Misiurewicz–Szlenk).  An exact map gets both from the one transition graph
of ``markov.build_markov``: the lap counts of f^n as exact integers, level
by level, and the spectral radius per strongly connected component, which
is exactly 1, so the entropy exactly 0, when no component branches.  Float
maps count laps from the turning points of their iterates; the lap
estimator fits the growth rate and reports its regression residual.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul
from typing import Optional

from .config import DEFAULT, RunConfig
from .errors import BudgetExhausted, DomainEscapeError, PreconditionError
from .maps import StuntedSawtooth, is_exact
from .markov import branches, build_markov, component_spans, cyclic_components
from .periods import PERIOD_BOUND_EXACT, is_power_of_two, turning_points_of_iterate
from .piecewise import ratio, strict_lap_count

LAP_CAP = 10**9                 # lap counts above this saturate a lap series
WITNESS_TOL = 1e-10             # float witness points map to the next within this


@dataclass(frozen=True)
class LapCount:
    n: int
    laps: int


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str                 # lap-regression | markov-exact
    n_used: int
    residual: float
    saturated: bool = False

    def as_dict(self):
        return {"value": self.value, "method": self.method,
                "n_used": self.n_used, "residual": self.residual,
                "saturated": self.saturated}


def _graph_laps(m, config: RunConfig):
    """Strict lap counts of f, f^2, f^3, ... from the Markov transition graph.

    Each state carries the strict lap count of f^n on it and the direction
    (+1, -1, or 0 where constant) of f^n at its left and right ends.  On a
    non-constant state with row [a, b) and slope sign s, f^(n+1) is f^n on
    states a..b-1 run through in the direction s: its laps are theirs, less
    one for each adjacent pair whose facing directions agree and are not 0,
    and its end directions are theirs times s, swapped when s < 0.
    """
    system = build_markov(m, config.orbit_budget)
    signs = [0 if aff is None else (1 if aff[0] > 0 else -1) for aff in system.affine]
    laps, left, right = [abs(s) for s in signs], signs, signs
    while True:
        pref = list(accumulate(laps, initial=0))
        joins = list(accumulate((r == l != 0 for r, l in zip(right, left[1:])), initial=0))
        yield max(pref[-1] - joins[-1], 1)
        level = []
        for (a, b), s in zip(system.rows, signs):
            if s == 0:
                level.append((0, 0, 0))
                continue
            ends = (left[a], right[b - 1]) if s > 0 else (-right[b - 1], -left[a])
            level.append((pref[b] - pref[a] - joins[b - 1] + joins[a], *ends))
        laps, left, right = zip(*level)


def lap_count(m, n: int, config: RunConfig = DEFAULT) -> LapCount:
    """Number of maximal intervals of strict monotonicity of the n-th iterate."""
    if n < 1:
        raise PreconditionError("iterate index must be >= 1")
    if is_exact(m):
        if n == 1:
            return LapCount(1, strict_lap_count(m.lattice()[1].slopes))
        return LapCount(n, next(islice(_graph_laps(m, config), n - 1, None)))
    return LapCount(n, len(turning_points_of_iterate(m, n, config)) + 1)


def lap_series(m, n_max: int, config: RunConfig = DEFAULT):
    """(counts, saturated): lap counts for n = 1..n_max, stopping past ``LAP_CAP``
    and, for float maps, at the turning-point budget.  An exact map past the
    Markov budget raises ``MarkovBudgetError``."""
    exact = is_exact(m)
    levels = _graph_laps(m, config) if exact else None
    counts = []
    for n in range(1, n_max + 1):
        try:
            counts.append(next(levels) if exact else lap_count(m, n, config).laps)
        except BudgetExhausted:
            if exact:
                raise
            return counts, True
        if counts[-1] > LAP_CAP:
            return counts, True
    return counts, False


def _fit_growth(ns, ys):
    """Least-squares fit of y ~ h*n + d*log n + c: (h, rms residual).

    Solved exactly in rationals on the float data: centring the columns
    removes c, and Cramer's rule solves the 2x2 normal equations for h, d.
    """
    cols = ([Fraction(n) for n in ns], [Fraction(math.log(n)) for n in ns],
            [Fraction(y) for y in ys])
    means = [sum(col) / len(col) for col in cols]
    x, z, y = ([v - mean for v in col] for col, mean in zip(cols, means))
    xx, zz, xz, xy, zy = (sum(map(mul, u, w)) for u, w in
                          ((x, x), (z, z), (x, z), (x, y), (z, y)))
    h = (xy * zz - zy * xz) / (xx * zz - xz ** 2)
    d = (zy * xx - xy * xz) / (xx * zz - xz ** 2)
    resid = [c - h * a - d * b for a, b, c in zip(x, z, y)]
    return float(h), math.sqrt(float(sum(r * r for r in resid) / len(resid)))


def entropy_lap(m, n_max: int = 14, config: RunConfig = DEFAULT) -> EntropyEstimate:
    """Growth rate of log lap counts over the top half of the range.

    Zero-entropy maps have polynomially growing lap counts, so the fit is
    log l(f^n) ~ h*n + d*log n + c; the reported value is the coefficient h,
    which is the plain log-slope whenever the growth is exponential.
    """
    if n_max < 8:
        raise PreconditionError("n_max must be >= 8")
    counts, saturated = lap_series(m, n_max, config)
    if len(counts) < 4:
        raise BudgetExhausted(
            f"lap series too short to fit a growth rate: {len(counts)} levels reached "
            f"of n_max={n_max}, need 4")
    n_used = len(counts)
    ns = range(max(n_used // 2, 1), n_used + 1)
    h, resid = _fit_growth(ns, [math.log(counts[n - 1]) for n in ns])
    return EntropyEstimate(max(h, 0.0), "lap-regression", n_used, resid, saturated)


# ---------------------------------------------------------------------
# exact Markov backend
# ---------------------------------------------------------------------


def _perron_bracket(spans):
    """Collatz–Wielandt bracket (lo, hi) of the Perron root of a strongly
    connected 0/1 matrix A whose row i has its ones at positions spans[i]:
    power iteration on A + I (primitive, same Perron vector), each step
    bounding the root by min and max of (Av)_i / v_i, until float precision
    or until the bracket has not shrunk for more steps than there are states.
    """
    v = [1.0] * len(spans)
    lo, hi, stalled = 0.0, len(spans) + 1.0, 0
    while hi - lo > 4 * sys.float_info.epsilon * hi and stalled <= len(spans):
        w = [sum(v[a:b]) for a, b in spans]
        ratios = [y / x for x, y in zip(v, w)]
        new = max(lo, min(ratios)), min(hi, max(ratios))
        stalled = stalled + 1 if new == (lo, hi) else 0
        lo, hi = new
        top = max(x + y for x, y in zip(v, w))
        v = [(x + y) / top for x, y in zip(v, w)]
    return lo, hi


def _radius_bracket(components):
    """(lo, hi) around the spectral radius of a 0/1 matrix whose rows are
    column ranges, from its ``cyclic_components``: the largest over them,
    with lo == hi where it is exact (no cycle: 0, only simple cycles: 1)."""
    lo = hi = 0.0
    for scc, succ in components:
        if not branches(succ):                            # a simple cycle
            c_lo = c_hi = 1.0
        else:
            c_lo, c_hi = _perron_bracket(component_spans(scc, succ)[1])
        lo, hi = max(lo, c_lo), max(hi, c_hi)
    return lo, hi


def spectral_radius(rows, size: int) -> float:
    """Spectral radius of a 0/1 matrix whose rows are column ranges, per
    strongly connected component; exact when no component branches."""
    lo, hi = _radius_bracket(cyclic_components(rows, size))
    return (lo + hi) / 2


def entropy_markov(m, config: RunConfig = DEFAULT) -> EntropyEstimate:
    """Exact entropy for maps whose breakpoint orbits close up.

    The log of the spectral radius of the transition graph of the Markov
    partition by the forward orbits of all breakpoints: exactly 0 when no
    component branches.  The residual of a positive value is the width in h
    of the Collatz–Wielandt bracket.
    """
    return graph_entropy(build_markov(m, config.orbit_budget))


def graph_entropy(system) -> EntropyEstimate:
    """``entropy_markov`` of the map whose breakpoint closure is ``system``."""
    lo, hi = _radius_bracket(system.components)
    if hi <= 1.0:
        return EntropyEstimate(0.0, "markov-exact", system.size, 0.0)
    return EntropyEstimate(math.log((lo + hi) / 2), "markov-exact", system.size,
                           math.log(hi) - math.log(lo))


# ---------------------------------------------------------------------
# positive-entropy witnesses
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    kind: str                   # periodic-orbit
    period: Optional[int]
    orbit: Optional[tuple]

    def as_dict(self):
        d = {"kind": self.kind, "period": self.period}
        if self.orbit is not None:
            d["orbit"] = [str(x) for x in self.orbit]
        return d


def exact_walk(m, points):
    """(numerators, step) for re-walking orbits of an exact map apart from the
    lattice route.  The nodes are the breakpoints and values that a stunted
    map's ``pl`` is made from, ints over its N, or a raw ``PiecewiseLinear``'s
    own; over q, the lcm of the denominators of the nodes and of ``points``,
    the points times q, and step(P), the image of P/q times q by slopes of
    its own from the nodes times q and a search of the breakpoints times q
    (an int while slopes are integral, else exact)."""
    # a stunted map's int nodes are read, not its lattice() route
    n, nodes = m._lattice if isinstance(m, StuntedSawtooth) else (1, m)
    q = math.lcm(*(n * v.denominator for v in (*nodes.xs, *nodes.ys)),
                 *(v.denominator for v in points))
    xs, ys = ([v.numerator * (q // (n * v.denominator)) for v in vs]
              for vs in (nodes.xs, nodes.ys))
    slopes = [ratio(v - u, b - a) for a, b, u, v in zip(xs, xs[1:], ys, ys[1:])]
    icpt = [y - s * x for x, y, s in zip(xs, ys, slopes)]
    last = len(xs) - 1

    def step(p):
        if not xs[0] <= p <= xs[-1]:
            raise DomainEscapeError(f"{p}/{q} outside [{xs[0]}/{q}, {xs[-1]}/{q}]")
        i = bisect_right(xs, p, 1, last) - 1
        return slopes[i] * p + icpt[i]

    return [x.numerator * (q // x.denominator) for x in points], step


def verify_witness(m, w: Witness) -> bool:
    """Re-verify a periodic-orbit witness against the map itself: it lists
    ``period`` points, not a power of two.  On an exact map, by
    ``exact_walk``, every listed point maps to the next (the last to the
    first) and no two are equal; on a float map every listed point maps to
    the next within ``WITNESS_TOL``, and the first returns within it after
    ``period`` steps and not before."""
    if (w.orbit is None or w.period is None or len(w.orbit) != w.period
            or is_power_of_two(w.period)):
        return False
    if is_exact(m):
        ps, step = exact_walk(m, w.orbit)
        try:
            return (len(set(ps)) == w.period
                    and all(step(p) == y for p, y in zip(ps, ps[1:] + ps[:1])))
        except DomainEscapeError:
            return False
    if any(abs(m(x) - y) > WITNESS_TOL for x, y in zip(w.orbit, w.orbit[1:])):
        return False
    x = y = w.orbit[0]
    for k in range(1, w.period + 1):
        y = m(y)
        if (abs(y - x) <= WITNESS_TOL) != (k == w.period):
            return False
    return True


def positive_entropy_witness(m, config: RunConfig = DEFAULT) -> Optional[Witness]:
    """A re-verified periodic orbit whose period is not a power of two, or None.

    Exact maps go through the exact decision route
    (``boundary.decide_exact``): the witness is a plateau cycle or a splice
    of two cycles of a branching Markov component, of any period.  None
    there means zero entropy was certified, or a budget ran out, or a
    branching component gave no verified orbit.  Float maps take the
    witness of ``boundary.classify_float``.  Absence of a witness is not a
    proof of zero entropy.
    """
    if not is_exact(m):
        from .boundary import classify_float
        return classify_float(m).witness
    from .boundary import decide_exact
    try:
        return decide_exact(m, PERIOD_BOUND_EXACT, config).witness
    except BudgetExhausted:
        return None
