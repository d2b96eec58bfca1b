"""Periodic orbits, period sets and power-of-two spectra.

Exact maps read both off their breakpoint closure (``markov.build_markov``):
the period set from the counts of points of each minimal period, made in
ints from the transition graph, and the orbits of a period from its closed
walks, each solved once and walked in lattice ints.  Float maps get
one root-finder, ``lap_roots``: a grid on each lap of f^p (between the
turning points of the iterate), one bisection (``maps.bisect_root``) per sign
change and a Newton polish.  A grid can miss a neutral orbit that touches
the diagonal without crossing it.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT, RunConfig
from .errors import BudgetExhausted, PreconditionError
from .maps import (Quadratic, bisect_root, domain_of, is_exact, iterate, orbit,
                   quadratic_multiplier, turning_points_of)
from .markov import build_markov, periodic_orbits, periodic_point_counts

PERIOD_BOUND_EXACT = 64         # default periodic-orbit search ceiling, exact maps
PERIOD_BOUND_FLOAT = 32         # and float maps


@dataclass(frozen=True)
class PeriodicOrbit:
    points: tuple               # the cycle, starting at its least point
    period: int                 # minimal period
    stability: str              # attracting | repelling | neutral | plateau-absorbed

    def __post_init__(self):
        if len(self.points) != self.period:
            raise ValueError("orbit length must equal the period")


@dataclass(frozen=True)
class PeriodSet:
    periods: frozenset
    bound: int
    complete_upto: int
    # the orbits a float search found, per period in ``periods``
    orbits: dict = field(default_factory=dict, compare=False, repr=False)

    def as_dict(self):
        return {"periods": sorted(self.periods), "bound": self.bound,
                "complete_upto": self.complete_upto}


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def minimal_period(m, x, p: int, tol: float):
    """First-return time of x under m within p steps, to within tol (None if
    it never returns); the p steps are ``orbit``'s, bit for bit those of
    stepping ``m(y)``."""
    return next((k for k, y in enumerate(orbit(m, x, p), 1) if abs(y - x) <= tol), None)


def _orbit_of(m, x, p: int):
    pts = [x, *orbit(m, x, p - 1)]
    least = min(range(p), key=lambda i: pts[i])
    return tuple(pts[least:] + pts[:least])


def _stability_from_slope(s) -> str:
    a = abs(s)
    if a == 0:
        return "plateau-absorbed"
    if a < 1:
        return "attracting"
    if a == 1:
        return "neutral"
    return "repelling"


def periodic_points(m, p: int, config: RunConfig = DEFAULT):
    """All periodic orbits of minimal period exactly p, by least point."""
    if p < 1:
        raise PreconditionError("period must be >= 1")
    if is_exact(m):
        system = build_markov(m, config.orbit_budget)
        orbits = [PeriodicOrbit(tuple(Fraction(y, q * system.scale) for y in ys), p,
                                _stability_from_slope(s))
                  for ys, q, s in periodic_orbits(system, p, config.piece_budget)]
        return sorted(orbits, key=lambda o: o.points[0])
    return _periodic_float(m, p, turning_points_of_iterate(m, p, config), config)


# -- float route -------------------------------------------------------

GRID_CELLS = 4096               # samples of a float periodic-point grid (2**12)
LAP_SAMPLES_PER_CALL = 1 << 16  # lap_roots samples per array iterate call, to bound memory
NEWTON_STEPS = 4                # steps of a newton_polish


def _preimages(m, w, xtol):
    """Solutions of m(x) = w, via the map's analytic preimages when available."""
    pre = getattr(m, "preimages", None)
    if pre is not None:
        return pre(w)
    dom = domain_of(m)
    cuts = [dom.lo, *turning_points_of(m), dom.hi]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        fa, fb = m(a), m(b)
        if min(fa, fb) <= w <= max(fa, fb):
            out.append(bisect_root(lambda x: m(x) - w, a, b, xtol, fa - w))
    return sorted(out)


def _merge_close(xs, tol):
    """xs sorted, dropping each point within tol of the last one kept."""
    out = []
    for x in sorted(xs):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


def turning_point_levels(m, n: int, config: RunConfig = DEFAULT):
    """The turning points of f, f^2, ..., f^n (float maps), one sorted list
    per level: f^k's are f's together with the preimages of f^(k-1)'s."""
    base = list(turning_points_of(m))
    cur = list(base)
    yield cur
    xtol = config.precision
    for k in range(2, n + 1):
        nxt = list(base)
        for w in cur:
            nxt.extend(_preimages(m, w, xtol))
        cur = _merge_close(nxt, 10 * xtol)
        if len(cur) > config.piece_budget:
            raise BudgetExhausted(
                f"turning-point budget exceeded: more than piece_budget={config.piece_budget} "
                f"turning points at iterate n={k} (of {n})")
        yield cur


def turning_points_of_iterate(m, n: int, config: RunConfig = DEFAULT):
    """Turning points of f^n (float maps): the last of ``turning_point_levels``."""
    return deque(turning_point_levels(m, n, config), maxlen=1)[0]


def newton_polish(g, x, lo, hi):
    """Polish a root of g in [lo, hi] to machine precision with at most
    ``NEWTON_STEPS`` Newton steps.

    g is evaluated only in [lo, hi]: the difference quotient is clamped to
    the interval, and a step that would leave it ends the polish.
    """
    h = 1e-7 * max(1.0, abs(lo), abs(hi))
    for _ in range(NEWTON_STEPS):
        gx = g(x)
        if gx == 0:
            return x
        a, b = max(x - h, lo), min(x + h, hi)
        d = (g(b) - g(a)) / (b - a)
        if d == 0:
            return x
        nxt = x - gx / d
        if not lo <= nxt <= hi:
            return x
        x = nxt
    return x


def lap_roots(m, n: int, target, cuts, cells: int, precision: float):
    """Roots of f^n(x) - target on [cuts[0], cuts[-1]], or of f^n(x) - x
    when target is None, where the inner cuts are the turning points of f^n.

    Each lap between consecutive cuts is sampled on ``cells`` equal cells:
    exact zeros at samples are kept and sign changes bisected to
    ``precision`` (relative to the interval's scale); points within ten
    times that are merged, then Newton-polished inside the interval.  The
    samples of consecutive laps are stepped together as one numpy array, up
    to ``LAP_SAMPLES_PER_CALL`` in one ``iterate`` call; the grid only flags
    the cells, and ``bisect_root`` steps the scalar map.  A point whose
    float orbit leaves the domain and overflows (a type-B map's
    ``x ** ell``) has no sign there: g is NaN, on the grid and in the
    scalar g alike.
    """
    import numpy as np
    def g(x):
        try:
            return iterate(m, x, n) - (x if target is None else target)
        except OverflowError:
            return math.nan

    lo, hi = cuts[0], cuts[-1]
    scale = max(1.0, abs(lo), abs(hi))
    xtol = precision * scale
    laps = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > xtol]
    per_call = max(1, LAP_SAMPLES_PER_CALL // (cells + 1))
    roots = []
    gs = []
    for i in range(0, len(laps), per_call):
        a, b = np.array(laps[i:i + per_call]).T
        # a + (b - a) * k / cells, the scalar formula, per lap and k
        grid = (a[:, None] + (b - a)[:, None] * np.arange(cells + 1) / cells).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            ys = iterate(m, grid, n) - (grid if target is None else target)
        gs = np.where(np.isfinite(ys), ys, math.nan).tolist()
        xs = grid.tolist()
        for first in range(0, len(xs), cells + 1):
            for k in range(first, first + cells):
                if gs[k] == 0:
                    roots.append(xs[k])
                if gs[k] * gs[k + 1] < 0:
                    roots.append(bisect_root(g, xs[k], xs[k + 1], xtol))
    if gs and gs[-1] == 0:
        roots.append(hi)
    return sorted(newton_polish(g, x, lo, hi) for x in _merge_close(roots, 10 * xtol))


def cycle_multiplier(m, x, p: int) -> float:
    """(f^p)'(x) along the orbit of x: the chain rule for x^2 + c
    (``maps.quadratic_multiplier``), otherwise a central difference clamped
    to the domain at each point."""
    if type(m) is Quadratic:
        return quadratic_multiplier(m, x, p)
    dom = domain_of(m)
    h = 1e-7 * max(1.0, abs(dom.lo), abs(dom.hi))
    mult = 1.0
    for _ in range(p):
        a, b = max(x - h, dom.lo), min(x + h, dom.hi)
        mult *= (m(b) - m(a)) / (b - a)
        x = m(x)
    return mult


def _periodic_float(m, p, turns, config):
    """The orbits of minimal period p of a float map, turns the turning
    points of f^p."""
    dom = domain_of(m)
    cuts = [dom.lo] + [t for t in turns if dom.lo < t < dom.hi] + [dom.hi]
    roots = lap_roots(m, p, None, cuts, max(8, GRID_CELLS // (len(cuts) - 1)),
                      config.precision)
    tol = 1e-9 * max(1.0, abs(dom.lo), abs(dom.hi))
    orbits = []
    taken = []          # sorted points of the orbits found
    for x in roots:
        # the nearest kept point on either side is within tol if any is
        i = bisect.bisect_left(taken, x)
        if any(abs(x - t) <= tol for t in taken[max(i - 1, 0):i + 1]):
            continue
        mp = minimal_period(m, x, p, tol)
        if mp != p:
            continue
        cycle = _orbit_of(m, x, p)
        for y in cycle:
            bisect.insort(taken, y)
        a = abs(cycle_multiplier(m, x, p))
        if abs(a - 1.0) < 1e-6:
            stab = "neutral"
        elif a < 1:
            stab = "attracting"
        else:
            stab = "repelling"
        orbits.append(PeriodicOrbit(cycle, p, stab))
    return orbits


def period_set(m, bound: int, config: RunConfig = DEFAULT) -> PeriodSet:
    """Union of minimal periods found for all p <= bound: counted off the
    closure of an exact map, with no orbit listed, or searched with orbits."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    if is_exact(m):
        counts = periodic_point_counts(build_markov(m, config.orbit_budget), bound)
        return PeriodSet(frozenset(p for p, n in enumerate(counts, 1) if n), bound, bound)
    found = {}
    complete = 0
    try:
        for p, turns in enumerate(turning_point_levels(m, bound, config), 1):
            orbits = _periodic_float(m, p, turns, config)
            if orbits:
                found[p] = orbits
            complete = p
    except BudgetExhausted:
        pass
    return PeriodSet(frozenset(found), bound, complete, found)


def is_power_of_two_spectrum(ps: PeriodSet):
    """('yes-up-to-bound', None) or ('no', p), p the least period not a power of two."""
    for p in sorted(ps.periods):
        if not is_power_of_two(p):
            return ("no", p)
    return ("yes-up-to-bound", None)

