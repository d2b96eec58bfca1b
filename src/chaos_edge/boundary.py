"""Locating the boundary of chaos with two-sided certificates.

For stunted maps one exact route decides a parameter (``decide_exact``):
every orbit stays on a finite lattice, so the plateau orbits close up and the
forward closure of the breakpoints is a finite Markov partition.  The
parameter is *positive* when a plateau cycle, or a splice of two cycles of a
branching transition component, is an exactly re-verified orbit whose period
is not a power of two; it is *zero* when every plateau orbit closes up into a
cycle of period 2^k (k bounded) and every transition component is a single
cycle with power-of-two periods.  The closure is the route's one walk
(``markov.build_markov``, each point evaluated once): the plateau records
and a plateau-cycle witness are read off it (``plateau_orbit_analysis``),
and the transition graph is derived from it only when the plateau cycles
do not decide.  The same closure gives the map's side, the sign of its
exact entropy, without evidence (``_closure_side``): positive when a plateau
cycle has a period that is not a power of two, otherwise exactly when a
transition component branches; ``decide_exact`` builds its evidence on top
of that side.

The route runs in lattice coordinates X = N·x and takes one input for a
built map and an interior probe alike: the lattice (N, L) and the plateau
values on it, a stunted map's ``lattice()`` and ``lattice_values`` or a
path's ``ParameterPath.lattice_at``.  L has integer slopes, so the closure
is int arithmetic, and ``Fraction``s appear only in what leaves the route
(witness orbits, certificates, JSON).
Both verdicts are re-checked on the map itself by ``entropy.exact_walk``,
an int re-walk over a denominator of its own that calls nothing on the
lattice route: ``verify_witness`` checks every listed witness point, and
``verify_zero_certificate`` every plateau orbit before it recomputes the
certificate.

The float families (x^2 + c and type-B compositions) get one floating-point
analogue, ``classify_float``, written against the map.  An even map (x^2 + c,
one type-B stage) is zero-certified when the critical orbit settles on an
attracting 2^k-cycle *and* the k-level tower of period-2 return maps
validates; a multimodal map, which has no tower, when every turning point's
orbit settles on an attracting cycle of power-of-two period and the scan
below finds nothing.  A parameter is positive-certified by a non-power-of-two
orbit found either directly or through a return map of the tower.  Each tower
level needs the slope of R_j = f^(2^j) at its fixed point alpha, taken by the
chain rule along the 2^j steps (a difference quotient of R_j is swamped by
round-off once the level is a few units of 1e-4 wide); alpha is bisected
only in grid cells where R_j(x) - x falls from + to -.  A slowly converging
critical orbit is continued to a longer transient and a window of
2^(depth+2) samples, so that a cycle of period 2^depth, the deepest the
tower can validate, is seen.  The positive side scans the deepest return
maps on one grid pass for all short periods; a cell where R^p(x) - x
changes sign is skipped when R^d(x) - x does too for a power of two d
dividing p, since its root is a point of lower period.  A multimodal map
runs this scan before it follows its turning points.  These float verdicts
are heuristic: no step is outward-rounded.  numpy is imported only inside
the two grid functions, ``_tower_descend`` and ``_grid_period_scan``, so the
exact route never loads it; the attractor search keeps its orbit tails in
Python lists.

Entropy is monotone along a stunted path, whose heights never fall
(Milnor–Tresser), and along an even float family (Milnor–Thurston), so a
bisection bracket is proven by the evidence at its two ends alone.
``locate_boundary`` takes the side of every interior probe without
evidence: on a stunted path from ``path_side``, ``_closure_side``'s rules on
an int lattice built from the path's numerators at an int position (no map
or ``Fraction`` is made for the probe), or, with no walk, from the closure
window of an earlier probe (``_closure_window``: the positions where no
two points of its closure, each affine in the position, cross, so the map
has the same closure graph and side), on an even float map from its
critical itinerary (``symbolic.doubling_side``: on an even float map the
boundary is the limit of the period-doubling cascade).  It classifies
only the path's ends, probes left unsided and, once the bracket is narrow
enough, the sided ends: their verdicts are the evidence reported.  When
such an end's verdict differs from its side, the bisection runs again from
the path's ends with every probe classified, reusing those verdicts.
Probes that certify neither way (a budget ran out) are counted and the
bracket is refined around them.  A one-plateau stunted path makes no
interior probe: the cell of its doubling-limit cylinder (``_doubling_cell``)
is the bisection's last bracket, and only its ends are classified.
``classify_float`` asks the kneading's question of an even map whose
critical orbit has not settled: one that the kneading puts on the positive
side runs the grid scan before the longer attractor retry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .config import DEFAULT, RunConfig
from .entropy import Witness, exact_walk, verify_witness
from .errors import BudgetExhausted, PreconditionError
from .maps import (Quadratic, StuntedSawtooth, SawtoothBase, bisect_root, build_stunted,
                   build_type_b, domain_of, is_even, iterate, orbit, rat, stunted_lattice,
                   turning_points_of)
from .markov import branches, build_markov, cycle_analysis
from .periods import (GRID_CELLS, PERIOD_BOUND_EXACT, PERIOD_BOUND_FLOAT, cycle_multiplier,
                      is_power_of_two, minimal_period)
from .piecewise import on_lattice
from .symbolic import cylinders, doubling_side, shape

POSITIVE = "positive"
ZERO = "zero"
UNDECIDED = "undecided"

ATTRACTING_TOL = 1e-8       # relative tolerance for an orbit tail repeating
CASCADE_DEPTH = 16          # return-map levels the quadratic tower attempts
FLOAT_WIDTH_FLOOR = 1e-9    # tower fixed points closer to 0 than this are noise
MAX_PROBES = 400            # probes of one bisection of locate_boundary
SCAN_PERIODS = (3, 5, 6, 7, 9, 10, 11, 12)   # non-power-of-two periods the grid scan tries
ZERO_CERT_LEVELS = 24       # largest k admitted in 2^k plateau periods


# ---------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PlateauOrbitRecord:
    plateau: int
    preperiod: int
    period: int

    @property
    def doubling_level(self) -> int:
        return self.period.bit_length() - 1


@dataclass(frozen=True)
class ZeroEntropyCertificate:
    plateau_orbits: tuple          # PlateauOrbitRecord per plateau
    periods_found: frozenset      # all minimal periods <= bound (powers of two)
    levels_bound: int              # admitted k in 2^k (ZERO_CERT_LEVELS)
    bound: int

    def as_dict(self):
        return {"plateau_orbits": [{"plateau": r.plateau, "preperiod": r.preperiod,
                                    "period": r.period} for r in self.plateau_orbits],
                "periods_found": sorted(self.periods_found),
                "levels_bound": self.levels_bound, "bound": self.bound}


@dataclass(frozen=True)
class FloatZeroCertificate:
    levels: int                    # validated doubling-tower depth
    period: int                    # 2^levels
    point: float                   # one point of the attracting cycle
    multiplier: float

    def as_dict(self):
        return {"levels": self.levels, "period": self.period,
                "point": self.point, "multiplier": self.multiplier}


@dataclass(frozen=True)
class ProbeResult:
    kind: str
    witness: Optional[Witness] = None
    certificate: object = None
    note: str = ""


def plateau_orbit_analysis(values, system):
    """(record, orbit) per plateau value, ``values`` in lattice coordinates:
    its eventual period and its orbit's distinct lattice points, the
    preperiod first and the cycle last, read off the breakpoint closure
    ``system`` (``build_markov``), which holds every plateau value's orbit;
    no lattice call."""
    image = system.image
    out = []
    for i, y in enumerate(values):
        seen = {}
        while y not in seen:
            seen[y] = len(seen)
            y = image[y]
        out.append((PlateauOrbitRecord(i, seen[y], len(seen) - seen[y]), tuple(seen)))
    return out


def _closure_side(lattice, values, config: RunConfig):
    """(side, system, plateaus): the sign of the exact entropy of the stunted
    map with ``lattice`` (N, L) and lattice plateau ``values`` (a map's
    ``lattice()`` and ``lattice_values``, or an interior probe's
    ``ParameterPath.lattice_at``), with the breakpoint closure ``system``
    (``build_markov``) and the plateau records ``plateaus``
    (``plateau_orbit_analysis``) it is read off.

    Positive when a plateau cycle has a period that is not a power of two
    (Misiurewicz), read before the transition graph is made; otherwise
    exactly when a cyclic component of the graph branches (spectral radius
    > 1).  Raises MarkovBudgetError past ``orbit_budget`` closure points.
    """
    system = build_markov(lattice, config.orbit_budget)
    plateaus = plateau_orbit_analysis(values, system)
    if (not all(is_power_of_two(r.period) for r, _ in plateaus)
            or any(branches(succ) for _, succ in system.components)):
        return POSITIVE, system, plateaus
    return ZERO, system, plateaus


def path_side(path: "ParameterPath", k: int, depth: int,
              config: RunConfig = DEFAULT, windows=()) -> tuple:
    """(side, window): the side (``_closure_side``), not evidence, of the
    map at position k/2^depth of a stunted path (t = t_lo + (t_hi - t_lo)·
    k/2^depth).  When k lies in one of ``windows``, (lo, hi, side) of earlier
    probes, the side is that window's and window is None: nothing is built
    or walked.  Otherwise the side is read off the int lattice that
    ``ParameterPath.lattice_at`` builds (no ``Fraction`` or map is made) and
    window is the probe's own (``_closure_window``), None when it has none
    or the closure passes ``orbit_budget`` (side None)."""
    for lo, hi, side in reversed(windows):
        if lo <= k <= hi:
            return side, None
    n, lat, values = path.lattice_at(k, 1 << depth)
    try:
        side, system, _ = _closure_side((n, lat), values, config)
    except BudgetExhausted:
        return None, None
    window = _closure_window(path, k, depth, values, system)
    return side, window and (*window, side)


def _closure_window(path: "ParameterPath", k: int, depth: int, values, system):
    """(lo, hi): the positions K over 2^depth, lo <= K <= hi, at which the
    map of a stunted path has the breakpoint closure ``system`` of its map at
    k, point for point; None when two of its points meet at k.

    Every plateau height is affine in the position, and the laps of the base
    are fixed, so each breakpoint is an affine function of it and so is each
    closure point: a point on a lap maps to the slope times it, one on a
    plateau to the plateau's value.  While no two adjacent points of the
    sorted closure cross, the closure is the same functions in the same
    order, each in the same segment of the map: the same transition rows,
    plateau records and side (Milnor–Thurston: entropy is fixed by that
    combinatorics).  Rates are d/ds in lattice units times q·lam (``_heights``):
    the domain ends get 0, plateau i's ends ±n·b_i and its value
    sign_i·n·b_i·lam.  Two rates at one point are two functions that meet
    there, so the combinatorics changes at k itself."""
    base, pl, image = path.base, system.pl, system.image
    lam, m, n = base.lam, base.m, system.scale
    q, _, b = path._heights
    # breakpoint -> (its rate, its image's rate)
    ends = {pl.xs[0]: (0, 0), pl.xs[-1]: (0, 0)}
    sign = base.epsilon
    for i, (v, bi) in enumerate(zip(values, b)):
        c, half, dv = (2 * i + 1 - m) * n, n - sign * v // lam, n * bi
        for x, rates in ((c - half, (dv, sign * dv * lam)), (c + half, (-dv, sign * dv * lam))):
            if ends.setdefault(x, rates) != rates:
                return None
        sign = -sign
    rate = {x: r for x, (r, _) in ends.items()}
    xs, slopes = pl.xs, pl.slopes
    # each point after the breakpoints was reached from an earlier one
    for x, y in image.items():
        if x in ends:
            r = ends[x][1]
        else:
            j = bisect_right(xs, x) - 1
            r = slopes[j] * rate[x] if slopes[j] else ends[xs[j]][1]
        if rate.setdefault(y, r) != r:
            return None
    # the nearest crossing on each side, as (gap, closing rate)
    left = right = None
    pts = system.points
    for u, v in zip(pts, pts[1:]):
        g, r = v - u, rate[v] - rate[u]
        if r < 0 and (right is None or g * right[1] < right[0] * -r):
            right = g, -r
        elif r > 0 and (left is None or g * left[1] < left[0] * r):
            left = g, r
    # the gap closes after g·q·lam/r of s, g·q·lam·2^depth/r positions:
    # the last position strictly before it is (g·q·lam·2^depth - 1)//r away
    lo, hi = 0, 1 << depth
    if left:
        lo = k - ((left[0] * q * lam << depth) - 1) // left[1]
    if right:
        hi = k + ((right[0] * q * lam << depth) - 1) // right[1]
    return lo, hi


def _require_stunted(T) -> None:
    if not isinstance(T, StuntedSawtooth):
        raise PreconditionError(f"the exact route needs a stunted map, got {type(T).__name__}")


def decide_exact(T: StuntedSawtooth, bound: int, config: RunConfig = DEFAULT) -> ProbeResult:
    """The exact decision route: the evidence for the side (``_closure_side``)
    of a stunted map T; any other map raises PreconditionError.

    On the positive side, a plateau cycle, or a splice of two cycles of a
    branching transition component, that is a re-verified orbit whose
    period is not a power of two.  On the zero side, a certificate when
    every plateau cycle has period 2^k with k <= ``ZERO_CERT_LEVELS`` and
    every component's cycle has a power-of-two period; it lists the periods
    up to ``bound``.  Otherwise undecided, with the reason in the note.  A
    closure past ``orbit_budget`` points, so also a plateau orbit that does
    not close up within it, raises MarkovBudgetError naming the budget and
    its limit.
    """
    _require_stunted(T)
    side, system, plateaus = _closure_side(T.lattice(), T.lattice_values, config)
    if side == POSITIVE:
        for r, orbit in plateaus:
            if not is_power_of_two(r.period):
                # the plateau cycle itself is a non-power-of-two periodic orbit
                w = Witness("periodic-orbit", r.period,
                            tuple(Fraction(x, system.scale) for x in orbit[r.preperiod:]))
                if verify_witness(T, w):
                    return ProbeResult(POSITIVE, witness=w)
        orbit = cycle_analysis(system).witness_orbit
        if orbit is not None:
            w = Witness("periodic-orbit", len(orbit), orbit)
            if verify_witness(T, w):
                return ProbeResult(POSITIVE, witness=w)
        return ProbeResult(UNDECIDED, note="entropy is positive but no orbit was verified")
    analysis = cycle_analysis(system)
    if not all(is_power_of_two(p) for p in analysis.periods):
        return ProbeResult(UNDECIDED, note="a cycle's period is not a power of two, "
                                           "yet no component branches")
    recs = tuple(r for r, _ in plateaus)
    if any(r.doubling_level > ZERO_CERT_LEVELS for r in recs):
        return ProbeResult(UNDECIDED,
                           note=f"a plateau period exceeds 2^{ZERO_CERT_LEVELS}")
    cert = ZeroEntropyCertificate(recs,
                                  frozenset(p for p in analysis.periods if p <= bound),
                                  ZERO_CERT_LEVELS, bound)
    return ProbeResult(ZERO, certificate=cert)


def zero_entropy_certificate(T: StuntedSawtooth, bound: Optional[int] = None,
                             config: RunConfig = DEFAULT
                             ) -> Optional[ZeroEntropyCertificate]:
    """Exact evidence that every plateau orbit is eventually 2^k-periodic and
    that the exact transition graph has only power-of-two periods (its
    single-cycle components enumerate the complete period set); None on
    refutation.

    Budget exhaustion raises instead of returning None, so an absent
    certificate always means an actual refutation at these bounds.
    """
    if bound is None:
        bound = PERIOD_BOUND_EXACT
    return decide_exact(T, bound, config).certificate


def _plateau_record_holds(step, value, rec: PlateauOrbitRecord) -> bool:
    """Whether the orbit of ``value`` under ``step`` (``exact_walk``) first
    repeats a point after rec.preperiod + rec.period steps, at rec.preperiod."""
    seen = {}
    y = value
    for k in range(rec.preperiod + rec.period):
        if y in seen:
            return False
        seen[y] = k
        y = step(y)
    return seen.get(y) == rec.preperiod


def verify_zero_certificate(T: StuntedSawtooth, cert: ZeroEntropyCertificate,
                            config: RunConfig = DEFAULT) -> bool:
    """Re-derive each plateau record by walking its orbit on the map itself,
    by ``exact_walk`` apart from the lattice route, then recompute the
    certificate and compare.  Any map but a stunted one raises
    PreconditionError, as ``decide_exact`` does."""
    _require_stunted(T)
    values, step = exact_walk(T, T.plateau_values)
    recs = cert.plateau_orbits
    if [r.plateau for r in recs] != list(range(len(values))):
        return False
    for r in recs:
        if (r.preperiod + r.period > config.orbit_budget
                or not _plateau_record_holds(step, values[r.plateau], r)):
            return False
    try:
        again = zero_entropy_certificate(T, cert.bound, config)
    except BudgetExhausted:
        return False
    return again == cert


# ---------------------------------------------------------------------
# exact probe classification
# ---------------------------------------------------------------------


def classify_stunted(T: StuntedSawtooth, bound: int,
                     config: RunConfig = DEFAULT) -> ProbeResult:
    """Exact probe verdict by ``decide_exact``; a budget that runs out gives
    UNDECIDED with the budget named in the note."""
    try:
        return decide_exact(T, bound, config)
    except BudgetExhausted as exc:
        return ProbeResult(UNDECIDED, note=str(exc))


# ---------------------------------------------------------------------
# float probe classification (attractor, doubling tower, grid scan)
# ---------------------------------------------------------------------


def _tail_period(tail, tol: float):
    """The least p below len(tail) // 2 over which the end of the orbit
    samples ``tail`` repeats (the last point within tol, the last 256 within
    10·tol, relative to the tail's scale); None if none does."""
    window = len(tail)
    scale = max(1.0, max(tail), -min(tail))
    last, near, close = tail[-1], tol * scale, 10 * tol * scale
    for p, y in enumerate(tail[-2:-window // 2 - 1:-1], 1):     # y = tail[-1 - p]
        if abs(last - y) < near:
            k = min(window - p, 256)
            if all(abs(a - b) < close for a, b in zip(tail[-k:], tail[-k - p:-p])):
                return p
    return None


def _attractor_period(m, transient: int, window: int, tol: float, starts=None, done: int = 0):
    """[(p, x)] per turning point of m: the period p of the attracting cycle
    its orbit reaches (``_tail_period`` of ``window`` samples after
    ``transient`` steps; None when no period below window // 2 repeats) and
    the orbit's last point x.  ``starts`` continues orbits that an earlier
    call left ``done`` steps along, from the points it returned."""
    out = []
    for x in turning_points_of(m) if starts is None else starts:
        tail = orbit(m, iterate(m, x, transient - done), window)
        out.append((_tail_period(tail, tol), tail[-1]))
    return out


def _tower_descend(m):
    """Validated period-2 return-map tower of an even map m, turning point 0
    on a symmetric domain (x^2 + c and one-stage type-B maps).

    Returns (widths, reason): widths[j] is the half-width a_j of the
    symmetric interval on which R_j = f^(2^j) acts (the iterates of an even
    map stay even, so the restrictive intervals are symmetric).  Each level
    needs an orientation-reversing repelling fixed point alpha of R_j with
    |R_j(0)| >= |alpha| and |R_j^2(0)| <= |alpha|; descent stops when no
    candidate passes.  The candidates come from one array of 384 points on
    each side of 0: since R_j'(alpha) < -1, g = R_j(x) - x falls through
    alpha with slope below -2, so only cells where g goes from + to - are
    bisected (the pair of points that straddles 0 is not a cell).
    """
    import numpy as np
    widths = [domain_of(m).hi]
    for j in range(CASCADE_DEPTH):
        n = 2 ** j
        a = widths[-1]
        xs = np.concatenate((np.linspace(-a, -a * 1e-9, 384), np.linspace(a * 1e-9, a, 384)))
        g = iterate(m, xs, n) - xs
        falls = (g[:-1] > 0) & (g[1:] < 0)
        falls[383] = False               # xs[383] < 0 < xs[384]
        candidates = []
        for i in np.nonzero(falls)[0]:
            cand = bisect_root(lambda x: iterate(m, x, n) - x, float(xs[i]),
                               float(xs[i + 1]), 1e-14 * max(1.0, a))
            if cycle_multiplier(m, cand, n) < -1 + 1e-9:
                candidates.append(cand)
        v1 = iterate(m, 0.0, n)
        v2 = iterate(m, v1, n)
        alpha = next((cand for cand in sorted(candidates, key=abs)
                      if FLOAT_WIDTH_FLOOR <= abs(cand) <= abs(v1) and abs(v2) <= abs(cand)),
                     None)
        if alpha is None:
            return widths, "no-alpha"
        widths.append(abs(alpha))
    return widths, "depth"


def _grid_period_scan(m, level: int, half_width: float, ps) -> Optional[Witness]:
    """Vectorized search for a non-power-of-two period of R = f^(2^level) on
    [-half_width, half_width].

    One pass iterates the grid to max(ps)·2^level steps.  On reaching
    d·2^level for each power of two d that divides some p in ps, it marks the
    cells where R^d(x) - x changes sign.  On reaching p·2^level for each p
    in ascending order, it bisects the cells where R^p(x) - x changes sign
    and R^d(x) - x does not for any marked d dividing p (a root in such a
    cell is a point of lower period, which the witness check would reject
    after a full bisection), and it stops at the first verified witness.
    """
    import numpy as np
    n = 2 ** level
    ps = set(ps)
    twos = {1 << i for p in ps for i in range((p & -p).bit_length())}
    xs = np.linspace(-half_width, half_width, GRID_CELLS)
    ys = xs
    done = 0
    lower = {}                       # d -> cells where R^d(x) - x changes sign
    for k in sorted(ps | twos):
        ys = iterate(m, ys, k * n - done)
        done = k * n
        sign = np.sign(ys - xs)
        flips = sign[:-1] * sign[1:] < 0     # cells where R^k(x) - x strictly changes sign
        if k in twos:
            lower[k] = flips
        if k not in ps:
            continue
        for d in lower:
            if k % d == 0:
                flips = flips & ~lower[d]
        for i in np.nonzero(flips)[0]:
            x0 = bisect_root(lambda x: iterate(m, x, done) - x, float(xs[i]),
                             float(xs[i + 1]), 1e-14 * max(1.0, half_width))
            w = _float_orbit_witness(m, x0, done)
            if w is not None:
                return w
    return None


def _float_orbit_witness(m, x0: float, period_hint) -> Optional[Witness]:
    """Package a float periodic point as a witness if its minimal period is
    not a power of two (``minimal_period`` with a relative tolerance)."""
    if period_hint is None or is_power_of_two(period_hint):
        return None
    p = minimal_period(m, x0, period_hint, 1e-7 * max(1.0, abs(x0)))
    if p is None or is_power_of_two(p):
        return None
    return Witness("periodic-orbit", p, (x0, *orbit(m, x0, p - 1)))


def _deepest_scan(m, widths) -> Optional[Witness]:
    """``_grid_period_scan`` of the two deepest tower levels, deepest first."""
    depth = len(widths) - 1
    for lvl in dict.fromkeys((depth, max(depth - 1, 0))):
        w = _grid_period_scan(m, lvl, widths[lvl], SCAN_PERIODS)
        if w is not None:
            return w
    return None


def classify_float(m, side: Optional[str] = None) -> ProbeResult:
    """Heuristic verdict for a float map (x^2 + c, type-B compositions);
    ``side`` is the map's ``doubling_side`` when the caller has it.

    1. An even map (one turning point, at 0, on a symmetric domain) gets the
       doubling tower.  Any other map has depth 0 and runs its grid scan (4)
       first: one scan costs less than following each turning point's orbit.
    2. Each turning point's orbit is followed to its attracting cycle; when
       a tower 6 or more levels deep slows convergence, the same orbit is
       continued to a longer transient and a window of 2^(depth+2) samples.
       An even map that ``doubling_side`` puts on the positive side runs
       its grid scan (4) before this deep retry, and the retry only when
       the scan finds nothing.  A cycle whose period is not a power of two
       is a witness.
    3. An even map is zero when it attracts a 2^k-cycle with k <= depth,
       or with a larger k when the grid scan (4) finds nothing and
       ``doubling_side`` puts it on the zero side: the tower can stop a
       level short of the cycle.
    4. The grid scan looks for a non-power-of-two period of the return maps
       of the two deepest levels.
    5. Any other map is zero when every turning point's orbit settles on an
       attracting cycle of power-of-two period and the scan found nothing:
       such attractors can coexist with a repelling period-3 orbit.
    """
    even = is_even(m)
    widths, reason = _tower_descend(m) if even else ([domain_of(m).hi], "no tower")
    depth = len(widths) - 1
    if not even:
        w = _deepest_scan(m, widths)
        if w is not None:
            return ProbeResult(POSITIVE, witness=w)
    scanned = not even              # a multimodal map has run its scan
    transient, window = 60_000, 4096
    atts = _attractor_period(m, transient, window, ATTRACTING_TOL)
    if even and atts[0][0] is None and depth >= 6:
        if (side or doubling_side(m)) == POSITIVE:
            scanned = True
            w = _deepest_scan(m, widths)
            if w is not None:
                return ProbeResult(POSITIVE, witness=w)
        atts = _attractor_period(m, 600_000, max(8192, 2 ** (depth + 2)), ATTRACTING_TOL,
                                 starts=[x for _, x in atts], done=transient + window)
    for p, pt in atts:
        w = _float_orbit_witness(m, pt, p)
        if w is not None:
            return ProbeResult(POSITIVE, witness=w)
    cert = None
    if all(p is not None and is_power_of_two(p) for p, _ in atts):
        p, pt = max(atts)
        mult = cycle_multiplier(m, pt, p)
        if abs(mult) < 1.0:
            cert = FloatZeroCertificate(p.bit_length() - 1, p, pt, mult)
    if even:
        if cert is not None and cert.levels <= depth:
            return ProbeResult(ZERO, certificate=cert)
        w = None if scanned else _deepest_scan(m, widths)
        if w is not None:
            return ProbeResult(POSITIVE, witness=w)
        if cert is not None and (side or doubling_side(m)) == ZERO:
            return ProbeResult(ZERO, certificate=cert)
    elif cert is not None:
        return ProbeResult(ZERO, certificate=cert)
    return ProbeResult(UNDECIDED, note=f"tower depth {depth} ({reason}), "
                                       f"attractors {[p for p, _ in atts]}")


# ---------------------------------------------------------------------
# parameter paths and bisection
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterPath:
    kind: str
    t_lo: object
    t_hi: object
    base: Optional[SawtoothBase] = None
    xi0: Optional[tuple] = None
    direction: Optional[tuple] = None
    stages: Optional[tuple] = None
    stage_index: int = -1

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise PreconditionError("need t_lo < t_hi")
        if self.kind == "stunted":
            if not len(self.xi0) == len(self.direction) == self.base.m:
                raise PreconditionError(
                    f"a stunted path needs m = {self.base.m} heights and directions, "
                    f"got {len(self.xi0)} and {len(self.direction)}")
            if any(d < 0 for d in self.direction):
                raise PreconditionError("stunted path directions must be >= 0")
        elif self.kind not in ("quadratic", "type_b"):
            raise PreconditionError(f"unknown path kind {self.kind!r}")
        elif not math.isfinite(self.t_lo) or not math.isfinite(self.t_hi):
            raise PreconditionError(f"path ends must be finite, got {self.t_lo} and {self.t_hi}")
        elif self.kind == "type_b" and not -len(self.stages) <= self.stage_index < len(self.stages):
            # no index is inside an empty stage list
            raise PreconditionError(f"stage_index {self.stage_index} is outside the path's "
                                    f"{len(self.stages)} stages")

    @property
    def exact(self) -> bool:
        return self.kind == "stunted"

    @cached_property
    def _heights(self):
        """(q, a, b): the heights at t = t_lo + s·(t_hi - t_lo) of a stunted
        path are (a[i] + b[i]·s)/q, in ints."""
        lo = [x + self.t_lo * d for x, d in zip(self.xi0, self.direction)]
        step = [(self.t_hi - self.t_lo) * d for d in self.direction]
        q = math.lcm(*(v.denominator for v in lo + step))
        return q, [on_lattice(v, q) for v in lo], [on_lattice(v, q) for v in step]

    def lattice_at(self, k: int, den: int):
        """``maps.stunted_lattice`` of the map at position k/den of a stunted
        path, t = t_lo + (t_hi - t_lo)·k/den for an int den > 0, built from
        the int numerators of its heights, (a·den + b·k)/(q·den): a locate's
        probe passes den = 2^depth (``path_side``), a sweep row den =
        grid - 1 (``cli._stunted_rows``).  Raises the ``ValueError`` of
        ``stunted_lattice`` where the heights are not admissible."""
        q, a, b = self._heights
        return stunted_lattice(self.base, [x * den + y * k for x, y in zip(a, b)], q * den)

    def map_at(self, t):
        if self.kind == "stunted":
            xi = tuple(x + t * d for x, d in zip(self.xi0, self.direction))
            return build_stunted(self.base, xi)
        if self.kind == "quadratic":
            return Quadratic(float(t))
        stages = list(self.stages)
        ell, _ = stages[self.stage_index]
        stages[self.stage_index] = (ell, float(t))
        return build_type_b(stages)


def stunted_path(base: SawtoothBase, xi0, direction, t_lo, t_hi) -> ParameterPath:
    return ParameterPath("stunted", rat(t_lo), rat(t_hi), base=base,
                         xi0=tuple(rat(x) for x in xi0),
                         direction=tuple(rat(d) for d in direction))


def quadratic_path(c_lo: float, c_hi: float) -> ParameterPath:
    return ParameterPath("quadratic", float(c_lo), float(c_hi))


def type_b_path(stages, stage_index: int, a_lo: float, a_hi: float) -> ParameterPath:
    return ParameterPath("type_b", float(a_lo), float(a_hi),
                         stages=tuple(stages), stage_index=stage_index)


def classify_probe(path: ParameterPath, t, bound: int, config: RunConfig = DEFAULT,
                   side: Optional[str] = None) -> ProbeResult:
    """The verdict on the map of a path at t: ``classify_stunted`` on a
    stunted path, else ``classify_float`` told the map's kneading ``side``
    when the caller has it; undecided when t leaves the family."""
    try:
        m = path.map_at(t)
    except ValueError as exc:
        return ProbeResult(UNDECIDED, note=f"parameter leaves the family: {exc}")
    if path.exact:
        return classify_stunted(m, bound, config)
    return classify_float(m, side)


def _doubling_cell(path: ParameterPath, depth: int, tol: int):
    """The positions (j·w, (j + 1)·w) of the bracket on which the routed
    bisection of a one-plateau stunted path stops, w the first dyadic
    width <= tol.  The boundary's plateau value has the kneading W_∞ of
    Metropolis–Stein–Stein (``doubling_side``'s rule in the base's lap
    orientation), so its plateau end, irrational, lies in every cylinder of
    (1,) + W_∞[:D] (``symbolic.cylinders``): one inside a cell names the
    bisection's cell.  Depths run from where the cylinder, at most 2e/lam^D
    wide, can fit a cell to where it is narrower than a position.  None when
    the bisection would not reach w within MAX_PROBES, when no depth gives
    a cell, or when the cell leaves the path.
    """
    if tol < 1:
        return None
    level = depth - min(tol.bit_length() - 1, depth)       # the bisection's probes to w
    if level > MAX_PROBES - 2:
        return None
    base, w = path.base, 1 << depth - level
    q, (a,), (b,) = path._heights
    # lap 1 starts at the turning point 0, where the base is ys[1]; its
    # point x, of height xi = ±base(x), is at 2^depth·(f·x + g)/b
    sign = 1 if base.is_max(1) else -1
    f, g = q * sign * base.pl.slopes[1], q * sign * int(base.pl.ys[1]) - a
    size = math.log(2 * base.e.numerator * abs(f)) - math.log(base.e.denominator * b)
    first, last = (math.ceil((size + k * math.log(2)) / math.log(base.lam)) for k in (level, depth))
    # W_∞'s symbol i - 1, the word's i, is the reversing lap iff v2(i) is even
    rev = int(base.epsilon > 0)
    word = (1 if i == 0 else rev if (i & -i).bit_length() % 2 else 1 - rev for i in range(last))
    for d, (den, lo, hi) in enumerate(cylinders(base, word), 1):
        u, v = sorted((f * lo + g * den, f * hi + g * den))
        j = (u << level) // (b * den)
        if d >= first and v << level <= (j + 1) * b * den:
            return (j * w, (j + 1) * w) if 0 <= j < 1 << level else None
    return None


@dataclass(frozen=True)
class BoundaryResult:
    t_star: object
    bracket: tuple                  # (t at zero side, t at positive side)
    zero_side: tuple                # (t, ZeroEntropyCertificate-like)
    positive_side: tuple            # (t, Witness)
    gap: object
    probes: int
    undecided: int
    orientation: str                # entropy increasing | decreasing in t

    def as_dict(self):
        t0, cert = self.zero_side
        t1, wit = self.positive_side
        return {"t_star": str(self.t_star),
                "t_star_bracket": [str(self.bracket[0]), str(self.bracket[1])],
                "gap": str(self.gap),
                "below": {"parameter": str(t0), "certificate": cert.as_dict()},
                "above": {"parameter": str(t1), "witness": wit.as_dict()},
                "probes": self.probes, "undecided_count": self.undecided,
                "orientation": self.orientation}


def locate_boundary(path: ParameterPath, bound: Optional[int] = None,
                    resolution=None, config: RunConfig = DEFAULT) -> BoundaryResult:
    """Bracket the boundary between a zero-certified and a positively-witnessed
    parameter, by bisection, until the bracket is narrower than the resolution.

    Probes that certify neither way are counted and the bracket is refined
    around them at quarter points; if every refinement probe is undecided,
    past ``MAX_PROBES`` probes, or when no float lies strictly between the
    ends of a float bracket, the search stops with the budget error.
    An interior probe takes its side without evidence when it has one
    (``path_side`` on a stunted path, ``doubling_side`` on an even float
    map) and is classified otherwise.  On a stunted path each walked probe
    keeps its closure window, the positions where the map has its closure
    graph (``_closure_window``), and a later probe inside one takes its
    side with no walk.  The ends so sided are classified at the end (not
    counted as probes), and if a verdict differs from its side
    the bisection runs again with every probe classified, with a budget of
    its own.  Only such a contradiction re-runs it: a budget error of the
    routed pass is raised.  A stunted path is bisected in int positions k,
    t = t_lo + (t_hi - t_lo)·k/2^depth, a float path in its floats.  A
    one-plateau stunted path classifies the ends of ``_doubling_cell`` as
    probes and runs the routed pass, reusing them, only when they are not
    zero and positive or there is no cell.  Every verdict is
    ``classify_probe``'s; path ends that are not one zero and one positive
    raise PreconditionError with the note of each undecided end.
    """
    if bound is None:
        bound = PERIOD_BOUND_EXACT if path.exact else PERIOD_BOUND_FLOAT
    if resolution is None:
        resolution = config.resolution_exact if path.exact else config.resolution_float
    probes = 0
    undecided = 0
    verdicts = {}       # position -> (kind, verdict) of a classified end
    windows = []        # (lo, hi, side) per closure window of a stunted path
    if path.exact:
        # a step halves the bracket at most twice and a pass makes at most
        # MAX_PROBES probes, so every midpoint is an int k over 2^depth; a
        # bracket of width w in these units is within the resolution iff w <= tol
        depth, span = 2 * MAX_PROBES, path.t_hi - path.t_lo
        lo, hi, tol = 0, 1 << depth, math.floor(Fraction(resolution) * 2**depth / span)
    else:
        lo, hi, tol = path.t_lo, path.t_hi, resolution

    def t_at(k):
        return path.t_lo + span * Fraction(k, 1 << depth) if path.exact else k

    def between(a, b):
        return (a + b) >> 1 if path.exact else (a + b) / 2

    def probe(k, routed):       # (kind, verdict); no verdict for a side taken without evidence
        nonlocal probes
        probes += 1
        if k in verdicts:
            return verdicts[k]
        side = None
        if routed and path.exact:
            side, window = path_side(path, k, depth, config, windows)
            if window:
                windows.append(window)
        elif routed:
            try:
                m = path.map_at(k)
            except ValueError:      # classify_probe notes it
                m = None
            side = doubling_side(m) if m is not None and is_even(m) else None
        if side is not None:
            return side, None
        r = classify_probe(path, t_at(k), bound, config)
        return r.kind, r

    def width(zero, pos):
        return abs(t_at(pos[0]) - t_at(zero[0]))

    def bisect(zero, pos, limit, routed):
        nonlocal undecided
        while abs(pos[0] - zero[0]) > tol and probes < limit:
            mid = between(zero[0], pos[0])
            if mid in (zero[0], pos[0]):     # adjacent floats; never two int positions
                raise BudgetExhausted(f"no float lies between the bracket ends: resolution "
                                      f"{resolution} is below the width {width(zero, pos)}")
            # the midpoint, then, if it is undecided, the two quarter points
            for ks in ((mid,), None):
                moved = False
                for k in ks or (between(zero[0], mid), between(pos[0], mid)):
                    kind, r = probe(k, routed)
                    if kind == ZERO:
                        zero, moved = (k, kind, r), True
                    elif kind == POSITIVE:
                        pos, moved = (k, kind, r), True
                    else:
                        undecided += 1
                if moved:
                    break
            else:
                raise BudgetExhausted(f"undecided probes block refinement below width "
                                      f"{width(zero, pos)}")
        if abs(pos[0] - zero[0]) > tol:
            raise BudgetExhausted(f"probe budget exhausted: max_probes={MAX_PROBES} "
                                  f"reached at width {width(zero, pos)}")
        return zero, pos

    verdicts[lo], verdicts[hi] = probe(lo, False), probe(hi, False)
    r_lo, r_hi = (lo, *verdicts[lo]), (hi, *verdicts[hi])
    if {r_lo[1], r_hi[1]} != {ZERO, POSITIVE}:
        notes = "".join(f"; {t_at(k)}: {r.note}" for k, kind, r in (r_lo, r_hi)
                        if kind == UNDECIDED)
        raise PreconditionError(
            f"path endpoints must certify differently, got {r_lo[1]}/{r_hi[1]}{notes}")
    # only the results at the two bracket ends are kept: a witness near the
    # boundary holds an orbit of up to ~10^5 floats
    zero, pos = (r_lo, r_hi) if r_lo[1] == ZERO else (r_hi, r_lo)
    cell = _doubling_cell(path, depth, tol) if path.exact and path.base.m == 1 else None
    if cell is not None:
        # the one-plateau route: the bisection's last bracket, classified
        verdicts.update({k: probe(k, False) for k in cell if k not in verdicts})
        ends = tuple((k, *verdicts[k]) for k in (cell if zero[0] == lo else cell[::-1]))
    if cell is None or (ends[0][1], ends[1][1]) != (ZERO, POSITIVE):
        ends = bisect(zero, pos, probes + MAX_PROBES - 2, routed=True)
        # an end sided without evidence is classified; this is not a new probe
        for k, side, r in ends:
            if r is None:
                r = classify_probe(path, t_at(k), bound, config, side)
            verdicts[k] = r.kind, r
        ends = tuple((k, *verdicts[k]) for k, _, _ in ends)
    if (ends[0][1], ends[1][1]) != (ZERO, POSITIVE):
        # an end's evidence disagrees with its side: bisect again from the
        # path's ends with every probe classified, the verdicts above reused
        ends = bisect(zero, pos, probes + MAX_PROBES - 2, routed=False)
    (k_zero, _, r_zero), (k_pos, _, r_pos) = ends
    t_zero, t_pos = t_at(k_zero), t_at(k_pos)
    return BoundaryResult((t_zero + t_pos) / 2, (t_zero, t_pos),
                          (t_zero, r_zero.certificate), (t_pos, r_pos.witness),
                          width(*ends), probes, undecided,
                          "increasing" if zero[0] == lo else "decreasing")


# ---------------------------------------------------------------------
# two-sided approximants
# ---------------------------------------------------------------------


def approximants(T_gamma: StuntedSawtooth, radius, config: RunConfig = DEFAULT):
    """Two stunted maps within sup-distance radius of T_gamma and with its
    shape: one with a positive-entropy witness, one zero-certified.

    Every plateau height moves by the same step, which changes the map by at
    most the step in sup-norm; shapes are re-checked exactly.
    """
    radius = rat(radius)
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    tau = shape(T_gamma)
    tried = []
    for r in (radius, radius / 2, radius / 4):
        path = stunted_path(T_gamma.base, T_gamma.xi, (1,) * T_gamma.m, -r, r)
        try:
            plus, minus = path.map_at(r), path.map_at(-r)
        except ValueError:
            tried.append((r, "inadmissible"))
            continue
        if shape(plus) != tau or shape(minus) != tau:
            tried.append((r, "shape broke"))
            continue
        above = classify_stunted(plus, PERIOD_BOUND_EXACT, config)
        if above.kind != POSITIVE:
            tried.append((r, "no positive witness"))
            continue
        below = classify_stunted(minus, PERIOD_BOUND_EXACT, config)
        if below.kind != ZERO:
            tried.append((r, "no zero certificate"))
            continue
        return plus, minus, above.witness, below.certificate, r
    raise PreconditionError(
        f"could not certify both sides within radius {radius}; attempts: {tried}")
