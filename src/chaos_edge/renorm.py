"""Restrictive intervals, affine renormalization, doubling cascades.

A restrictive interval of period n is a proper subinterval J whose first n
images have pairwise disjoint interiors, with f^n(J) ⊆ J, f^n(∂J) ⊆ ∂J, a
turning point somewhere in the orbit of J, and J maximal.  Candidate
boundaries are periodic points of period dividing n next to a turning point,
paired with their nearest f^n-preimage on the other side; every returned
interval re-verifies all four conditions.  The preimages on one side are
solved on the pieces of f^n on that side alone (``piecewise.pieces_on``) on
an exact map, and between the turning points of f^n on a float map; either
is built once per side, and only when the side has candidates.  The images
of J follow one hull rule for every map: the image of [a, b] is the hull of
f(a), f(b) and the values of the ``maps.turning_regions`` that meet (a, b),
exact on an exact map.  An exact map's renormalization conjugates the
pieces of f^n on J alone.

A float cascade level k is the map Φ_k ∘ f^N ∘ Φ_k⁻¹ of the original map f,
where N = 2^k is the product of the relative periods and Φ_k is one affine
map from the original coordinates to the level's: ``RenormalizedMap``
evaluates it in one loop over f.  Renormalizing a level composes Φ and
multiplies N instead of wrapping the level above, so one evaluation costs N
steps of f and no nested calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from typing import Optional

from .config import DEFAULT, RunConfig
from .errors import BracketError, BudgetExhausted, MarkovBudgetError, PreconditionError
from .maps import (Interval, Quadratic, as_pl, bisect_root, domain_of, is_exact, iterate,
                   turning_points_of, turning_regions)
from .periods import lap_roots, periodic_points, turning_points_of_iterate
from .piecewise import Affine, PiecewiseLinear, pieces_on, solve_on_pieces

RENORM_DEGENERATE_WIDTH = 1e-12   # float restrictive intervals thinner than this stop a cascade
RESTRICTIVE_CANDIDATES = 8        # boundary candidates find_restrictive tries per side
# a doubling ratio from a gap of g·tol between superstable parameters is off
# by about 1.5/g (x^2 + c, tol 1e-13), so gaps below this many tols stop it
DELTA_GAP_TOLS = 10_000


@dataclass(frozen=True)
class RestrictiveInterval:
    interval: Interval
    period: int
    turning_hits: tuple      # orbit steps at which a turning point is inside


@dataclass(frozen=True)
class RenormalizedMap:
    """Float map Φ ∘ f^n ∘ Φ⁻¹ of a base map f, evaluated in one loop.

    ``phi`` takes the base map's coordinates to this map's, and ``n`` counts
    the steps of the base map in one step of this map, run by ``iterate``.
    """

    base: object
    phi: Affine
    n: int
    domain: Interval
    turning: float
    kind = "renormalized"
    _coeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inv = self.phi.inverse()
        object.__setattr__(self, "_coeffs", (inv.a, inv.b, self.phi.a, self.phi.b))

    @property
    def turning_points(self) -> tuple:
        return (self.turning,)

    @property
    def array_exact(self) -> bool:
        """Whether a step on a numpy array gives the scalar floats: Φ and Φ⁻¹
        are one * and one + each, so exactly when the base map's steps do."""
        return getattr(self.base, "array_exact", False)

    def __call__(self, x):
        ia, ib, pa, pb = self._coeffs
        return pa * iterate(self.base, ia * x + ib, self.n) + pb


@dataclass(frozen=True)
class CascadeLevel:
    interval: Interval       # in the coordinates of that level's map
    original: Interval       # pulled back to the original coordinates
    relative_period: int


@dataclass(frozen=True)
class CascadeTrace:
    levels: tuple
    reason: str              # no-restrictive-interval | depth | degenerate-width

    @property
    def depth(self) -> int:
        return len(self.levels)


def _orbit_intervals(m, regions, a, b, n):
    """The hulls of J = [a, b] and its first n images: each image is the hull
    of m at the ends and the values of the turning regions meeting (a, b)."""
    out = [(a, b)]
    for _ in range(n):
        vals = [m(a), m(b)] + [v for lo, hi, v in regions if lo < b and a < hi]
        a, b = min(vals), max(vals)
        out.append((a, b))
    return out


def _interiors_disjoint(intervals, tol) -> bool:
    ordered = sorted(intervals)
    for (a0, b0), (a1, b1) in zip(ordered, ordered[1:]):
        if b0 > a1 + tol:
            return False
    return True


def _mate_solver(m, n, side_lo, side_hi, config):
    """target -> the solutions of f^n(x) = target with x in [side_lo, side_hi],
    ascending: read off the pieces of f^n on the side on an exact map, and
    bracketed between the turning points of f^n on a float map."""
    if not side_lo < side_hi:
        return lambda target: []
    if is_exact(m):
        pieces = pieces_on(as_pl(m), n, side_lo, side_hi, config.piece_budget)
        return lambda target: solve_on_pieces(pieces, target)
    turns = turning_points_of_iterate(m, n, config)
    cuts = [side_lo] + [t for t in turns if side_lo < t < side_hi] + [side_hi]
    return lambda target: lap_roots(m, n, target, cuts, 1, config.precision)


def _verify_restrictive(m, regions, a, b, n, config) -> Optional[RestrictiveInterval]:
    dom = domain_of(m)
    exact = is_exact(m)
    scale = max(1.0, abs(float(dom.lo)), abs(float(dom.hi)))
    # disjointness slack absorbs the root-solver error at repelling boundary
    # points; genuine failures overlap by a macroscopic amount
    tol = 0 if exact else max(1e-10, 100 * config.precision) * scale
    if not (a < b):
        return None
    if a <= dom.lo + tol and b >= dom.hi - tol:
        return None  # must be a proper subinterval
    if not exact and b - a < 1e-4 * float(dom.hi - dom.lo):
        # near-tangent root pairs at a superstable core produce candidate
        # intervals at the sqrt-of-residual scale; genuine ones are O(domain)
        return None
    *orbit, (fa, fb) = _orbit_intervals(m, regions, a, b, n)
    if not _interiors_disjoint(orbit, tol):
        return None
    slack = 0 if exact else 1e-8 * max(1.0, float(b - a))
    if fa < a - slack or fb > b + slack:
        return None
    hits = [k for k, (u, v) in enumerate(orbit)
            if any(lo <= v and u <= hi for lo, hi, _ in regions)]
    if not hits:
        return None
    return RestrictiveInterval(Interval(a, b), n, tuple(hits))


def find_restrictive(m, period: int, config: RunConfig = DEFAULT) -> Optional[RestrictiveInterval]:
    """Widest verified restrictive interval of the given period, if any."""
    if period < 2:
        raise PreconditionError("period must be >= 2")
    dom = domain_of(m)
    pts = set()
    for d in range(1, period + 1):
        if period % d != 0:
            continue
        try:
            for orb in periodic_points(m, d, config):
                pts.update(orb.points)
        except MarkovBudgetError:
            raise
        except BudgetExhausted:
            break
    pts = sorted(pts)
    regions = turning_regions(m)
    best = None
    for tlo, thi, _ in regions:
        left = [p for p in pts if p < tlo][-RESTRICTIVE_CANDIDATES:]
        right = [p for p in pts if p > thi][:RESTRICTIVE_CANDIDATES]
        if left:
            mates = _mate_solver(m, period, thi, dom.hi, config)
            for p in reversed(left):
                for phat in mates(p)[:RESTRICTIVE_CANDIDATES]:
                    ri = _verify_restrictive(m, regions, p, phat, period, config)
                    if ri and (best is None or ri.interval.width > best.interval.width):
                        best = ri
        if right:
            mates = _mate_solver(m, period, dom.lo, tlo, config)
            for p in right:
                for phat in reversed(mates(p)[-RESTRICTIVE_CANDIDATES:]):
                    ri = _verify_restrictive(m, regions, phat, p, period, config)
                    if ri and (best is None or ri.interval.width > best.interval.width):
                        best = ri
    return best


def renormalize(m, ri: RestrictiveInterval, config: RunConfig = DEFAULT,
                return_phi: bool = False):
    """Affine rescaling of f^n restricted to the restrictive interval.

    The rescaled map acts on the same interval as the input map; orientation
    is chosen so the result increases at its left endpoint whenever possible.
    """
    n = ri.period
    J = ri.interval
    dom = domain_of(m)
    if is_exact(m):
        pieces = pieces_on(as_pl(m), n, J.lo, J.hi, config.piece_budget)
        xs = [pieces[0][0]] + [p[1] for p in pieces]
        ys = [pieces[0][2]] + [p[3] for p in pieces]
        restricted = PiecewiseLinear(xs, ys)
        first = next((p for p in pieces if p[2] != p[3]), None)
        last = next((p for p in reversed(pieces) if p[2] != p[3]), None)
        increasing_left = first is not None and first[3] > first[2]
        increasing_right_flip = last is not None and last[3] > last[2]
        flip = (not increasing_left) and increasing_right_flip
        phi = _affine_onto(J.lo, J.hi, dom.lo, dom.hi, flip)
        out = restricted.conjugate(phi)
        return (out, phi) if return_phi else out
    # float route: the cascade keeps return maps unimodal
    width = float(J.width)
    if width < RENORM_DEGENERATE_WIDTH:
        raise PreconditionError(f"degenerate restrictive interval (width {width:.3e})")
    turns_inside = [c for c in turning_points_of(m) if J.lo < c < J.hi]
    if len(turns_inside) != 1:
        raise PreconditionError(
            f"expected one turning point inside the restrictive interval, found {len(turns_inside)}")
    c = turns_inside[0]
    probe = J.lo + width * 1e-6
    flip = iterate(m, probe, n) < iterate(m, J.lo, n)
    phi = _affine_onto(J.lo, J.hi, dom.lo, dom.hi, flip)
    base, to_level, steps = m, phi, n
    if isinstance(m, RenormalizedMap):
        base, to_level, steps = m.base, _compose(phi, m.phi), m.n * n
    out = RenormalizedMap(base, to_level, steps, Interval(dom.lo, dom.hi), phi(c))
    return (out, phi) if return_phi else out


def _compose(outer: Affine, inner: Affine) -> Affine:
    """outer ∘ inner."""
    return Affine(outer.a * inner.a, outer.a * inner.b + outer.b)


def _affine_onto(a, b, d0, d1, flip: bool) -> Affine:
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        a, b, d0, d1 = Fraction(a), Fraction(b), Fraction(d0), Fraction(d1)
    if flip:
        slope = (d0 - d1) / (b - a)
        return Affine(slope, d1 - slope * a)
    slope = (d1 - d0) / (b - a)
    return Affine(slope, d0 - slope * a)


def cascade_trace(m, max_depth: int, config: RunConfig = DEFAULT) -> CascadeTrace:
    """Repeatedly find a period-2 restrictive interval and rescale.

    Consecutive restrictive intervals of zero-entropy maps have relative
    period two, so the cascade is traced by doubling alone; it stops when no
    period-2 restrictive interval survives verification.
    """
    if max_depth < 1:
        raise PreconditionError("max_depth must be >= 1")
    current = m
    chain = []   # affine inverses, level coords -> original coords
    levels = []
    reason = "depth"
    for _ in range(max_depth):
        ri = find_restrictive(current, 2, config)
        if ri is None:
            reason = "no-restrictive-interval"
            break
        lo, hi = ri.interval.lo, ri.interval.hi
        for inv in reversed(chain):
            lo, hi = inv(lo), inv(hi)
        if lo > hi:
            lo, hi = hi, lo
        levels.append(CascadeLevel(ri.interval, Interval(lo, hi), 2))
        try:
            current, phi = renormalize(current, ri, config, return_phi=True)
        except PreconditionError:
            reason = "degenerate-width"
            levels.pop()
            break
        chain.append(phi.inverse())
    return CascadeTrace(tuple(levels), reason)


# ---------------------------------------------------------------------
# superstable parameters and the doubling ratio
# ---------------------------------------------------------------------


class QuadraticFamily:
    """The family x -> x^2 + c on its invariant interval, c in [-2, 1/4]."""

    kind = "quadratic"
    bracket0 = (-0.75, 0.2)
    bracket1 = (-1.5, -0.6)

    def crit_orbit_value(self, c: float, n: int) -> float:
        return iterate(self.map_at(c), 0.0, n)

    def map_at(self, c: float) -> Quadratic:
        return Quadratic(c)


@dataclass(frozen=True)
class SuperstableSequence:
    params: tuple
    deltas: tuple
    precision_flag: bool

    @property
    def value(self) -> float:
        if not self.deltas:
            raise PreconditionError("need at least three parameters for a ratio")
        return self.deltas[-1]


def _superstable_params(family, tol: float):
    """c_0, c_1, ...: the parameters with the critical point periodic of
    period 2^k, each bisected to ``tol``."""
    cs = []
    for k in count():
        if k == 0:
            lo, hi = family.bracket0
        elif k == 1:
            lo, hi = family.bracket1
        else:
            step = cs[k - 1] - cs[k - 2]
            lo = cs[k - 1] + step / 2
            hi = cs[k - 1] + step / 64

        def phi(c, _n=2 ** k):
            return family.crit_orbit_value(c, _n)

        flo, fhi = phi(lo), phi(hi)
        grow = 0
        while flo * fhi > 0 and grow < 24:
            lo += (lo - hi)
            flo = phi(lo)
            grow += 1
        if flo * fhi > 0:
            raise BracketError(
                f"no sign change for the period-2^{k} superstable equation "
                f"near [{lo:.6g}, {hi:.6g}] (phi = {flo:.3g}, {fhi:.3g})")
        cs.append(bisect_root(phi, lo, hi, tol, flo))
        yield cs[-1]


def superstable_sequence(family, k_max: int, tol: float = 1e-13) -> list:
    """Parameters c_0..c_k_max with the critical point periodic of period 2^k."""
    return list(islice(_superstable_params(family, tol), k_max + 1))


def superstable_parameter(family, k: int, tol: float = 1e-13) -> float:
    if k < 0:
        raise PreconditionError("k must be >= 0")
    return superstable_sequence(family, k, tol)[-1]


def feigenbaum_delta(family, k_max: int, tol: float = 1e-13) -> SuperstableSequence:
    """Doubling ratios delta_k = (c_{k-1}-c_{k-2})/(c_k-c_{k-1}) up to k_max.

    The c_k are made one at a time; a gap c_k - c_{k-1} narrower than
    ``DELTA_GAP_TOLS`` times ``tol`` is not resolved by the bisection, so
    the sequence stops there, with that c_k and without its ratio, and
    ``precision_flag`` set.
    """
    if k_max < 5:
        raise PreconditionError("k_max must be >= 5 for a stable ratio")
    cs = []
    deltas = []
    for c in islice(_superstable_params(family, tol), k_max + 1):
        cs.append(c)
        if len(cs) < 3:
            continue
        d_prev, d_cur = cs[-2] - cs[-3], cs[-1] - cs[-2]
        if abs(d_cur) < DELTA_GAP_TOLS * tol:
            return SuperstableSequence(tuple(cs), tuple(deltas), True)
        deltas.append(d_prev / d_cur)
    return SuperstableSequence(tuple(cs), tuple(deltas), False)
