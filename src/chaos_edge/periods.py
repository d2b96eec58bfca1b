"""Periodic orbits, period sets, power-of-two spectra and Sharkovskii order.

Exact maps get exact per-piece linear solves of f^p(x) = x; float maps get
sign-change bisection on a lap-refined grid (with a tangency flag, since a
grid can miss neutral orbits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import DEFAULT, RunConfig
from .errors import BudgetExhausted, PreconditionError
from .maps import as_pl, domain_of, is_exact, turning_points_of
from .piecewise import PieceCursor, fixed_points_of_pieces


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
    # the orbits found, per period in ``periods``
    orbits: dict = field(default_factory=dict, compare=False, repr=False)

    def as_dict(self):
        return {"periods": sorted(self.periods), "bound": self.bound,
                "complete_upto": self.complete_upto}


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _minimal_period(m, x, p: int, tol: Optional[float] = None):
    """First-return time of x under m within p steps (None if never returns);
    exact equality when tol is None."""
    y = x
    for k in range(1, p + 1):
        y = m(y)
        if tol is None:
            if y == x:
                return k
        else:
            if abs(y - x) <= tol:
                return k
    return None


def _orbit_of(m, x, p: int):
    pts = [x]
    y = x
    for _ in range(p - 1):
        y = m(y)
        pts.append(y)
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


def periodic_points(m, p: int, config: RunConfig = DEFAULT,
                    cursor: Optional[PieceCursor] = None):
    """All periodic orbits of minimal period exactly p."""
    if p < 1:
        raise PreconditionError("period must be >= 1")
    if is_exact(m):
        return _periodic_exact(m, p, config, cursor)
    return _periodic_float(m, p, config)


def _periodic_exact(m, p, config, cursor=None):
    pl = as_pl(m)
    fn = pl
    if cursor is None:
        cursor = PieceCursor(pl, config.piece_budget)
    pieces = cursor.level(p)
    sols = fixed_points_of_pieces(pieces)
    seen = set()
    orbits = []
    for x, slope in sols:
        if x in seen:
            continue
        mp = _minimal_period(fn, x, p)
        if mp != p:
            # solution of f^p(x)=x with a smaller true period
            if mp is not None:
                seen.add(x)
            continue
        orbit = _orbit_of(fn, x, p)
        seen.update(orbit)
        orbits.append(PeriodicOrbit(orbit, p, _stability_from_slope(slope)))
    orbits.sort(key=lambda o: o.points[0])
    return orbits


# -- float route -------------------------------------------------------


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
        lo, hi = min(fa, fb), max(fa, fb)
        if not lo <= w <= hi:
            continue
        x0, x1 = a, b
        while x1 - x0 > xtol:
            mid = (x0 + x1) / 2
            if (m(mid) - w) * (fa - w) <= 0:
                x1 = mid
            else:
                x0 = mid
        out.append((x0 + x1) / 2)
    return sorted(out)


def turning_points_of_iterate(m, n: int, config: RunConfig = DEFAULT):
    """Turning points of f^n (float maps), by pulling turning points back."""
    base = list(turning_points_of(m))
    cur = list(base)
    xtol = config.precision
    for _ in range(n - 1):
        nxt = list(base)
        for w in cur:
            nxt.extend(_preimages(m, w, xtol))
        nxt.sort()
        dedup = []
        for x in nxt:
            if not dedup or x - dedup[-1] > 10 * xtol:
                dedup.append(x)
        cur = dedup
        if len(cur) > config.piece_budget:
            raise BudgetExhausted("turning-point budget exceeded")
    return cur


def newton_polish(g, x, scale, steps: int = 4):
    """Polish a root of g to machine precision with damped Newton steps."""
    h = 1e-7 * scale
    for _ in range(steps):
        gx = g(x)
        if gx == 0:
            return x
        d = (g(x + h) - g(x - h)) / (2 * h)
        if d == 0:
            return x
        step = gx / d
        if abs(step) > scale:
            return x
        x -= step
    return x


def _periodic_float(m, p, config):
    dom = domain_of(m)
    turns = turning_points_of_iterate(m, p, config) if p > 1 else list(turning_points_of(m))
    cuts = [dom.lo] + [t for t in turns if dom.lo < t < dom.hi] + [dom.hi]
    scale = max(1.0, abs(dom.lo), abs(dom.hi))
    xtol = config.precision * scale

    def fp(x):
        y = x
        for _ in range(p):
            y = m(y)
        return y

    roots = []
    gs = []
    grid_per = max(8, config.grid_cells // max(1, len(cuts) - 1))
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= xtol:
            continue
        n = grid_per
        xs = [a + (b - a) * k / n for k in range(n + 1)]
        gs = [fp(x) - x for x in xs]
        for k in range(n):
            if gs[k] == 0:
                roots.append(xs[k])
            if gs[k] * gs[k + 1] < 0:
                x0, x1, g0 = xs[k], xs[k + 1], gs[k]
                while x1 - x0 > xtol:
                    mid = (x0 + x1) / 2
                    gm = fp(mid) - mid
                    if gm == 0:
                        x0 = x1 = mid
                        break
                    if gm * g0 <= 0:
                        x1 = mid
                    else:
                        x0, g0 = mid, gm
                roots.append((x0 + x1) / 2)
    if gs and gs[-1] == 0:
        roots.append(cuts[-1])
    roots.sort()
    dedup = []
    for x in roots:
        if not dedup or x - dedup[-1] > 10 * xtol:
            dedup.append(x)

    def on_domain(x):
        return min(max(x, dom.lo), dom.hi)

    dedup = [on_domain(newton_polish(lambda z: fp(z) - z, x, scale)) for x in dedup]

    tol = 1e-9 * scale
    orbits = []
    taken = []
    for x in dedup:
        if any(abs(x - t) <= tol for t in taken):
            continue
        mp = _minimal_period(m, x, p, tol)
        if mp != p:
            continue
        orbit = _orbit_of(m, x, p)
        taken.extend(orbit)
        mult = 1.0
        deriv = getattr(m, "derivative", None)
        y = x
        for _ in range(p):
            if deriv is not None:
                mult *= deriv(y)
            else:
                h = 1e-7 * scale
                mult *= (m(min(y + h, dom.hi)) - m(max(y - h, dom.lo))) / (
                    min(y + h, dom.hi) - max(y - h, dom.lo))
            y = m(y)
        a = abs(mult)
        if abs(a - 1.0) < 1e-6:
            stab = "neutral"
        elif a < 1:
            stab = "attracting"
        else:
            stab = "repelling"
        orbits.append(PeriodicOrbit(orbit, p, stab))
    return orbits


def period_set(m, bound: int, config: RunConfig = DEFAULT) -> PeriodSet:
    """Union of minimal periods found for all p <= bound, with their orbits."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    # one cursor for an exact map, so each level of pieces is built once
    cursor = PieceCursor(as_pl(m), config.piece_budget) if is_exact(m) else None
    found = {}
    complete = 0
    for p in range(1, bound + 1):
        try:
            orbits = periodic_points(m, p, config, cursor=cursor)
        except BudgetExhausted:
            break
        if orbits:
            found[p] = orbits
        complete = p
    return PeriodSet(frozenset(found), bound, complete, found)


def is_power_of_two_spectrum(ps: PeriodSet):
    """('yes-up-to-bound', None) or ('no', witness_period)."""
    for p in sorted(ps.periods):
        if not is_power_of_two(p):
            return ("no", p)
    return ("yes-up-to-bound", None)


# -- Sharkovskii order -------------------------------------------------


def _sharkovskii_key(n: int):
    """Total-order key; smaller key = earlier (stronger) in the order."""
    if n < 1:
        raise ValueError("periods are positive")
    a = 0
    q = n
    while q % 2 == 0:
        q //= 2
        a += 1
    if q > 1:
        return (0, a, q)
    return (1, -a, 0)


def sharkovskii_precedes(p: int, q: int) -> bool:
    """True when p forces q (p strictly earlier, or equal)."""
    return _sharkovskii_key(p) <= _sharkovskii_key(q)


@dataclass(frozen=True)
class SharkovskiiTail:
    """The set of periods forced by p (a downward tail of the order)."""

    head: int

    def __contains__(self, q: int) -> bool:
        return sharkovskii_precedes(self.head, q)

    @property
    def is_finite(self) -> bool:
        return is_power_of_two(self.head)

    def materialize(self, bound: Optional[int] = None):
        """Forced periods in Sharkovskii order (strongest first).

        Powers of two have a finite tail and need no bound; any other head
        forces infinitely many periods, so a bound is required.
        """
        if self.is_finite:
            out = [self.head]
            k = self.head // 2
            while k >= 1:
                out.append(k)
                k //= 2
            return out
        if bound is None:
            raise PreconditionError(
                f"period {self.head} forces infinitely many periods; pass a bound")
        out = [q for q in range(1, bound + 1) if sharkovskii_precedes(self.head, q)]
        out.sort(key=_sharkovskii_key)
        return out


def sharkovskii_forces(p: int) -> SharkovskiiTail:
    if p < 1:
        raise PreconditionError("period must be >= 1")
    return SharkovskiiTail(p)
