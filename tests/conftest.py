import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from chaos_edge import build_base, build_stunted
from chaos_edge.errors import BudgetExhausted
from chaos_edge.maps import Interval, as_pl
from chaos_edge.periods import _stability_from_slope

F = Fraction


@dataclass(frozen=True)
class FloatUnimodal:
    """Unimodal float map given by a callable: the tests' adaptor for maps
    the library has no class for (a logistic map, a conjugate, a return map)."""

    fn: Callable
    domain: Interval
    turning: float

    @property
    def turning_points(self) -> tuple:
        return (self.turning,)

    def __call__(self, x):
        return self.fn(x)


# zero sides of locate_boundary(..., resolution=2^-60) on the m = 1 path
# xi = (t), t in [1/2, 3/2], and on the m = 2 diagonal path xi = (t, t),
# t in [1/2, 8/3]: Markov graphs of 35 and 69 states whose components are
# chained simple cycles, so their 0/1 matrices are defective
ZERO_SIDE_2_60 = {1: Fraction(1434739046586476969, 2**60),
                  2: Fraction(52542695141702555945, 3 * 2**63)}


@pytest.fixture
def base1():
    return build_base(1, 1)


@pytest.fixture
def base2():
    return build_base(2, 1)


@pytest.fixture
def T32(base1):
    return build_stunted(base1, [Fraction(3, 2)])


@pytest.fixture
def T12(base1):
    return build_stunted(base1, [Fraction(1, 2)])


def random_xi(rnd: random.Random, base, q: int):
    """Admissible random plateau parameters with denominator q."""
    xi = []
    for _ in range(base.m):
        lo = max(-base.e, -xi[-1]) if xi else -base.e
        xi.append(Fraction(rnd.randint(math.ceil(lo * q), math.floor(base.e * q)), q))
    return tuple(xi)


def fraction_stunted(base, xi):
    """Breakpoints, values and plateaus of the stunted map from the formula:
    plateaus c_i +- (lam - v)/lam with value v at a maximum and -v at a
    minimum, and the ends -e and e mapped to -epsilon·e and epsilon·(-1)^m·e."""
    e, lam = base.e, base.lam
    ys = {-e: -base.epsilon * e, e: base.epsilon * (-1) ** base.m * e}
    plateaus = []
    for i, (c, v) in enumerate(zip(base.turning_points, xi), start=1):
        half = Fraction(lam - v, lam)
        value = v if base.pl(c) > 0 else -v
        ys[c - half] = ys[c + half] = value
        plateaus.append((c - half, c + half, value))
    xs = sorted(ys)
    return xs, [ys[x] for x in xs], plateaus


# -- the Fraction oracle ------------------------------------------------
# The piece engine as it ran in a map's own coordinates, with orbits walked
# by evaluating the map in Fractions: the reference that the period sets and
# orbits read off the breakpoint closure are checked against.


def oracle_advance(pieces, pl, budget):
    xs = pl.xs
    out = []
    for a, b, fa, fb in pieces:
        if fa == fb:
            out.append((a, b, pl(fa), pl(fa)))
            continue
        vlo, vhi = (fa, fb) if fa < fb else (fb, fa)
        cuts = xs[bisect_right(xs, vlo):bisect_left(xs, vhi)]
        if fa > fb:
            cuts = cuts[::-1]
        vals = [fa, *cuts, fb]
        scale = (b - a) / (fb - fa)
        nodes = [a] + [a + (t - fa) * scale for t in cuts] + [b]
        for k in range(len(vals) - 1):
            out.append((nodes[k], nodes[k + 1], pl(vals[k]), pl(vals[k + 1])))
        if len(out) > budget:
            raise BudgetExhausted(f"piece budget ({budget}) exceeded")
    return out


def oracle_fixed_points(pieces):
    sols = []
    for a, b, fa, fb in pieces:
        if fa == fb:
            if a <= fa <= b:
                sols.append((fa, F(0)))
            continue
        s = (fb - fa) / (b - a)
        if s == 1:
            continue
        x = (fa - s * a) / (1 - s)
        if a <= x <= b:
            sols.append((x, s))
    sols.sort(key=lambda t: t[0])
    out = []
    for x, s in sols:
        if out and out[-1][0] == x:
            if out[-1][1] == 0 and s != 0:
                out[-1] = (x, s)
            continue
        out.append((x, s))
    return out


def oracle_levels(pl, n_max, budget):
    """Level-n pieces for n = 1..n_max, fewer where the budget runs out."""
    levels = [list(zip(pl.xs, pl.xs[1:], pl.ys, pl.ys[1:]))]
    while len(levels) < n_max:
        try:
            levels.append(oracle_advance(levels[-1], pl, budget))
        except BudgetExhausted:
            break
    return levels


def oracle_orbits(pl, pieces, p):
    """(points, stability) of the orbits of minimal period p, walked in Fractions."""
    seen, orbits = set(), []
    for x, s in oracle_fixed_points(pieces):
        if x in seen:
            continue
        y, walk = x, [x]
        for _ in range(p):
            y = pl(y)
            if y == x:
                break
            walk.append(y)
        else:
            continue
        if len(walk) < p:
            seen.add(x)
            continue
        seen.update(walk)
        least = walk.index(min(walk))
        orbits.append((tuple(walk[least:] + walk[:least]), _stability_from_slope(s)))
    return sorted(orbits)


def oracle_period_set(T, bound, budget):
    """(periods, complete_upto, orbits per period) as the Fraction engine finds them."""
    pl = as_pl(T)
    levels = oracle_levels(pl, bound, budget)
    found = {p: oracle_orbits(pl, levels[p - 1], p) for p in range(1, len(levels) + 1)}
    found = {p: o for p, o in found.items() if o}
    return sorted(found), len(levels), found
