"""The piece engine and the exact orbit walks on the integer lattice.

They are checked against a ``Fraction`` oracle: the piece engine as it ran
in the map's own coordinates (``oracle_advance``, ``oracle_fixed_points``),
with orbits walked by evaluating the map in ``Fraction``s.
"""

import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from chaos_edge import (RunConfig, build_base, build_stunted, cascade_trace,
                        find_restrictive, full_stunted, period_set, renormalize)
from chaos_edge import renorm
from chaos_edge.cli import main
from chaos_edge.errors import BudgetExhausted, DomainEscapeError
from chaos_edge.maps import as_pl
from chaos_edge.periods import _stability_from_slope
from chaos_edge.piecewise import (PieceCursor, PiecewiseLinear, advance_pieces,
                                  fixed_points_of_pieces)

from conftest import ZERO_SIDE_2_60, random_xi

ZIGZAG3 = PiecewiseLinear([F(0), F(1, 3), F(2, 3), F(1)], [F(0), F(1), F(0), F(1)])
NON_INTEGER = PiecewiseLinear([F(0), F(1, 2), F(3, 4), F(1)], [F(1, 4), F(1), F(1, 4), F(0)])
WINDOW = build_stunted(build_base(1, 1), [F(1)])

# -- the Fraction oracle ------------------------------------------------


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
    levels = [pl.pieces()]
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


def as_oracle(ps):
    return (sorted(ps.periods), ps.complete_upto,
            {p: sorted((o.points, o.stability) for o in obs) for p, obs in ps.orbits.items()})


def seeded_maps():
    """Full and zero maps for m <= 3 and epsilon = ±1, and seeded maps with
    denominators 8 to 2^40."""
    maps = []
    for m in (1, 2, 3):
        for eps in (1, -1):
            maps += [full_stunted(build_base(m, eps)), build_stunted(build_base(m, eps), [0] * m)]
    rnd = random.Random(13)
    for _ in range(24):
        b = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
        maps.append(build_stunted(b, random_xi(rnd, b, rnd.choice((8, 2**10, 2**20, 2**40)))))
    return maps


BOUND = {1: 8, 2: 6, 3: 5}


@pytest.mark.parametrize("T", seeded_maps(),
                         ids=lambda T: f"m{T.m}e{T.base.epsilon}:" + ",".join(map(str, T.xi)))
def test_period_sets_match_oracle(T):
    cfg = RunConfig(piece_budget=1000)
    ps = period_set(T, BOUND[T.m], cfg)
    assert as_oracle(ps) == oracle_period_set(T, BOUND[T.m], cfg.piece_budget)
    # piece counts per level (the benchmark's piecewise.pieces counter)
    cursor = PieceCursor(as_pl(T), cfg.piece_budget)
    levels = oracle_levels(as_pl(T), BOUND[T.m] + 1, cfg.piece_budget)
    assert [len(cursor.level(n)) for n in range(1, len(levels) + 1)] == list(map(len, levels))
    if len(levels) <= BOUND[T.m]:
        with pytest.raises(BudgetExhausted):
            cursor.level(len(levels) + 1)
    # where a small budget stops the search
    small = RunConfig(piece_budget=60)
    assert (period_set(T, 12, small).complete_upto
            == len(oracle_levels(as_pl(T), 12, small.piece_budget)))


def test_budget_raises_while_the_level_is_built():
    # three pieces from the first piece pass the budget of 2, so the second
    # piece, which leaves the domain, is never reached
    _, lat = ZIGZAG3.lattice()
    pieces = [(0, 3, 0, 3), (3, 4, 5, 9)]
    with pytest.raises(BudgetExhausted, match=r"piece budget \(2\) exceeded"):
        advance_pieces(pieces, lat, 2)
    with pytest.raises(DomainEscapeError):
        advance_pieces(pieces, lat, 3)


# -- exact results hold no float ----------------------------------------


def _exact(v):
    return type(v) in (int, F)


@pytest.mark.parametrize("T", [WINDOW, as_pl(WINDOW).lattice()[1], ZIGZAG3,
                               ZIGZAG3.lattice()[1], NON_INTEGER],
                         ids=["stunted", "stunted-lattice", "zigzag3", "zigzag3-lattice",
                              "non-integer-slope"])
def test_exact_results_hold_no_float(T):
    # the lattice versions have int breakpoints and values, where a / on two
    # ints would make a float
    ps = period_set(T, 6)
    assert ps.complete_upto == 6 and 1 in ps.periods
    assert all(_exact(x) for obs in ps.orbits.values() for o in obs for x in o.points)
    cursor = PieceCursor(as_pl(T), 1000)
    for n in range(1, 7):
        assert all(_exact(x) and _exact(s)
                   for x, s in fixed_points_of_pieces(cursor.level(n), cursor.lam ** (n - 1)))
    ri = find_restrictive(T, 2)
    if ri is not None:
        assert _exact(ri.interval.lo) and _exact(ri.interval.hi)
        core = renormalize(T, ri)
        assert all(_exact(v) for v in core.xs + core.ys)


def test_non_integer_slope_orbits_match_oracle():
    assert as_oracle(period_set(NON_INTEGER, 6)) == oracle_period_set(NON_INTEGER, 6, 10**6)


# -- the exact renorm route ---------------------------------------------


class OracleCursor:
    """The restricted route: restrict the map to [lo, hi], then advance in
    Fractions."""

    def __init__(self, pl, budget):
        self.pl, self.budget = pl, budget

    def clipped(self, n, lo, hi):
        pl = self.pl
        xs = [lo] + [x for x in pl.xs if lo < x < hi] + [hi]
        pieces = [(a, b, pl(a), pl(b)) for a, b in zip(xs, xs[1:])]
        for _ in range(n - 1):
            pieces = oracle_advance(pieces, pl, self.budget)
        return pieces


def _oracle_periodic_points(m, d, config, cursor=None):
    pl = as_pl(m)
    pieces = oracle_levels(pl, d, config.piece_budget)[d - 1]
    return [SimpleNamespace(points=pts) for pts, _ in oracle_orbits(pl, pieces, d)]


RENORM_MAPS = [build_stunted(build_base(1, 1), [F(3, 2)]), WINDOW,
               build_stunted(build_base(1, 1), [F(1, 2)]),
               build_stunted(build_base(1, 1), [ZERO_SIDE_2_60[1]]),
               build_stunted(build_base(2, 1), [F(6, 5), F(6, 5)])]


@pytest.mark.parametrize("T", RENORM_MAPS, ids=lambda T: str(T.xi))
def test_renorm_matches_restricted_oracle(T, monkeypatch):
    ri = find_restrictive(T, 2)
    core = renormalize(T, ri, return_phi=True) if ri is not None else None
    trace = cascade_trace(T, 4)
    monkeypatch.setattr(renorm, "PieceCursor", OracleCursor)
    monkeypatch.setattr(renorm, "periodic_points", _oracle_periodic_points)
    assert find_restrictive(T, 2) == ri
    if ri is not None:
        assert renormalize(T, ri, return_phi=True) == core
    assert cascade_trace(T, 4) == trace


@pytest.mark.parametrize("xi, args, expected", [
    ("1", ("--period", "2"),
     '{"period": 2, "restrictive": {"hi": "3/4", "lo": "-3/4", "turning_hits": [0]}}\n'),
    ("1", ("--cascade", "4"),
     '{"depth": 1, "levels": [{"interval": ["-3/4", "3/4"], "relative_period": 2}], '
     '"reason": "no-restrictive-interval"}\n'),
    (str(ZERO_SIDE_2_60[1]), ("--cascade", "4"),
     '{"depth": 4, "levels": [{"interval": ["-3/4", "3/4"], "relative_period": 2}, '
     '{"interval": ["-3/5", "3/5"], "relative_period": 2}, '
     '{"interval": ["-24/41", "24/41"], "relative_period": 2}, '
     '{"interval": ["-1920/3281", "1920/3281"], "relative_period": 2}], "reason": "depth"}\n'),
])
def test_renorm_cli_bytes(tmp_path, capsys, xi, args, expected):
    # the bytes the Fraction engine printed
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"kind": "stunted", "m": 1, "epsilon": 1, "xi": [xi]}))
    assert main(["renorm", str(path), *args]) == 0
    assert capsys.readouterr().out == expected
