"""Exact periods and orbits read off the breakpoint closure, the restricted
piece walks that renormalization builds, and the exact orbit walks on the
integer lattice.

They are checked against the ``Fraction`` oracle of ``conftest``: the piece
engine as it ran in the map's own coordinates (``oracle_advance``,
``oracle_fixed_points``), with orbits walked by evaluating the map in
``Fraction``s.
"""

import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from chaos_edge import (DEFAULT, MarkovBudgetError, RunConfig, build_base, build_stunted,
                        cascade_trace, find_restrictive, full_stunted, period_set,
                        periodic_points, renormalize)
from chaos_edge import markov, piecewise, renorm
from chaos_edge.cli import main
from chaos_edge.errors import BudgetExhausted, DomainEscapeError
from chaos_edge.maps import as_pl
from chaos_edge.markov import branches, build_markov, cycle_analysis
from chaos_edge.piecewise import PiecewiseLinear, advance_pieces, pieces_on

from conftest import (ZERO_SIDE_2_60, oracle_advance, oracle_levels, oracle_orbits,
                      oracle_period_set, random_xi)

ZIGZAG3 = PiecewiseLinear([F(0), F(1, 3), F(2, 3), F(1)], [F(0), F(1), F(0), F(1)])
NON_INTEGER = PiecewiseLinear([F(0), F(1, 2), F(3, 4), F(1)], [F(1, 4), F(1), F(1, 4), F(0)])
WINDOW = build_stunted(build_base(1, 1), [F(1)])

def orbits_of(T, bound):
    """(points, stability) of the orbits of each minimal period up to bound
    that has any, as ``oracle_period_set`` lists them."""
    found = {p: sorted((o.points, o.stability) for o in periodic_points(T, p))
             for p in range(1, bound + 1)}
    return {p: obs for p, obs in found.items() if obs}


def assert_matches_oracle(T, bound, budget, orbit_bound):
    """The period set up to the oracle's complete_upto, and the orbits of
    every period up to orbit_bound, as the Fraction engine finds them."""
    periods, complete, found = oracle_period_set(T, bound, budget)
    ps = period_set(T, bound)
    assert ps.complete_upto == bound
    assert sorted(p for p in ps.periods if p <= complete) == periods
    upto = min(complete, orbit_bound)
    assert orbits_of(T, upto) == {p: o for p, o in found.items() if p <= upto}


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
    assert_matches_oracle(T, BOUND[T.m], 1000, BOUND[T.m])
    # the pieces of each level on the whole domain, and the budget one level
    # past the last the oracle builds
    pl = as_pl(T)
    levels = oracle_levels(pl, BOUND[T.m] + 1, 1000)
    for n, level in enumerate(levels, start=1):
        assert pieces_on(pl, n, pl.lo, pl.hi, 1000) == level, n
    if len(levels) <= BOUND[T.m]:
        with pytest.raises(BudgetExhausted, match="piece_budget=1000 "):
            pieces_on(pl, len(levels) + 1, pl.lo, pl.hi, 1000)
    # where orbit_budget stops the closure before its last point, no period
    # is claimed; a full map's closure is its breakpoints, which count too
    small = len(build_markov(T, DEFAULT.orbit_budget).image) - 1
    with pytest.raises(MarkovBudgetError, match=f"orbit_budget={small}: .* exceed {small} "):
        period_set(T, 12, RunConfig(orbit_budget=small))


def test_budget_raises_while_the_level_is_built():
    # three pieces from the first piece pass the budget of 2, so the second
    # piece, which leaves the domain, is never reached
    _, lat = ZIGZAG3.lattice()
    pieces = [(0, 3, 0, 3), (3, 4, 5, 9)]
    with pytest.raises(BudgetExhausted, match=r"more than piece_budget=2 pieces"):
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
    assert all(_exact(x) for p in ps.periods for o in periodic_points(T, p) for x in o.points)
    ri = find_restrictive(T, 2)
    if ri is not None:
        assert _exact(ri.interval.lo) and _exact(ri.interval.hi)
        core, _ = renormalize(T, ri)
        assert all(_exact(v) for v in core.xs + core.ys)


def test_non_integer_slope_orbits_match_oracle():
    assert_matches_oracle(NON_INTEGER, 6, 10**6, 6)


# -- periods off the breakpoint closure ---------------------------------


@pytest.mark.parametrize("T", [WINDOW, build_stunted(build_base(1, 1), [F(3, 2)]),
                               full_stunted(build_base(2, 1)), ZIGZAG3, NON_INTEGER],
                         ids=["window", "trapezoid", "full-m2", "zigzag3", "non-integer-slope"])
def test_periods_build_no_piece(T, monkeypatch):
    want = period_set(T, 12), [periodic_points(T, p) for p in range(1, 6)]

    def off(*args):
        raise AssertionError("the piece engine was used")

    monkeypatch.setattr(piecewise, "advance_pieces", off)
    monkeypatch.setattr(piecewise, "pieces_on", off)
    assert (period_set(T, 12), [periodic_points(T, p) for p in range(1, 6)]) == want


def test_trapezoid_has_every_period_to_64():
    ps = period_set(build_stunted(build_base(1, 1), [F(3, 2)]), 64)
    assert ps.periods == frozenset(range(1, 65)) and ps.complete_upto == 64


def test_each_periodic_orbit_is_solved_once(monkeypatch):
    # only Lyndon closed walks, the least rotations of primitive walks, are
    # solved: the trapezoid has 4,080 orbits of period 16
    solved = [0]
    real = markov._cycle_orbit

    def counted(*args):
        solved[0] += 1
        return real(*args)

    monkeypatch.setattr(markov, "_cycle_orbit", counted)
    orbits = periodic_points(build_stunted(build_base(1, 1), [F(3, 2)]), 16)
    assert len({o.points for o in orbits}) == len(orbits) == solved[0] == 4080


def test_period_16_is_listed_within_the_kept_prefix_extensions():
    # the search extends only prefixes of least rotations, 19,112 of them for
    # the trapezoid's period-16 orbits; generating every closed walk from
    # its least state and then filtering the rotations took 65,549 steps
    T = build_stunted(build_base(1, 1), [F(3, 2)])
    assert len(periodic_points(T, 16, RunConfig(piece_budget=20_000))) == 4080
    with pytest.raises(BudgetExhausted, match=r"piece_budget=19111 walk steps at period p=16$"):
        periodic_points(T, 16, RunConfig(piece_budget=19_111))


def test_zero_entropy_set_is_the_graph_cycles():
    rnd = random.Random(3)
    checked = 0
    while checked < 10:
        b = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
        T = build_stunted(b, random_xi(rnd, b, rnd.randint(4, 30)))
        system = build_markov(T, DEFAULT.orbit_budget)
        if not any(branches(succ) for _, succ in system.components):
            checked += 1
            periods = cycle_analysis(system).periods
            assert period_set(T, 64).periods == {p for p in periods if p <= 64}


@pytest.mark.parametrize("m, k", [(m, k) for m in (1, 2) for k in (60, 40, 20)])
def test_near_boundary_maps_match_oracle(m, k):
    # positive entropy just past the zero sides at 2^-60, where the period
    # set runs far beyond what the piece engine reaches
    T = build_stunted(build_base(m, 1), [ZERO_SIDE_2_60[m] + F(1, 2**k)] * m)
    assert_matches_oracle(T, 64, 2000, 7)


def test_a_segment_of_periodic_points_raises():
    # the identity is a segment of fixed points; the flip x -> 1 - x has one
    # fixed point, and its square is the identity
    identity = PiecewiseLinear([F(0), F(1)], [F(0), F(1)])
    flip = PiecewiseLinear([F(0), F(1)], [F(1), F(0)])
    assert [o.points for o in periodic_points(flip, 1)] == [(F(1, 2),)]
    for T, p in ((identity, 1), (flip, 2)):
        with pytest.raises(ValueError, match="segment of fixed points"):
            period_set(T, p)
        with pytest.raises(ValueError, match="segment of fixed points"):
            periodic_points(T, p)


# -- the exact renorm route ---------------------------------------------


def oracle_pieces_on(pl, n, lo, hi, budget):
    """The restricted route: restrict the map to [lo, hi], then advance in
    Fractions."""
    xs = [lo] + [x for x in pl.xs if lo < x < hi] + [hi]
    pieces = [(a, b, pl(a), pl(b)) for a, b in zip(xs, xs[1:])]
    for _ in range(n - 1):
        pieces = oracle_advance(pieces, pl, budget)
    return pieces


def _oracle_periodic_points(m, d, config):
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
    core = renormalize(T, ri) if ri is not None else None
    trace = cascade_trace(T, 4)
    monkeypatch.setattr(renorm, "pieces_on", oracle_pieces_on)
    monkeypatch.setattr(renorm, "periodic_points", _oracle_periodic_points)
    assert find_restrictive(T, 2) == ri
    if ri is not None:
        assert renormalize(T, ri) == core
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
