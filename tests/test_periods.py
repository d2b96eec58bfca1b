import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (DEFAULT, BudgetExhausted, Quadratic, build_base, build_stunted,
                        is_power_of_two_spectrum, period_set, periodic_points, periods)
from chaos_edge.maps import FloatUnimodal, Interval, bisect_root, build_type_b, iterate
from chaos_edge.periods import (PeriodSet, _merge_close, cycle_multiplier, is_power_of_two,
                                lap_roots, minimal_period, newton_polish,
                                turning_points_of_iterate)
from chaos_edge.renorm import find_restrictive, renormalize

from conftest import random_xi

F = Fraction


def sharkovskii_precedes(p: int, q: int) -> bool:
    """Whether period p forces period q: 3 > 5 > 7 > ... > 2·3 > 2·5 > ... >
    4·3 > ... > 8 > 4 > 2 > 1, p = q included."""
    def key(n):
        a = (n & -n).bit_length() - 1          # n = 2^a · odd
        return (0, a, n >> a) if n >> a > 1 else (1, -a, 0)
    return key(p) <= key(q)


class TestPeriodicPoints:
    def test_fixed_plateau_orbits(self, T12):
        orbits = periodic_points(T12, 1)
        pts = sorted(o.points[0] for o in orbits)
        # the fixed plateau value, plus the left endpoint which the base
        # zigzag fixes
        assert pts == [F(-3, 2), F(1, 2)]
        tags = {o.points[0]: o.stability for o in orbits}
        assert tags[F(1, 2)] == "plateau-absorbed"
        assert tags[F(-3, 2)] == "repelling"

    def test_trapezoid_two_three_cycles(self, T32):
        orbits = periodic_points(T32, 3)
        assert len(orbits) == 2
        for o in orbits:
            assert o.period == 3
            x = o.points[0]
            y = x
            for _ in range(3):
                y = T32(y)
            assert y == x

    def test_quadratic_superstable_two_cycle(self):
        orbits = periodic_points(Quadratic(-1.0), 2)
        assert len(orbits) == 1
        pts = sorted(orbits[0].points)
        assert abs(pts[0] + 1) < 1e-9 and abs(pts[1]) < 1e-9
        assert orbits[0].stability == "attracting"

    def test_quadratic_orbit_counts(self):
        # c = -1.75 is the saddle-node of the period-3 window: its 3-cycle
        # touches the diagonal without crossing it, so the grid misses it.
        # Counts recorded before the dedupe kept its points sorted.
        counts = [len(periodic_points(Quadratic(-1.75), p)) for p in range(1, 15)]
        assert counts == [2, 1, 0, 1, 2, 2, 4, 5, 8, 11, 18, 25, 40, 58]

    @pytest.mark.xfail(strict=True, reason="the grid misses the neutral 3-cycle of the "
                       "saddle-node at c = -7/4, yet the set claims completeness to 6 "
                       "(ROADMAP item 11)")
    def test_saddle_node_period_is_listed_or_not_claimed(self):
        ps = period_set(Quadratic(-1.75), 6)
        assert 3 in ps.periods or ps.complete_upto < 3

    def test_minimality_filter(self, T32):
        # period 4 solutions exclude fixed points and 2-cycles
        for o in periodic_points(T32, 4):
            assert o.period == 4
            x = o.points[0]
            y = x
            for k in range(1, 4):
                y = T32(y)
                assert y != x


BASILICA = Quadratic(-1.0)
# the same map as a FloatUnimodal, so cycle_multiplier takes differences
BASILICA_NO_DERIVATIVE = FloatUnimodal(BASILICA, BASILICA.domain, 0.0)


@pytest.mark.parametrize("got, want, tol", [
    # a midpoint where g is exactly 0 comes back unchanged, not re-bisected
    (lambda: bisect_root(lambda x: x - 0.5, 0.0, 1.0, 0.3), 0.5, 0.0),
    # g_lo == 0 keeps lo in the bracket, even with another root inside
    (lambda: bisect_root(lambda x: x * (x - 0.7), 0.0, 1.0, 1e-12), 0.0, 1e-12),
    (lambda: bisect_root(lambda x: 3 * x - 1, 0.0, 1.0, 1e-10), 1 / 3, 1e-10),
    # chain rule against the domain-clamped central difference: the fixed
    # point and the superstable 2-cycle {0, -1} of x^2 - 1
    (lambda: cycle_multiplier(BASILICA_NO_DERIVATIVE, (1 - math.sqrt(5)) / 2, 1),
     cycle_multiplier(BASILICA, (1 - math.sqrt(5)) / 2, 1), 1e-6),
    (lambda: cycle_multiplier(BASILICA_NO_DERIVATIVE, -1.0, 2),
     cycle_multiplier(BASILICA, -1.0, 2), 1e-6),
])
def test_float_root_helpers(got, want, tol):
    assert abs(got() - want) <= tol


def test_bisect_root_stops_at_one_ulp():
    # an xtol below one ulp of the bracket once halved it forever: the
    # midpoint of two adjacent floats is one of them; g counts its calls so
    # that the bug fails here instead of hanging
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("bisect_root does not stop at one ulp")
        return x * x - 2

    root = bisect_root(g, 1.0, 2.0, 1e-17)
    assert abs(root - math.sqrt(2)) <= math.ulp(math.sqrt(2))
    assert calls <= 55          # 1 + 52 halvings of [1, 2] to adjacent floats


def test_quadratic_multiplier_is_the_derivative_product():
    m = Quadratic(-1.401155)
    for x0, p in ((0.3, 1), (-0.7, 16), (0.11, 1000)):
        mult, x = 1.0, x0
        for _ in range(p):
            mult *= m.derivative(x)
            x = m(x)
        assert cycle_multiplier(m, x0, p) == mult


def per_point_lap_roots(g, cuts, cells, precision):
    """The reference for ``lap_roots``: the same grid, zeros, bisections and
    polish, with g sampled at one point per call."""
    lo, hi = cuts[0], cuts[-1]
    xtol = precision * max(1.0, abs(lo), abs(hi))
    roots, gs = [], []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= xtol:
            continue
        xs = [a + (b - a) * k / cells for k in range(cells + 1)]
        gs = [g(x) for x in xs]
        for k in range(cells):
            if gs[k] == 0:
                roots.append(xs[k])
            if gs[k] * gs[k + 1] < 0:
                roots.append(bisect_root(g, xs[k], xs[k + 1], xtol, gs[k]))
    if gs and gs[-1] == 0:
        roots.append(hi)
    return sorted(newton_polish(g, x, lo, hi) for x in _merge_close(roots, 10 * xtol))


def _renormalized_quadratic():
    m = Quadratic(-1.3)
    return renormalize(m, find_restrictive(m, 2))


LOGISTIC = FloatUnimodal(lambda x: 3.9 * x * (1 - x), Interval(0.0, 1.0), 0.5)


@pytest.mark.parametrize("make", [lambda: Quadratic(-1.9), _renormalized_quadratic,
                                  lambda: build_type_b([(2, -1.9)]),
                                  lambda: build_type_b([(2, -1.0), (4, -1.2)]),
                                  lambda: LOGISTIC],
                         ids=["quadratic", "renormalized", "type-b", "type-b-two-stage",
                              "float-unimodal"])
@pytest.mark.parametrize("n, target, cells", [(3, None, 64), (5, None, 16), (4, 0.1, 1),
                                              (6, 0.3, 8)])
@pytest.mark.parametrize("per_call", [periods.LAP_SAMPLES_PER_CALL, 10],
                         ids=["default", "small-calls"])
def test_lap_roots_match_per_point_sampling(make, n, target, cells, per_call, monkeypatch):
    monkeypatch.setattr(periods, "LAP_SAMPLES_PER_CALL", per_call)
    m = make()
    dom = m.domain
    turns = turning_points_of_iterate(m, n)
    cuts = [dom.lo] + [t for t in turns if dom.lo < t < dom.hi] + [dom.hi]

    def g(x):
        return iterate(m, x, n) - (x if target is None else target)

    got = lap_roots(m, n, target, cuts, cells, 1e-12)
    assert got and got == per_point_lap_roots(g, cuts, cells, 1e-12)


def test_turning_point_budget_error_names_the_budget_and_the_iterate():
    # f^k of x^2 - 1.9 has 2^k - 1 turning points: 63 > 50 at k = 6
    with pytest.raises(BudgetExhausted) as info:
        turning_points_of_iterate(Quadratic(-1.9), 12, DEFAULT.with_(piece_budget=50))
    assert str(info.value) == ("turning-point budget exceeded: more than piece_budget=50 "
                               "turning points at iterate n=6 (of 12)")


class TestPeriodSet:
    def test_trapezoid_bound6(self, T32):
        ps = period_set(T32, 6)
        assert sorted(ps.periods) == [1, 2, 3, 4, 5, 6]
        assert ps.complete_upto == 6

    def test_fixed_plateau(self, T12):
        ps = period_set(T12, 64)
        assert sorted(ps.periods) == [1]
        assert ps.complete_upto == 64

    def test_quadratic_attracting_two_cycle(self):
        ps = period_set(Quadratic(-1.0), 8)
        assert sorted(ps.periods) == [1, 2]

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_sharkovskii_consistency(self, data):
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(1, 1)
        T = build_stunted(b, random_xi(rnd, b, 4))
        from chaos_edge import BudgetExhausted
        try:
            ps = period_set(T, 10)
        except BudgetExhausted:
            return
        for q in ps.periods:
            for r in range(1, ps.complete_upto + 1):
                if sharkovskii_precedes(q, r):
                    assert r in ps.periods, (T.xi, q, r, sorted(ps.periods))


class TestSpectrum:
    def test_yes(self):
        ps = PeriodSet(frozenset({1, 2, 4, 8}), 8, 8)
        assert is_power_of_two_spectrum(ps) == ("yes-up-to-bound", None)

    def test_no_three(self):
        ps = PeriodSet(frozenset({1, 2, 3}), 3, 3)
        assert is_power_of_two_spectrum(ps) == ("no", 3)

    def test_no_six(self):
        ps = PeriodSet(frozenset({1, 2, 6}), 6, 6)
        assert is_power_of_two_spectrum(ps) == ("no", 6)


class TestSharkovskii:
    def test_order_classic_chain(self):
        # the order test_sharkovskii_consistency reads:
        # 3 > 5 > 7 > ... > 2*3 > 2*5 > ... > 8 > 4 > 2 > 1
        chain = [3, 5, 7, 9, 6, 10, 14, 12, 20, 24, 8, 4, 2, 1]
        for a, b in zip(chain, chain[1:]):
            assert sharkovskii_precedes(a, b)
            assert not sharkovskii_precedes(b, a)

    def test_is_power_of_two(self):
        assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]


def test_minimal_period_matches_stepping_the_map():
    # the return time read off ``orbit`` is the one of stepping m(y) once a
    # call, on x^2 + c and type-B maps, from points on attracting cycles of
    # periods 1 to 8 (which return) and from points of chaotic maps (which
    # mostly do not), at several tolerances and step counts
    def stepped(m, x, p, tol):
        y = x
        for k in range(1, p + 1):
            y = m(y)
            if abs(y - x) <= tol:
                return k
        return None

    maps = [Quadratic(c) for c in (-0.5, -1.0, -1.3107, -1.3815, -1.75, -1.9)]
    maps += [build_type_b(stages) for stages in ([(2, -1.3)], [(4, -0.9)],
                                                 [(2, -1.3), (4, -0.9)], [(2, -1.9)])]
    rnd = random.Random(27)
    returned = 0
    for m in maps:
        starts = [iterate(m, 0.0, 5000), rnd.uniform(m.domain.lo, m.domain.hi)]
        for x in starts:
            for p in (1, 3, 16, 200):
                for tol in (0.0, 1e-12, 1e-7, 1e-3):
                    k = minimal_period(m, x, p, tol)
                    assert k == stepped(m, x, p, tol), (m, x, p, tol)
                    returned += k is not None
    assert returned >= 60
