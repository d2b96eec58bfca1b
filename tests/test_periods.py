import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (Quadratic, build_base, build_stunted,
                        is_power_of_two_spectrum, period_set, periodic_points,
                        sharkovskii_forces, sharkovskii_precedes)
from chaos_edge.maps import FloatUnimodal, bisect_root
from chaos_edge.periods import PeriodSet, cycle_multiplier, is_power_of_two

from conftest import random_xi

F = Fraction


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
# the same map without ``derivative``, so cycle_multiplier takes differences
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
    def test_power_of_two_tail(self):
        assert sharkovskii_forces(4).materialize() == [4, 2, 1]

    def test_three_forces_everything(self):
        tail = sharkovskii_forces(3)
        assert not tail.is_finite
        assert all(q in tail for q in range(1, 200))
        from chaos_edge import PreconditionError
        with pytest.raises(PreconditionError):
            tail.materialize()

    def test_six(self):
        tail = sharkovskii_forces(6)
        assert 3 not in tail and 5 not in tail
        assert 10 in tail and 12 in tail and 20 in tail
        for k in range(7):
            assert 2**k in tail
        out = tail.materialize(20)
        assert out[0] == 6 and out[-1] == 1
        # descending Sharkovskii order: each entry forces the next
        for a, b in zip(out, out[1:]):
            assert sharkovskii_precedes(a, b)

    def test_order_classic_chain(self):
        # 3 > 5 > 7 > ... > 2*3 > 2*5 > ... > 8 > 4 > 2 > 1
        chain = [3, 5, 7, 9, 6, 10, 14, 12, 20, 24, 8, 4, 2, 1]
        for a, b in zip(chain, chain[1:]):
            assert sharkovskii_precedes(a, b)
            assert not sharkovskii_precedes(b, a)

    def test_is_power_of_two(self):
        assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
