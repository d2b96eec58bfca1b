import math
import random
import sys
from fractions import Fraction

import pytest

from chaos_edge import (BracketError, Quadratic, QuadraticFamily,
                        build_stunted, cascade_trace, feigenbaum_delta,
                        find_restrictive, itinerary, renormalize, superstable_sequence)
from chaos_edge.maps import Interval
from chaos_edge.piecewise import Affine

from conftest import FloatUnimodal

F = Fraction
GOLDEN_ALPHA = (1 - math.sqrt(5)) / 2


class TestFindRestrictive:
    def test_basilica_interval(self):
        ri = find_restrictive(Quadratic(-1.0), 2)
        assert ri is not None
        assert abs(ri.interval.lo - GOLDEN_ALPHA) < 1e-10
        assert abs(ri.interval.hi + GOLDEN_ALPHA) < 1e-10
        assert 0 in ri.turning_hits

    def test_full_trapezoid_not_renormalizable(self, T32):
        assert find_restrictive(T32, 2) is None

    def test_superstable_16_has_period_two_interval(self):
        c = superstable_sequence(QuadraticFamily(), 4)[-1]
        ri = find_restrictive(Quadratic(c), 2)
        assert ri is not None

    def test_conditions_reverify(self):
        f = Quadratic(-1.0)
        ri = find_restrictive(f, 2)
        a, b = float(ri.interval.lo), float(ri.interval.hi)
        # interiors of J, f(J) disjoint; f^2(J) inside J; boundary condition
        fa = min(f(a), f(b), f(0.0))
        fb = max(f(a), f(b))
        assert fb <= a + 1e-9
        f2a = min(f(fa), f(fb))
        f2b = max(f(fa), f(fb))
        assert a - 1e-9 <= f2a and f2b <= b + 1e-9
        assert abs(f(f(a)) - a) < 1e-8
        assert abs(f(f(b)) - a) < 1e-8

    def test_exact_window_map(self, base1):
        # the period-2 window map renormalizes exactly once
        T = build_stunted(base1, [F(1)])
        ri = find_restrictive(T, 2)
        assert ri is not None
        core, _ = renormalize(T, ri)
        assert find_restrictive(core, 2) is None


class TestRenormalize:
    def test_superstable_core(self):
        f = Quadratic(-1.0)
        R, _ = renormalize(f, find_restrictive(f, 2))
        assert abs(R(R.turning) - R.turning) < 1e-8

    def test_orientation_normalized(self):
        f = Quadratic(-1.0)
        R, _ = renormalize(f, find_restrictive(f, 2))
        dom = R.domain
        probe = dom.lo + (dom.hi - dom.lo) * 1e-6
        assert R(probe) > R(dom.lo) - 1e-12

    def test_affine_invariance(self):
        # renormalizing an affine copy commutes with the conjugation
        f = Quadratic(-1.0)
        phi = Affine(2.0, 1.0)
        inv = phi.inverse()
        g = FloatUnimodal(lambda x: phi(f(inv(x))),
                          Interval(phi(-f.beta), phi(f.beta)), phi(0.0))
        ri_f = find_restrictive(f, 2)
        ri_g = find_restrictive(g, 2)
        assert ri_g is not None
        assert abs(phi(float(ri_f.interval.lo)) - float(ri_g.interval.lo)) < 1e-7
        Rf, _ = renormalize(f, ri_f)
        Rg, _ = renormalize(g, ri_g)
        for t in (0.1, 0.4, 0.7):
            x = Rf.domain.lo + t * (Rf.domain.hi - Rf.domain.lo)
            y = Rg.domain.lo + t * (Rg.domain.hi - Rg.domain.lo)
            rel = (Rf(x) - Rf.domain.lo) / (Rf.domain.hi - Rf.domain.lo)
            rel2 = (Rg(y) - Rg.domain.lo) / (Rg.domain.hi - Rg.domain.lo)
            assert abs(rel - rel2) < 1e-6

    def test_conjugacy_of_itineraries(self):
        f = Quadratic(-1.0)
        ri = find_restrictive(f, 2)
        R, _ = renormalize(f, ri)
        lo, hi = float(ri.interval.lo), float(ri.interval.hi)
        induced = FloatUnimodal(lambda x: f(f(x)), Interval(lo, hi), 0.0)
        rnd = random.Random(7)
        dom = R.domain
        scale = (dom.hi - dom.lo) / (hi - lo)
        for _ in range(20):
            u = rnd.uniform(lo, hi)
            x = dom.lo + (u - lo) * scale
            assert itinerary(R, x, 24).symbols == itinerary(induced, u, 24).symbols


def _level_maps(f, depth):
    """Levels 1..depth of the period-2 cascade of f, each with its
    relative rescaling phi."""
    out = []
    for _ in range(depth):
        ri = find_restrictive(f, 2)
        f, phi = renormalize(f, ri)
        out.append((f, phi))
    return out


class TestFlatLevels:
    C = -1.401155

    def test_agrees_with_nested_closures(self):
        # the level-k map as the closures of one level wrapped around the
        # next, evaluated level by level
        f = Quadratic(self.C)
        nested = f
        rnd = random.Random(3)
        for k, (level, phi) in enumerate(_level_maps(f, 4), start=1):
            inv = phi.inverse()
            nested = FloatUnimodal(lambda x, g=nested, p=phi, q=inv: p(g(g(q(x)))),
                                   level.domain, level.turning)
            dom = level.domain
            scale = max(1.0, abs(dom.lo), abs(dom.hi))
            for _ in range(200):
                x = rnd.uniform(dom.lo, dom.hi)
                assert abs(level(x) - nested(x)) <= 1e-12 * scale

    def test_one_loop_over_the_base(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return x * x + self.C

        base = FloatUnimodal(counted, Quadratic(self.C).domain, 0.0)
        (_, _), (level2, _), (level3, _) = _level_maps(base, 3)
        selves = []

        def watch(frame, event, arg):
            if event == "call":
                selves.append(frame.f_locals.get("self"))

        x = 0.25 * level3.domain.hi
        calls[0] = 0
        sys.setprofile(watch)
        try:
            level3(x)
        finally:
            sys.setprofile(None)
        assert calls[0] == 8
        assert not any(s is level2 for s in selves)


class TestCascade:
    def test_superstable_depths(self):
        fam = QuadraticFamily()
        for k in (2, 3):
            c = superstable_sequence(fam, k)[-1]
            tr = cascade_trace(Quadratic(c), 8)
            assert tr.depth == k
            assert all(l.relative_period == 2 for l in tr.levels)

    def test_nesting(self):
        c = superstable_sequence(QuadraticFamily(), 3)[-1]
        tr = cascade_trace(Quadratic(c), 8)
        for a, b in zip(tr.levels, tr.levels[1:]):
            assert a.original.lo <= b.original.lo and b.original.hi <= a.original.hi

    def test_fixed_plateau_depth_zero(self, T12):
        assert cascade_trace(T12, 6).depth == 0

    def test_near_accumulation_deep(self):
        tr = cascade_trace(Quadratic(-1.401155), 8)
        assert tr.depth >= 6

    def test_near_accumulation_endpoints_pinned(self):
        # original-coordinate endpoints of the nested float construction
        # (each level a closure over the level above) on the same map
        pinned = [
            (-0.7849727623572416, 0.7849727623572416),
            (-0.30694175750174174, 0.3069417575017418),
            (-0.12274779137381904, 0.12274779137381947),
            (-0.04902503057591006, 0.049025030575911475),
            (-0.019586736000565805, 0.019586736000564473),
            (-0.007824473757018396, 0.007824473757023628),
            (-0.00312416076776147, 0.003124160767737284),
            (-0.0012444938303787139, 0.0012444938303737764),
        ]
        tr = cascade_trace(Quadratic(-1.401155), 8)
        assert tr.depth == 8 and tr.reason == "depth"
        assert [l.relative_period for l in tr.levels] == [2] * 8
        for level, (lo, hi) in zip(tr.levels, pinned):
            assert abs(level.original.lo - lo) <= 1e-12
            assert abs(level.original.hi - hi) <= 1e-12


class TestSuperstable:
    def test_first_three(self):
        fam = QuadraticFamily()
        assert abs(superstable_sequence(fam, 0)[-1]) <= 1e-12
        assert abs(superstable_sequence(fam, 1)[-1] + 1) <= 1e-12
        assert abs(superstable_sequence(fam, 2)[-1] + 1.3107026) <= 1e-6

    def test_monotone_decreasing(self):
        cs = superstable_sequence(QuadraticFamily(), 6)
        for a, b in zip(cs, cs[1:]):
            assert b < a

    def test_degenerate_family_brackets_error(self):
        class Flat:
            bracket0 = (0.1, 0.2)
            bracket1 = (0.1, 0.2)

            def crit_orbit_value(self, t, n):
                return 1.0  # no superstable parameter anywhere

        with pytest.raises(BracketError):
            superstable_sequence(Flat(), 1)


class TestFeigenbaum:
    def test_delta_convergence(self):
        est = feigenbaum_delta(QuadraticFamily(), 8)
        assert abs(est.value - 4.6692016) / 4.6692016 < 0.01
        # the ratios settle towards the limit
        tail = est.deltas[-3:]
        assert all(abs(d - 4.6692016) < 0.05 for d in tail)

    def test_stops_where_the_bisection_stops_resolving(self):
        # c_k is bisected to tol = 1e-13 while the gaps c_k - c_{k-1} shrink
        # by delta per step; computing all c_k gave delta_16 = 4.6703 and
        # delta_20 = 1.405 with the flag off, and k_max = 30 did not finish
        for k_max in (12, 14, 15, 16, 20, 30):
            est = feigenbaum_delta(QuadraticFamily(), k_max)
            assert abs(est.value - 4.6692016) < 1e-3, k_max
            assert est.precision_flag == (k_max > 14)
            assert len(est.params) == min(k_max, 15) + 1
            assert len(est.deltas) == min(k_max, 14) - 1

    def test_kmax_precondition(self):
        from chaos_edge import PreconditionError
        with pytest.raises(PreconditionError):
            feigenbaum_delta(QuadraticFamily(), 3)
