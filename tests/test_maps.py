import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (DomainEscapeError, Quadratic, build_base, build_stunted,
                        build_type_b, critical_values, iterate, parse_map,
                        serialize_map)
from chaos_edge.maps import (FloatUnimodal, Interval, iterate_grid, orbit, turning_points_of,
                             turning_regions)
from chaos_edge.piecewise import PiecewiseLinear
from chaos_edge.renorm import find_restrictive, renormalize

from conftest import fraction_stunted, random_xi

F = Fraction


def _level_one(m):
    """The period-2 renormalization of a float map."""
    return renormalize(m, find_restrictive(m, 2))


class TestBase:
    def test_m1(self):
        b = build_base(1, 1)
        assert b.lam == 3
        assert b.e == F(3, 2)
        assert b.turning_points == (F(0),)

    def test_m2(self):
        b = build_base(2, 1)
        assert b.lam == 4
        assert b.e == F(8, 3)
        assert b.turning_points == (F(-1), F(1))

    def test_m3(self):
        b = build_base(3, 1)
        assert b.lam == 5
        assert b.e == F(15, 4)

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            build_base(0, 1)

    def test_eval_examples(self):
        b = build_base(1, 1)
        assert b.pl(F(-3, 2)) == F(-3, 2)
        assert b.pl(F(0)) == 3
        assert b.pl(F(1, 2)) == F(3, 2)

    def test_eval_outside_domain(self):
        b = build_base(1, 1)
        with pytest.raises(DomainEscapeError):
            b.pl(F(2))

    @given(m=st.integers(1, 4), eps=st.sampled_from([1, -1]))
    def test_endpoints_map_to_endpoints(self, m, eps):
        b = build_base(m, eps)
        assert b.pl(-b.e) in (-b.e, b.e)
        assert b.pl(b.e) in (-b.e, b.e)

    @given(m=st.integers(1, 4), eps=st.sampled_from([1, -1]),
           num=st.integers(-100, 100))
    def test_extremal_values(self, m, eps, num):
        b = build_base(m, eps)
        for i, c in enumerate(b.turning_points, start=1):
            assert abs(b.pl(c)) == b.lam
        x = -b.e + (2 * b.e) * F(num + 100, 200)
        assert abs(b.pl(x)) <= b.lam


class TestStunted:
    def test_full_trapezoid_plateau(self, base1):
        T = build_stunted(base1, [F(3, 2)])
        z = T.plateaus[0]
        assert (z.lo, z.hi) == (F(-1, 2), F(1, 2))
        assert T.plateau_values[0] == F(3, 2)

    def test_fixed_plateau(self, base1):
        T = build_stunted(base1, [F(1, 2)])
        z = T.plateaus[0]
        assert (z.lo, z.hi) == (F(-5, 6), F(5, 6))
        assert z.lo < F(1, 2) < z.hi  # the plateau contains its own value

    def test_touching_plateaus_degenerate(self, base2):
        T = build_stunted(base2, [F(0), F(0)])
        assert T.degenerate
        assert T.plateaus[0].hi == T.plateaus[1].lo

    def test_overlap_rejected(self, base2):
        with pytest.raises(ValueError):
            build_stunted(base2, [F(-1), F(0)])

    def test_out_of_range_rejected(self, base1):
        with pytest.raises(ValueError):
            build_stunted(base1, [F(2)])

    @given(data=st.data(), m=st.integers(1, 3), q=st.sampled_from([4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_slopes_and_disjointness(self, data, m, q):
        import random
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(m, 1)
        T = build_stunted(b, random_xi(rnd, b, q))
        # plateau interiors pairwise disjoint
        for z1, z2 in zip(T.plateaus, T.plateaus[1:]):
            assert z1.hi <= z2.lo
        # every non-plateau segment has slope exactly +-lam
        xs, ys = T.pl.xs, T.pl.ys
        for i in range(len(xs) - 1):
            if ys[i] != ys[i + 1]:
                slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                assert abs(slope) == b.lam

    @given(data=st.data(), m=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_deformation(self, data, m):
        # raising the signed heights raises max-plateau values and lowers
        # min-plateau values (the signs follow the base's orientation)
        import random
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(m, 1)
        xi = random_xi(rnd, b, 8)
        bump = tuple(F(rnd.randint(0, int((b.e - x) * 8)), 8) for x in xi)
        T1 = build_stunted(b, xi)
        T2 = build_stunted(b, tuple(x + d for x, d in zip(xi, bump)))
        for i in range(1, m + 1):
            v1, v2 = T1.plateau_values[i - 1], T2.plateau_values[i - 1]
            if b.is_max(i):
                assert v1 <= v2
            else:
                assert v1 >= v2


    def test_breakpoint_values_are_the_base(self):
        # the lowered map takes plateau values and the images of +-e directly;
        # they must be the base zigzag's values at every breakpoint
        rnd = random.Random(1342)
        for _ in range(200):
            base = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
            T = build_stunted(base, random_xi(rnd, base, 2 ** rnd.randint(1, 40)))
            assert T.pl.ys == tuple(base.pl(x) for x in T.pl.xs), T.xi

def _stunted_cases():
    """Seeded admissible heights for m = 1..4 and epsilon = +-1: random ones
    (negative heights among them), touching plateaus xi[i] = -xi[i+1], and
    heights at +-e."""
    rnd = random.Random(2000)
    for m in range(1, 5):
        for eps in (1, -1):
            base = build_base(m, eps)
            e = base.e
            cases = [random_xi(rnd, base, q) for q in (1, 3, 8, 2 ** 40) for _ in range(3)]
            cases += [(e,) * m, (-e,) + (e,) * (m - 1), (-e, e) * (m // 2) + (e,) * (m % 2)]
            for _ in range(3):
                xi = list(random_xi(rnd, base, 16))
                i = rnd.randrange(m - 1) if m > 1 else None
                if i is not None and abs(xi[i]) <= e:
                    xi[i + 1] = -xi[i]             # touching plateaus
                    xi[i + 2:] = [e] * (m - i - 2)
                cases.append(tuple(xi))
            for xi in cases:
                yield base, xi


class TestStuntedConstruction:
    def test_lattice_pl_eq_and_hash(self):
        cases = 0
        for base, xi in _stunted_cases():
            T = build_stunted(base, xi)
            xs, ys, plateaus = fraction_stunted(base, T.xi)
            n, lat = T.lattice()
            assert [F(x, n) for x in lat.xs] == xs and [F(y, n) for y in lat.ys] == ys, xi
            assert T.pl.xs == tuple(xs) and T.pl.ys == tuple(ys)
            assert [(z.lo, z.hi) for z in T.plateaus] == [(a, b) for a, b, _ in plateaus]
            assert list(T.plateau_values) == [v for _, _, v in plateaus]
            assert T.degenerate == any(a[1] == b[0] for a, b in zip(plateaus, plateaus[1:]))
            samples = {base.e * F(k, 60) for k in range(-60, 61)}
            samples |= {a for a, _, _ in plateaus} | {b for _, b, _ in plateaus}
            for x in samples:
                inside = [v for a, b, v in plateaus if a <= x <= b]
                assert T.pl(x) == (inside[0] if inside else base.pl(x)), (xi, x)
            again = build_stunted(base, [str(v) for v in xi])
            assert again == T and hash(again) == hash(T)
            cases += 1
        assert cases > 100


class TestIterate:
    def test_trapezoid_orbit(self, T32):
        assert iterate(T32, F(3, 2), 2) == F(-3, 2)

    def test_identity(self, T32):
        assert iterate(T32, F(1, 3), 0) == F(1, 3)

    def test_quadratic_superstable(self):
        f = Quadratic(-1.0)
        assert iterate(f, 0.0, 2) == 0.0

    @pytest.mark.parametrize("m", [Quadratic(-1.401155), build_type_b([(2, -1.3), (4, -0.9)])],
                             ids=["quadratic", "type-b"])
    def test_array_matches_the_scalar_loop(self, m):
        # an array is stepped in place after its first step
        xs = np.linspace(-1.0, 1.0, 4096)
        ys = iterate(m, xs, 37)
        assert xs.tolist() == np.linspace(-1.0, 1.0, 4096).tolist()
        expected = []
        for x in xs.tolist():
            for _ in range(37):
                x = m(x)
            expected.append(x)
        assert ys.tolist() == expected

    @pytest.mark.parametrize("c", [-1.401155, -1.9])
    def test_unrolled_quadratic_matches_one_step_loop(self, c):
        # eight steps to a loop pass plus n & 7 more: every remainder, and a
        # long chaotic run where one differing bit would grow
        m = Quadratic(c)
        starts = [0.0, 0.3, -1.1]
        for n in [*range(18), 1000]:
            expected = []
            for x in starts:
                for _ in range(n):
                    x = x * x + c
                expected.append(x)
            assert [iterate(m, x, n) for x in starts] == expected, n
            xs = np.array(starts)
            assert iterate(m, xs, n).tolist() == expected, n
            assert xs.tolist() == starts

    @pytest.mark.parametrize("stages", [[(2, -1.9)], [(4, -1.2)], [(2, -1.0), (2, -1.5)]],
                             ids=["one-stage", "quartic", "two-stage"])
    def test_inline_type_b_matches_the_call(self, stages):
        m = build_type_b(stages)
        for x0 in (0.0, 0.3, -0.77):
            for n in (0, 1, 5, 300):
                x = x0
                for _ in range(n):
                    x = m(x)
                assert iterate(m, x0, n) == x

    @pytest.mark.parametrize("m", [Quadratic(-1.9), build_type_b([(2, -1.3), (4, -0.9)])],
                             ids=["quadratic", "type-b"])
    def test_orbit_matches_one_step_loop(self, m):
        expected, x = [], 0.25
        for _ in range(5000):
            x = m(x)
            expected.append(x)
        assert orbit(m, 0.25, 5000) == expected
        assert orbit(m, 0.25, 0) == []

    @pytest.mark.parametrize("make, array_exact", [
        (lambda: Quadratic(-1.9), True),
        (lambda: _level_one(Quadratic(-1.3)), True),
        (lambda: build_type_b([(2, -1.9)]), False),
        (lambda: build_type_b([(2, -1.0), (4, -1.2)]), False),
        (lambda: _level_one(build_type_b([(2, -1.3)])), False),
        # a callable that takes no arrays
        (lambda: FloatUnimodal(lambda x: math.sin(math.pi * x), Interval(0.0, 1.0), 0.5),
         False)],
        ids=["quadratic", "renormalized", "type-b", "type-b-two-stage", "renormalized-type-b",
             "float-unimodal"])
    def test_iterate_grid_is_the_scalar_iterate(self, make, array_exact):
        # numpy's x ** ell differs from libm's pow in the last bit of some
        # x, so a type-B grid, or one of its levels, must not take the array
        # route
        m = make()
        assert getattr(m, "array_exact", False) == array_exact
        xs = np.linspace(m.domain.lo, m.domain.hi, 1001)
        ys = iterate_grid(m, xs, 7)
        assert ys == [iterate(m, x, 7) for x in xs.tolist()]
        assert all(type(y) is float for y in ys)

    def test_escape_reported(self, base1):
        # the raw zigzag is not a self-map; iterating it must fail loudly
        pl = PiecewiseLinear([-base1.e, F(0), base1.e], [-base1.e, F(3), -base1.e])
        with pytest.raises(DomainEscapeError):
            x = F(0)
            for _ in range(2):
                x = pl(x)


class TestTypeB:
    def test_single_stage_golden(self):
        p = build_type_b([(2, -1.0)])
        golden = (1 + math.sqrt(5)) / 2
        assert abs(p.bs[0] - golden) < 1e-12
        assert abs(p(1.0) + 1) < 1e-12 and abs(p(-1.0) + 1) < 1e-12
        assert abs(p(0.0) - 1 / golden) < 1e-12

    def test_full_quadratic_is_exact(self):
        p = build_type_b([(2, -2.0)])
        assert p.bs[0] == 2.0
        assert p(0.0) == 1.0

    def test_no_invariant_interval_rejected(self):
        with pytest.raises(ValueError):
            build_type_b([(2, 0.9)])

    def test_interior_stage_needs_positive_value(self):
        with pytest.raises(ValueError):
            build_type_b([(2, 0.2), (2, -1.0)])

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            build_type_b([(3, -1.0)])

    @given(ell=st.sampled_from([2, 4, 6]),
           a=st.floats(-1.1, -0.05, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_boundary_condition(self, ell, a):
        p = build_type_b([(ell, a)])
        assert abs(p(1.0) + 1) <= 1e-12
        assert abs(p(-1.0) + 1) <= 1e-12

    def test_two_stage_composition(self):
        p = build_type_b([(2, -1.9), (2, -1.8)])
        assert len(p.turning_points) == 3
        assert abs(p(1.0) + 1) < 1e-10
        # stage parameters are recoverable from the composed critical values
        # (the decomposition is unique): the middle turning point comes from
        # the outer stage through the inner critical value
        q0 = p.stage_eval(0, 0.0)
        v_mid = p.stage_eval(1, q0)
        assert abs(p(0.0) - v_mid) < 1e-12
        a1_rec = p.bs[0] * (-q0)
        assert abs(a1_rec - (-1.9)) < 1e-10

    @pytest.mark.parametrize("stages", [
        [(2, -1.3)], [(4, -1.0)], [(6, -0.9)],
        [(2, -1.0), (4, -1.1)], [(6, -0.8), (2, -1.5)],
        [(2, -1.2), (4, -0.9), (6, -1.0)],
    ])
    def test_call_is_the_stage_composition(self, stages):
        # __call__ uses precomputed b ** ell; the bits must not move
        p = build_type_b(stages)
        rnd = random.Random(len(stages) * 10 + stages[0][0])
        xs = [rnd.uniform(-1.0, 1.0) for _ in range(500)] + [-1.0, 0.0, 1.0]
        for x in xs:
            y = x
            for i in range(len(stages)):
                y = p.stage_eval(i, y)
            assert p(x) == y


class TestCriticalValues:
    def test_single_plateau(self, T32):
        vals, ranks = critical_values(T32)
        assert vals == [F(3, 2)]
        assert ranks == [1]

    def test_seven_turning_points_three_values(self):
        # zigzag with value pattern (.9, .5, .9, .1, .9, .5, .9)
        xs = [F(k, 8) for k in range(9)]
        ys = [F(0), F(9, 10), F(1, 2), F(9, 10), F(1, 10),
              F(9, 10), F(1, 2), F(9, 10), F(0)]
        m = PiecewiseLinear(xs, ys)
        vals, ranks = critical_values(m)
        assert len(vals) == 3
        assert ranks == [3, 2, 3, 1, 3, 2, 3]

    def test_equal_plateau_values(self, base2):
        T = build_stunted(base2, [F(1), F(1)])
        # values are (1, -1): distinct
        vals, _ = critical_values(T)
        assert len(vals) == 2
        T2 = build_stunted(base2, [F(1), F(-1)])
        vals2, ranks2 = critical_values(T2)
        assert len(vals2) == 1 and ranks2 == [1, 1]


TURNING_REGION_MAPS = {
    "stunted m=2": lambda: build_stunted(build_base(2, 1), [F(5, 3), F(-1, 7)]),
    "plateau and flip": lambda: PiecewiseLinear(
        [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)], [F(0), F(3, 4), F(3, 4), F(0), F(1)]),
    "quadratic": lambda: Quadratic(-1.5),
    "type-B two stages": lambda: build_type_b([(2, -1.0), (2, -1.8)]),
}


@pytest.mark.parametrize("name", TURNING_REGION_MAPS)
def test_turning_regions_agree_with_points_and_values(name):
    m = TURNING_REGION_MAPS[name]()
    regions = turning_regions(m)
    assert list(regions) == sorted(regions) and all(lo <= hi for lo, hi, _ in regions)
    assert turning_points_of(m) == tuple((lo + hi) / 2 for lo, hi, _ in regions)
    distinct, ranks = critical_values(m)
    assert [distinct[r - 1] for r in ranks] == [v for _, _, v in regions]


class TestDescriptors:
    def test_stunted_roundtrip(self, base2):
        T = build_stunted(base2, [F(5, 3), F(-1, 7)])
        d = serialize_map(T)
        T2 = parse_map(d)
        assert T2.xi == T.xi and T2.base == T.base

    def test_type_b_and_quadratic(self):
        p = parse_map({"kind": "type_b", "stages": [[2, -1.0]]})
        assert isinstance(p, build_type_b([(2, -1.0)]).__class__)
        f = parse_map({"kind": "quadratic", "c": -1.3})
        assert f.c == -1.3

    def test_bad_descriptor(self):
        from chaos_edge import DescriptorError
        with pytest.raises(DescriptorError):
            parse_map({"kind": "nope"})
        with pytest.raises(DescriptorError):
            parse_map({"kind": "stunted", "m": 1, "xi": ["2/0"]})
