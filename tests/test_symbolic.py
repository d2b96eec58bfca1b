import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (PiecewiseLinear, build_base, build_stunted, build_type_b,
                        itinerary, kneading, psi, shape, signed_compare)
from chaos_edge.symbolic import parse_syms, syms_str

from conftest import random_xi

F = Fraction


class TestItinerary:
    def test_trapezoid_value_orbit(self, T32):
        assert str(itinerary(T32, F(3, 2), 4)) == "1000"

    def test_plateau_address_immediately(self, T12):
        assert str(itinerary(T12, F(0), 1)) == "C1"

    def test_fixed_endpoint(self, T32):
        assert str(itinerary(T32, F(-3, 2), 5)) == "00000"

    def test_address_continues_through_value(self, T12):
        # plateau value 1/2 lies inside the plateau: address forever
        assert str(itinerary(T12, F(0), 4)) == "C1C1C1C1"

    @pytest.mark.parametrize("x", [F(1, 3), F(1, 2)])
    def test_raw_piecewise_plateau_resolves_to_address(self, x):
        # a raw PiecewiseLinear plateau follows the closed-plateau rule of a
        # stunted map: any point of it is the address, and so is its value
        pl = PiecewiseLinear([F(0), F(1, 4), F(3, 4), F(1)], [F(0), F(3, 4), F(3, 4), F(0)])
        assert str(itinerary(pl, x, 4)) == "C1C1C1C1"
        T = build_stunted(build_base(1, 1), [F(1, 2)])
        assert str(itinerary(T, F(1, 3), 4)) == "C1C1C1C1"
        assert kneading(pl, 6).as_strings() == ["111111"]

    def test_symbol_string_roundtrip(self):
        seq = (1, 0, -2, 3, -1)
        assert parse_syms(syms_str(seq)) == seq


class TestKneading:
    def test_full_trapezoid(self, T32):
        nu = kneading(T32, 6)
        assert nu.as_strings() == ["100000"]

    def test_fixed_plateau(self, T12):
        nu = kneading(T12, 4)
        assert nu.as_strings() == ["C1C1C1C1"]

    def test_depth_one(self, base2):
        T = build_stunted(base2, [F(2), F(2)])
        nu = kneading(T, 1)
        assert all(len(s) >= 1 for s in nu.nu)
        assert len(nu.nu) == 2

    def test_full_quadratic(self):
        q = build_type_b([(2, -2.0)])
        assert kneading(q, 8).as_strings() == ["10000000"]

    def test_idempotent_under_rebuild(self, base1):
        T = build_stunted(base1, [F(5, 4)])
        nu1 = kneading(T, 24)
        T2 = build_stunted(base1, [T.plateau_values[0]])
        assert kneading(T2, 24) == nu1


class TestShape:
    def test_figure_pattern(self):
        from chaos_edge.piecewise import PiecewiseLinear
        xs = [F(k, 8) for k in range(9)]
        ys = [F(0), F(9, 10), F(1, 2), F(9, 10), F(1, 10),
              F(9, 10), F(1, 2), F(9, 10), F(0)]
        tau = shape(PiecewiseLinear(xs, ys))
        assert tau.pairs == ((1, 3), (2, 2), (3, 3), (4, 1), (5, 3), (6, 2), (7, 3))
        assert tau.value_count == 3

    def test_trimodal_stunted(self):
        b = build_base(3, 1)
        tau = shape(build_stunted(b, [F(2), F(1), F(3, 2)]))
        assert tau.pairs == ((1, 3), (2, 1), (3, 2))

    def test_unimodal(self, T32):
        assert shape(T32).pairs == ((1, 1),)


class TestSignedCompare:
    def test_first_symbol(self):
        assert signed_compare((0, 0), (1, 0), 1) == -1

    def test_flip_after_reversing_lap(self):
        # lap 1 is orientation reversing when epsilon=+1
        assert signed_compare((1, 1), (1, 0), 1) == -1

    def test_equal_prefix(self):
        assert signed_compare((1, 0, 1), (1, 0, 1), 1) == 0

    @given(data=st.data(), m=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_order_consistency(self, data, m):
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(m, 1)
        T = build_stunted(b, random_xi(rnd, b, 8))
        den = 97
        i, j = sorted(rnd.sample(range(den + 1), 2))
        x = -b.e + 2 * b.e * F(i, den)
        y = -b.e + 2 * b.e * F(j, den)
        ix = itinerary(T, x, 24)
        iy = itinerary(T, y, 24)
        c = signed_compare(ix, iy, 1)
        if c != 0:
            assert c == -1  # x < y must compare as "<" whenever decided


class TestPsi:
    def test_full_quadratic_projects_to_trapezoid(self, base1):
        q = build_type_b([(2, -2.0)])
        res = psi(q, base1, 32)
        assert res.s[0] == F(1, 2)
        assert res.stunted.xi == (F(3, 2),)
        assert res.widths[0] < F(1, 3**20)

    def test_kneading_preserved(self, base1):
        q = build_type_b([(2, -2.0)])
        res = psi(q, base1, 32)
        assert kneading(res.stunted, 32).nu == kneading(q, 32).nu

    def test_shape_preserved(self, base1):
        q = build_type_b([(2, -2.0)])
        res = psi(q, base1, 32)
        assert shape(res.stunted) == shape(q)

    def test_idempotent_on_stunted(self, base1):
        # a map whose plateau orbit avoids the plateau projects to itself
        T = build_stunted(base1, [F(5, 4)])
        res = psi(T, base1, 40)
        assert res.stunted.xi == T.xi
        assert res.s[0] == T.plateaus[0].hi

    def test_exact_periodic_tail_has_width_zero(self, base1):
        T = build_stunted(base1, [F(5, 4)])
        assert psi(T, base1, 40).widths == (0,)

    def test_float_map_width_never_zero(self):
        # the depth-400 kneading prefix of c_inf - 1e-6 looks eventually
        # periodic, but a float map's kneading is known to that depth only:
        # width 0 would claim an exact solution (and the projected map is
        # zero-entropy while x^2 + c there is positive)
        from chaos_edge import Quadratic, build_base
        res = psi(Quadratic(-1.4011561890920505), build_base(1, -1), 400)
        assert res.widths[0] > 0

    def test_plateau_kneading_rejected(self, base1):
        T = build_stunted(base1, [F(1)])  # value orbit falls into the plateau
        with pytest.raises(ValueError):
            psi(T, base1, 16)

    def test_wrong_modality_rejected(self, base2):
        q = build_type_b([(2, -2.0)])
        from chaos_edge import PreconditionError
        with pytest.raises(PreconditionError):
            psi(q, base2, 16)

    def test_width_report(self):
        # an aperiodic kneading prefix cannot be pinned exactly at depth 10
        from chaos_edge import PreconditionError, Quadratic, build_base
        f = Quadratic(-1.401155)
        neg_base = build_base(1, -1)
        res = psi(f, neg_base, 12)
        assert res.widths[0] > 0
        with pytest.raises(PreconditionError):
            psi(f, neg_base, 12, width_tol=F(1, 10**30))
