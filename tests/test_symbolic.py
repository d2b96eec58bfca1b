import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (PiecewiseLinear, PreconditionError, Quadratic, build_base,
                        build_stunted, build_type_b, itinerary, kneading, psi, shape,
                        signed_compare)
from chaos_edge import symbolic
from chaos_edge.symbolic import cylinders, doubling_side, orientation, syms_str

from conftest import random_xi

F = Fraction

C_INF = -1.4011551890920506    # accumulation of the period-doubling cascade


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
        assert syms_str((1, 0, -2, 3, -1)) == "10C23C1"


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

    @pytest.mark.parametrize("depth", [16, 64])
    def test_lap_only_kneading_projects_onto_itself(self, base1, depth):
        # the kneading is 1(0111111)^∞; a search for a periodic tail in the
        # window took its trailing run of 1s for the tail at depth 64 (width
        # 0 for another map, whose kneading matches for 64 symbols and then
        # reads 1 forever) and found none at depth 16 (a width of 3^-16)
        T = build_stunted(base1, [F(2733, 2186)])
        assert kneading(T, 8).as_strings() == ["10111111"]
        res = psi(T, base1, depth)
        assert res.stunted.xi == T.xi and res.s == (F(1275, 2186),) == (T.plateaus[0].hi,)
        assert res.widths == (0,)

    def test_seeded_lap_only_maps_project_onto_themselves(self):
        # plateau values at exact base points whose lap words end periodic in
        # the outer laps, kept when their kneading to depth 64 stays on laps
        rnd, kept = random.Random(31), 0
        for m in (1, 2, 3):
            for eps in (1, -1):
                base, found = build_base(m, eps), 0
                while found < 6:
                    vs = [lap_word_point(base, [rnd.randint(0, m) for _ in range(rnd.randint(0, 2))],
                                         [rnd.choice((0, m)) for _ in range(rnd.randint(1, 4))])
                          for _ in range(m)]
                    try:
                        T = build_stunted(base, [v if base.is_max(i) else -v
                                                 for i, v in enumerate(vs, 1)])
                    except ValueError:          # inadmissible heights
                        continue
                    if any(s < 0 for seq in kneading(T, 64).nu for s in seq):
                        continue
                    found += 1
                    for depth in (16, 64):
                        res = psi(T, base, depth)
                        assert res.stunted.xi == T.xi, (T.xi, depth)
                        assert res.s == tuple(z.hi for z in T.plateaus)
                        assert res.widths == (0,) * m
                kept += found
        assert kept == 36

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
        from chaos_edge import Quadratic, build_base
        f = Quadratic(-1.401155)
        neg_base = build_base(1, -1)
        res = psi(f, neg_base, 12)
        assert res.widths[0] > 0


def lap_word_point(base, prefix, word):
    """The point of the base zigzag with lap itinerary prefix + word repeated:
    the fixed point of the word's affine composition, pulled back through the
    prefix (every lap maps onto a range that covers the domain)."""
    pl = base.pl
    laps = [(s, y - s * x) for x, y, s in zip(pl.xs, pl.ys, pl.slopes)]
    s, o = 1, 0
    for j in word:
        a, b = laps[j]
        s, o = a * s, a * o + b
    x = o / (1 - s)
    for j in reversed(prefix):
        a, b = laps[j]
        x = (x - b) / a
    return x


def psi_cases():
    """(map, base, depth): the maps above, and a seeded set of near-full
    stunted maps, x^2 + c and two-stage type-B maps."""
    b1 = build_base(1, 1)
    yield build_type_b([(2, -2.0)]), b1, 32
    yield build_stunted(b1, [F(5, 4)]), b1, 40
    yield Quadratic(-1.4011561890920505), build_base(1, -1), 400
    yield Quadratic(-1.401155), build_base(1, -1), 12
    rnd = random.Random(27)
    for m in (1, 2, 3):
        for eps in (1, -1):
            base = build_base(m, eps)
            for _ in range(12):
                q = rnd.choice((16, 32, 81, 128))
                xi = [base.e - F(rnd.randint(0, q // 4), q) for _ in range(m)]
                yield build_stunted(base, xi), base, rnd.choice((16, 40, 64))
    for _ in range(20):
        yield Quadratic(rnd.uniform(-2.0, -1.3)), build_base(1, -1), rnd.choice((12, 64, 200))
    for _ in range(20):
        f = build_type_b([(2, rnd.uniform(-2.0, -1.3)), (2, rnd.uniform(-2.0, -1.3))])
        yield f, build_base(3, orientation(f)), rnd.choice((12, 48, 100))


def test_psi_s_and_widths_pinned():
    # the digest of every (s, widths), or error text, on psi_cases, written
    # when the cylinder was still pulled back from the word's end in Fractions
    import hashlib
    digest, projected = hashlib.sha256(), 0
    for m, base, depth in psi_cases():
        try:
            res = psi(m, base, depth)
        except (ValueError, PreconditionError) as exc:
            digest.update(("E" + str(exc)).encode())
            continue
        projected += 1
        digest.update(repr((res.s, res.widths)).encode())
    assert projected == 47
    assert digest.hexdigest() == "b91a20531e08d2b96e46191c820d7f24ac873ef3f6f22d8b231400dfd4a36117"


def pullback(base, word):
    """The cylinder of ``word`` pulled back from its end through the lap
    affines in Fractions: the points that follow the word's laps and that
    f^len(word) maps into the domain; None when there are none."""
    pl = base.pl
    lo, hi = -base.e, base.e
    for j in reversed(word):
        a, b, s = pl.xs[j], pl.xs[j + 1], pl.slopes[j]
        o = pl.ys[j] - s * a
        t0, t1 = sorted(((lo - o) / s, (hi - o) / s))
        lo, hi = max(t0, a), min(t1, b)
        if lo > hi:
            return None
    return lo, hi


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cylinders_are_the_pullback_of_every_prefix(m):
    # each yielded cylinder is the backward pullback of the prefix read so
    # far, and each lies in the one before it
    rnd = random.Random(m)
    for eps in (1, -1):
        base = build_base(m, eps)
        for _ in range(10):
            word = [rnd.randint(0, m) for _ in range(rnd.randint(1, 40))]
            prev = (-base.e, base.e)
            got = list(cylinders(base, word))
            assert len(got) == len(word)
            for d, (den, lo, hi) in enumerate(got, 1):
                cyl = (F(lo, den), F(hi, den))
                assert cyl == pullback(base, word[:d])
                assert den == base.e.denominator * base.lam ** d
                assert prev[0] <= cyl[0] <= cyl[1] <= prev[1]
                prev = cyl


def test_cylinders_reject_an_address_symbol():
    with pytest.raises(ValueError, match="address symbol in target"):
        list(cylinders(build_base(1, 1), (1, 0, -1, 1)))


class TestDoublingSide:
    """The side of the period-doubling limit by kneading (Milnor–Thurston)."""

    @staticmethod
    def closed_form(n, rev):
        # symbol i is the reversing lap exactly when the 2-adic valuation of
        # i + 1 is even, i.e. when its lowest set bit has an odd bit length
        return [rev if ((i + 1) & -(i + 1)).bit_length() % 2 else 1 - rev for i in range(n)]

    @pytest.mark.parametrize("rev", [0, 1])
    def test_closed_form_is_the_doubling_rule(self, rev):
        w, k = [rev], 1                    # W_1; W_{k+1} = W_k x_k W_k
        while len(w) < 2 ** 16:
            w = w + [rev if k % 2 == 0 else 1 - rev] + w
            k += 1
        assert self.closed_form(2 ** 16, rev) == w[:2 ** 16]

    @pytest.mark.parametrize("c, side", [(-2.0, "positive"), (-1.75, "positive"),
                                         (-1.5, "positive"), (-1.4, "zero"), (-1.3, "zero"),
                                         (-1.0, None)])
    def test_known_sides(self, c, side):
        # c = -1 is superstable of period 2: the critical orbit hits 0
        assert doubling_side(Quadratic(c)) == side

    def test_one_stage_type_b_sides_like_its_quadratic(self):
        # the stage (2, a) on [-1, 1] is conjugate to x^2 + a, with the
        # orientation reversed: the map's own laps swap (at a = -1 its float
        # orbit misses 0 by 7e-17, so that side is not compared)
        for a in (-2.0, -1.75, -1.5, -1.4, -1.3):
            assert doubling_side(build_type_b([(2, a)])) == doubling_side(Quadratic(a))

    def test_agrees_with_signed_compare_against_the_closed_form(self):
        # the doubled blocks of doubling_side against kneading and
        # signed_compare read against the limit symbol by symbol
        rnd = random.Random(18)
        cs = [C_INF + s * 10 ** rnd.uniform(-5, -1) for s in (1, -1) for _ in range(15)]
        maps = [Quadratic(c) for c in cs] + [build_type_b([(4, rnd.uniform(-1.2, -0.3))])
                                            for _ in range(10)]
        for m in maps:
            eps = orientation(m)
            limit = self.closed_form(1024, int(eps > 0))
            cmp = signed_compare(kneading(m, 1024).nu[0], limit, eps)
            assert cmp != 0
            assert doubling_side(m) == ("positive" if cmp == eps else "zero"), m

    def test_step_cap(self, monkeypatch):
        # within 1e-12 of c_inf the first 2^12 symbols match the limit's
        monkeypatch.setattr(symbolic, "DOUBLING_STEPS", 2 ** 12)
        assert doubling_side(Quadratic(C_INF)) is None

    def test_needs_an_even_map(self):
        with pytest.raises(PreconditionError):
            doubling_side(build_type_b([(2, -1.5), (2, -1.5)]))
