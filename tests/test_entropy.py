import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (BudgetExhausted, MarkovBudgetError, PreconditionError, Quadratic,
                        build_base, build_stunted, classify_float, entropy_lap,
                        entropy_markov, full_stunted, lap_count, lap_series, locate_boundary,
                        period_set, periodic_points, positive_entropy_witness, quadratic_path,
                        type_b_path, verify_witness, zero_entropy_certificate)
from chaos_edge.config import DEFAULT
from chaos_edge.maps import StuntedSawtooth, as_pl
from chaos_edge.piecewise import PiecewiseLinear, strict_lap_count

from conftest import ZERO_SIDE_2_60, oracle_levels, random_xi

F = Fraction

LOG2 = math.log(2)
LOG3 = math.log(3)


def zigzag3():
    """Constant-slope map with three full branches; entropy log 3 by the
    3x3 full transition matrix."""
    return PiecewiseLinear([F(0), F(1, 3), F(2, 3), F(1)],
                           [F(0), F(1), F(0), F(1)])


class TestLapCount:
    def test_base_zigzag_m2(self, base2):
        # the raw zigzag has m+1 laps
        xs = [-base2.e, *base2.turning_points, base2.e]
        pl = PiecewiseLinear(xs, [base2.pl(x) for x in xs])
        assert lap_count(pl, 1).laps == 3

    def test_trapezoid_iterates(self, T32):
        assert lap_count(T32, 1).laps == 2
        assert lap_count(T32, 2).laps == 4
        assert lap_count(T32, 6).laps == 64

    def test_r_plus_one_at_depth_one(self):
        b = build_base(3, 1)
        T = build_stunted(b, [F(2), F(1), F(3, 2)])
        assert lap_count(T, 1).laps == 4

    def test_past_markov_budget(self, base1):
        # the breakpoint closure of this window map needs 12 points
        T = build_stunted(base1, [F(637, 512)])
        with pytest.raises(MarkovBudgetError, match="orbit_budget=10"):
            lap_series(T, 10, DEFAULT.with_(orbit_budget=10))

    def test_fixed_plateau_constant(self, T12):
        # two strict laps for every iterate (the plateau itself is excluded
        # from the count, which leaves the growth rate unchanged)
        counts, sat = lap_series(T12, 10)
        assert counts == [2] * 10 and not sat


class TestGraphLaps:
    """Lap counts on the Markov graph against the Fraction oracle's pieces."""

    def _agree(self, T, n_max=10, budget=1500):
        """Compare every level the oracle reaches within its budget; returns
        how many that is."""
        counts, saturated = lap_series(T, n_max)
        assert len(counts) == n_max and not saturated
        levels = oracle_levels(as_pl(T), n_max, budget)
        for n, pieces in enumerate(levels, start=1):
            assert counts[n - 1] == strict_lap_count([fb - fa for _, _, fa, fb in pieces]), n
        return len(levels)

    def test_fixture_maps(self, base1, base2, T32, T12):
        maps = [T32, T12, build_stunted(base1, [F(1)]), full_stunted(base2),
                full_stunted(build_base(3, -1)), zigzag3()]
        for T in maps:
            assert self._agree(T) >= 4

    def test_seeded_random_maps(self):
        rnd = random.Random(23)
        levels = []
        for _ in range(50):
            b = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
            T = build_stunted(b, random_xi(rnd, b, rnd.choice((8, 2**10, 2**20, 2**40))))
            levels.append(self._agree(T))
        assert min(levels) >= 3 and levels.count(10) >= 25


class TestEntropyLap:
    def test_trapezoid_log2(self, T32):
        est = entropy_lap(T32, 14)
        assert abs(est.value - LOG2) <= 1e-3
        assert est.method == "lap-regression"

    def test_fixed_plateau_zero(self, T12):
        assert entropy_lap(T12, 14).value <= 1e-6

    def test_zigzag_log3(self):
        est = entropy_lap(zigzag3(), 10)
        assert abs(est.value - LOG3) <= 1e-2

    def test_nmax_precondition(self, T32):
        from chaos_edge import PreconditionError
        with pytest.raises(PreconditionError):
            entropy_lap(T32, 4)

    def test_short_series_error_names_n_max_and_the_levels_reached(self):
        with pytest.raises(BudgetExhausted) as info:
            entropy_lap(Quadratic(-1.9), 8, DEFAULT.with_(piece_budget=4))
        assert str(info.value) == ("lap series too short to fit a growth rate: "
                                   "2 levels reached of n_max=8, need 4")


class TestEntropyMarkov:
    def test_trapezoid_log2_exact(self, T32):
        est = entropy_markov(T32)
        assert abs(est.value - LOG2) <= 1e-10
        assert est.method == "markov-exact"

    def test_fixed_plateau(self, T12):
        assert entropy_markov(T12).value == 0.0

    def test_plateau_two_cycle(self, base1):
        assert entropy_markov(build_stunted(base1, [F(1)])).value == 0.0

    def test_zigzag_log3(self):
        assert abs(entropy_markov(zigzag3()).value - LOG3) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_side_at_2_60_is_exactly_zero(self, m):
        T = build_stunted(build_base(m, 1), [ZERO_SIDE_2_60[m]] * m)
        assert zero_entropy_certificate(T) is not None
        est = entropy_markov(T)
        assert est.value == 0.0 and est.residual == 0.0

    def test_exact_readers_build_no_fraction_map(self, base2):
        # the closure and the level-1 laps are read off the map's own
        # lattice: the Fraction ``pl`` of a stunted map is never made
        T = build_stunted(base2, [F(1, 2), F(3, 2)])
        entropy_markov(T)
        lap_series(T, 6)
        lap_count(T, 1)
        lap_count(T, 3)
        period_set(T, 8)
        assert "pl" not in T.__dict__

    def test_not_a_self_map_is_a_precondition_error(self, base1):
        # the raw zigzag leaves its domain; that is no budget
        xs = [-base1.e, F(0), base1.e]
        pl = PiecewiseLinear(xs, [-base1.e, F(3), -base1.e])
        for call in (entropy_markov, lambda m: lap_series(m, 4), lambda m: period_set(m, 4)):
            with pytest.raises(PreconditionError, match="self-map"):
                call(pl)

    def test_float_maps_have_no_markov_entropy(self):
        with pytest.raises(TypeError):
            entropy_markov(Quadratic(-1.75))

    def test_not_markov_at_budget(self, base1):
        # the breakpoint closure of this window map needs 12 points
        T = build_stunted(base1, [F(637, 512)])
        with pytest.raises(MarkovBudgetError):
            entropy_markov(T, DEFAULT.with_(orbit_budget=10))

    def test_markov_cap_is_the_orbit_budget(self):
        # slopes 2, 2, -2: a tent map whose breakpoint closure has 22,509
        # points, past the default budget; one budget caps plateau orbits
        # and Markov partitions alike, so raising it admits the partition
        T = PiecewiseLinear([F(0), F(1, 45013), F(1, 2), F(1)],
                            [F(0), F(2, 45013), F(1), F(0)])
        est = entropy_markov(T, DEFAULT.with_(orbit_budget=100_000))
        assert abs(est.value - LOG2) <= 1e-10 and est.n_used == 22509
        with pytest.raises(MarkovBudgetError, match="not Markov within orbit_budget=20000"):
            entropy_markov(T)

    def test_backend_agreement_on_clean_maps(self, base1, base2):
        maps = [build_stunted(base1, [F(3, 2)]),
                build_stunted(base1, [F(1, 2)]),
                build_stunted(base1, [F(1)]),
                full_stunted(base2),
                zigzag3()]
        for T in maps:
            hm = entropy_markov(T).value
            hl = entropy_lap(T, 14).value
            assert abs(hm - hl) <= 5e-3

    def test_backend_agreement_loose_on_random(self):
        # near-parabolic growth converges slowly; keep a sanity envelope
        rnd = random.Random(5)
        b = build_base(1, 1)
        done = 0
        while done < 12:
            T = build_stunted(b, random_xi(rnd, b, 8))
            try:
                hm = entropy_markov(T).value
                hl = entropy_lap(T, 14).value
            except BudgetExhausted:
                continue
            done += 1
            assert abs(hm - hl) <= 0.08


class TestSubmultiplicativity:
    @given(data=st.data(), m=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_lap_submultiplicative(self, data, m):
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(m, 1)
        T = build_stunted(b, random_xi(rnd, b, 4))
        try:
            counts, _ = lap_series(T, 8)
        except BudgetExhausted:
            return
        for i in range(1, len(counts) + 1):
            for j in range(1, len(counts) + 1 - i):
                assert counts[i + j - 1] <= counts[i - 1] * counts[j - 1]


def _locate_witness(path, resolution):
    """(map, witness) at the positive side of a float locate."""
    t, w = locate_boundary(path, resolution=resolution).positive_side
    return path.map_at(t), w


class TestWitness:
    def test_trapezoid_period_three(self, T32):
        w = positive_entropy_witness(T32)
        assert w is not None and w.period == 3
        assert verify_witness(T32, w)

    def test_fixed_plateau_none(self, T12):
        assert positive_entropy_witness(T12) is None

    @pytest.mark.parametrize("make", [
        lambda: full_stunted(build_base(1, 1)),
        # slopes 3/2, -3 and -1: the orbit leaves the lattice
        lambda: PiecewiseLinear([F(0), F(1, 2), F(3, 4), F(1)], [F(1, 4), F(1), F(1, 4), F(0)]),
    ], ids=["full-m1", "non-integral-slope"])
    def test_every_listed_point_is_checked(self, make):
        # the return of orbit[0] alone does not make a witness: every listed
        # point must map to the next, and the orbit must list period points
        T = make()
        w = positive_entropy_witness(T)
        assert w is not None and verify_witness(T, w)
        zeros = replace(w, orbit=w.orbit[:1] + (F(0),) * (w.period - 1))
        cut = replace(w, orbit=w.orbit[:1])
        backwards = replace(w, orbit=w.orbit[:1] + w.orbit[:0:-1])
        for bad in (zeros, cut, backwards):
            assert not verify_witness(T, bad), bad.orbit

    def test_rewalk_calls_nothing_on_the_lattice_route(self, base2, monkeypatch):
        w = positive_entropy_witness(full_stunted(base2))

        def off(*args):
            raise AssertionError("the re-walk reached the lattice route")

        for owner, name in ((PiecewiseLinear, "lattice"), (PiecewiseLinear, "__call__"),
                            (StuntedSawtooth, "lattice")):
            monkeypatch.setattr(owner, name, off)
        assert verify_witness(full_stunted(base2), w)

    @pytest.mark.parametrize("make, period", [
        (lambda: (Quadratic(-1.75), classify_float(Quadratic(-1.75)).witness), 3),
        (lambda: (Quadratic(-1.5), classify_float(Quadratic(-1.5)).witness), 6),
        (lambda: _locate_witness(quadratic_path(-1.5, -1.3), 1e-6), 1536),
        (lambda: _locate_witness(type_b_path([(2, -1.0)], 0, -2.0, -1.0), 0.05), 24),
    ], ids=["quadratic-1.75", "quadratic-1.5", "quadratic-locate-1e-6", "type-b-locate-0.05"])
    def test_float_witness(self, make, period):
        m, w = make()
        assert w.period == period and verify_witness(m, w)
        two = 1 << (period.bit_length() - 1)
        moved = replace(w, orbit=(w.orbit[0] + 1e-6,) + w.orbit[1:])
        doubled = replace(w, period=2 * period, orbit=w.orbit * 2)
        power_of_two = replace(w, period=two, orbit=w.orbit[:two])
        for bad in (moved, doubled, power_of_two):
            assert not verify_witness(m, bad), bad.period

    def test_quadratic_period_three_window(self):
        w = positive_entropy_witness(Quadratic(-1.7549))
        assert w is not None and w.period == 3

    def test_witness_orbit_reverifies(self, base2):
        T = full_stunted(base2)
        w = positive_entropy_witness(T)
        assert w is not None and verify_witness(T, w)

    def test_monotonicity_spot(self):
        rnd = random.Random(11)
        b = build_base(2, 1)
        for _ in range(30):
            xi = random_xi(rnd, b, 4)
            bump = tuple(F(rnd.randint(0, int((b.e - x) * 4)), 4) for x in xi)
            try:
                h1 = entropy_markov(build_stunted(b, xi)).value
                h2 = entropy_markov(build_stunted(b, tuple(x + d for x, d in zip(xi, bump)))).value
            except BudgetExhausted:
                continue
            assert h1 <= h2 + 1e-9

    def test_witness_iff_entropy(self):
        # entropy/period equivalence on a deterministic sample
        rnd = random.Random(3)
        b = build_base(2, 1)
        for _ in range(25):
            T = build_stunted(b, random_xi(rnd, b, 8))
            try:
                h = entropy_markov(T).value
            except BudgetExhausted:
                continue
            w = positive_entropy_witness(T)
            assert (w is not None) == (h > 0)
            if w is not None:
                assert h >= 1e-3

    def test_count_sanity(self, T32):
        # solutions of T^p = x never exceed laps + plateau count
        for p in (1, 2, 3, 4):
            sols = []
            for q in range(1, p + 1):
                if p % q == 0:
                    sols.extend(o for o in periodic_points(T32, q))
            npts = sum(len(o.points) for o in sols if p % o.period == 0)
            assert npts <= lap_count(T32, p).laps + 1
