import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from chaos_edge import (DEFAULT, BudgetExhausted, MarkovBudgetError, PreconditionError,
                        Quadratic, build_base, build_stunted, build_type_b, approximants,
                        classify_float, classify_probe, classify_stunted, entropy_markov,
                        locate_boundary, quadratic_path,
                        shape, stunted_path, type_b_path, verify_witness,
                        verify_zero_certificate, zero_entropy_certificate)
import chaos_edge.boundary as boundary
from chaos_edge.boundary import (ATTRACTING_TOL, POSITIVE, SCAN_PERIODS, UNDECIDED, ZERO,
                                 _attractor_period, _grid_period_scan, _tail_period,
                                 _tower_descend, plateau_orbit_analysis)
from chaos_edge.markov import build_markov
from chaos_edge.periods import is_power_of_two
from chaos_edge.piecewise import on_lattice
from chaos_edge.symbolic import doubling_side

from conftest import ZERO_SIDE_2_60, fraction_stunted, random_xi

F = Fraction

C_INF = -1.4011551890920506    # accumulation of the period-doubling cascade


def assert_attracting_cycle(c, z0, period):
    """z0 returns under plain z*z + c after ``period`` steps, multiplier below 1."""
    z, mult = z0, 1.0
    for _ in range(period):
        mult *= 2 * z
        z = z * z + c
    assert abs(mult) < 1
    assert abs(z - z0) <= 1e-6 * max(1.0, abs(z0))


def assert_first_return(c, z0, period, rtol):
    """z0 first returns under plain z*z + c after ``period`` steps, which is
    not a power of two."""
    assert not is_power_of_two(period)
    tol = rtol * max(1.0, abs(z0))
    z = z0
    for k in range(1, period):
        z = z * z + c
        assert abs(z - z0) > tol, f"returns at step {k} of {period}"
    z = z * z + c
    assert abs(z - z0) <= tol


class TestZeroCertificate:
    def test_fixed_plateau(self, T12):
        cert = zero_entropy_certificate(T12)
        assert cert is not None
        assert sorted(cert.periods_found) == [1]
        assert cert.plateau_orbits[0].period == 1
        assert verify_zero_certificate(T12, cert)

    def test_trapezoid_refuted(self, T32):
        assert zero_entropy_certificate(T32) is None

    def test_window_map(self, base1):
        T = build_stunted(base1, [F(159, 128)])
        cert = zero_entropy_certificate(T)
        assert cert is not None
        assert all(is_power_of_two(p) for p in cert.periods_found)
        assert cert.plateau_orbits[0].period == 4

    def test_altered_plateau_record_rejected(self, base1):
        T = build_stunted(base1, [F(159, 128)])      # plateau period 4
        cert = zero_entropy_certificate(T)
        rec = cert.plateau_orbits[0]
        assert verify_zero_certificate(T, cert)
        for bad in (replace(rec, preperiod=rec.preperiod + 1),
                    replace(rec, period=2 * rec.period)):
            assert not verify_zero_certificate(T, replace(cert, plateau_orbits=(bad,)))

    def test_altered_levels_bound_rejected(self, base1):
        # the admitted doubling depth is the constant ZERO_CERT_LEVELS, so a
        # certificate that states another one, higher or lower, is rejected
        T = build_stunted(base1, [F(159, 128)])      # plateau period 4
        cert = zero_entropy_certificate(T)
        assert cert.levels_bound == boundary.ZERO_CERT_LEVELS
        for levels in (1, boundary.ZERO_CERT_LEVELS + 1):
            assert not verify_zero_certificate(T, replace(cert, levels_bound=levels))

    def test_plateau_records_rechecked_apart_from_the_lattice(self, base2, monkeypatch):
        # a lattice route that misreports the plateau periods makes a
        # certificate that re-running it reproduces; the int re-walks on the
        # map itself still reject it
        import chaos_edge.boundary as bd
        T = build_stunted(base2, [F(1, 2), F(1, 2)])
        assert verify_zero_certificate(T, zero_entropy_certificate(T))
        honest = bd.plateau_orbit_analysis
        monkeypatch.setattr(bd, "plateau_orbit_analysis", lambda values, system: [
            (replace(r, period=2 * r.period), orbit) for r, orbit in honest(values, system)])
        cert = zero_entropy_certificate(T)
        assert cert is not None and cert == zero_entropy_certificate(T)
        assert not verify_zero_certificate(T, cert)

    def test_plateau_rewalk_calls_nothing_on_the_lattice_route(self, base2, monkeypatch):
        import chaos_edge.piecewise as pw
        from chaos_edge.entropy import exact_walk
        from chaos_edge.maps import StuntedSawtooth
        cert = zero_entropy_certificate(build_stunted(base2, [F(1, 2), F(1, 2)]))

        def off(*args):
            raise AssertionError("the re-walk reached the lattice route")

        for owner, name in ((pw.PiecewiseLinear, "lattice"), (pw.PiecewiseLinear, "__call__"),
                            (StuntedSawtooth, "lattice")):
            monkeypatch.setattr(owner, name, off)
        T = build_stunted(base2, [F(1, 2), F(1, 2)])
        values, step = exact_walk(T.pl, T.plateau_values)
        assert all(boundary._plateau_record_holds(step, values[r.plateau], r)
                   for r in cert.plateau_orbits)

    def test_budget_vs_refutation(self, base1):
        from chaos_edge import BudgetExhausted
        from chaos_edge.config import DEFAULT
        # the plateau orbit needs 8 steps to close; budget 5 is exhaustion,
        # not refutation, and must raise rather than return None
        T = build_stunted(base1, [F(637, 512)])
        with pytest.raises(BudgetExhausted):
            zero_entropy_certificate(T, config=DEFAULT.with_(orbit_budget=5))


class TestClassify:
    def test_window_sequence(self, base1):
        expected = {F(1, 2): ZERO, F(1): ZERO, F(49, 40): ZERO,
                    F(5, 4): POSITIVE, F(3, 2): POSITIVE}
        for t, kind in expected.items():
            r = classify_stunted(build_stunted(base1, [t]), 64)
            assert r.kind == kind, (t, r.kind, r.note)

    def test_no_parameter_gets_both(self, base1):
        # certificate disjointness: witnesses and zero certificates never
        # coexist at one parameter
        rnd = random.Random(9)
        for _ in range(40):
            t = F(rnd.randint(-12, 12), 8)
            T = build_stunted(base1, [t])
            r = classify_stunted(T, 64)
            if r.kind == POSITIVE:
                assert r.witness is not None and r.certificate is None
            elif r.kind == ZERO:
                assert r.certificate is not None and r.witness is None

    def test_orbit_budget_named(self, T12):
        r = classify_stunted(T12, 64, DEFAULT.with_(orbit_budget=2))
        assert r.kind == UNDECIDED
        assert r.note == ("not Markov within orbit_budget=2: "
                          "breakpoint orbits exceed 2 points")
        # past the budget a probe has no side either, so it is classified
        with pytest.raises(MarkovBudgetError):
            boundary._closure_side(T12.lattice(), T12.lattice_values,
                                   DEFAULT.with_(orbit_budget=2))

    def test_plateau_orbit_budget_named(self, base1):
        r = classify_stunted(build_stunted(base1, [F(637, 512)]), 64,
                             DEFAULT.with_(orbit_budget=5))
        assert r.kind == UNDECIDED
        # an orbit that does not close up within the budget overflows the
        # breakpoint closure it is walked in
        assert r.note == ("not Markov within orbit_budget=5: "
                          "breakpoint orbits exceed 5 points")

    def test_quadratic_sides(self):
        assert classify_float(Quadratic(-1.3)).kind == ZERO
        assert classify_float(Quadratic(-1.5)).kind == POSITIVE


class TestLocate:
    def test_m1_path(self, base1):
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 2))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**20))
        assert res.gap <= F(1, 2**20)
        assert res.orientation == "increasing"
        t_lo, cert = res.zero_side
        t_hi, wit = res.positive_side
        assert t_lo < res.t_star < t_hi
        assert all(is_power_of_two(p) for p in cert.periods_found)
        assert not is_power_of_two(wit.period)
        assert verify_witness(path.map_at(t_hi), wit)
        assert verify_zero_certificate(path.map_at(t_lo), cert)

    def test_bracket_validity(self, base1):
        # along the way, zero stays below and positive above
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 2))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**14))
        t_star = res.t_star
        for t in (F(3, 4), F(1), F(9, 8)):
            assert classify_stunted(path.map_at(t), 64).kind == ZERO
            assert t < t_star
        for t in (F(3, 2), F(11, 8)):
            assert classify_stunted(path.map_at(t), 64).kind == POSITIVE
            assert t > t_star

    def test_equal_endpoints_rejected(self, base1):
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 4))
        with pytest.raises(PreconditionError):
            locate_boundary(path, bound=64, resolution=F(1, 1024))

    def test_quadratic_orientation(self):
        res = locate_boundary(quadratic_path(-1.5, -1.3), bound=32,
                              resolution=5e-5)
        assert res.orientation == "decreasing"
        t_zero, _ = res.zero_side
        t_pos, _ = res.positive_side
        assert t_pos < res.t_star < t_zero

    def test_type_b_coarse(self):
        # the one-stage family is affinely conjugate to x^2 + a, so the
        # bracket must straddle the quadratic accumulation parameter
        from chaos_edge import type_b_path
        path = type_b_path([(2, -1.0)], 0, -2.0, -1.0)
        res = locate_boundary(path, bound=32, resolution=0.05)
        lo, hi = sorted(res.bracket)
        assert lo < -1.4011551 < hi

    def test_undecided_probes_refined_at_quarter_points(self, base1, monkeypatch):
        # 5/4 undecided: its quarter points are 9/8, also undecided, and
        # 11/8, positive, which moves the bracket on.  Both are withheld from
        # the side as well as from the classifier, so the routed bisection
        # classifies them and refines around them
        undecided = []
        withheld = (F(5, 4), F(9, 8))
        classify, side = boundary.classify_stunted, boundary.path_side

        def stunted(T, bound, config):
            if T.xi[0] in withheld:
                undecided.append(T.xi[0])
                return boundary.ProbeResult(UNDECIDED, note="withheld")
            return classify(T, bound, config)

        route_off(monkeypatch)
        monkeypatch.setattr(boundary, "classify_stunted", stunted)
        monkeypatch.setattr(boundary, "path_side", lambda path, k, depth, config, windows: (
            (None, None) if path_t(path, k, depth) in withheld
            else side(path, k, depth, config, windows)))
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 2))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**20))
        assert sorted(set(undecided)) == [F(9, 8), F(5, 4)]
        assert res.undecided == len(undecided)
        assert res.gap <= F(1, 2**20)
        (t_lo, cert), (t_hi, wit) = res.zero_side, res.positive_side
        assert verify_zero_certificate(path.map_at(t_lo), cert)
        assert verify_witness(path.map_at(t_hi), wit)

    def test_undecided_refinement_raises_with_the_width(self, base1, monkeypatch):
        classify = boundary.classify_stunted
        ends = (F(1, 2), F(3, 2))
        monkeypatch.setattr(boundary, "classify_stunted", lambda T, bound, config: (
            classify(T, bound, config) if T.xi[0] in ends
            else boundary.ProbeResult(UNDECIDED, note="withheld")))
        path = stunted_path(base1, [F(0)], [F(1)], *ends)
        with pytest.raises(BudgetExhausted) as info:
            locate_boundary(path, bound=64, resolution=F(1, 2**20))
        assert str(info.value) == "undecided probes block refinement below width 1"

    def test_unsided_probes_are_classified(self, monkeypatch):
        # with no probe sided by its kneading, the routed pass classifies
        # every one and ends on the bracket that routing finds
        path = quadratic_path(-1.5, -1.3)
        routed = locate_boundary(path, resolution=1e-6)
        monkeypatch.setattr(boundary, "doubling_side", lambda m: None)
        res = locate_boundary(path, resolution=1e-6)
        assert res.bracket == routed.bracket
        c0, cert = res.zero_side
        assert_attracting_cycle(c0, cert.point, cert.period)
        c1, wit = res.positive_side
        assert_first_return(c1, wit.orbit[0], wit.period, 1e-7)



class TestQuadraticCascade:
    """The float classifier near c_inf, where the cycles have periods 2^12 and up."""

    # zero-side probes of the default-resolution locate that were undecided
    # while the retry window only tried periods below 4096
    DEEP_ZERO = ((-1.4011551618576048, 4096), (-1.4011551856994626, 8192))

    @pytest.mark.parametrize("c, period", DEEP_ZERO)
    def test_attractor_period_deep(self, c, period):
        [(p, _)] = _attractor_period(Quadratic(c), 600_000, 65536, ATTRACTING_TOL)
        assert p == period

    def test_tail_period_candidates_stop_below_half_the_window(self):
        # candidate periods are 1 .. len(tail) // 2 - 1: a tail of 16 samples
        # repeating with period 8 has no period, one of 18 samples has 8
        cycle = [0.1 * i - 0.35 for i in range(8)]
        assert _tail_period(cycle * 2, ATTRACTING_TOL) is None
        assert _tail_period(cycle * 2 + cycle[:2], ATTRACTING_TOL) == 8
        assert _tail_period(cycle[:7] * 2 + cycle[:2], ATTRACTING_TOL) == 7
        # the least period, and the last point alone is not enough
        assert _tail_period([0.5, -0.5] * 8, ATTRACTING_TOL) == 2
        assert _tail_period(cycle * 2 + [0.3, cycle[6]], ATTRACTING_TOL) is None

    def test_deep_retry_continues_the_first_orbit(self):
        # the retry picks up the first window's last point instead of
        # walking the 64,096 steps from the turning point again
        m = Quadratic(self.DEEP_ZERO[0][0])
        first = _attractor_period(m, 60_000, 4096, ATTRACTING_TOL)
        again = _attractor_period(m, 600_000, 65536, ATTRACTING_TOL,
                                  starts=[x for _, x in first], done=60_000 + 4096)
        assert again == _attractor_period(m, 600_000, 65536, ATTRACTING_TOL)

    @pytest.mark.parametrize("c, period", DEEP_ZERO)
    def test_deep_zero_probe(self, c, period):
        r = classify_float(Quadratic(c))
        assert r.kind == ZERO
        assert r.certificate.period == period
        assert abs(r.certificate.multiplier) < 1

    def test_tower_slope_past_round_off(self):
        # a central-difference slope at alpha stopped this tower at depth 9
        widths, _ = _tower_descend(Quadratic(-1.4011551618576048))
        assert len(widths) - 1 >= 12

    @pytest.mark.parametrize("c, period", [(-1.5, 6), (-1.4011718749999997, 384),
                                           (-1.401155191659927, 20480)])
    def test_grid_scan_witness_periods(self, c, period):
        # periods found by the earlier scan, which iterated the grid afresh
        # for every candidate period
        widths, _ = _tower_descend(Quadratic(c))
        depth = len(widths) - 1
        w = _grid_period_scan(Quadratic(c), depth, widths[depth], (3, 5, 6, 7, 9, 10, 11, 12))
        assert w is not None and w.period == period

    def test_grid_scan_skips_lower_period_cells(self, monkeypatch):
        # the deepest positive probe of the default locate: five of the six
        # cells the earlier scan bisected held points of period 4096 or 8192,
        # cells where R^1 or R^2 - x also changes sign
        c = -1.401155189424753
        widths, _ = _tower_descend(Quadratic(c))
        depth = len(widths) - 1
        checked = []
        witness = boundary._float_orbit_witness
        monkeypatch.setattr(boundary, "_float_orbit_witness",
                            lambda *args: checked.append(args) or witness(*args))
        w = _grid_period_scan(Quadratic(c), depth, widths[depth], SCAN_PERIODS)
        assert len(checked) == 1
        assert w.period == 49152
        assert (w.orbit[0], w.orbit[-1]) == (-5.002009307430253e-06, -1.1837018997631716)

    def test_positive_probe_scans_before_the_deep_retry(self, monkeypatch):
        # the deepest positive probe of the default locate: its short
        # attractor does not settle and its kneading sides it positive, so
        # the scan runs first and the 600,000-step retry is not walked
        walked = []
        attractor = boundary._attractor_period
        monkeypatch.setattr(boundary, "_attractor_period",
                            lambda m, transient, *args, **kw:
                            walked.append(transient) or attractor(m, transient, *args, **kw))
        r = classify_float(Quadratic(-1.401155189424753))
        assert r.kind == POSITIVE and r.witness.period == 49152
        assert walked == [60_000]

    # tower half-widths at a depth-14 zero probe, recorded from the earlier
    # tower, which bisected every sign change of R_j(x) - x (19 cells)
    DEPTH_14_WIDTHS = (1.7849728357750194, 0.7849728357750163, 0.30694187441208537,
                       0.12274800227761168, 0.04902542091686779, 0.019587463027221176,
                       0.007825829590716121, 0.003126690177336516, 0.0012492147682823954,
                       0.0004990902533460808, 0.00019937596451709077, 7.960511849060564e-05,
                       3.170684169200089e-05, 1.2484243179217658e-05, 4.640210585933578e-06)

    def test_tower_bisects_only_falling_cells(self, monkeypatch):
        bisected = []
        bisect = boundary.bisect_root
        monkeypatch.setattr(boundary, "bisect_root",
                            lambda *args: bisected.append(args) or bisect(*args))
        widths, reason = _tower_descend(Quadratic(-1.401155188679695))
        assert (tuple(widths), reason) == (self.DEPTH_14_WIDTHS, "no-alpha")
        assert len(bisected) == 15          # one cell on each of the 15 levels tried

    def test_default_resolution_locate(self, monkeypatch):
        # raised BudgetExhausted while undecided probes blocked refinement;
        # the interior probes are sided by their kneading, so only the path's
        # ends and the bracket's ends are classified, and the classifier is
        # told the sides already found instead of walking them again
        calls, sided = [], []
        classify, side_of = boundary.classify_float, boundary.doubling_side
        monkeypatch.setattr(boundary, "classify_float",
                            lambda m, side: calls.append(m) or classify(m, side))
        monkeypatch.setattr(boundary, "doubling_side",
                            lambda m: sided.append(m) or side_of(m))
        res = locate_boundary(quadratic_path(-1.5, -1.3))
        lo, hi = sorted(res.bracket)
        assert lo <= C_INF <= hi
        assert hi - lo <= DEFAULT.resolution_float
        assert res.undecided == 0
        assert res.probes <= 34
        assert len(calls) <= 4
        assert len(sided) == res.probes - 2
        c0, cert = res.zero_side
        assert_attracting_cycle(c0, cert.point, cert.period)
        c1, wit = res.positive_side
        assert_first_return(c1, wit.orbit[0], wit.period, 1e-7)

    def test_float_results_hold_plain_floats(self):
        # the grid-scan bisection once ran on numpy scalars, whose x*x + c
        # steps cost 2.3 times a float's, and its witnesses held np.float64
        res = locate_boundary(quadratic_path(-1.5, -1.3), bound=32, resolution=1e-6)
        points = [res.zero_side[1].point, *res.positive_side[1].orbit]
        for c in (-2.0, -1.5, -1.41):
            points.extend(classify_float(Quadratic(c)).witness.orbit)
        assert [x for x in points if type(x) is not float] == []


@pytest.mark.xfail(strict=True, reason="a float zero verdict is not validated: the critical "
                   "orbit's 2^16-step return is taken for an attracting cycle "
                   "(ROADMAP items 2 and 12)")
def test_just_past_c_inf_is_not_zero():
    # c lies 2.6e-12 beyond c_inf, where x^2 + c has positive entropy; at 40
    # digits the critical orbit's 65,536-step return distance grows about
    # 1.7-fold a period and collapses again, between 3e-11 and 2e-9 over 40
    # periods, yet the classifier returns zero with a 65,536-cycle whose
    # multiplier it puts at -0.36
    c = -1.401155189094658
    assert C_INF - c > 2e-12
    assert classify_float(Quadratic(c)).kind != ZERO


def test_float_bisection_stops_at_adjacent_floats(monkeypatch):
    # a resolution below the spacing of doubles near c_inf: the bisection
    # re-probed an end until MAX_PROBES (400 probes, width 2.22e-16); it now
    # stops at the first pair of adjacent floats, which straddles c_inf
    sided = []

    def side(m):
        sided.append(m.c)
        return ZERO if m.c > C_INF else POSITIVE

    monkeypatch.setattr(boundary, "doubling_side", side)
    monkeypatch.setattr(boundary, "classify_float", lambda m, s: boundary.ProbeResult(side(m)))
    with pytest.raises(BudgetExhausted) as info:
        locate_boundary(quadratic_path(-1.5, -1.3), resolution=1e-17)
    assert str(info.value) == ("no float lies between the bracket ends: resolution 1e-17 "
                               "is below the width 2.220446049250313e-16")
    assert len(sided) == len(set(sided)) < 64


def test_kneading_side_refuted_at_an_end_reruns_the_bisection(monkeypatch):
    # a = -1.25 is the neutral 2 -> 4 doubling: its kneading sides it zero,
    # which ends the routed bisection at width 0.25, but classify_float leaves
    # it undecided, so the bisection runs again with every probe classified
    # and returns the bracket it returned before probes were routed; the
    # verdicts on the routed ends are reused, not made again
    classified = []
    classify = boundary.classify_float
    monkeypatch.setattr(boundary, "classify_float",
                        lambda m, side: classified.append(m.stages) or classify(m, side))
    path = type_b_path([(2, -1.0)], 0, -2.0, -1.0)
    res = locate_boundary(path, bound=32, resolution=0.3)
    assert res.bracket == (-1.375, -1.5)
    assert len(classified) == len(set(classified)) == 6
    # the stage (2, a) on [-1, 1] is z = -b x conjugate to z^2 + a, b^2 + a = b
    def b_of(a):
        return (1 + math.sqrt(1 - 4 * a)) / 2

    a0, cert = res.zero_side
    assert_attracting_cycle(a0, -b_of(a0) * cert.point, cert.period)
    a1, wit = res.positive_side
    assert_first_return(a1, -b_of(a1) * wit.orbit[0], wit.period, 1e-6)


def test_doubling_side_agrees_with_classify_float():
    # on every parameter the classifier decides: x^2 + c on both sides of
    # c_inf, and one-stage type-B maps of orders 2 and 4
    rnd = random.Random(1342)
    maps = [Quadratic(C_INF + s * 10 ** rnd.uniform(-7, -1)) for s in (1, -1) for _ in range(20)]
    maps += [build_type_b([(ell, rnd.uniform(lo, -0.2))])
             for ell, lo in ((2, -2.0), (4, -1.26)) for _ in range(40)]
    decided = 0
    for m in maps:
        r = classify_float(m)
        if r.kind != UNDECIDED:
            decided += 1
            assert doubling_side(m) == r.kind, m
    assert decided >= 110


def test_classify_probe_off_the_family_is_undecided():
    # on every path kind the probe's map is made inside classify_probe: a
    # parameter outside the family is undecided with the reason, and a
    # locate from there names that end
    r = classify_probe(stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(9)), F(9), 64)
    assert r.kind == UNDECIDED
    assert r.note == "parameter leaves the family: xi[0]=9 outside [-e, e] = [-3/2, 3/2]"
    path = quadratic_path(-1.5, 0.5)
    r = classify_probe(path, 0.5, 32)
    assert r.kind == UNDECIDED and r.note.startswith("parameter leaves the family: ")
    with pytest.raises(PreconditionError, match=r"positive/undecided; 0\.5: parameter leaves"):
        locate_boundary(path, resolution=1e-3)


@pytest.mark.parametrize("xi0, direction, got", [
    ([F(0)], [F(1), F(1)], "1 and 2"),
    ([F(0), F(0)], [F(1)], "2 and 1"),
    ([F(0)], [F(1)], "1 and 1"),
])
def test_stunted_path_needs_m_heights(xi0, direction, got):
    with pytest.raises(PreconditionError, match=f"needs m = 2 heights and directions, got {got}"):
        stunted_path(build_base(2, 1), xi0, direction, F(1, 2), F(8, 3))


@pytest.mark.parametrize("make, cause", [
    (lambda: type_b_path([(2, -1.0)], 5, -2.0, -1.0), "stage_index 5 is outside the path's 1 stages"),
    (lambda: type_b_path([(2, -1.0)], -3, -2.0, -1.0),
     "stage_index -3 is outside the path's 1 stages"),
    (lambda: type_b_path([], -1, -2.0, -1.0), "stage_index -1 is outside the path's 0 stages"),
    (lambda: quadratic_path(-1.5, math.inf), "path ends must be finite, got -1.5 and inf"),
    (lambda: type_b_path([(2, -1.0)], 0, -math.inf, -1.0),
     "path ends must be finite, got -inf and -1.0"),
], ids=["stage-index-5", "stage-index-minus-3", "no-stages", "quadratic-inf", "type-b-minus-inf"])
def test_float_path_needs_its_stage_and_finite_ends(make, cause):
    # a stage index outside the stages raised IndexError at the first probe,
    # and an infinite end made a probe at inf, or a sweep row at nan
    with pytest.raises(PreconditionError) as info:
        make()
    assert str(info.value) == cause


def test_type_b_path_counts_stage_index_from_the_end():
    path = type_b_path([(2, -1.0), (2, -1.5)], -2, -1.2, -1.1)
    assert path.map_at(-1.15).stages == ((2, -1.15), (2, -1.5))


def test_stunted_locate_never_sides_by_kneading(monkeypatch):
    def sided(*args):
        raise AssertionError("doubling_side called on a stunted path")

    monkeypatch.setattr(boundary, "doubling_side", sided)
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    res = locate_boundary(path, bound=64, resolution=F(1, 2**30))
    assert res.undecided == 0 and res.gap <= F(1, 2**30)


def test_exact_side_agrees_with_classify_stunted():
    # the side is the sign of the exact entropy: on random maps of m = 1, 2, 3
    # and on dyadic maps within 2^-40 of two located boundaries, it is the
    # verdict wherever one is reached and the sign of the Markov entropy
    rnd = random.Random(2025)
    maps = []
    for _ in range(180):
        base = build_base(rnd.randint(1, 3), 1)
        maps.append(build_stunted(base, random_xi(rnd, base, rnd.randint(8, 32))))
    for path in (stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2)),
                 stunted_path(build_base(2, 1), [F(0)] * 2, [F(1)] * 2, F(1, 2), F(8, 3))):
        t_zero, _ = locate_boundary(path, bound=64, resolution=F(1, 2**40)).bracket
        maps += [path.map_at(t_zero + k * F(1, 2**43)) for k in range(-10, 12)]
    decided, sides = 0, {ZERO: 0, POSITIVE: 0}
    for T in maps:
        side = boundary._closure_side(T.lattice(), T.lattice_values, DEFAULT)[0]
        r = classify_stunted(T, 64)
        if r.kind != UNDECIDED:
            decided += 1
            assert side == r.kind, T.xi
        assert side == (POSITIVE if entropy_markov(T).value > 0 else ZERO), T.xi
        sides[side] += 1
    assert len(maps) >= 200 and decided >= 200
    assert min(sides.values()) >= 50


def path_t(path, k, depth):
    """The parameter at position k/2^depth of a stunted path."""
    return path.t_lo + (path.t_hi - path.t_lo) * F(k, 2**depth)


def route_off(monkeypatch):
    """Keep a one-plateau locate on the bisection: with no cylinder the
    doubling-limit route names no cell."""
    monkeypatch.setattr(boundary, "cylinders", lambda base, word: iter(()))


def test_int_probe_agrees_with_the_map():
    # an interior probe builds only the lattice of the map at a dyadic
    # position, from the path's int numerators: the same N, breakpoints,
    # values and plateau values as the map made there (and as the Fraction
    # formula, whose dict merges touching plateau ends), and the same side.
    # Paths run from random heights (denominators 8 to 32) to random ones
    # above them; on the touching ones xi[m-2] = -xi[m-1] and neither moves
    rnd = random.Random(26)
    checked, degenerate, sides = 0, 0, set()
    for m in (1, 2, 3):
        for eps in (1, -1):
            base = build_base(m, eps)
            for touching in (False, True) if m > 1 else (False,):
                for _ in range(4):
                    xi0 = list(random_xi(rnd, base, rnd.randint(8, 32)))
                    if touching:
                        xi0[-1] = -xi0[-2]
                    xi1 = [x + F(rnd.randint(0, math.floor((base.e - x) * 32)), 32) for x in xi0]
                    if touching:
                        xi1[-2:] = xi0[-2:]
                    path = stunted_path(base, xi0, [b - a for a, b in zip(xi0, xi1)], 0, 1)
                    for _ in range(8):
                        depth = rnd.randint(1, 62)
                        k = rnd.randint(0, 2**depth)
                        T = path.map_at(path_t(path, k, depth))
                        n, lat, values = path.lattice_at(k, 1 << depth)
                        assert (n, lat) == T.lattice(), (T.xi, k, depth)
                        assert values == tuple(on_lattice(v, n) for v in T.plateau_values)
                        assert values == T.lattice_values
                        xs, ys, _ = fraction_stunted(base, T.xi)
                        assert [F(x, n) for x in lat.xs] == xs and [F(y, n) for y in lat.ys] == ys
                        side, window = boundary.path_side(path, k, depth)
                        assert side == boundary._closure_side(
                            T.lattice(), T.lattice_values, DEFAULT)[0], (T.xi, k, depth)
                        # the probe lies in its own window, which has its side
                        assert window is None or (window[0] <= k <= window[1]
                                                  and window[2] == side), (T.xi, k, depth)
                        checked += 1
                        degenerate += T.degenerate
                        sides.add(side)
    assert checked >= 200 and degenerate >= 50
    assert sides == {ZERO, POSITIVE}


def seeded_stunted_path(m, seed, epsilon=1):
    """A path t -> xi0 + t (e - xi0), t in [0, 1], from a zero-certified map
    whose heights are at most e/3, with denominator 8, 16 or 32, to the full
    map."""
    rnd = random.Random(seed)
    base = build_base(m, epsilon)
    while True:
        xi0 = random_xi(rnd, base, rnd.choice((8, 16, 32)))
        if max(xi0) > base.e / 3:
            continue
        path = stunted_path(base, xi0, [base.e - x for x in xi0], 0, 1)
        if (classify_probe(path, 0, 64).kind, classify_probe(path, 1, 64).kind) == (ZERO, POSITIVE):
            return path


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_locate_classifies_only_the_ends(monkeypatch, m):
    # interior probes are sided by the sign of their exact entropy, so
    # decide_exact runs on the path's two ends and the bracket's two ends
    # alone, and the result is the one of a locate that classifies every
    # probe; a probe inside an earlier probe's closure window walks nothing
    route_off(monkeypatch)
    path = seeded_stunted_path(m, 25 + m)
    decided, decide = [], boundary.decide_exact
    monkeypatch.setattr(boundary, "decide_exact",
                        lambda T, bound, config: decided.append(T.xi) or decide(T, bound, config))
    walked, walk = [], boundary.build_markov
    monkeypatch.setattr(boundary, "build_markov",
                        lambda lattice, budget: walked.append(lattice) or walk(lattice, budget))
    routed = locate_boundary(path, bound=64, resolution=F(1, 2**60))
    assert len(decided) == 4
    assert routed.probes > 60 and routed.undecided == 0
    # the walks of interior probes (one per decided map aside), against the sided
    assert len(walked) - len(decided) < routed.probes - 2
    monkeypatch.setattr(boundary, "path_side",
                        lambda path, k, depth, config, windows: (None, None))
    assert locate_boundary(path, bound=64, resolution=F(1, 2**60)) == routed
    assert len(decided) == 4 + routed.probes


def test_sided_maps_kept_only_at_the_bracket_ends(monkeypatch):
    # an interior probe is sided on its int lattice and makes no map: a
    # locate builds the maps of the path's two ends and, once the bisection
    # stops, of the bracket's two ends, and no other.  A probe inside an
    # earlier probe's closure window walks no closure either
    from chaos_edge.maps import StuntedSawtooth
    built, sided, walked, decided = [], [], [], []
    post_init, side, walk = StuntedSawtooth.__post_init__, boundary.path_side, boundary.build_markov
    decide = boundary.decide_exact

    def decided_walks(T, bound, config):     # the closures a classified map walks
        before = len(walked)
        r = decide(T, bound, config)
        decided.append(len(walked) - before)
        return r

    route_off(monkeypatch)
    monkeypatch.setattr(StuntedSawtooth, "__post_init__",
                        lambda T: post_init(T) or built.append(T.xi[0]))
    monkeypatch.setattr(boundary, "path_side", lambda path, k, depth, config, windows: (
        sided.append(path_t(path, k, depth)) or side(path, k, depth, config, windows)))
    monkeypatch.setattr(boundary, "build_markov",
                        lambda lattice, budget: walked.append(lattice) or walk(lattice, budget))
    monkeypatch.setattr(boundary, "decide_exact", decided_walks)
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    res = locate_boundary(path, bound=64, resolution=F(1, 2**60))
    assert len(sided) == len(set(sided)) == res.probes - 2 == 60
    assert built == [F(1, 2), F(3, 2), *res.bracket]
    # four classified maps walk their own closures, the rest are interior probes
    assert decided == [1, 1, 1, 1]
    assert len(walked) - sum(decided) < len(sided)


TOUCHING_PATHS = {
    # m = 3 paths whose first two plateaus touch, xi[0] = -xi[1], and stay
    # put while the third rises from a zero-certified map
    1: ([F(-3, 2), F(3, 2), F(-5, 4)], [F(0), F(0), F(5)]),
    -1: ([F(-39, 16), F(39, 16), F(-5, 8)], [F(0), F(0), F(35, 8)]),
}


@pytest.mark.parametrize("m, eps, touching", [(2, 1, False), (2, -1, False), (3, 1, False),
                                              (3, -1, False), (3, 1, True), (3, -1, True)])
def test_closure_window_keeps_the_graph(monkeypatch, m, eps, touching):
    # the closure window of a walked probe: at its two ends and at positions
    # drawn inside it, the map's breakpoint closure has the probe's size,
    # transition rows, plateau records and side.  The probes are those of a
    # locate on a seeded path or on a path with touching plateaus
    depth = 2 * boundary.MAX_PROBES
    path = (stunted_path(build_base(m, eps), *TOUCHING_PATHS[eps], 0, 1) if touching
            else seeded_stunted_path(m, 28 + m, eps))
    made, window_of = [], boundary._closure_window

    def recorded(path, k, depth, values, system):
        window = window_of(path, k, depth, values, system)
        made.append((k, window))
        return window

    def graph(k):
        n, lat, values = path.lattice_at(k, 1 << depth)
        side, system, plateaus = boundary._closure_side((n, lat), values, DEFAULT)
        return system.size, system.rows, [r for r, _ in plateaus], side

    monkeypatch.setattr(boundary, "_closure_window", recorded)
    locate_boundary(path, bound=64, resolution=F(1, 2**60))
    rnd = random.Random(28)
    windows = [(k, window) for k, window in made if window is not None]
    for k, (lo, hi) in windows:
        assert lo <= k <= hi
        want = graph(k)
        for K in (lo, hi, *(rnd.randint(lo, hi) for _ in range(6))):
            assert graph(K) == want, (k, K)
    assert len(windows) >= 8


def test_exact_side_refuted_at_an_end_reruns_the_bisection(monkeypatch):
    # the classifier leaves the zero end of the routed bisection undecided,
    # so the bisection runs again with every probe classified; the verdicts
    # on the routed ends are reused, not made again, and the ends it returns
    # carry evidence that the re-checks accept
    route_off(monkeypatch)
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    resolution = F(1, 2**30)
    t_refuted, t_pos = locate_boundary(path, bound=64, resolution=resolution).bracket
    classified, classify = [], boundary.classify_stunted

    def stunted(T, bound, config):
        classified.append(T.xi[0])
        if T.xi[0] == t_refuted:
            return boundary.ProbeResult(UNDECIDED, note="withheld")
        return classify(T, bound, config)

    monkeypatch.setattr(boundary, "classify_stunted", stunted)
    res = locate_boundary(path, bound=64, resolution=resolution)
    assert classified[:4] == [F(1, 2), F(3, 2), t_refuted, t_pos]
    assert len(classified) == len(set(classified)) > 4
    # the reused verdict leaves t_refuted undecided each time the rerun meets it
    assert res.undecided >= 1 and res.gap <= resolution
    (t0, cert), (t1, wit) = res.zero_side, res.positive_side
    assert t0 != t_refuted
    assert verify_zero_certificate(path.map_at(t0), cert)
    assert verify_witness(path.map_at(t1), wit)


def m1_paths():
    """The README m = 1 paths (epsilon = +-1) and seeded m = 1 paths."""
    yield from (stunted_path(build_base(1, eps), [F(0)], [F(1)], F(1, 2), F(3, 2))
                for eps in (1, -1))
    yield from (seeded_stunted_path(1, seed, eps) for seed in (1, 2, 3) for eps in (1, -1))


def locate_both_ways(monkeypatch, path, resolution):
    """(located, bisected): ``locate_boundary`` with its one-plateau route
    and with the route off."""
    located = locate_boundary(path, bound=64, resolution=resolution)
    with monkeypatch.context() as patch:
        route_off(patch)
        return located, locate_boundary(path, bound=64, resolution=resolution)


@pytest.mark.parametrize("exponent", [20, 60, 200])
def test_one_plateau_locate_reads_the_doubling_cell(monkeypatch, exponent):
    # the cell of the doubling-limit cylinder is the bisection's last
    # bracket: the same result in every field but probes, which counts the
    # path's two ends and the bracket's two ends, the only maps decided
    resolution = F(1, 2**exponent)
    decided, decide = [], boundary.decide_exact
    monkeypatch.setattr(boundary, "decide_exact",
                        lambda T, bound, config: decided.append(T.xi) or decide(T, bound, config))
    for path in m1_paths():
        decided.clear()
        located, bisected = locate_both_ways(monkeypatch, path, resolution)
        ends = [path.map_at(t).xi for t in (path.t_lo, path.t_hi, *located.bracket)]
        assert located.probes == 4 and decided == ends + ends
        assert replace(located, probes=bisected.probes) == bisected
        assert bisected.probes == exponent + 2 and located.gap <= resolution


def test_doubling_cell_reaches_as_far_as_the_bisection():
    # the routed bisection has MAX_PROBES - 2 probes after the path's ends
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    assert locate_boundary(path, bound=64, resolution=F(1, 2**398)).probes == 4
    with pytest.raises(BudgetExhausted, match="max_probes=400 reached"):
        locate_boundary(path, bound=64, resolution=F(1, 2**399))


def assert_reverified(path, res):
    (t0, cert), (t1, wit) = res.zero_side, res.positive_side
    assert verify_zero_certificate(path.map_at(t0), cert)
    assert verify_witness(path.map_at(t1), wit)


@pytest.mark.parametrize("eps", [1, -1])
def test_doubling_cell_of_a_wrong_word_falls_back(monkeypatch, eps):
    # a flipped symbol names a cell whose ends classify alike: the route
    # falls back to the bisection, which ends where it ends without the route
    cylinders = boundary.cylinders
    monkeypatch.setattr(boundary, "cylinders", lambda base, word: cylinders(
        base, (1 - s if i == 12 else s for i, s in enumerate(word))))
    path = stunted_path(build_base(1, eps), [F(0)], [F(1)], F(1, 2), F(3, 2))
    located, bisected = locate_both_ways(monkeypatch, path, F(1, 2**40))
    assert located.probes == bisected.probes + 2
    assert replace(located, probes=bisected.probes) == bisected
    assert_reverified(path, located)


def test_doubling_cell_off_the_path_falls_back(monkeypatch):
    # the word of the fixed point in lap 1, xi = 3/4, names a cell below
    # this path: no end is classified and the bisection runs as without it
    monkeypatch.setattr(boundary, "cylinders", lambda base, word, cylinders=boundary.cylinders:
                        cylinders(base, (1 for _ in word)))
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1), F(3, 2))
    located, bisected = locate_both_ways(monkeypatch, path, F(1, 2**40))
    assert located == bisected
    assert_reverified(path, located)


@pytest.mark.parametrize("end", [0, 1], ids=["zero", "positive"])
def test_doubling_cell_refuted_at_an_end_falls_back(monkeypatch, end):
    # the classifier leaves an end of the cell undecided: the route falls
    # back, the bisection reuses the cell's verdicts, and the result is the
    # one that the bisection alone finds under the same classifier
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    resolution = F(1, 2**40)
    cell = locate_boundary(path, bound=64, resolution=resolution).bracket
    classify = boundary.classify_stunted

    def stunted(T, bound, config):
        if T.xi[0] == cell[end]:
            return boundary.ProbeResult(UNDECIDED, note="withheld")
        return classify(T, bound, config)

    monkeypatch.setattr(boundary, "classify_stunted", stunted)
    located, bisected = locate_both_ways(monkeypatch, path, resolution)
    assert located.probes > 4 and located.undecided >= 1
    assert replace(located, probes=bisected.probes) == bisected
    assert located.bracket != cell and located.gap <= resolution
    assert_reverified(path, located)


def test_type_b_probe_conjugate_to_positive_quadratic():
    r = classify_probe(type_b_path([(2, -1.0)], 0, -2.0, -1.0), -1.40625, 32)
    assert r.kind == POSITIVE


def _period(r):
    if r.witness is not None:
        return r.witness.period
    return None if r.certificate is None else r.certificate.period


def test_one_stage_type_b_agrees_with_quadratic():
    # the stage (2, a) on [-1, 1] is affinely conjugate to x^2 + a
    path = type_b_path([(2, -1.0)], 0, -2.0, -1.0)
    for k in range(19):
        a = -1.9 + 0.05 * k
        rb, rq = classify_probe(path, a, 32), classify_float(Quadratic(a))
        assert (rb.kind, _period(rb)) == (rq.kind, _period(rq)), a


# Verdicts of the earlier type-B classifier, which searched periods 3-16 with
# periodic_points and had no tower: P positive, Z zero, U undecided, E raised
# OverflowError (its Newton polish left [-1, 1]).  Every P and Z must be kept,
# and nothing may raise.
KEPT = {"P": POSITIVE, "Z": ZERO}
ELL_GRID = {4: "UUUUUUUUUUUUUUUPPZEZEEZZZEZEZZE",     # a = -2 + k/20, k = 0..30
            6: "UUUUUUUUUUUUUUUUUUZEZEEEEZZZZZZ"}
TWO_STAGE = "ZEZPZPPPEEPPPPZE"                       # seeded (2, a1), (2, a2) maps


@pytest.mark.parametrize("ell", sorted(ELL_GRID))
def test_one_stage_ell_grid_keeps_verdicts(ell):
    path = type_b_path([(ell, -1.0)], 0, -2.0, -0.5)
    for k, before in enumerate(ELL_GRID[ell]):
        a = -2.0 + 1.5 * k / 30
        r = classify_probe(path, a, 32)
        assert r.kind == KEPT.get(before, r.kind), (a, r.kind, r.note)


def test_two_stage_maps_keep_verdicts():
    rnd = random.Random(11)
    for before in TWO_STAGE:
        while True:
            a1, a2 = rnd.uniform(-2, -0.5), rnd.uniform(-2, -0.5)
            path = type_b_path([(2, a1), (2, a2)], 1, -2.0, 0.0)
            try:
                path.map_at(a2)
                break
            except ValueError:
                continue
        r = classify_probe(path, a2, 32)
        assert r.kind == KEPT.get(before, r.kind), (a1, a2, r.kind, r.note)


def test_multimodal_map_scans_before_following_orbits(monkeypatch):
    # a two-stage map with a period-3 orbit: the level-0 grid scan finds it,
    # so none of the three turning-point orbits is followed for 64k steps
    def followed(*args):
        raise AssertionError("turning-point orbits followed")

    monkeypatch.setattr(boundary, "_attractor_period", followed)
    r = classify_float(build_type_b([(2, -1.705115306895517), (2, -0.5747962215370321)]))
    assert r.kind == POSITIVE and r.witness.period == 3


class TestApproximants:
    def test_m1_boundary_pair(self, base1):
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 2))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**24))
        Tg = path.map_at(res.t_star)
        plus, minus, w, cert, r = approximants(Tg, F(1, 1000))
        assert r <= F(1, 1000)
        assert shape(plus) == shape(minus) == shape(Tg)
        assert not is_power_of_two(w.period)
        assert all(is_power_of_two(p) for p in cert.periods_found)

    def test_sup_distance(self, base1):
        path = stunted_path(base1, [F(0)], [F(1)], F(1, 2), F(3, 2))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**24))
        Tg = path.map_at(res.t_star)
        plus, minus, _, _, r = approximants(Tg, F(1, 1000))
        for k in range(21):
            x = -Tg.base.e + 2 * Tg.base.e * F(k, 20)
            assert abs(plus(x) - Tg(x)) <= r
            assert abs(minus(x) - Tg(x)) <= r

    def test_m2_diagonal(self, base2):
        path = stunted_path(base2, [F(0), F(0)], [F(1), F(1)], F(1, 2), F(8, 3))
        res = locate_boundary(path, bound=64, resolution=F(1, 2**18))
        Tg = path.map_at(res.t_star)
        plus, minus, w, cert, _ = approximants(Tg, F(1, 1000))
        assert shape(plus) == shape(minus) == shape(Tg)

    def test_fixed_plateau_region(self, base1):
        # far from the boundary only one side certifies
        T = build_stunted(base1, [F(5, 8)])
        with pytest.raises(PreconditionError):
            approximants(T, F(1, 100))

    @pytest.mark.parametrize("m, xi, radius, reason", [
        # the full map: every step up puts a height outside [-e, e]
        (1, [F(3, 2)], F(1, 100), "inadmissible"),
        # plateau values -1, -3, 2, -1/2: a step up of r >= 1/4 raises the
        # first (a maximum) to or past the last (a minimum), which it lowers
        (4, [F(-1), F(3), F(2), F(1, 2)], F(1), "shape broke"),
        # well past the m = 1 boundary near 1.2444: both sides are positive
        (1, [F(7, 5)], F(1, 100), "no zero certificate"),
    ])
    def test_each_failed_attempt_is_named(self, m, xi, radius, reason):
        T = build_stunted(build_base(m, 1), xi)
        with pytest.raises(PreconditionError) as info:
            approximants(T, radius)
        tried = [(r, reason) for r in (radius, radius / 2, radius / 4)]
        assert str(info.value) == (f"could not certify both sides within radius {radius}; "
                                   f"attempts: {tried}")


class TestPlateauAnalysis:
    def test_preperiodic_structure(self, base1):
        T = build_stunted(base1, [F(5, 4)])
        [(rec, orbit)] = plateau_orbit_analysis(T.lattice_values, build_markov(T, 1000))
        assert rec.preperiod == 2 and rec.period == 1
        assert len(orbit) == 3


class TestExactRoute:
    def test_random_maps_decided(self):
        # every orbit of a rational stunted map stays on a finite lattice, so
        # plateau orbits plus the Markov graph decide each map at the defaults
        rnd = random.Random(2019)
        verdicts = {ZERO: 0, POSITIVE: 0}
        for _ in range(200):
            base = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
            T = build_stunted(base, random_xi(rnd, base, 2 ** rnd.randint(3, 40)))
            r = classify_stunted(T, 64)
            assert r.kind != UNDECIDED, (T.xi, r.note)
            verdicts[r.kind] += 1
            if r.kind == ZERO:
                assert verify_zero_certificate(T, r.certificate)
                assert all(is_power_of_two(o.period) for o in r.certificate.plateau_orbits)
            else:
                assert verify_witness(T, r.witness)
            assert (r.witness is not None) == (r.kind == POSITIVE)
        assert min(verdicts.values()) > 0

    @pytest.mark.parametrize("m, xi, kind", [
        (1, (ZERO_SIDE_2_60[1],), ZERO),
        (2, (ZERO_SIDE_2_60[2],) * 2, ZERO),
        (1, (F(3, 2),), POSITIVE),          # a plateau 3-cycle
        (1, (F(5, 4),), POSITIVE),          # a splice of two graph cycles
    ])
    def test_one_lattice_walk(self, monkeypatch, m, xi, kind):
        # the breakpoint closure is the route's only walk: the plateau
        # records, the witness cycle and the Markov graph are read off it, so
        # the lattice map is evaluated once per closure point off its
        # breakpoints (a breakpoint's image is its value)
        import chaos_edge.piecewise as pw
        T = build_stunted(build_base(m, 1), xi)
        _, lat = T.lattice()
        closure = build_markov(T, DEFAULT.orbit_budget).size + 1 - len(lat.xs)
        honest, calls = pw.PiecewiseLinear.__call__, []

        def counted(self, x):
            calls.append(self is lat)
            return honest(self, x)

        monkeypatch.setattr(pw.PiecewiseLinear, "__call__", counted)
        r = boundary.decide_exact(T, 64)
        assert r.kind == kind
        assert len(calls) == sum(calls) == closure


def test_probe_budget_error_names_max_probes(monkeypatch):
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    monkeypatch.setattr(boundary, "MAX_PROBES", 5)
    with pytest.raises(BudgetExhausted) as info:
        locate_boundary(path, resolution=F(1, 2**30))
    assert str(info.value) == "probe budget exhausted: max_probes=5 reached at width 1/8"


class TestUndecidedExact:
    # each branch of the exact route that leaves a map undecided, reached by
    # breaking one of the pieces it reads
    def test_positive_side_with_no_verified_orbit(self, T32, monkeypatch):
        monkeypatch.setattr(boundary, "verify_witness", lambda T, w: False)
        r = boundary.decide_exact(T32, 64)
        assert (r.kind, r.witness) == (UNDECIDED, None)
        assert r.note == "entropy is positive but no orbit was verified"

    def test_cycle_period_not_a_power_of_two_without_branching(self, T12, monkeypatch):
        from chaos_edge.markov import CycleAnalysis
        monkeypatch.setattr(boundary, "cycle_analysis",
                            lambda system: CycleAnalysis(frozenset({1, 3}), None))
        r = boundary.decide_exact(T12, 64)
        assert (r.kind, r.certificate) == (UNDECIDED, None)
        assert r.note == "a cycle's period is not a power of two, yet no component branches"

    def test_plateau_period_past_the_admitted_levels(self, base1, monkeypatch):
        T = build_stunted(base1, [F(6, 5)])             # a plateau 2-cycle
        assert boundary.decide_exact(T, 64).kind == ZERO
        monkeypatch.setattr(boundary, "ZERO_CERT_LEVELS", 0)
        r = boundary.decide_exact(T, 64)
        assert (r.kind, r.certificate) == (UNDECIDED, None)
        assert r.note == "a plateau period exceeds 2^0"

    def test_only_a_stunted_map_takes_the_route(self, T32):
        for call in (boundary.decide_exact, zero_entropy_certificate, classify_stunted):
            with pytest.raises(PreconditionError, match="needs a stunted map, got PiecewiseLinear"):
                call(T32.pl, 64)

    def test_only_a_stunted_map_is_reverified(self, T12):
        # the re-check read T.plateau_values first, so a raw PiecewiseLinear
        # raised AttributeError instead of the route's precondition error
        cert = zero_entropy_certificate(T12)
        with pytest.raises(PreconditionError, match="needs a stunted map, got PiecewiseLinear"):
            verify_zero_certificate(T12.pl, cert)


def test_walked_probe_past_the_budget_has_no_side():
    # position 1/2 of the path is xi = 1, zero-sided on a closure of more than 2 points
    path = stunted_path(build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
    assert boundary.path_side(path, 1, 1, DEFAULT)[0] == ZERO
    assert boundary.path_side(path, 1, 1, DEFAULT.with_(orbit_budget=2)) == (None, None)


class TestZeroCertificateRejected:
    def test_records_not_indexed_by_plateau(self, T12):
        cert = zero_entropy_certificate(T12)
        shifted = tuple(replace(r, plateau=r.plateau + 1) for r in cert.plateau_orbits)
        assert not verify_zero_certificate(T12, replace(cert, plateau_orbits=shifted))

    def test_recompute_past_the_budget(self, T12):
        # the plateau's fixed point fits in 2 points, its breakpoint closure does not
        cert = zero_entropy_certificate(T12)
        small = DEFAULT.with_(orbit_budget=2)
        assert all(r.preperiod + r.period <= 2 for r in cert.plateau_orbits)
        with pytest.raises(BudgetExhausted):
            zero_entropy_certificate(T12, cert.bound, small)
        assert verify_zero_certificate(T12, cert)
        assert not verify_zero_certificate(T12, cert, small)
