"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single pass line (pytest -s shows them; a failed assertion is the
fail line).  Runtime limits are asserted where stated.
"""

import math
import random
import time
from fractions import Fraction

from chaos_edge import (BudgetExhausted, Quadratic, QuadraticFamily,
                        build_base, build_stunted, build_type_b, cascade_trace,
                        classify_stunted, entropy_lap, entropy_markov, feigenbaum_delta,
                        find_restrictive, itinerary, kneading, locate_boundary,
                        psi, renormalize, shape, stunted_path, quadratic_path,
                        superstable_sequence, verify_witness, verify_zero_certificate)
from chaos_edge.maps import Interval
from chaos_edge.periods import is_power_of_two

from conftest import FloatUnimodal, random_xi

F = Fraction
LOG2 = math.log(2)


def report(name, detail):
    print(f"ACCEPT {name}: pass ({detail})")


def test_c1_constant_slope_entropy():
    T = build_stunted(build_base(1, 1), [F(3, 2)])
    entropy_lap(T, 8)   # warm the linear-algebra libraries before timing
    t0 = time.time()
    lap = entropy_lap(T, 12)
    markov = entropy_markov(T)
    elapsed = time.time() - t0
    assert abs(lap.value - LOG2) <= 1e-3
    assert abs(markov.value - LOG2) <= 1e-10
    assert elapsed < 1.0
    report("C1 constant-slope entropy",
           f"lap={lap.value:.6f}, markov={markov.value:.12f}, {elapsed:.2f}s")


def test_c2_monotonicity_suite():
    t0 = time.time()
    rnd = random.Random(20260810)
    checked = 0
    while checked < 200:
        m = rnd.choice([1, 2, 3])
        base = build_base(m, 1)
        q = rnd.choice([4, 8])
        xi = random_xi(rnd, base, q)
        bump = tuple(F(rnd.randint(0, int((base.e - x) * q)), q) for x in xi)
        xi2 = tuple(x + d for x, d in zip(xi, bump))
        try:
            h1 = entropy_markov(build_stunted(base, xi)).value
            h2 = entropy_markov(build_stunted(base, xi2)).value
        except BudgetExhausted:
            continue
        assert h1 <= h2 + 1e-9, (m, xi, xi2, h1, h2)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("C2 monotonicity suite", f"200 pairs, {elapsed:.1f}s")


def test_c3_entropy_period_equivalence():
    rnd = random.Random(77)
    checked = 0
    disagreements = 0
    while checked < 100:
        m = rnd.choice([1, 2, 3])
        base = build_base(m, 1)
        q = rnd.choice([4, 8, 16])
        xi = random_xi(rnd, base, q)
        if checked % 2:
            # bias half the sample towards the chaotic regime
            xi = tuple(max(x, base.e - abs(x) / 2 - F(1, q)) for x in xi)
            try:
                T = build_stunted(base, xi)
            except ValueError:
                continue
        else:
            T = build_stunted(base, xi)
        try:
            h = entropy_markov(T).value
        except BudgetExhausted:
            continue
        w = classify_stunted(T, 64).witness
        if (w is not None) != (h > 1e-3):
            disagreements += 1
        if w is not None:
            assert verify_witness(T, w)
        checked += 1
    assert disagreements == 0
    report("C3 entropy/period equivalence", f"100 maps, 0 disagreements")


def test_c4_feigenbaum_reproduction():
    t0 = time.time()
    fam = QuadraticFamily()
    c0 = superstable_sequence(fam, 0)[-1]
    c1 = superstable_sequence(fam, 1)[-1]
    c2 = superstable_sequence(fam, 2)[-1]
    assert abs(c0) <= 1e-12
    assert abs(c1 + 1) <= 1e-12
    assert abs(c2 + 1.3107026) <= 1e-6
    est = feigenbaum_delta(fam, 10)
    assert abs(est.value - 4.6692016) / 4.6692016 <= 0.01
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("C4 Feigenbaum reproduction",
           f"c2={c2:.9f}, delta={est.value:.7f}, {elapsed:.1f}s")


def test_c5_boundary_locate_stunted():
    t0 = time.time()
    base = build_base(1, 1)
    path = stunted_path(base, [F(0)], [F(1)], F(1, 2), F(3, 2))
    res = locate_boundary(path, bound=64, resolution=F(1, 2**30))
    assert res.gap <= F(1, 2**30)
    t_lo, cert = res.zero_side
    t_hi, wit = res.positive_side
    assert all(is_power_of_two(p) and p <= 64 for p in cert.periods_found)
    assert all(is_power_of_two(r.period) for r in cert.plateau_orbits)
    assert not is_power_of_two(wit.period)
    assert verify_zero_certificate(path.map_at(t_lo), cert)
    assert verify_witness(path.map_at(t_hi), wit)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("C5 boundary locate (stunted m=1)",
           f"t*~{float(res.t_star):.10f}, gap=2^{math.log2(float(res.gap)):.0f}, "
           f"witness period {wit.period}, {elapsed:.1f}s")


def test_c6_boundary_locate_quadratic():
    t0 = time.time()
    res = locate_boundary(quadratic_path(-1.5, -1.3), bound=32, resolution=2e-6)
    est = feigenbaum_delta(QuadraticFamily(), 10)
    cs = est.params
    c_extrap = cs[-1] + (cs[-1] - cs[-2]) / (est.value - 1)
    agreement = abs(float(res.t_star) - c_extrap)
    assert agreement <= 1e-5
    elapsed = time.time() - t0
    report("C6 boundary locate (quadratic)",
           f"t*={float(res.t_star):.8f}, extrapolated={c_extrap:.8f}, "
           f"|diff|={agreement:.2e}, {elapsed:.1f}s")


def test_c7_psi_fidelity():
    base = build_base(1, 1)
    q = build_type_b([(2, -2.0)])      # the full quadratic 1 - 2x^2
    res = psi(q, base, 64)
    assert res.s[0] == F(1, 2)
    assert res.stunted.xi == (F(3, 2),)
    h_q = entropy_lap(q, 12).value
    h_T = entropy_markov(res.stunted).value
    assert abs(h_q - h_T) <= 5e-3
    assert shape(res.stunted) == shape(q)
    assert kneading(res.stunted, 32).nu == kneading(q, 32).nu
    report("C7 psi fidelity",
           f"s1=1/2 exact, |h(q)-h(psi q)|={abs(h_q - h_T):.2e}, depth-32 kneading equal")


def test_c8_renormalization_conjugacy():
    f = Quadratic(-1.0)
    ri = find_restrictive(f, 2)
    alpha = (1 - math.sqrt(5)) / 2
    assert abs(float(ri.interval.lo) - alpha) <= 1e-10
    assert abs(float(ri.interval.hi) + alpha) <= 1e-10
    R, _ = renormalize(f, ri)
    lo, hi = float(ri.interval.lo), float(ri.interval.hi)
    induced = FloatUnimodal(lambda x: f(f(x)), Interval(lo, hi), 0.0)
    rnd = random.Random(1)
    dom = R.domain
    scale = (dom.hi - dom.lo) / (hi - lo)
    matches = 0
    for _ in range(50):
        u = rnd.uniform(lo, hi)
        x = dom.lo + (u - lo) * scale
        matches += itinerary(R, x, 32).symbols == itinerary(induced, u, 32).symbols
    assert matches == 50
    report("C8 renormalization conjugacy",
           f"J=[(1-sqrt5)/2,(sqrt5-1)/2] to 1e-10, 50/50 depth-32 itineraries match")


def test_c9_cascade_structure():
    c5 = superstable_sequence(QuadraticFamily(), 5)[-1]
    trace = cascade_trace(Quadratic(c5), 10)
    assert trace.depth == 5
    assert all(l.relative_period == 2 for l in trace.levels)
    for a, b in zip(trace.levels, trace.levels[1:]):
        assert a.original.lo <= b.original.lo and b.original.hi <= a.original.hi
    report("C9 cascade structure", f"5 nested levels, all relative period 2")
