"""Cross-validation of the transition-graph period analysis against the
``Fraction`` piece engine of ``conftest``, of the lattice-coordinate partition against a
plain ``Fraction`` closure, plus spectral radius checks (numpy's dense
eigenvalues are the reference on branching graphs)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (BudgetExhausted, MarkovBudgetError, build_base, build_stunted,
                        full_stunted, period_set)
from chaos_edge.boundary import plateau_orbit_analysis
from chaos_edge.config import DEFAULT
from chaos_edge.entropy import Witness, _radius_bracket, verify_witness
from chaos_edge.markov import _components, branches, build_markov, cycle_analysis, cyclic_components
from chaos_edge.periods import is_power_of_two
from chaos_edge.piecewise import PiecewiseLinear

from conftest import ZERO_SIDE_2_60, oracle_period_set, random_xi

F = Fraction


def branching(system) -> bool:
    """Whether a component of the transition graph branches: the period
    structure is then not enumerated, and a witness is spliced instead."""
    return any(branches(succ) for _, succ in system.components)


def spectral_radius(rows, size: int) -> float:
    """The midpoint of the spectral-radius bracket that the Markov entropy
    reads, over the cyclic components of a 0/1 matrix of column ranges."""
    lo, hi = _radius_bracket(cyclic_components(rows, size))
    return (lo + hi) / 2


class TestCycleAnalysis:
    @given(data=st.data(), m=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_complete_enumeration_matches_piece_solver(self, data, m):
        rnd = random.Random(data.draw(st.integers(0, 10**6)))
        b = build_base(m, 1)
        T = build_stunted(b, random_xi(rnd, b, 4))
        try:
            system = build_markov(T.pl, 4096)
        except BudgetExhausted:
            return
        if branching(system):
            return
        analysis = cycle_analysis(system)
        # the reference is the Fraction piece engine: period_set reads the
        # same closure as cycle_analysis
        periods, complete, _ = oracle_period_set(T, 8, 200_000)
        assert {p for p in analysis.periods if p <= complete} == set(periods)

    def test_branching_yields_nonpow2(self, T32):
        system = build_markov(T32.pl, 1024)
        analysis = cycle_analysis(system)
        assert branching(system)
        period = len(analysis.witness_orbit)
        assert not is_power_of_two(period)
        x = analysis.witness_orbit[0]
        y = x
        for _ in range(period):
            y = T32.pl(y)
        assert y == x

    def test_simple_cycles_for_window_map(self, base1):
        T = build_stunted(base1, [F(1)])
        system = build_markov(T.pl, 1024)
        assert not branching(system)
        assert cycle_analysis(system).periods == frozenset({1, 2})


def reachable(rows, size):
    """Per state, the set of states its walks reach, itself included."""
    out = []
    for v in range(size):
        seen, todo = {v}, [v]
        while todo:
            for w in range(*rows[todo.pop()]):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        out.append(seen)
    return out


def random_rows(rnd, size):
    """Interval rows [a, b) over size states, a quarter of them empty."""
    rows = []
    for _ in range(size):
        a = rnd.randrange(size)
        rows.append((0, 0) if rnd.random() < 0.25
                    else (a, rnd.randint(a + 1, min(size, a + rnd.choice((1, 2, 4, size))))))
    return rows


class TestComponents:
    def test_components_match_a_reachability_oracle(self):
        rnd = random.Random(29)
        for _ in range(400):
            size = rnd.randint(1, 30)
            rows = random_rows(rnd, size)
            comps = _components(rows, size)
            reach = reachable(rows, size)
            assert sorted(v for c in comps for v in c) == list(range(size))
            assert {frozenset(c) for c in comps} == {
                frozenset(w for w in reach[v] if v in reach[w]) for v in range(size)}
            # reverse topological order: every edge stays in its component or
            # leads to an earlier one
            where = {v: i for i, c in enumerate(comps) for v in c}
            assert all(where[w] <= where[v] for v in range(size) for w in range(*rows[v]))
            internal = [c for c in comps
                        if any(where[w] == where[v] for v in c for w in range(*rows[v]))]
            assert [scc for scc, _ in cyclic_components(rows, size)] == internal


def fraction_partition(pl, budget):
    """The breakpoint closure, rows and functional graph of ``pl``, walked
    in plain ``Fraction``s; None past ``budget`` points."""
    points = set(pl.xs)
    frontier = list(points)
    while frontier:
        frontier = [y for y in {pl(x) for x in frontier} if y not in points]
        points.update(frontier)
        if len(points) > budget:
            return None
    pts = sorted(points)
    index = {x: i for i, x in enumerate(pts)}
    rows = []
    for a, b in zip(pts, pts[1:]):
        fa, fb = pl(a), pl(b)
        rows.append((0, 0) if fa == fb else (index[min(fa, fb)], index[max(fa, fb)]))
    return pts, rows, [index[pl(x)] for x in pts]


def fraction_plateau_records(T, budget):
    """(preperiod, period, distinct orbit points) of each plateau value's
    orbit under ``T.pl``."""
    out = []
    for v in T.plateau_values:
        seen, y = {}, v
        while y not in seen and len(seen) <= budget:
            seen[y] = len(seen)
            y = T.pl(y)
        out.append((seen[y], len(seen) - seen[y], tuple(seen)) if y in seen else None)
    return out


class TestLattice:
    def maps(self):
        rnd = random.Random(4242)
        out = [build_stunted(build_base(m, 1), [ZERO_SIDE_2_60[m]] * m) for m in (1, 2)]
        for _ in range(200):
            b = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
            out.append(build_stunted(b, random_xi(rnd, b, 2 ** rnd.randint(3, 40))))
        return out

    def test_partition_matches_fraction_closure(self):
        budget = DEFAULT.orbit_budget
        checked = 0
        for T in self.maps():
            ref = fraction_partition(T.pl, budget)
            if ref is None:
                with pytest.raises(MarkovBudgetError):
                    build_markov(T.pl, budget)
                continue
            pts, rows, nxt = ref
            system = build_markov(T.pl, budget)
            assert all(type(x) is int for x in system.points)
            assert [F(x, system.scale) for x in system.points] == pts, T.xi
            assert list(system.rows) == rows
            assert list(system.next_point) == nxt
            checked += 1
        assert checked >= 190

    def test_plateau_orbits_match_fraction_loop(self):
        # the records are read off the breakpoint closure, so they exist
        # exactly where the closure fits in the budget; at 64 points some
        # maps do not fit, at the default all do
        outcomes = set()
        for budget in (64, DEFAULT.orbit_budget):
            for T in self.maps():
                fits = fraction_partition(T.pl, budget) is not None
                outcomes.add(fits)
                if not fits:
                    with pytest.raises(MarkovBudgetError):
                        build_markov(T, budget)
                    continue
                system = build_markov(T, budget)
                recs = plateau_orbit_analysis(T.lattice_values, system)
                assert [(r.preperiod, r.period, tuple(F(y, system.scale) for y in orbit))
                        for r, orbit in recs] == fraction_plateau_records(T, budget), T.xi
        assert outcomes == {True, False}

    def test_non_integer_slope(self):
        # slopes 3/2, -3 and -1: the partition leaves the lattice, and every
        # result stays exact through the same code
        pl = PiecewiseLinear([F(0), F(1, 2), F(3, 4), F(1)],
                             [F(1, 4), F(1), F(1, 4), F(0)])
        system = build_markov(pl, 100)
        assert system.pl.slopes[0] == F(3, 2)
        pts, rows, nxt = fraction_partition(pl, 100)
        assert [F(x, system.scale) for x in system.points] == pts
        assert list(system.rows) == rows and list(system.next_point) == nxt
        orbit = cycle_analysis(system).witness_orbit
        assert branching(system)
        w = Witness("periodic-orbit", len(orbit), orbit)
        assert verify_witness(pl, w)
        assert period_set(pl, 8).periods == frozenset(range(1, 9))


class TestSpectralRadius:
    def test_full_shift(self):
        rows = [(0, 2), (0, 2)]
        assert abs(spectral_radius(rows, 2) - 2.0) < 1e-12

    def test_permutation(self):
        rows = [(1, 2), (0, 1)]
        assert abs(spectral_radius(rows, 2) - 1.0) < 1e-10

    def test_golden(self):
        rows = [(0, 2), (0, 1)]
        assert abs(spectral_radius(rows, 2) - (1 + 5 ** 0.5) / 2) < 1e-10

    def test_zero_rows(self):
        assert spectral_radius([(0, 0), (0, 0)], 2) == 0.0

    def test_chain_of_simple_cycles_is_exactly_one(self):
        # ten 2-cycles, each with one edge into the one before: every
        # component is a simple cycle, and the matrix is defective (Jordan
        # blocks of size 10 for +1 and -1), where dense eigenvalues are off
        # by about eps^(1/10)
        n = 20
        rows = []
        for i in range(0, n, 2):
            rows.append((i + 1, i + 2))           # i -> i+1
            rows.append((max(i - 1, 0), i + 1))   # i+1 -> i, and on to i-1
        assert spectral_radius(rows, n) == 1.0

    def test_bracket_flat_for_one_step(self):
        # a branching component of a stunted m = 3 map: from v = 1 the first
        # two Collatz-Wielandt brackets are both [1, 2]
        rows = [(3, 5), (5, 6), (4, 6), (2, 4), (0, 2), (0, 1)]
        dense = np.zeros((6, 6))
        for i, (a, b) in enumerate(rows):
            dense[i, a:b] = 1
        ref = np.max(np.abs(np.linalg.eigvals(dense)))
        assert abs(spectral_radius(rows, 6) - ref) <= 1e-12

    def test_branching_graphs_match_dense(self):
        rnd = random.Random(19)
        maps = [full_stunted(build_base(m, 1)) for m in (1, 2, 3)]
        for _ in range(60):
            b = build_base(rnd.randint(1, 3), rnd.choice((1, -1)))
            maps.append(build_stunted(b, random_xi(rnd, b, rnd.choice((8, 16, 2**20)))))
        checked = 0
        for T in maps:
            try:
                system = build_markov(T.pl, 4096)
            except BudgetExhausted:
                continue
            rho = spectral_radius(system.rows, system.size)
            if rho <= 1.0:
                continue
            dense = np.zeros((system.size, system.size))
            for i, (a, b) in enumerate(system.rows):
                dense[i, a:b] = 1
            ref = np.max(np.abs(np.linalg.eigvals(dense)))
            assert abs(math.log(rho) - math.log(ref)) <= 1e-12
            checked += 1
        assert checked >= 15

    def test_large_reducible(self):
        # two golden blocks chained by transients, against dense eigenvalues
        n = 20
        rows = []
        for i in range(n):
            if i < n - 1:
                rows.append((i, i + 2 if i % 3 else i + 1))
            else:
                rows.append((i, i + 1))
        rho = spectral_radius(rows, n)
        dense = np.zeros((n, n))
        for i, (a, b) in enumerate(rows):
            dense[i, a:b] = 1
        assert abs(rho - np.max(np.abs(np.linalg.eigvals(dense)))) < 1e-8
