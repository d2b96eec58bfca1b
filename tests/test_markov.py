"""Cross-validation of the transition-graph period analysis against the
piece-based exact solver, plus spectral radius checks (numpy's dense
eigenvalues are the reference on branching graphs)."""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_edge import (BudgetExhausted, build_base, build_stunted, full_stunted,
                        period_set)
from chaos_edge.config import DEFAULT
from chaos_edge.entropy import spectral_radius
from chaos_edge.markov import build_markov, cycle_analysis
from chaos_edge.periods import is_power_of_two

from conftest import random_xi

F = Fraction


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
        analysis = cycle_analysis(system)
        if not analysis.complete:
            return
        bound = 8
        try:
            ps = period_set(T, bound, DEFAULT.with_(piece_budget=200_000))
        except BudgetExhausted:
            return
        graph_side = {p for p in analysis.periods if p <= ps.complete_upto}
        assert graph_side == set(p for p in ps.periods if p <= ps.complete_upto)

    def test_branching_yields_nonpow2(self, T32):
        system = build_markov(T32.pl, 1024)
        analysis = cycle_analysis(system)
        assert not analysis.complete
        assert analysis.witness_period is not None
        assert not is_power_of_two(analysis.witness_period)
        x = analysis.witness_orbit[0]
        y = x
        for _ in range(analysis.witness_period):
            y = T32.pl(y)
        assert y == x

    def test_simple_cycles_for_window_map(self, base1):
        T = build_stunted(base1, [F(1)])
        analysis = cycle_analysis(build_markov(T.pl, 1024))
        assert analysis.complete
        assert analysis.periods == frozenset({1, 2})


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
