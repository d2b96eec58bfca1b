import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import chaos_edge
import chaos_edge.cli as cli
from chaos_edge import RunConfig
from chaos_edge.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def _env_with_src():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(chaos_edge.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


TRAPEZOID = {"kind": "stunted", "m": 1, "epsilon": 1, "xi": ["3/2"]}
FIXED = {"kind": "stunted", "m": 1, "epsilon": 1, "xi": ["1/2"]}
QUADRATIC_PATH = {"family": "quadratic", "t_lo": -1.5, "t_hi": -1.3}
# one stage (2, a) on [-1, 1], affinely conjugate to x^2 + a
TYPE_B_PATH = {"family": "type_b", "stages": [[2, -1.0]], "stage_index": 0,
               "t_lo": -2.0, "t_hi": -1.0}
C_INF = -1.4011551890920506    # accumulation of the period-doubling cascade of x^2 + c
STUNTED_PATH = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"],
                "direction": ["1"], "t_lo": "1/2", "t_hi": "3/2"}
M2_DIAGONAL = {"family": "stunted", "m": 2, "epsilon": 1, "xi0": ["0", "0"],
               "direction": ["1", "1"], "t_lo": "1/2", "t_hi": "8/3"}


class TestEntropyCmd:
    def test_trapezoid(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "entropy", write(tmp_path, "t.json", TRAPEZOID))
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["markov"]["value"] - 0.6931471805599453) < 1e-10
        assert abs(rep["lap"]["value"] - 0.6931471805599453) < 1e-3

    def test_fixed_plateau_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "entropy", write(tmp_path, "t.json", FIXED))
        assert code == 0
        rep = json.loads(out)
        assert rep["markov"]["value"] == 0.0

    def test_malformed_json_exit2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "entropy", str(p))
        assert code == 2
        assert "line" in err

    def test_csv_series(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "entropy", write(tmp_path, "t.json", TRAPEZOID),
                               "--format", "csv", "--n-max", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "laps"]
        assert [r[1] for r in rows[1:]] == [str(2 ** k) for k in range(1, 9)]

    def test_past_markov_budget_exit4(self, tmp_path, capsys):
        # the breakpoint closure of this window map needs 12 points
        window = {"kind": "stunted", "m": 1, "epsilon": 1, "xi": ["637/512"]}
        code, _, err = run_cli(capsys, "entropy", write(tmp_path, "w.json", window),
                               "--budget", "10")
        assert code == 4
        assert "orbit_budget=10" in err

    def test_deterministic_output(self, tmp_path, capsys):
        p = write(tmp_path, "t.json", TRAPEZOID)
        _, out1, _ = run_cli(capsys, "entropy", p)
        _, out2, _ = run_cli(capsys, "entropy", p)
        assert out1 == out2


class TestPeriodsCmd:
    def test_spectrum(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "periods", write(tmp_path, "t.json", FIXED),
                               "--bound", "16")
        rep = json.loads(out)
        assert code == 0
        assert rep["periods"] == [1]
        assert rep["spectrum"] == "yes-up-to-bound"

    def test_witness(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "periods", write(tmp_path, "t.json", TRAPEZOID),
                               "--bound", "6")
        rep = json.loads(out)
        assert rep["spectrum"] == "no" and rep["spectrum_witness"] == 3

    def test_exact_set_is_complete_to_the_default_bound(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "periods", write(tmp_path, "t.json", TRAPEZOID))
        rep = json.loads(out)
        assert code == 0 and rep["periods"] == list(range(1, 65)) and rep["complete_upto"] == 64

    def test_csv_past_the_piece_budget_exit4(self, tmp_path, capsys):
        # the orbits of period 5 need more than 20 closed-walk steps: the
        # rows are not cut short, the command fails naming the budget
        code, out, err = run_cli(capsys, "periods", write(tmp_path, "t.json", TRAPEZOID),
                                 "--format", "csv", "--bound", "8", "--budget", "20")
        assert code == 4 and out == ""
        assert err == ("budget exhausted: closed-walk budget exceeded: more than "
                       "piece_budget=20 walk steps at period p=5\n")

    def test_past_the_orbit_budget_exit4(self, tmp_path, capsys):
        # the trapezoid's breakpoint closure is its 4 breakpoints, which a
        # budget of 3 does not hold
        code, out, err = run_cli(capsys, "periods", write(tmp_path, "t.json", TRAPEZOID),
                                 "--budget", "3")
        assert code == 4 and out == ""
        assert "orbit_budget=3" in err

    def test_newton_polish_stays_in_domain(self, capsys, monkeypatch):
        # a root at x = -0.99999999999996 once sent the polish's difference
        # quotient and its step below -1, where 12 iterates overflow
        desc = {"kind": "type_b", "stages": [[2, -1.050510476451462], [2, -1.209596068664475]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(desc)))
        code, out, _ = run_cli(capsys, "periods", "-", "--bound", "16")
        assert code == 0
        assert json.loads(out)["complete_upto"] == 16


    @pytest.mark.parametrize("stages", [[[4, -1.2]], [[2, -1.4], [2, -0.5]]])
    def test_runaway_end_sample_below_the_overflow(self, tmp_path, capsys, stages):
        # f(-1) rounds below -1, so the float orbit of the grid's end sample
        # -1.0 runs away; below the period where it overflows nothing changes
        path = write(tmp_path, "b.json", {"kind": "type_b", "stages": stages})
        code, out, _ = run_cli(capsys, "periods", path, "--bound", "4")
        assert code == 0 and json.loads(out) == {
            "bound": 4, "complete_upto": 4, "periods": [1, 2, 4], "spectrum": "yes-up-to-bound"}

    def test_runaway_end_sample(self, tmp_path, capsys):
        # at p = 21 x ** ell overflowed: exit 1 with an OverflowError traceback
        path = write(tmp_path, "b.json", {"kind": "type_b", "stages": [[2, -1.4], [2, -0.5]]})
        code, out, err = run_cli(capsys, "periods", path, "--bound", "21")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out) == {"bound": 21, "complete_upto": 21, "periods": [1, 2, 4],
                                   "spectrum": "yes-up-to-bound"}


class TestSymbolicCmds:
    def test_kneading(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "kneading", write(tmp_path, "t.json", TRAPEZOID),
                               "--depth", "6")
        rep = json.loads(out)
        assert rep["nu"] == ["100000"]

    def test_shape(self, tmp_path, capsys):
        desc = {"kind": "stunted", "m": 3, "epsilon": 1, "xi": ["2", "1", "3/2"]}
        code, out, _ = run_cli(capsys, "shape", write(tmp_path, "t.json", desc))
        rep = json.loads(out)
        assert rep["pairs"] == [[1, 3], [2, 1], [3, 2]]

    def test_psi(self, tmp_path, capsys):
        desc = {"kind": "type_b", "stages": [[2, -2.0]]}
        code, out, _ = run_cli(capsys, "psi", write(tmp_path, "t.json", desc),
                               "--depth", "32")
        rep = json.loads(out)
        assert rep["s"] == ["1/2"]
        assert rep["stunted"]["xi"] == ["3/2"]

    def test_psi_decreasing_quadratic_stdin(self, capsys, monkeypatch):
        # x^2 - 2 decreases on its first lap, so it projects onto epsilon = -1
        from chaos_edge import Quadratic, build_base, psi
        monkeypatch.setattr("sys.stdin", io.StringIO('{"kind":"quadratic","c":-2.0}'))
        code, out, _ = run_cli(capsys, "psi", "-")
        assert code == 0
        expected = psi(Quadratic(-2.0), build_base(1, -1))
        assert json.loads(out)["s"] == [str(s) for s in expected.s]

    def test_psi_plateau_kneading_exit3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FIXED)))
        code, out, err = run_cli(capsys, "psi", "-")
        assert code == 3 and out == ""
        assert "enters a plateau" in err


class TestRenormCmd:
    def test_restrictive(self, tmp_path, capsys):
        desc = {"kind": "quadratic", "c": -1.0}
        code, out, _ = run_cli(capsys, "renorm", write(tmp_path, "t.json", desc),
                               "--period", "2")
        rep = json.loads(out)
        assert rep["restrictive"] is not None
        assert abs(float(rep["restrictive"]["lo"]) + 0.6180339887) < 1e-8

    @pytest.mark.parametrize("desc", [TRAPEZOID, {"kind": "quadratic", "c": -2.0}],
                             ids=["trapezoid", "full-quadratic"])
    def test_no_restrictive_interval(self, tmp_path, capsys, desc):
        code, out, _ = run_cli(capsys, "renorm", write(tmp_path, "t.json", desc),
                               "--period", "2")
        assert code == 0
        assert out == '{"period": 2, "restrictive": null}\n'

    def test_cascade(self, tmp_path, capsys):
        desc = {"kind": "quadratic", "c": -1.3815474844320617}
        code, out, _ = run_cli(capsys, "renorm", write(tmp_path, "t.json", desc),
                               "--cascade", "8")
        rep = json.loads(out)
        assert rep["depth"] == 3

    def test_cascade_near_accumulation(self, tmp_path, capsys):
        desc = {"kind": "quadratic", "c": -1.401155}
        code, out, _ = run_cli(capsys, "renorm", write(tmp_path, "t.json", desc),
                               "--cascade", "8")
        rep = json.loads(out)
        assert code == 0
        assert rep["depth"] == 8 and rep["reason"] == "depth"
        assert [l["relative_period"] for l in rep["levels"]] == [2] * 8


class TestFeigenbaumCmd:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "feigenbaum", "--k-max", "6")
        rep = json.loads(out)
        assert abs(rep["value"] - 4.6692016) < 0.05

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "feigenbaum", "--k-max", "5", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "c_k", "delta_k"]
        assert len(rows) == 7

    def test_deep_k_max_stops_with_the_flag(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "feigenbaum", "--k-max", "30")
        assert time.perf_counter() - start < 2
        rep = json.loads(out)
        assert code == 0 and rep["precision_flag"]
        assert abs(rep["value"] - 4.6692016) < 1e-3


class TestBoundaryCmd:
    def test_stunted_path(self, tmp_path, capsys):
        desc = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"],
                "direction": ["1"], "t_lo": "1/2", "t_hi": "3/2"}
        code, out, _ = run_cli(capsys, "boundary", write(tmp_path, "p.json", desc),
                               "--resolution", "1/65536")
        rep = json.loads(out)
        assert code == 0
        assert rep["undecided_count"] == 0
        periods = rep["below"]["certificate"]["periods_found"]
        assert all(p & (p - 1) == 0 for p in periods)
        w = rep["above"]["witness"]["period"]
        assert w & (w - 1) != 0

    def test_quadratic_reads_only_resolution(self, tmp_path, capsys):
        # and so does every float path; the type-B probe at the neutral 2 -> 4
        # doubling a = -1.25, undecided by its attractor, is sided zero by its
        # kneading
        for desc, res, undecided in ((QUADRATIC_PATH, "1e-6", 0), (TYPE_B_PATH, "1e-4", 0)):
            path = write(tmp_path, "p.json", desc)
            code, out, _ = run_cli(capsys, "boundary", path, "--resolution", res)
            code2, out2, _ = run_cli(capsys, "boundary", path, "--resolution", res,
                                     "--bound", "3")
            assert code == code2 == 0
            assert json.loads(out)["undecided_count"] == undecided
            assert out2 == out

    def test_type_b_path_brackets_c_inf(self, tmp_path, capsys):
        # exited 4 while the type-B classifier left probes near c_inf undecided
        code, out, _ = run_cli(capsys, "boundary", write(tmp_path, "p.json", TYPE_B_PATH),
                               "--resolution", "0.01")
        assert code == 0
        lo, hi = sorted(float(t) for t in json.loads(out)["t_star_bracket"])
        assert lo <= C_INF <= hi and hi - lo <= 0.01

    def test_one_plateau_route_has_the_bisections_reach(self, tmp_path, capsys):
        # 2^-500 needs 500 halvings, past the bisection's 400 probes; the
        # doubling-limit cylinder could name that bracket, but the route
        # stops where the bisection stops, with the same error
        code, out, err = run_cli(capsys, "boundary", write(tmp_path, "p.json", STUNTED_PATH),
                                 "--resolution", f"1/{2**500}")
        assert code == 4 and out == ""
        assert err == ("budget exhausted: probe budget exhausted: max_probes=400 reached "
                       f"at width 1/{2**398}\n")

    def test_equal_endpoints_exit3(self, tmp_path, capsys):
        desc = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"],
                "direction": ["1"], "t_lo": "1/2", "t_hi": "3/4"}
        code, _, err = run_cli(capsys, "boundary", write(tmp_path, "p.json", desc))
        assert code == 3


class TestSweepCmd:
    def test_row_count_quadratic(self, tmp_path, capsys):
        desc = {"family": "quadratic", "t_lo": -2.0, "t_hi": 0.25}
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", "40")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 41  # header + grid

    def test_monotone_entropy_column_stunted(self, tmp_path, capsys):
        desc = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"],
                "direction": ["1"], "t_lo": "1/2", "t_hi": "3/2"}
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", "21")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        hs = [float(r[1]) for r in rows if r[1] != ""]
        assert len(hs) >= 15
        for a, b in zip(hs, hs[1:]):
            assert a <= b + 1e-9

    def test_type_b_attracting_period(self, tmp_path, capsys):
        # the column was empty on every type-B row; at a = -1.0 the one-stage
        # map attracts a 2-cycle, as the row's own orbit samples show
        desc = {"family": "type_b", "stages": [[2, -1.0]], "t_lo": -2.0, "t_hi": -1.0}
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", "5")
        rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
        assert code == 0
        assert rows["-1.75"][2] == "3" and rows["-1.0"][2] == "2"
        samples = [float(x) for x in rows["-1.0"][3].split(";")]
        assert samples[::2] == samples[:1] * 8 and samples[1::2] == samples[1:2] * 8

    def test_attracting_period_lists_attracting_cycles_only(self, tmp_path, capsys):
        # at c = -2 (a = -2) the critical orbit lands exactly on the
        # repelling fixed point, multiplier 4, whose period the column once
        # printed; c = 0.25 keeps its nearly neutral fixed point (0.99991)
        rows = {}
        for desc, grid in (({"family": "quadratic", "t_lo": -2.0, "t_hi": 0.25}, "4"),
                           (TYPE_B_PATH, "5")):
            code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                                   "--grid", grid)
            assert code == 0
            rows[desc["family"]] = {r[0]: r[2] for r in csv.reader(io.StringIO(out))}
        assert rows["quadratic"]["-2.0"] == ""
        assert rows["quadratic"]["-0.5"] == rows["quadratic"]["0.25"] == "1"
        assert rows["type_b"]["-2.0"] == ""
        assert rows["type_b"]["-1.0"] == "2"

    @pytest.mark.parametrize("desc, grid", [
        (M2_DIAGONAL, 27),                  # every row of the m = 2 diagonal path
        # its t = 5/4 row's first plateau orbit has preperiod 2
        (STUNTED_PATH, 5),
    ])
    def test_stunted_samples_are_the_closure_orbit(self, tmp_path, capsys, monkeypatch,
                                                   desc, grid):
        # the samples of a stunted row are read off its one breakpoint
        # closure, and match a plain walk of 528 lattice steps; the sweep
        # evaluates each lattice map once per closure point off its
        # breakpoints, nothing more
        import chaos_edge.piecewise as pw
        from chaos_edge.boundary import plateau_orbit_analysis
        from chaos_edge.markov import build_markov
        from chaos_edge.maps import turning_points_of
        path = cli._path_from(desc)
        ts = [path.t_lo + (path.t_hi - path.t_lo) * Fraction(k, grid - 1)
              for k in range(grid)]
        want, closure, preperiods = {}, 0, set()
        for t in ts:
            m = path.map_at(t)
            n, lat = m.lattice()
            y = pw.on_lattice(turning_points_of(m)[0], n)
            walk = []
            for _ in range(528):
                y = lat(y)
                walk.append(str(Fraction(y, n)))
            want[str(t)] = ";".join(walk[512:])
            system = build_markov(m, chaos_edge.DEFAULT.orbit_budget)
            closure += system.size + 1 - len(lat.xs)
            preperiods.add(plateau_orbit_analysis(m.lattice_values, system)[0][0].preperiod)
        assert max(preperiods) > 0
        honest, calls = pw.PiecewiseLinear.__call__, [0]

        def counted(self, x):
            calls[0] += 1
            return honest(self, x)

        monkeypatch.setattr(pw.PiecewiseLinear, "__call__", counted)
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", str(grid))
        assert code == 0
        assert {r[0]: r[3] for r in list(csv.reader(io.StringIO(out)))[1:]} == want
        assert calls[0] == closure

    def test_stunted_row_past_the_budget_is_empty(self, tmp_path, capsys):
        # a closure past orbit_budget gives no entropy, no plateau periods
        # and no samples; the rows that fit keep all three
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", M2_DIAGONAL),
                               "--grid", "5", "--budget", "8")
        rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(out))}
        assert code == 0
        assert rows["17/8"] == ["", "", ""]
        assert rows["8/3"][1] == "1" and rows["8/3"][2] == ";".join(["8/3"] * 16)

    def test_stunted_rows_are_the_map_route(self, tmp_path, capsys):
        # each row is built on the path's int lattice at k over grid - 1 and
        # shares the entropy of the row before when their transition graphs
        # are equal; the bytes are those of the map-built route: map_at(t),
        # build_markov, graph_entropy, str(Fraction(y, N)) per sample
        from chaos_edge.boundary import plateau_orbit_analysis
        from chaos_edge.entropy import graph_entropy
        from chaos_edge.errors import BudgetExhausted
        from chaos_edge.markov import build_markov

        def map_route(desc, grid, budget):
            path, out = cli._path_from(desc), io.StringIO()
            w = csv.writer(out)
            w.writerow(["t", "entropy", "attracting_period", "orbit_samples"])
            for k in range(grid):
                t = path.t_lo + (path.t_hi - path.t_lo) * Fraction(k, grid - 1)
                try:
                    m = path.map_at(t)
                except ValueError as exc:
                    w.writerow([str(t), "", "", f"error: {exc}"])
                    continue
                try:
                    system = build_markov(m, budget)
                except BudgetExhausted:
                    w.writerow([str(t), "", "", ""])
                    continue
                plateaus = plateau_orbit_analysis(m.lattice_values, system)
                r, points = plateaus[0]
                orbit = [points[j if j < r.preperiod
                                else r.preperiod + (j - r.preperiod) % r.period]
                         for j in cli.SAMPLE_STEPS]
                w.writerow([str(t), graph_entropy(system).value,
                            "/".join(str(p) for p in sorted({r.period for r, _ in plateaus})),
                            ";".join(str(Fraction(y, system.scale)) for y in orbit)])
            return out.getvalue()

        rnd, seen = random.Random(32), {"error": 0, "empty": 0, "reused": 0}
        paths = [STUNTED_PATH, M2_DIAGONAL,
                 {**STUNTED_PATH, "t_hi": "9"}]         # leaves the family past t = 3/2
        for m in (1, 2, 3):
            for eps in (1, -1):
                e = Fraction(m * (m + 2), m + 1)
                paths.append({"family": "stunted", "m": m, "epsilon": eps,
                              "xi0": [str(Fraction(rnd.randint(-8, 8), 8) * e / 2)
                                      for _ in range(m)],
                              "direction": [str(Fraction(rnd.randint(0, 6), rnd.choice((3, 5))))
                                            for _ in range(m)],
                              "t_lo": str(Fraction(rnd.randint(-4, 0), 7)),
                              "t_hi": str(Fraction(rnd.randint(3, 12), 7))})
        for desc in paths:
            for budget in (None, 12):     # closures here stay within 30 points
                grid = rnd.choice((21, 37))
                args = ["--grid", str(grid)] + (["--budget", str(budget)] if budget else [])
                code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc), *args)
                assert code == 0
                assert out == map_route(desc, grid, budget or chaos_edge.DEFAULT.orbit_budget), \
                    (desc, args)
                rows = list(csv.reader(io.StringIO(out)))[1:]
                seen["error"] += sum(r[3].startswith("error: ") for r in rows)
                seen["empty"] += sum(r[1:] == ["", "", ""] for r in rows)
                seen["reused"] += sum(a[1] == b[1] != "" for a, b in zip(rows, rows[1:]))
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("desc, grid, computed", [
        (STUNTED_PATH, 201, 23),
        (M2_DIAGONAL, 151, 33),
    ])
    def test_one_entropy_per_transition_graph(self, tmp_path, capsys, monkeypatch,
                                              desc, grid, computed):
        # consecutive rows with one transition graph share one entropy: the
        # README paths have 23 and 33 runs of equal graphs
        import chaos_edge.entropy as en
        honest, calls = en.graph_entropy, []
        monkeypatch.setattr(en, "graph_entropy", lambda system: calls.append(system.rows)
                            or honest(system))
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", str(grid))
        assert code == 0 and len(out.splitlines()) == grid + 1
        assert len(calls) == computed
        assert all(a != b for a, b in zip(calls, calls[1:]))

    def test_grid_of_one_rejected(self, tmp_path, capsys):
        desc = {"family": "quadratic", "t_lo": -2.0, "t_hi": 0.25}
        code, _, err = run_cli(capsys, "sweep", write(tmp_path, "p.json", desc),
                               "--grid", "1")
        assert code == 3


QUADRATIC_175 = {"kind": "quadratic", "c": -1.75}


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag, desc", [
    ("entropy", "--budget", TRAPEZOID),
    ("entropy", "--n-max", TRAPEZOID),
    ("kneading", "--depth", TRAPEZOID),
    ("periods", "--precision", QUADRATIC_175),
    ("periods", "--bound", TRAPEZOID),
    ("boundary", "--bound", STUNTED_PATH),
])
def test_non_positive_flag_exit2(tmp_path, command, flag, desc, value):
    # each once ended in a ValueError traceback (exit 1), and --precision 0
    # on a float map never returned: bisection to a width of 0 never ends;
    # --bound 0 on periods ran the default bound, and a negative --bound on
    # boundary printed an empty zero certificate with exit 0
    run = subprocess.run([sys.executable, "-m", "chaos_edge.cli", command,
                          write(tmp_path, "d.json", desc), flag, value],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "must be positive" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("args, message", [
    (["--resolution", "abc"], "invalid positive Fraction value: 'abc'"),
    (["--resolution", "1/0"], "invalid positive Fraction value: '1/0'"),
    (["--resolution", "0"], "must be positive, got 0"),
    (["--resolution=-1/2"], "must be positive, got -1/2"),
])
@pytest.mark.parametrize("desc", [STUNTED_PATH, QUADRATIC_PATH], ids=["stunted", "quadratic"])
def test_bad_resolution_exit2(tmp_path, desc, args, message):
    # abc and 1/0 ended in a ValueError or ZeroDivisionError traceback (exit
    # 1); 0 made 400 probes on the stunted path and exited 4, and on the
    # quadratic path it never returned
    run = subprocess.run([sys.executable, "-m", "chaos_edge.cli", "boundary",
                          write(tmp_path, "d.json", desc), *args],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert f"argument --resolution: {message}" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("desc, code, cause", [
    ({**STUNTED_PATH, "t_hi": "9"}, 3,
     "got zero/undecided; 9: parameter leaves the family: xi[0]=9 outside [-e, e]"),
    ({**M2_DIAGONAL, "xi0": ["0"]}, 2, "needs m = 2 heights and directions, got 1 and 2"),
    ({key: v for key, v in M2_DIAGONAL.items() if key != "direction"} | {"xi0": ["0"]}, 2,
     "needs m = 2 heights and directions, got 1 and 2"),
], ids=["end-leaves-the-family", "one-height", "one-height-default-direction"])
def test_malformed_stunted_path_named(tmp_path, desc, code, cause):
    # each ended in a ValueError traceback (exit 1): the end's map was made
    # outside the classifier, and the heights were zipped with the directions
    run = subprocess.run([sys.executable, "-m", "chaos_edge.cli", "boundary",
                          write(tmp_path, "d.json", desc)],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == code and run.stdout == ""
    assert cause in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("command", ["boundary", "sweep"])
@pytest.mark.parametrize("desc, cause", [
    ({**TYPE_B_PATH, "stage_index": 5}, "stage_index 5 is outside the path's 1 stages"),
    ({**TYPE_B_PATH, "stage_index": -3}, "stage_index -3 is outside the path's 1 stages"),
    ({**TYPE_B_PATH, "stages": [], "stage_index": -1}, "stage_index -1 is outside the path's 0 stages"),
    ({**QUADRATIC_PATH, "t_hi": math.inf}, "path ends must be finite, got -1.5 and inf"),
    ({**TYPE_B_PATH, "t_lo": -math.inf}, "path ends must be finite, got -inf and -1.0"),
], ids=["stage-index-5", "stage-index-minus-3", "no-stages", "quadratic-inf", "type-b-minus-inf"])
def test_malformed_float_path_named(tmp_path, command, desc, cause):
    # a stage index outside the stages ended in an IndexError traceback (exit
    # 1); an infinite end exited 3 in boundary, and sweep printed a row at
    # t = nan and exited 0
    run = subprocess.run([sys.executable, "-m", "chaos_edge.cli", command,
                          write(tmp_path, "d.json", desc)],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert cause in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("command", ["kneading", "periods", "entropy"])
def test_nan_quadratic_named(tmp_path, command):
    # c = NaN passed the invariant-interval check: kneading and periods ended
    # in a ValueError traceback (exit 1) and entropy printed a lap value of 0.0
    run = subprocess.run([sys.executable, "-m", "chaos_edge.cli", command,
                          write(tmp_path, "d.json", {"kind": "quadratic", "c": math.nan})],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert "no invariant interval for c=nan" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("x", [math.inf, -math.inf])
@pytest.mark.parametrize("command, desc", [
    ("kneading", lambda x: {"kind": "stunted", "m": 1, "xi": [x]}),
    ("boundary", lambda x: {**STUNTED_PATH, "t_hi": x}),
    ("sweep", lambda x: {**STUNTED_PATH, "t_hi": x}),
], ids=["kneading-height", "boundary-end", "sweep-end"])
def test_infinite_rational_named(tmp_path, capsys, command, desc, x):
    # JSON Infinity reached Fraction(inf) in maps.rat: an OverflowError
    # traceback, exit 1
    code, out, err = run_cli(capsys, command, write(tmp_path, "d.json", desc(x)))
    assert code == 2 and out == ""
    assert f"{x} is not a finite rational" in err and "Traceback" not in err


EXACT_ROUTE_SCRIPT = """
import contextlib, io, sys
from fractions import Fraction as F
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None          # every import of numpy now fails
import chaos_edge, chaos_edge.cli
path = chaos_edge.stunted_path(chaos_edge.build_base(1, 1), [F(0)], [F(1)], F(1, 2), F(3, 2))
chaos_edge.locate_boundary(path, bound=64, resolution=F(1, 2 ** 30))
trapezoid, path_file = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    for args in (["entropy", trapezoid], ["boundary", path_file, "--resolution", "1/1073741824"],
                 ["sweep", path_file, "--grid", "101"]):
        assert chaos_edge.cli.main(args) == 0, args
assert sys.modules.get("numpy", "absent") == ("absent" if sys.argv[1] == "free" else None)
"""


@pytest.mark.parametrize("numpy", ["free", "blocked"])
def test_exact_route_never_imports_numpy(tmp_path, numpy):
    # numpy is imported inside the float functions only: the stunted locate
    # and the README's stunted CLI lines neither load it nor need it
    path = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"], "direction": ["1"],
            "t_lo": "1/2", "t_hi": "3/2"}
    run = subprocess.run([sys.executable, "-c", EXACT_ROUTE_SCRIPT, numpy,
                          write(tmp_path, "trapezoid.json", TRAPEZOID),
                          write(tmp_path, "path.json", path)],
                         env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_every_config_field_is_read():
    # a RunConfig field that no code reads is a knob that does nothing; a
    # RunConfig method the program calls reads its fields for it
    src = Path(chaos_edge.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    for name, fn in vars(RunConfig).items():
        if (inspect.isfunction(fn) and not name.startswith("__")
                and re.search(rf"\.{name}\(", text)):
            text += inspect.getsource(fn)
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


SUBCOMMAND_OPTIONS = {
    "entropy": {"--n-max", "--format", "--precision", "--budget"},
    "periods": {"--bound", "--format", "--precision", "--budget"},
    "kneading": {"--depth"},
    "shape": set(),
    "psi": {"--depth"},
    "renorm": {"--period", "--cascade", "--precision", "--budget"},
    "feigenbaum": {"--k-max", "--format"},
    "boundary": {"--resolution", "--bound", "--budget"},
    "sweep": {"--grid", "--with-entropy", "--n-max", "--precision", "--budget"},
}
ALL_OPTIONS = set().union(*SUBCOMMAND_OPTIONS.values())


def _subparsers(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(subparser):
    return {s for a in subparser._actions for s in a.option_strings} - {"-h", "--help"}


def test_subcommands_accept_only_the_options_they_read(capsys):
    subs = _subparsers(cli.build_parser())
    assert {name: _options(p) for name, p in subs.items()} == SUBCOMMAND_OPTIONS
    for name in subs:
        positional = [] if name == "feigenbaum" else ["d.json"]
        for flag in sorted(ALL_OPTIONS - SUBCOMMAND_OPTIONS[name]):
            with pytest.raises(SystemExit) as exc:
                main([name, *positional, flag, "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# per subcommand: a cheap invocation on which every option it accepts takes
# effect, and a value for each option
READ_CHECK_ARGS = {
    "entropy": (QUADRATIC_175, ["--n-max", "8"]),
    "periods": (QUADRATIC_175, ["--bound", "3"]),
    "kneading": (TRAPEZOID, []),
    "shape": (TRAPEZOID, []),
    "psi": ({"kind": "quadratic", "c": -2.0}, []),
    "renorm": ({"kind": "quadratic", "c": -1.0}, []),
    "feigenbaum": (None, ["--k-max", "5"]),
    "boundary": ({"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"], "direction": ["1"],
                  "t_lo": "1/2", "t_hi": "3/2"}, ["--resolution", "1/64"]),
    "sweep": ({"family": "quadratic", "t_lo": -1.0, "t_hi": -0.9},
              ["--grid", "2", "--with-entropy", "--n-max", "8"]),
}
READ_CHECK_VALUES = {"--n-max": "9", "--format": "csv", "--precision": "1e-11",
                     "--budget": "300000", "--bound": "4", "--depth": "8", "--period": "2",
                     "--cascade": "2", "--k-max": "6", "--resolution": "1/128", "--grid": "3"}


class _ReadArgs(argparse.Namespace):
    """A Namespace that logs each attribute read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_log").append(name)
        return object.__getattribute__(self, name)


class _ReadConfig:
    """A RunConfig stand-in that records which fields were read."""

    def __init__(self, cfg):
        self._cfg, self.reads = cfg, set()

    def __getattr__(self, name):
        attr = getattr(RunConfig, name, None)
        if callable(attr):
            return attr.__get__(self)     # a method reads its fields through the stand-in
        self.reads.add(name)
        return getattr(self._cfg, name)

    def changed_and_read(self):
        return {name for name in self.reads
                if getattr(self._cfg, name) != getattr(RunConfig(), name)}


def _unread_options(parser, tmp_path, monkeypatch):
    """[(subcommand, option)] for each option that a subcommand accepts but
    does not read when it is passed: the parsed value is never read, or it
    only goes into a RunConfig none of whose changed fields is read."""
    unread = []
    configs = []                    # (options _config_from read, the config it made)
    real_config_from = cli._config_from

    def config_from(args):
        start = len(args._log)
        cfg = _ReadConfig(real_config_from(args))
        configs.append((set(args._log[start:]), cfg))
        return cfg

    monkeypatch.setattr(cli, "_config_from", config_from)
    with contextlib.redirect_stdout(io.StringIO()):
        for name, sub in _subparsers(parser).items():
            desc, base = READ_CHECK_ARGS[name]
            positional = [] if desc is None else [write(tmp_path, "d.json", desc)]
            for action in sub._actions:
                if not action.option_strings or action.dest == "help":
                    continue
                flag = action.option_strings[0]
                value = [] if action.nargs == 0 else [READ_CHECK_VALUES.get(flag, "1")]
                args = _ReadArgs(_log=[])
                parser.parse_args([name, *positional, *base, flag, *value], namespace=args)
                args._log.clear()
                configs.clear()
                getattr(cli, f"cmd_{name}")(args)
                via_config = [cfg for dests, cfg in configs if action.dest in dests]
                if action.dest not in args._log or (
                        via_config and not any(cfg.changed_and_read() for cfg in via_config)):
                    unread.append((name, flag))
    return unread


def test_every_option_is_read(tmp_path, monkeypatch):
    # an option that a subcommand accepts and ignores is a knob that does
    # nothing; passing each one must reach the code that uses it
    assert _unread_options(cli.build_parser(), tmp_path, monkeypatch) == []


def test_an_unread_option_is_caught(tmp_path, monkeypatch):
    parser = cli.build_parser()
    _subparsers(parser)["kneading"].add_argument("--unused", type=int, default=None)
    assert _unread_options(parser, tmp_path, monkeypatch) == [("kneading", "--unused")]


def test_config_has_three_fields():
    # the two resolutions are class constants: nothing sets them
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "precision", "piece_budget", "orbit_budget"]
    assert RunConfig().resolution_float == 1e-9
    assert RunConfig(piece_budget=2000).piece_budget == 2000


def test_config_rejects_non_positive_precision():
    for bad in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError, match="precision must be positive"):
            RunConfig(precision=bad)
