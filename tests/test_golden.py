"""Golden outputs: ``cli.main`` stdout on the README descriptors, byte for byte.

The files under ``tests/data`` hold the stdout of an earlier version of the
program, from before the exact core moved to lattice coordinates.  JSON keys
are sorted and no report has a timing field, so equal inputs must give equal
bytes.

The three stunted ``boundary`` goldens at 2^-60 (the m = 2 and m = 3
diagonal paths and the epsilon = -1, m = 1 path) were written before the
interior probes of an exact locate were built in ints, and pin their
bisection, probe count included.

The three m = 1 ``boundary`` goldens (the default resolution, 2^-30, and
the epsilon = -1 path at 2^-60) were rewritten when a one-plateau locate
began to read its bracket off the doubling-limit cylinder: only
``probes`` changed (42, 32 and 62 to 4); every other byte is the
bisection's.

The two float ``boundary`` goldens (the quadratic path and the one-stage
type-B path) were written before the float orbit kernels were rewritten and
pin their output bit for bit.  They assume IEEE doubles and the Linux libm
``pow``: a type-B step computes ``x ** ell`` with ``pow``, whose last bit
other libms may round differently.

The README's library tour is run too, statement by statement, and a few of
the values its comments state are checked.
"""

import ast
import json
import math
from pathlib import Path

import pytest

from chaos_edge import piecewise
from chaos_edge.cli import main

DATA = Path(__file__).parent / "data"

PATH = {"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"], "direction": ["1"],
        "t_lo": "1/2", "t_hi": "3/2"}
M2_DIAGONAL = {"family": "stunted", "m": 2, "epsilon": 1, "xi0": ["0", "0"],
               "direction": ["1", "1"], "t_lo": "1/2", "t_hi": "8/3"}
M3_DIAGONAL = {"family": "stunted", "m": 3, "epsilon": 1, "xi0": ["0", "0", "0"],
               "direction": ["1", "1", "1"], "t_lo": "1/2", "t_hi": "15/4"}
M1_EPS_MINUS = {"family": "stunted", "m": 1, "epsilon": -1, "xi0": ["0"], "direction": ["1"],
                "t_lo": "1/2", "t_hi": "3/2"}
RES_2_60 = ("--resolution", "1/1152921504606846976")
QUADRATIC_PATH = {"family": "quadratic", "t_lo": -1.5, "t_hi": -1.3}
TYPE_B_PATH = {"family": "type_b", "stages": [[2, -1.5]], "t_lo": -2, "t_hi": -1}
TRAPEZOID = {"kind": "stunted", "m": 1, "epsilon": 1, "xi": ["3/2"]}
FULL_M2 = {"kind": "stunted", "m": 2, "epsilon": 1, "xi": ["8/3", "8/3"]}


def stdout_of(tmp_path, capsys, descriptor, *args):
    p = tmp_path / "descriptor.json"
    p.write_text(json.dumps(descriptor))
    code = main([args[0], str(p), *args[1:]])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("golden, descriptor, args", [
    ("boundary_m1_res_default.json", PATH, ("boundary",)),
    ("boundary_m1_res2pow-30.json", PATH, ("boundary", "--resolution", "1/1073741824")),
    ("sweep_m1_grid101.csv", PATH, ("sweep", "--grid", "101")),
    ("entropy_trapezoid.csv", TRAPEZOID, ("entropy", "--format", "csv")),
    ("boundary_quadratic_res1e-7.json", QUADRATIC_PATH, ("boundary", "--resolution", "1e-7")),
    ("boundary_type_b_res0.05.json", TYPE_B_PATH, ("boundary", "--resolution", "0.05")),
    ("boundary_m2_diagonal_res2pow-60.json", M2_DIAGONAL, ("boundary", *RES_2_60)),
    ("boundary_m3_diagonal_res2pow-60.json", M3_DIAGONAL, ("boundary", *RES_2_60)),
    ("boundary_m1_eps-1_res2pow-60.json", M1_EPS_MINUS, ("boundary", *RES_2_60)),
])
def test_stdout_bytes(tmp_path, capsys, golden, descriptor, args):
    # read as bytes: the CSV rows end in \r\n, which read_text would change
    expected = (DATA / golden).read_bytes().decode()
    assert stdout_of(tmp_path, capsys, descriptor, *args) == expected


def test_periods_csv_builds_each_level_once(tmp_path, capsys, monkeypatch):
    # the CSV rows of an exact map are its closed walks, read off the
    # breakpoint closure: no level of pieces is built
    def off(*args):
        raise AssertionError("the piece engine was used")

    monkeypatch.setattr(piecewise, "advance_pieces", off)
    monkeypatch.setattr(piecewise, "pieces_on", off)
    out = stdout_of(tmp_path, capsys, FULL_M2, "periods", "--format", "csv", "--bound", "7")
    assert out == (DATA / "periods_full_m2_bound7.csv").read_bytes().decode()


def library_tour():
    """{source: value} of each expression statement of the README's library
    tour, run in order in one namespace."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_library_tour():
    values = library_tour()
    assert values["ce.entropy_markov(T).value"] == math.log(2)
    assert abs(values["ce.entropy_lap(T, 14).value"] - math.log(2)) < 1e-3
    assert values["ce.kneading(T, 8).as_strings()"] == ["10000000"]
    witness = values["ce.classify_stunted(T, 64).witness"]
    assert witness.period == 3 and len(witness.orbit) == 3
    assert values["qres.zero_side[1].period"] == 16384
    assert values["ce.classify_float(ce.build_type_b([(2, -1.40625)])).kind"] == "positive"
    assert abs(values["ce.superstable_sequence(fam, 2)[-1]"] + 1.3107026) < 1e-7
    assert abs(values["ce.feigenbaum_delta(fam, 10).value"] - 4.66920) < 1e-5
    assert values["ce.feigenbaum_delta(fam, 30).precision_flag"] is True
    cascade = "ce.cascade_trace(ce.Quadratic(ce.superstable_sequence(fam, 5)[-1]), 10).depth"
    assert values[cascade] == 5
