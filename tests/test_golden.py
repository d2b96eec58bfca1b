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
"""

import json
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
