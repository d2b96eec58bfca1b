"""The scripts under ``scripts/``, run in this process as ``python script args``
would run them."""

import csv
import io
import json
import runpy
import sys
from fractions import Fraction
from pathlib import Path

from chaos_edge.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(capsys, monkeypatch, name, *args):
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr()
    return out.out, out.err


def test_feigenbaum_table(capsys, monkeypatch):
    out, err = run_script(capsys, monkeypatch, "feigenbaum_table.py", "8")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "c_k", "delta_k"]
    assert [int(r[0]) for r in rows[1:]] == list(range(9))
    assert err.startswith("# delta estimate: 4.66")


def test_locate_boundary_m1(capsys, monkeypatch):
    out, _ = run_script(capsys, monkeypatch, "locate_boundary_m1.py")
    report = json.loads(out)
    assert report["reverified"] == {"zero_side": True, "positive_side": True}
    assert Fraction(report["gap"]) <= Fraction(1, 2 ** 30)


def test_sweep_script_is_the_cli_sweep(tmp_path, capsys, monkeypatch):
    # the script builds each map and takes its Markov entropy; the CLI sweep
    # reads rows off the path's lattice, one entropy per transition graph
    out, _ = run_script(capsys, monkeypatch, "sweep_entropy_m1.py", "21")
    script_rows = list(csv.reader(io.StringIO(out)))
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"family": "stunted", "m": 1, "epsilon": 1, "xi0": ["0"],
                                "direction": ["1"], "t_lo": "1/2", "t_hi": "3/2"}))
    assert main(["sweep", str(path), "--grid", "21"]) == 0
    cli_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(script_rows) == 22
    assert script_rows == [r[:2] for r in cli_rows]
