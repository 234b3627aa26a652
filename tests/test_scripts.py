"""Smoke tests of the example scripts: each runs to completion on a small
input, writes only under its working or output directory, and prints or
writes output that parses."""

from __future__ import annotations

import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import cfdiamond

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
NUMBER = r"[-+]?\d+\.\d+"


def run_script(name: str, cwd: pathlib.Path, *args: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfdiamond.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_modadd_capacity_scan(tmp_path):
    out = run_script("modadd_capacity_scan.py", tmp_path, "--points", "2",
                     "--grid-resolution", "6", "--out-dir", str(tmp_path))
    (path,) = tmp_path.glob("modadd_scan_*.csv")
    assert f"wrote {path}" in out
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= float(row["capacity"]) <= 1.0
        assert float(row["capacity"]) >= float(row["best_deterministic"]) - 1e-9


def test_bec_slope_sweep(tmp_path):
    out = run_script("bec_slope_sweep.py", tmp_path, "--out-dir", str(tmp_path))
    assert out.startswith("verdict: ")
    (csv_path,) = tmp_path.glob("bec_sweep_*.csv")
    report = json.loads(csv_path.with_suffix(".json").read_text())
    assert report["verdict"]["verdict"] == "INFINITE_SLOPE_CERTIFIED"
    points = list(csv.reader(csv_path.open()))[1:]
    assert len(points) == len(report["curve"]["points"]) > 0
    kappa = re.search(rf"kappa=({NUMBER})", out)
    assert float(kappa.group(1)) == float(f"{report['curve']['kappa']:.6g}") > 0.0


def test_diamond3_transfer(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("c_cf,c_sum\n0.0,1.5\n0.001,1.6\n0.01,1.65\n")
    out = run_script("diamond3_transfer.py", tmp_path, "--grid-resolution", "8",
                     "--curve", str(curve))
    c_sum0 = re.search(rf"sum-capacity: ({NUMBER}) bits", out)
    bound = re.search(rf"upper bound: ({NUMBER}) bits", out)
    assert float(c_sum0.group(1)) == 1.5
    assert float(bound.group(1)) == 0.75
    assert len(re.findall(rf"c_cf=\S+\s+lower_bound={NUMBER}\s+quotient={NUMBER}", out)) == 3
    assert not (tmp_path / "results").exists()
