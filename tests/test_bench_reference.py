"""The benchmark's seed-0 ``certify``, ``capacity``, ``sweep`` and ``cli``
workloads reproduce ``bench/reference.json``.

A benchmark run at the reference seed fails when an op's value drifts from
the recorded one by more than ``VALUE_TOL``. Running every distinct op of
those workloads once here, with its own output check, shows such a drift in
the test suite, before a benchmark run does.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def same(value, want, tol: float) -> bool:
    """Equal values, with numbers (or arrays of them) within ``tol``; the CLI
    ops' values are dicts of numbers and verdict strings."""
    if isinstance(value, dict) and isinstance(want, dict):
        return value.keys() == want.keys() and all(same(value[k], want[k], tol) for k in value)
    if isinstance(value, (dict, str)) or isinstance(want, (dict, str)):
        return value == want
    return np.allclose(value, want, rtol=0.0, atol=tol)


def run_against_reference(name: str, root: str = "") -> None:
    """Run each distinct op of the seed-0 workload once, with its own check,
    and compare every value that has a recorded reference at ``VALUE_TOL``.
    ``root`` is where the workload writes its input files."""
    workloads = load_workloads()
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    wl = workloads.build(name, workloads.REFERENCE_SEED, root)
    values, failures = {}, []
    try:
        for op in wl.ops():  # ``build`` makes every label distinct
            out = op.run()
            reason = op.check(out)
            value = values[op.label] = op.ref(out)
            want = reference.get(op.label)
            if reason is None and want is not None and not same(value, want,
                                                                workloads.VALUE_TOL):
                reason = f"{value!r} differs from the reference {want!r}"
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
    finally:
        wl.cleanup()
    assert values.keys() == reference.keys()
    assert not failures


def test_certify_workload_matches_bench_reference():
    run_against_reference("certify")


def test_capacity_workload_matches_bench_reference():
    run_against_reference("capacity")


def test_sweep_workload_matches_bench_reference():
    run_against_reference("sweep")


def test_cli_workload_matches_bench_reference(tmp_path, monkeypatch):
    # each op is a cold ``python -m cfdiamond.cli`` process, which imports
    # the package from this checkout
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    run_against_reference("cli", str(tmp_path))
