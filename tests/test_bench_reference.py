"""The benchmark's seed-0 ``capacity`` workload reproduces ``bench/reference.json``.

A benchmark run at the reference seed fails when an op's value drifts from
the recorded one by more than ``VALUE_TOL``. Running every distinct op of
that workload once here, with its own output check, shows such a drift in
the test suite, before a benchmark run does.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_capacity_workload_matches_bench_reference():
    workloads = load_workloads()
    reference = json.loads((BENCH / "reference.json").read_text())["capacity"]
    wl = workloads.build_capacity(workloads.REFERENCE_SEED)
    values, failures = {}, []
    try:
        for op in wl.ops():
            if op.label in values:
                continue
            out = op.run()
            reason = op.check(out)
            value = values[op.label] = op.ref(out)
            if reason is None and not abs(value - reference[op.label]) <= workloads.VALUE_TOL:
                reason = f"{value!r} differs from the reference {reference[op.label]!r}"
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
    finally:
        wl.cleanup()
    assert values.keys() == reference.keys()
    assert not failures
