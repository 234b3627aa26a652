"""Pinned outputs and memory bounds of the two capacity searches.

``capacity_golden.json`` holds outputs recorded from the earlier scalar
evaluations: ``mac_sum_capacity_indep`` calling a per-point mutual
information in a Python double loop, and ``modadd_capacity`` rebuilding its
offset grid and running three entropy passes per refinement move. Batching
the evaluations must leave every search step, hence every output, as it was.
"""

from __future__ import annotations

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from cfdiamond import diamond3
from cfdiamond.diamond3 import MacSpec, mac_sum_capacity_indep
from cfdiamond.probcore import Alphabet, CondKernel, entropy_rows
from cfdiamond.zoo import ModAddParams, modadd_capacity

GOLDEN = json.loads((pathlib.Path(__file__).parent / "capacity_golden.json").read_text())


def mac_from_rows(rows) -> MacSpec:
    rows = np.asarray(rows, dtype=float)
    x0, x1 = Alphabet("x0", 2), Alphabet("x1", 2)
    return MacSpec(x0, x1, CondKernel((x0, x1), (Alphabet("y_w", rows.shape[1]),), rows))


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs (warmed up once first)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", GOLDEN["modadd"],
                         ids=lambda c: f"p{c['p']}-d{c['delta']}-c{c['c0']}-r{c['resolution']}")
def test_modadd_capacity_matches_recorded(case):
    res = modadd_capacity(ModAddParams(case["p"], case["delta"], case["c0"]), case["resolution"])
    assert res.value == pytest.approx(case["value"], abs=1e-12)
    np.testing.assert_allclose(res.kernel, case["kernel"], rtol=0.0, atol=1e-12)
    assert [s for s, _ in res.trace] == [s for s, _ in case["trace"]]
    np.testing.assert_allclose([v for _, v in res.trace], [v for _, v in case["trace"]],
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", GOLDEN["mac"], ids=lambda c: c["name"])
def test_mac_capacity_matches_recorded(case):
    mac = mac_from_rows(case["rows"])
    for resolution, value in case["values"].items():
        assert mac_sum_capacity_indep(mac, int(resolution)) == pytest.approx(value, abs=1e-12)


def _oracle_mi(rows: np.ndarray, a: float, b: float) -> float:
    """I(X0,X1;Y) for Ber(a) x Ber(b) inputs, one point, plain Python."""
    px = [(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b]

    def h(p) -> float:
        return -sum(x * math.log2(x) for x in p if x > 1e-12)

    py = [sum(px[i] * rows[i][y] for i in range(4)) for y in range(len(rows[0]))]
    return h(py) - sum(px[i] * h(rows[i]) for i in range(4))


@pytest.mark.parametrize("case", GOLDEN["mac"], ids=lambda c: c["name"])
def test_mac_grid_scan_matches_scalar_double_loop(case):
    rows = np.asarray(case["rows"], dtype=float)
    grid = np.linspace(0.0, 1.0, 17)
    best, best_ab = -np.inf, None
    oracle = np.empty((grid.size, grid.size))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            oracle[i, j] = _oracle_mi(rows.tolist(), float(a), float(b))
            if oracle[i, j] > best:
                best, best_ab = oracle[i, j], (i, j)
    batched = diamond3._indep_mi(rows, entropy_rows(rows), grid[None, :], grid[:, None])
    np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=1e-12)
    assert np.unravel_index(np.argmax(batched), batched.shape) == best_ab
    assert mac_sum_capacity_indep(mac_from_rows(rows), 16) >= best - 1e-12


def test_mac_capacity_memory_bounded_at_high_resolution():
    adder = next(c for c in GOLDEN["mac"] if c["name"] == "adder")
    mac = mac_from_rows(adder["rows"])
    value = []
    peak = peak_bytes(lambda: value.append(mac_sum_capacity_indep(mac, 1000)))
    # the full 1001 x 1001 grid would need 32 MB for its input pmfs alone
    assert peak < 16e6
    assert value[-1] == pytest.approx(1.5, abs=1e-9)


def test_modadd_capacity_memory_no_higher_than_unbatched():
    params = ModAddParams(0.1, 0.1, 0.3)
    # the unbatched scan over all 231 x 231 row pairs peaked at 9.14 MB
    assert peak_bytes(lambda: modadd_capacity(params, 20)) < 9.1e6
