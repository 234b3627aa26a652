"""Pinned outputs and memory bounds of the two capacity searches.

``capacity_golden.json`` holds outputs recorded from the earlier scalar
evaluations: ``mac_sum_capacity_indep`` calling a per-point mutual
information in a Python double loop, and ``modadd_capacity`` rebuilding its
offset grid and running three entropy passes per refinement move. Batching
the evaluations must leave every search step, hence every output, as it was.
``reference_modadd_capacity`` keeps the search that refines one start at a
time on row-major pmfs, with its own row-major entropy; the search that
walks every start through its own windows, on letters-first arrays, must
match it bit for bit.
"""

from __future__ import annotations

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from cfdiamond import diamond3, zoo
from cfdiamond.diamond3 import MacSpec, mac_sum_capacity_indep
from cfdiamond.probcore import Alphabet, CondKernel, entropy_letters_first
from cfdiamond.zoo import CapacitySearchResult, ModAddParams, modadd_capacity

GOLDEN = json.loads((pathlib.Path(__file__).parent / "capacity_golden.json").read_text())


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropies in bits along the last axis, entries <= 1e-12 as zeros."""
    terms = np.where(p > 1e-12, p, 1.0)
    return -(p * np.log2(terms)).sum(axis=-1)


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


def reference_modadd_capacity(params: ModAddParams, grid_resolution: int,
                              v_size: int = 3, refine_steps: int = 8) -> CapacitySearchResult:
    """The search refining one start at a time, each move on a filtered grid.

    Every pair gets all three entropies; offsets leaving the simplex are
    dropped from the move's grid before scoring. Pmfs are rows (letters on
    the last axis), scored 64 first rows at a time to bound memory.
    """
    p, delta, c0 = params.p, params.delta, params.c0
    pz = np.array([1.0 - p, p])
    pw = np.array([1.0 - delta, delta])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    p_yr = p_zyr.sum(axis=0)
    mix = np.vstack([p_yr, p_zyr])[:, :, None, None, None]

    def batch_eval(c0s, h0, c1s, h1):
        out = []
        for lo in range(0, c0s.shape[0], 64):
            stacked = (mix[:, 0] * c0s[None, lo:lo + 64, None, :]
                       + mix[:, 1] * c1s[None, None, :, :])
            hv, hz0, hz1 = entropy_rows(stacked)
            info = hv - (p_yr[0] * h0[lo:lo + 64, None] + p_yr[1] * h1[None, :])
            obj = 1.0 - (hz0 + hz1 - hv)
            out.append(np.where(info <= c0 + 1e-9, obj, -np.inf))
        return np.vstack(out)

    rows = zoo._simplex_grid(v_size, grid_resolution)
    h_rows = entropy_rows(rows)
    m = rows.shape[0]
    candidates = []
    group = max(1, zoo._RANKED_PAIRS // m)
    for start in range(0, m, group):
        stop = min(m, start + group)
        flat = batch_eval(rows[start:stop], h_rows[start:stop], rows, h_rows).ravel()
        top = np.argpartition(flat, -min(24, flat.size))[-min(24, flat.size):]
        for f in top:
            i, j = divmod(int(f), m)
            if np.isfinite(flat[f]):
                candidates.append((float(flat[f]), start + i, j))
    candidates.sort(reverse=True)

    ticks = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    unit = np.stack(np.meshgrid(*([ticks] * (v_size - 1)), indexing="ij"), axis=-1)
    unit = unit.reshape(-1, v_size - 1)
    windows = [1.0 / grid_resolution / 2.0 ** k for k in range(refine_steps)]

    def refine(row0, row1, val):
        current = [row0, row1]
        steps = []
        for window in windows:
            head = unit * window
            offs = np.hstack([head, -head.sum(axis=1, keepdims=True)])
            for _ in range(40):
                c0s = current[0][None, :] + offs
                c1s = current[1][None, :] + offs
                c0s = c0s[(c0s >= -1e-15).all(axis=1)]
                c1s = c1s[(c1s >= -1e-15).all(axis=1)]
                np.clip(c0s, 0.0, 1.0, out=c0s)
                np.clip(c1s, 0.0, 1.0, out=c1s)
                obj = batch_eval(c0s, entropy_rows(c0s), c1s, entropy_rows(c1s))
                i, j = divmod(int(np.argmax(obj)), c1s.shape[0])
                if obj[i, j] > val + 1e-15:
                    val = float(obj[i, j])
                    current = [c0s[i], c1s[j]]
                else:
                    break
            steps.append((f"refine/{window / 2.0:.3e}", val))
        return val, current, steps

    best_val, best_rows, best_steps = -np.inf, None, []
    for val0, i, j in candidates[:24]:
        val, current, steps = refine(rows[i], rows[j], val0)
        if val > best_val:
            best_val, best_rows, best_steps = val, current, steps
    trace = [(f"grid/{grid_resolution}", candidates[0][0])] + best_steps
    return CapacitySearchResult(best_val, np.vstack(best_rows), tuple(trace))


def _oracle_cases():
    rng = np.random.default_rng(20)
    cases = []
    for n in range(30):
        p, delta = rng.uniform(0.01, 0.49, size=2)
        c0 = rng.uniform(0.0, 0.6)
        cases.append((float(p), float(delta), float(c0), (7, 10, 20)[n % 3]))
    # c0 = 0: every kernel with two equal rows scores the same, so many
    # pairs tie; at resolution 53 the scan ranks two groups of rows
    cases += [(0.11, 0.2, 0.0, r) for r in (7, 10, 20, 33, 53)]
    # starts that spend all 40 moves of a window, so the window ends at the
    # move budget rather than at a move that does not improve
    cases += [(0.0456, 0.1562, 0.6555, 20), (0.1094, 0.0505, 0.541, 20)]
    # some starts' best scoring candidate pairs take a letter below 0 and
    # clip back onto the simplex, so only the refinement's off-simplex mask
    # keeps them out; without it, the third search ends at
    # 0x1.cfec0d958a638p-2 instead of 0x1.cfec0d958a63cp-2
    cases += [(0.036, 0.25, 0.744, 7), (0.22, 0.498, 0.858, 5),
              (0.2945085979772056, 0.1466803576004299, 0.8860299564440467, 6)]
    return cases


# the ids end in the search's |V| and window count, as when both were
# arguments, so a case keeps its name across those versions
@pytest.mark.parametrize("p, delta, c0, resolution", [
    pytest.param(*case, id="-".join(map(str, (*case, zoo._V_SIZE, zoo._N_WINDOWS))))
    for case in _oracle_cases()])
def test_modadd_capacity_matches_one_start_at_a_time(p, delta, c0, resolution):
    params = ModAddParams(p, delta, c0)
    want = reference_modadd_capacity(params, resolution)
    got = modadd_capacity(params, resolution)
    assert got.value == want.value
    assert got.kernel.tobytes() == want.kernel.tobytes()
    assert got.trace == want.trace


@pytest.mark.parametrize("entries", [20_000, 1_000])
def test_modadd_capacity_chunking_leaves_output_unchanged(monkeypatch, entries):
    # the resolution-10 scan has 66 rows: 20,000 entries score 33 first rows
    # per batch (two batches), 1,000 entries one (66 batches)
    monkeypatch.setattr(zoo, "_SCAN_ENTRIES", entries)
    for p, delta, c0 in [(0.1, 0.1, 0.3), (0.11, 0.2, 0.0), (0.27, 0.08, 0.12)]:
        params = ModAddParams(p, delta, c0)
        want = reference_modadd_capacity(params, 10)
        got = modadd_capacity(params, 10)
        assert (got.value, got.kernel.tobytes(), got.trace) == (
            want.value, want.kernel.tobytes(), want.trace)


def test_modadd_capacity_memory_no_higher_than_unbatched():
    params = ModAddParams(0.1, 0.1, 0.3)
    # scoring all three entropies of every pair in the scan peaked at 5.59 MB
    assert peak_bytes(lambda: modadd_capacity(params, 20)) < 6.0e6


@pytest.mark.parametrize("kwargs, name", [({"grid_resolution": 1}, "grid resolution")])
def test_modadd_capacity_rejects_bad_search_sizes(kwargs, name):
    with pytest.raises(ValueError, match=name):
        modadd_capacity(ModAddParams(0.1, 0.1, 0.3), **{"grid_resolution": 7, **kwargs})


def test_refinement_tables_are_built_once_and_read_only():
    params = ModAddParams(0.1, 0.1, 0.3)
    first = modadd_capacity(params, 7)
    moves = zoo._refine_moves(7)
    assert zoo._refine_moves(7) is moves
    assert not any(t.flags.writeable for t in moves[1])
    again = modadd_capacity(params, 7)
    assert (again.value, again.kernel.tobytes(), again.trace) == \
        (first.value, first.kernel.tobytes(), first.trace)


def test_pair_scores_reject_off_simplex_pairs_even_when_best():
    # Pair 0 is on the simplex. Pair 1 is a clipped refinement candidate:
    # its offsets took a letter of each row below 0, so both rows sum to
    # 1.125. Unnormalised, it passes I(Yr;V) <= c0 and outscores pair 0.
    # The refinement marks such rows with a NaN entropy, which scores -inf.
    pz, pw = np.array([0.9, 0.1]), np.array([0.8, 0.2])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    mix = np.vstack([p_zyr.sum(axis=0), p_zyr])
    raw_a = np.array([[0.5, 0.25, 0.25], [1.0, 0.125, -0.125]])
    raw_b = np.array([[0.25, 0.5, 0.25], [-0.125, 1.0, 0.125]])
    a, b = np.clip(raw_a, 0.0, 1.0), np.clip(raw_b, 0.0, 1.0)
    tables = zoo._entropy_term_tables(mix, a, b)
    idx = np.arange(6).reshape(2, 3).T  # letter v of pair k is table entry 3 k + v
    ha, hb = entropy_letters_first(a.T), entropy_letters_first(b.T)
    unmasked = zoo._pair_scores(mix, 1.0, tables, idx, ha, hb)
    assert np.isfinite(unmasked).all() and unmasked[1] > unmasked[0]
    off = np.array([False, True])
    masked = zoo._pair_scores(mix, 1.0, tables, idx,
                              np.where(off, np.nan, ha), np.where(off, np.nan, hb))
    assert masked[0] == unmasked[0]
    assert masked[1] == -np.inf
