"""Reference channel constructions and desk-scale optimizers.

Two relay channels with known closed-form structure:

- Modulo-additive channel: binary X with y1 = x XOR z and yr = z XOR w,
  where z ~ Ber(p) and w ~ Ber(delta) are independent. Its no-cooperation
  capacity is max over compression channels p(v | yr) with I(Yr;V) <= c0
  of 1 - H(Z|V); ``modadd_capacity`` searches that maximum by simplex grid
  plus local refinement and is a converging lower bound.

- Erasure pair: X binary, both broadcast components independent binary
  erasure channels with erasure probability p. With trivial U, uniform X,
  and a compression channel that re-erases surviving symbols with
  probability q, the no-cooperation rate has the closed form

      min{ (1-p)(1+p(1-q)),
           1-p - H((1-p)(1-q)) + (1-p) H(q) + c0 }

  which ``bec_rate`` evaluates and ``bec_best_q`` maximizes over q.
  ``bec_lambda_infeasibility`` runs the two-branch ratio test deciding
  whether an exponential-alignment witness exists for this family.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import config
from .probcore import (Alphabet, CondKernel, FiniteDist, SchemaError, binary_entropy,
                       entropy_letters_first, entropy_terms)
from .relaynet import U, V, X, Y1, YR, CodingDist, RelayNetSpec


def _check_unit(**values: float) -> None:
    """Each named probability must lie in [0, 1], checked in order."""
    for name, val in values.items():
        if not 0.0 <= val <= 1.0:
            raise SchemaError(f"{name} must lie in [0, 1], got {val}")


def _check_c0(c0: float) -> None:
    if not (np.isfinite(c0) and c0 >= 0.0):
        raise SchemaError(f"c0 must be a nonnegative real, got {c0}")


@dataclass(frozen=True)
class ModAddParams:
    """Crossovers of the two noise bits and the relay pipe capacity."""

    p: float
    delta: float
    c0: float

    def __post_init__(self) -> None:
        _check_unit(p=self.p, delta=self.delta)
        _check_c0(self.c0)


# ---------------------------------------------------------------------------
# Modulo-additive channel
# ---------------------------------------------------------------------------


def make_modadd(params: ModAddParams, c_cf: float = 0.0) -> RelayNetSpec:
    """Network spec for the modulo-additive channel, by exact enumeration."""
    x_a = Alphabet(X, 2, ("0", "1"))
    y1_a = Alphabet(Y1, 2, ("0", "1"))
    yr_a = Alphabet(YR, 2, ("0", "1"))
    pz = (1.0 - params.p, params.p)
    pw = (1.0 - params.delta, params.delta)
    rows = np.zeros((2, 4))
    for x, z, w in itertools.product(range(2), repeat=3):
        y1 = x ^ z
        yr = z ^ w
        rows[x, yr * 2 + y1] += pz[z] * pw[w]
    return RelayNetSpec(x_a, y1_a, yr_a,
                        CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=params.c0, c_cf=c_cf)


def modadd_coding_dist(kernel: np.ndarray) -> CodingDist:
    """Markov coding distribution: trivial U, uniform X, v rows per yr.

    ``kernel`` has shape (2, |V|), one pmf row per relay output letter.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != 2:
        raise SchemaError(f"kernel must have shape (2, |V|), got {kernel.shape}")
    v_size = kernel.shape[1]
    u_a = Alphabet(U, 1)
    x_a = Alphabet(X, 2, ("0", "1"))
    y1_a = Alphabet(Y1, 2, ("0", "1"))
    yr_a = Alphabet(YR, 2, ("0", "1"))
    v_a = Alphabet(V, v_size)
    ux = FiniteDist((u_a, x_a), np.full((1, 2), 0.5))
    tensor = np.broadcast_to(kernel.reshape(1, 1, 1, 2, v_size), (1, 2, 2, 2, v_size))
    vk = CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(8, v_size))
    return CodingDist(ux, vk, markov_form=True)


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All pmfs over ``dim`` letters with entries that are multiples of 1/resolution."""
    out = []
    for cuts in itertools.combinations(range(resolution + dim - 1), dim - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + dim - 2 - prev)
        out.append(parts)
    return np.asarray(out, dtype=float) / resolution


@dataclass(frozen=True, eq=False)
class CapacitySearchResult:
    """Best value found, its argument, and the convergence trace.

    The value is a lower bound on the true maximum; the trace pairs each
    search stage (grid resolution, then halved refinement steps) with a
    value so convergence is visible. The ``grid/R`` entry is the best grid
    pair's value, but the ``refine/...`` entries follow the start that wins
    in the end, which may start lower, so they can fall below ``grid/R``.
    """

    value: float
    kernel: np.ndarray
    trace: tuple[tuple[str, float], ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {"value": self.value,
                "kernel": [row.tolist() for row in self.kernel],
                "trace": [{"stage": s, "value": v} for s, v in self.trace]}


#: Grid-scan constants of ``modadd_capacity``. The scan ranks row pairs in
#: groups of ``_RANKED_PAIRS // m`` first rows (of m grid rows), and the
#: grouping decides which of equally good pairs seed the refinement. It
#: scores a group in batches of at most ``_SCAN_ENTRIES // (3 |V|)`` row
#: pairs, which bounds its memory at any resolution.
_RANKED_PAIRS = 2_000_000
_SCAN_ENTRIES = 1 << 18
#: Letters of V (for binary Yr, three suffice), refinement starts, halved
#: windows per start, and improving moves a start may make per window.
_V_SIZE = 3
_N_STARTS = 24
_N_WINDOWS = 8
_MOVE_BUDGET = 40


def _entropy_term_tables(mix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened p log2 p tables of the mixes behind H(V), H(Z=0, V), H(Z=1, V).

    ``mix`` holds the rows p(yr), p(z=0, yr) and p(z=1, yr). ``a`` and ``b``
    broadcast to one shape and hold letter values of the rows
    p(v | yr=0) and p(v | yr=1); row t of the result holds the terms of
    mix[t, 0] a + mix[t, 1] b, flattened.
    """
    p = np.empty((3, *np.broadcast_shapes(np.shape(a), np.shape(b))))
    for t in range(3):
        np.multiply(a, mix[t, 0], out=p[t])
        p[t] += mix[t, 1] * b
    return entropy_terms(p).reshape(3, -1)


def _scores(mix: np.ndarray, c0: float, term_sum: Callable[[int], np.ndarray],
            ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Objective 1 - H(Z|V) of row pairs (a, b), -inf where infeasible.

    ``mix`` is as in ``_entropy_term_tables``, and ``term_sum(t)`` returns a
    new array holding, for every pair, the p log2 p terms of mix t added
    over the letters in letter order, as ``entropy_letters_first`` adds
    them: each entropy is kept as its term sum s = -H. Negation is exact,
    so s_V + m >= -(c0 + 1e-9) and 1 - (s_V - s_ZV) round as
    H(V) - m <= c0 + 1e-9 and 1 - (H(Z,V) - H(V)), where m mixes the rows'
    entropies ``ha`` and ``hb`` by p(yr); they broadcast to the scores'
    shape. A pair is feasible when I(Yr;V) <= c0 up to a 1e-9 slack and
    neither row entropy is NaN (the refinement's mark of a row off the
    simplex).
    """
    s_v = term_sum(0)
    m = mix[0, 0] * ha + mix[0, 1] * hb
    m += s_v
    feasible = m >= -(c0 + 1e-9)
    # +inf where feasible, -inf elsewhere, so a minimum masks without branches
    cap = m
    cap[...] = feasible
    cap -= 0.5
    cap *= np.inf
    s_zv = term_sum(1)
    s_zv += term_sum(2)
    np.subtract(s_v, s_zv, out=s_zv)
    np.subtract(1.0, s_zv, out=s_zv)
    return np.minimum(s_zv, cap, out=s_zv)


def _pair_scores(mix: np.ndarray, c0: float, tables: np.ndarray, idx: np.ndarray,
                 ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """``_scores`` of pairs whose terms are gathered by index.

    ``tables[t]`` holds the terms of mix t along its first axis, and
    ``idx[v]`` holds each pair's index of letter v on that axis; further
    table axes (one per refinement start) are carried along, after the
    pairs' axes.
    """
    buf = np.empty(idx.shape[1:] + tables.shape[2:])

    def term_sum(t: int) -> np.ndarray:
        # every index is in range; "wrap" only skips the slower default check
        acc = np.take(tables[t], idx[0], axis=0, mode="wrap")
        for iv in idx[1:]:
            acc += np.take(tables[t], iv, axis=0, mode="wrap", out=buf)
        return acc

    return _scores(mix, c0, term_sum, ha, hb)


def _grid_term_sum(tables: np.ndarray, a: np.ndarray, b: np.ndarray) -> Callable[[int], np.ndarray]:
    """``term_sum`` of ``_scores`` for the pairs (i, j) whose letter v is
    entry (a[v, i], b[v, j]) of each 2-D table ``tables[t]``.

    A letter's terms are gathered in two steps, the rows' entries and then
    each pair's, which beats gathering by a flat index per pair.
    """
    buf = np.empty((a.shape[1], b.shape[1]))

    def term_sum(t: int) -> np.ndarray:
        acc = np.take(tables[t, a[0]], b[0], axis=1)
        for av, bv in zip(a[1:], b[1:]):
            acc += np.take(tables[t, av], bv, axis=1, out=buf)
        return acc

    return term_sum


@functools.lru_cache(maxsize=8)
def _scan_grid(grid_resolution: int, tol_supp: float):
    """Grid rows of ``modadd_capacity``'s scan, letters first, with their
    entropies and level indices, as read-only arrays built once.

    Every grid entry is one of the levels k / R, bitwise, and
    ``level_idx[v, i]`` is the k of letter v of row i. ``tol_supp`` keys the
    cache, since the entropies read it.
    """
    rows = _simplex_grid(_V_SIZE, grid_resolution).T.copy()
    grid = (rows, entropy_letters_first(rows), np.rint(rows * grid_resolution).astype(np.intp))
    for table in grid:
        table.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=8)
def _refine_moves(grid_resolution: int):
    """Windows, offsets and index tables of ``modadd_capacity``'s refinement,
    built once per resolution as read-only arrays.

    Offset o moves letter d < |V| - 1 of a row by one of five ticks times
    the window and the last letter by minus their sum. Letter v of a
    candidate row is the current letter plus one of that letter's distinct
    offsets, its slots, and letter v of a candidate pair is one of the slot
    pairs of letter v, its table entries; slots and entries of every letter
    are listed end to end. Per window, on the last axis: the offsets
    ``offs`` (|V|, offsets, windows) and the slots' offsets ``slot_offs``
    (slots, windows). For every window and any number of starts:
    ``slot_letter`` (each slot's letter), ``slot_of[v, o]`` (the slot of
    letter v of offset o), ``entries`` (2, entries; both rows' slots per
    entry) and ``pair_entries[v, o0, o1]`` (the entry of letter v of the
    offset pair (o0, o1)).
    """
    ticks = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    unit = np.stack(np.meshgrid(ticks, ticks, indexing="ij")).reshape(2, -1)  # letters 0, 1
    windows = tuple(1.0 / grid_resolution / 2.0 ** k for k in range(_N_WINDOWS))
    offs = np.empty((_V_SIZE, unit.shape[1], len(windows)))
    for w, window in enumerate(windows):
        head = unit * window
        offs[:, :, w] = np.vstack([head, -head.sum(axis=0)])
    # offsets count as distinct when they differ in some window
    slot_offs, slot_letter, slot_of, entries, pair_entries = [], [], [], [], []
    n_slots = n_entries = 0
    for v in range(_V_SIZE):
        _, first, inv = np.unique(offs[v], axis=0, return_index=True, return_inverse=True)
        inv, n = inv.ravel(), first.size
        slot_offs.append(offs[v, first])
        slot_letter += [v] * n
        slot_of.append(n_slots + inv)
        entries += [(n_slots + a, n_slots + b) for a in range(n) for b in range(n)]
        pair_entries.append(n_entries + inv[:, None] * n + inv)
        n_slots += n
        n_entries += n * n
    tables = (offs, np.vstack(slot_offs), np.array(slot_letter), np.stack(slot_of),
              np.array(entries).T, np.stack(pair_entries))
    for table in tables:
        table.setflags(write=False)
    return windows, tables


def _refine(mix: np.ndarray, c0: float, current: np.ndarray, vals: np.ndarray,
            moves: tuple) -> np.ndarray:
    """Move every start through its windows; return its value after each.

    ``current[:, :, s]`` holds the rows (2, |V|) of start s and ``vals[s]``
    its value; both are updated in place. ``moves`` is ``_refine_moves``'s
    result for the search's resolution. Each start takes the first best
    pair of its move's grid in row-major order, and ends a window at its
    first move that does not improve, or after ``_MOVE_BUDGET`` moves that
    do. A pass moves every start that has windows left, each in its own
    window, so no start waits at a window boundary for the others.

    A pass tabulates, per start, the p log2 p terms of the rows' letters
    over their slots, giving the candidate rows' entropies, and those of
    H(V) and both H(Z, V) over the slot pairs. One ``_pair_scores`` call
    then scores every offset pair of every start, at most 24 x 25 x 25
    pairs; the starts are on the last axis, so one index table serves any
    number of them. A row off the simplex gets a NaN entropy, so its pairs
    score -inf. The centre offset (the current pair) is always on the
    simplex and feasible.
    """
    windows, (offs, slot_offs, slot_letter, slot_of, entries, pair_entries) = moves
    n_starts = current.shape[2]
    window_vals = np.empty((n_starts, len(windows)))
    win = np.zeros(n_starts, dtype=np.intp)  # each start's window
    used = np.zeros(n_starts, dtype=np.intp)  # its improving moves in that window
    active = np.arange(n_starts)
    while active.size:
        cur = current[:, :, active]
        w = win[active]
        slots = cur[:, slot_letter] + slot_offs[:, w]
        off_simplex = slots < -1e-15
        np.clip(slots, 0.0, 1.0, out=slots)
        terms = entropy_terms(slots)
        np.copyto(terms, np.nan, where=off_simplex)
        # candidate rows' entropies (2, offsets, starts), letters added in order
        h = np.take(terms, slot_of[0], axis=1)
        for sv in slot_of[1:]:
            h += np.take(terms, sv, axis=1)
        np.negative(h, out=h)
        # entries x starts, flattened, so the mixing runs as whole-array passes
        tables = _entropy_term_tables(mix, slots[0, entries[0]].ravel(),
                                      slots[1, entries[1]].ravel())
        obj = _pair_scores(mix, c0, tables.reshape(3, -1, active.size), pair_entries,
                           h[0, :, None], h[1, None])
        # each start's first best pair in row-major order
        obj = obj.reshape(-1, active.size).T
        first = obj.argmax(axis=1)
        best = obj[np.arange(active.size), first]
        better = best > vals[active] + 1e-15
        moved = np.flatnonzero(better)
        s_moved = active[moved]
        vals[s_moved] = best[moved]
        pair = np.array(np.divmod(first[moved], offs.shape[1]))
        rows = cur[:, :, moved] + offs[:, pair, w[moved]].swapaxes(0, 1)
        current[:, :, s_moved] = np.clip(rows, 0.0, 1.0, out=rows)
        used[s_moved] += 1
        ended = active[~better | (used[active] == _MOVE_BUDGET)]
        window_vals[ended, win[ended]] = vals[ended]
        win[ended] += 1
        used[ended] = 0
        active = active[win[active] < len(windows)]
    return window_vals


def modadd_capacity(params: ModAddParams, grid_resolution: int) -> CapacitySearchResult:
    """Search max 1 - H(Z|V) over p(v | yr) subject to I(Yr;V) <= c0.

    Global simplex-grid scan at ``grid_resolution`` followed by local
    joint-grid refinement with window halving from the best grid pairs.
    Points violating the information constraint (beyond a 1e-9 slack) are
    discarded, not penalized. V has three letters, which suffice for
    binary Yr; the result is reported as a lower bound.

    Each entropy of a row pair is a sum over letters of p log2 p, where p
    mixes letter v of both rows, and a letter takes few distinct values
    across many pairs: the R + 1 levels k / R in the grid scan, and the
    current letter plus one of that letter's distinct offsets in a
    refinement move. So the scan, and each move, first tabulates the terms
    of H(V) and of both H(Z, V) over those values, then scores every pair
    by adding its letters' terms in letter order; infeasible pairs score
    -inf. The grid pmfs are stored letters first, shape (|V|, ...). The 24
    best grid pairs each refine through eight halving windows of their own
    (``_refine``). The grid, the offsets and their index tables are built
    once per resolution.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    p, delta, c0 = params.p, params.delta, params.c0
    pz = np.array([1.0 - p, p])
    pw = np.array([1.0 - delta, delta])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    mix = np.vstack([p_zyr.sum(axis=0), p_zyr])

    rows, h_rows, level_idx = _scan_grid(grid_resolution, config.CONFIG.tol_supp)
    m = rows.shape[1]
    levels = np.arange(grid_resolution + 1) / grid_resolution
    # letter v of the pair of grid rows (i, j) is entry
    # (level_idx[v, i], level_idx[v, j]) of a levels x levels table
    tables = _entropy_term_tables(mix, levels[:, None], levels)
    tables = tables.reshape(3, levels.size, levels.size)
    candidates: list[tuple[float, int, int]] = []
    group = max(1, _RANKED_PAIRS // m)
    batch = max(1, _SCAN_ENTRIES // (3 * m * _V_SIZE))
    for start in range(0, m, group):
        stop = min(m, start + group)
        obj = np.empty((stop - start, m))
        for lo in range(start, stop, batch):
            hi = min(stop, lo + batch)
            obj[lo - start:hi - start] = _scores(
                mix, c0, _grid_term_sum(tables, level_idx[:, lo:hi], level_idx),
                h_rows[lo:hi, None], h_rows)
        flat = obj.ravel()
        top = np.argpartition(flat, -min(_N_STARTS, flat.size))[-min(_N_STARTS, flat.size):]
        for f in top:
            i, j = divmod(int(f), m)
            if np.isfinite(flat[f]):
                candidates.append((float(flat[f]), start + i, j))
    if not candidates:
        raise SchemaError("no feasible kernel on the grid; increase the resolution")
    candidates.sort(reverse=True)
    grid_best = candidates[0][0]

    # Local refinement: a joint grid over tangent offsets of both rows at
    # half the current window, window halving per step. Moving the rows
    # together lets the search slide along the I(Yr;V) = c0 boundary, where
    # per-row exchanges stall. Multi-start from the top grid pairs escapes
    # shallow basins of the coarse grid.
    starts = candidates[:_N_STARTS]
    vals = np.array([val for val, _, _ in starts])
    current = np.stack([rows[:, [i for _, i, _ in starts]], rows[:, [j for _, _, j in starts]]])
    moves = _refine_moves(grid_resolution)
    window_vals = _refine(mix, c0, current, vals, moves)

    best_start = int(np.argmax(vals))  # the first best, as a strict > over the starts
    trace = [(f"grid/{grid_resolution}", grid_best)]
    trace += [(f"refine/{window / 2.0:.3e}", float(v))
              for window, v in zip(moves[0], window_vals[best_start])]
    return CapacitySearchResult(float(vals[best_start]), current[:, :, best_start].copy(),
                                tuple(trace))


# ---------------------------------------------------------------------------
# Erasure pair
# ---------------------------------------------------------------------------

_E = 2  # index of the erasure letter in {0, 1, e}


def make_bec_pair(p: float, c0: float = 0.0, c_cf: float = 0.0) -> RelayNetSpec:
    """Network spec whose broadcast is a product of two independent
    erasure channels with erasure probability ``p``."""
    _check_unit(p=p)
    x_a = Alphabet(X, 2, ("0", "1"))
    y1_a = Alphabet(Y1, 3, ("0", "1", "e"))
    yr_a = Alphabet(YR, 3, ("0", "1", "e"))
    single = np.zeros((2, 3))
    for x in range(2):
        single[x, x] = 1.0 - p
        single[x, _E] = p
    rows = np.zeros((2, 9))
    for x, yr, y1 in itertools.product(range(2), range(3), range(3)):
        rows[x, yr * 3 + y1] = single[x, yr] * single[x, y1]
    return RelayNetSpec(x_a, y1_a, yr_a,
                        CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=c0, c_cf=c_cf)


def bec_coding_dist(p: float, q: float) -> CodingDist:
    """Trivial U, uniform X, and re-erasure compression of the relay output.

    Surviving symbols are passed with probability 1-q and erased with
    probability q; erased symbols stay erased. ``p`` only fixes the channel
    family the distribution pairs with; the kernel itself depends on q.
    """
    _check_unit(p=p, q=q)
    u_a = Alphabet(U, 1)
    x_a = Alphabet(X, 2, ("0", "1"))
    y1_a = Alphabet(Y1, 3, ("0", "1", "e"))
    yr_a = Alphabet(YR, 3, ("0", "1", "e"))
    v_a = Alphabet(V, 3, ("0", "1", "e"))
    per_yr = np.zeros((3, 3))
    for yr in range(2):
        per_yr[yr, yr] = 1.0 - q
        per_yr[yr, _E] = q
    per_yr[_E, _E] = 1.0
    ux = FiniteDist((u_a, x_a), np.full((1, 2), 0.5))
    tensor = np.broadcast_to(per_yr.reshape(1, 1, 1, 3, 3), (1, 2, 3, 3, 3))
    vk = CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(18, 3))
    return CodingDist(ux, vk, markov_form=True)


def _bec_bounds(p: float, q: float, c0: float) -> tuple[float, float]:
    """The two bounds whose minimum is ``bec_rate``."""
    first = (1.0 - p) * (1.0 + p * (1.0 - q))
    second = (1.0 - p - binary_entropy((1.0 - p) * (1.0 - q))
              + (1.0 - p) * binary_entropy(q) + c0)
    return first, second


def bec_rate(p: float, q: float, c0: float) -> float:
    """Closed-form no-cooperation rate of the re-erasure strategy."""
    _check_unit(p=p, q=q)
    _check_c0(c0)
    return min(_bec_bounds(p, q, c0))


def bec_best_q(p: float, c0: float) -> tuple[float, float]:
    """Maximize the closed-form rate over q exactly.

    The first bound falls in q and the second rises (its slope is
    (1-p) log2((1-k)(1-q) / (kq)) >= 0 with k = (1-p)(1-q)), so the rate,
    their minimum, peaks where they cross: at q = 0 when the first is the
    smaller there already, at q = 1 when the second still is, and otherwise
    at the root of their difference, bisected down to adjacent floats, of
    which the better is taken.
    """
    def gap(q: float) -> float:
        first, second = _bec_bounds(p, q, c0)
        return first - second

    lo, hi = 0.0, 1.0  # the peak lies in [lo, hi]
    bec_rate(p, lo, c0)  # rejects a bad p or c0 before the search
    if gap(lo) <= 0.0:
        hi = lo
    elif gap(hi) >= 0.0:
        lo = hi
    while lo < (mid := (lo + hi) / 2.0) < hi:
        g = gap(mid)
        lo, hi = (mid, mid) if g == 0.0 else (mid, hi) if g > 0.0 else (lo, mid)
    q = max((lo, hi), key=lambda x: bec_rate(p, x, c0))
    return q, bec_rate(p, q, c0)


@dataclass(frozen=True)
class BecLambdaCheck:
    """Outcome of the two-branch ratio test for the erasure family."""

    infeasible: bool
    lam: float | None
    max_deviation: float

    def to_json_dict(self) -> dict[str, Any]:
        return {"infeasible": self.infeasible, "lambda": self.lam,
                "max_deviation": self.max_deviation}


def bec_lambda_infeasibility(p: float, q: float) -> BecLambdaCheck:
    """Decide whether an exponential-alignment witness exists at (p, q).

    The only letter pair the compression channel can support is
    (v = x, v = e) under yr = x. A direct-channel branch y1 = x or y1 = e
    pins one linear equation in lambda when the joint gives both of its
    cells (x, y1, yr = x, v = x) and (x, y1, yr = x, v = e) mass above
    ``tol_supp``, the support rule of the generic alignment check:

        log2 LHS = (1-lambda) * log2((1-q)/q) + lambda * log2(branch ratio)

    with LHS = (1-p)(1-q) / (1 - (1-p)(1-q)) and branch ratios
    (1-p)(1-q) / (1 - (1-p)(1-q)) for y1 = x and half that for y1 = e.
    The largest absolute residual is convex and piecewise linear in
    lambda, so its minimum over [0, 1] lies at an end, at a root of one
    residual, or where the two residuals meet in absolute value; all are
    evaluated (lambda = 0, then 1, is returned when it passes ``tol_dev``).
    Infeasible means the minimum exceeds ``tol_dev``. Parameters at or near
    the edges of [0, 1] can leave no branch supported, and with no
    constraints the test is feasible; this matches the support-aware
    alignment check on the assembled joint.
    """
    _check_unit(p=p, q=q)
    keep = (1.0 - p) * (1.0 - q)
    lost = p + q - p * q  # 1 - keep, without cancellation when keep rounds to 1

    constraints: list[tuple[float, float]] = []  # (intercept, slope) of residual(lam)
    tol = config.CONFIG.tol_supp
    for branch, ratio in ((1.0 - p, 1.0), (p, 0.5)):  # y1 = x, then y1 = e
        cell = 0.5 * (1.0 - p) * branch  # p(x, y1, yr = x), uniform x
        if cell * (1.0 - q) > tol and cell * q > tol:
            lhs = np.log2(keep / lost)
            base = np.log2((1.0 - q) / q)
            # residual(lam) = base + lam * (branch ratio - base) - lhs
            constraints.append((base - lhs, np.log2(ratio * keep / lost) - base))

    if not constraints:
        return BecLambdaCheck(False, 0.0, 0.0)

    def dev(lam: float) -> float:
        return float(max(abs(c + lam * s) for c, s in constraints))

    cands = [0.0, 1.0]
    for c, s in constraints:
        if s != 0.0:
            cands.append(-c / s)
    if len(constraints) == 2:
        (c1, s1), (c2, s2) = constraints
        for c, s in ((c1 - c2, s1 - s2), (c1 + c2, s1 + s2)):
            if s != 0.0:
                cands.append(-c / s)
    tol_dev = config.CONFIG.tol_dev
    ends = [lam for lam in (0.0, 1.0) if dev(lam) <= tol_dev]
    lam = ends[0] if ends else min((min(1.0, max(0.0, float(x))) for x in cands), key=dev)
    infeasible = dev(lam) > tol_dev
    return BecLambdaCheck(infeasible, None if infeasible else lam, dev(lam))
