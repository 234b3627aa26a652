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
from typing import Any

import numpy as np

from . import config
from .probcore import (Alphabet, CondKernel, FiniteDist, SchemaError, binary_entropy,
                       entropy_letters_first, entropy_terms)
from .relaynet import U, V, X, Y1, YR, CodingDist, RelayNetSpec


@dataclass(frozen=True)
class ModAddParams:
    """Crossovers of the two noise bits and the relay pipe capacity."""

    p: float
    delta: float
    c0: float

    def __post_init__(self) -> None:
        for name, val in (("p", self.p), ("delta", self.delta)):
            if not 0.0 <= val <= 1.0:
                raise SchemaError(f"{name} must lie in [0, 1], got {val}")
        if not (np.isfinite(self.c0) and self.c0 >= 0.0):
            raise SchemaError(f"c0 must be a nonnegative real, got {self.c0}")


@dataclass(frozen=True)
class BecParams:
    """Erasure probability, re-erasure probability, pipe capacity."""

    p: float
    q: float
    c0: float

    def __post_init__(self) -> None:
        for name, val in (("p", self.p), ("q", self.q)):
            if not 0.0 <= val <= 1.0:
                raise SchemaError(f"{name} must lie in [0, 1], got {val}")
        if not (np.isfinite(self.c0) and self.c0 >= 0.0):
            raise SchemaError(f"c0 must be a nonnegative real, got {self.c0}")


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
#: pairs, which bounds its memory; so does each refinement chunk.
_RANKED_PAIRS = 2_000_000
_SCAN_ENTRIES = 1 << 18


def _entropy_term_tables(mix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened p log2 p tables of the mixes behind H(V), H(Z=0, V), H(Z=1, V).

    ``mix`` holds the rows p(yr), p(z=0, yr) and p(z=1, yr). ``a`` and ``b``
    broadcast to one 2-D shape and hold letter values of the rows
    p(v | yr=0) and p(v | yr=1); row t of the result holds the terms of
    mix[t, 0] a + mix[t, 1] b, flattened.
    """
    return entropy_terms(mix[:, 0, None, None] * a + mix[:, 1, None, None] * b).reshape(3, -1)


def _pair_scores(mix: np.ndarray, c0: float, tables: np.ndarray, idx: np.ndarray,
                 ha: np.ndarray, hb: np.ndarray,
                 usable: np.ndarray | bool = True) -> np.ndarray:
    """Objective 1 - H(Z|V) of row pairs (a, b), -inf where infeasible.

    ``mix`` and ``tables`` are as in ``_entropy_term_tables``, and ``idx[v]``
    holds each pair's flat table index of letter v, so each entropy is a
    negated sum of gathered terms, added in letter order as
    ``entropy_letters_first`` adds them. ``ha`` and ``hb`` are the entropies
    of the rows, broadcasting to the pairs' shape. A pair is feasible when
    I(Yr;V) <= c0 up to a 1e-9 slack and ``usable`` is True.
    """
    buf = np.empty(idx.shape[1:])

    def entropy(terms: np.ndarray) -> np.ndarray:
        # every index is in range; "wrap" only skips the slower default check
        acc = np.take(terms, idx[0], mode="wrap")
        for iv in idx[1:]:
            acc += np.take(terms, iv, mode="wrap", out=buf)
        return np.negative(acc, out=acc)

    hv = entropy(tables[0])
    feasible = (hv - (mix[0, 0] * ha + mix[0, 1] * hb) <= c0 + 1e-9) & usable
    hzv = entropy(tables[1]) + entropy(tables[2])
    return np.where(feasible, 1.0 - (hzv - hv), -np.inf)


@functools.lru_cache(maxsize=8)
def _refine_moves(grid_resolution: int, v_size: int, refine_steps: int):
    """Offsets per move, window sizes and offset tables of
    ``modadd_capacity``'s refinement.

    They depend only on the arguments, so they are built once per argument
    triple, with the tables as read-only arrays. Per window: the offsets
    ``offs`` (|V|, offsets per move), and the table layout of a move.
    """
    ticks = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    unit = np.stack(np.meshgrid(*([ticks] * (v_size - 1)), indexing="ij"))
    unit = unit.reshape(v_size - 1, -1)
    windows = tuple(1.0 / grid_resolution / 2.0 ** k for k in range(refine_steps))
    moves = []
    for window in windows:
        head = unit * window
        offs = np.vstack([head, -head.sum(axis=0)])
        # Letter v of a candidate row is the current letter plus one of the
        # distinct offsets u of letter v, so letter v of a pair takes one of
        # u.size ** 2 value pairs. Those of every letter are listed end to
        # end, as table entries: entry e adds pair_offs[:, e] to letter
        # owner[e] of both rows, and letter v of the pair of offsets (r0, r1)
        # is entry place_a[v, r0] + place_b[v, r1].
        letters = [np.unique(o, return_inverse=True) for o in offs]
        owner, pair_offs, place_a = [], [], []
        for v, (u, inv) in enumerate(letters):
            place_a.append(len(owner) + inv * u.size)
            owner += [v] * u.size ** 2
            pair_offs += [(a, b) for a in u.tolist() for b in u.tolist()]
        owner = np.array(owner)
        # the rows of current.reshape(2 * |V|, -1) that each entry reads
        sel = np.stack([2 * owner, 2 * owner + 1])
        move = (offs, sel, np.array(pair_offs).T, np.stack(place_a),
                np.stack([inv for _, inv in letters]))
        for table in move:
            table.setflags(write=False)
        moves.append(move)
    return unit.shape[1], windows, tuple(moves)


def modadd_capacity(params: ModAddParams, grid_resolution: int,
                    v_size: int = 3, refine_steps: int = 8) -> CapacitySearchResult:
    """Search max 1 - H(Z|V) over p(v | yr) subject to I(Yr;V) <= c0.

    Global simplex-grid scan at ``grid_resolution`` followed by local
    joint-grid refinement with window halving from the best grid pairs.
    Points violating the information constraint (beyond a 1e-9 slack) are
    discarded, not penalized. The default |V| = 3 gives the relay output
    alphabet one spare letter; the result is reported as a lower bound.

    Each entropy of a row pair is a sum over letters of p log2 p, where p
    mixes letter v of both rows, and a letter takes few distinct values
    across many pairs: the R + 1 levels k / R in the grid scan, and the
    current letter plus one of that letter's distinct offsets in a
    refinement move. So the scan, and each move, first tabulates the terms
    of H(V) and of both H(Z, V) over those values, then scores every pair
    by gathering its letters' terms and adding them in letter order;
    infeasible pairs score -inf. Pmf arrays are stored letters first, shape
    (|V|, ...). The refinement moves all starts in lockstep, scoring the
    offset grids of every start still improving in one pass, in chunks of
    whole starts (or of one start's rows when a start alone is too large).
    Both score at most ``_SCAN_ENTRIES // (3 |V|)`` pairs at a time, so
    memory stays bounded at any resolution and any |V|.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    if v_size < 2:
        raise ValueError(f"v_size must be at least 2, got {v_size}")
    if refine_steps < 0:
        raise ValueError(f"refine_steps must be nonnegative, got {refine_steps}")
    p, delta, c0 = params.p, params.delta, params.c0
    pz = np.array([1.0 - p, p])
    pw = np.array([1.0 - delta, delta])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    mix = np.vstack([p_zyr.sum(axis=0), p_zyr])

    rows = _simplex_grid(v_size, grid_resolution).T.copy()
    h_rows = entropy_letters_first(rows)
    m = rows.shape[1]
    # every grid entry is one of the levels k / R, bitwise
    levels = np.arange(grid_resolution + 1) / grid_resolution
    tables = _entropy_term_tables(mix, levels[:, None], levels)
    level_idx = np.rint(rows * grid_resolution).astype(np.intp)
    a_idx = level_idx * levels.size
    n_starts = 24
    candidates: list[tuple[float, int, int]] = []
    group = max(1, _RANKED_PAIRS // m)
    batch = max(1, _SCAN_ENTRIES // (3 * m * v_size))
    for start in range(0, m, group):
        stop = min(m, start + group)
        obj = np.empty((stop - start, m))
        for lo in range(start, stop, batch):
            hi = min(stop, lo + batch)
            obj[lo - start:hi - start] = _pair_scores(
                mix, c0, tables, a_idx[:, lo:hi, None] + level_idx[:, None],
                h_rows[lo:hi, None], h_rows)
        flat = obj.ravel()
        top = np.argpartition(flat, -min(n_starts, flat.size))[-min(n_starts, flat.size):]
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
    # shallow basins of the coarse grid. Each start takes the first best
    # pair of its grid in row-major order and stops at its first move that
    # does not improve; offsets leaving the simplex score -inf, and the
    # centre offset (the current pair) is always on it.
    n_offs, windows, moves = _refine_moves(grid_resolution, v_size, refine_steps)

    starts = candidates[:n_starts]
    vals = np.array([val for val, _, _ in starts])
    # current[:, 0, s] and current[:, 1, s] are the two rows of start s
    current = np.stack([rows[:, [i for _, i, _ in starts]], rows[:, [j for _, _, j in starts]]],
                       axis=1)
    window_vals = np.empty((len(starts), len(windows)))
    # starts per score chunk, and offsets of row 0 per chunk
    start_chunk = max(1, _SCAN_ENTRIES // (3 * n_offs * n_offs * v_size))
    offs_chunk = min(n_offs, max(1, _SCAN_ENTRIES // (3 * n_offs * v_size)))
    for w, (offs, sel, pair_offs, place_a, place_b) in enumerate(moves):
        active = np.arange(len(starts))
        for _ in range(40):  # move budget per window size
            cur = current[:, :, active]
            cand = cur[..., None] + offs[:, None, None, :]
            usable = (cand >= -1e-15).all(axis=0)
            np.clip(cand, 0.0, 1.0, out=cand)
            h = entropy_letters_first(cand)
            # both rows' values of every entry, (starts, 2, entries), give
            # term tables (3, starts * entries) holding every term the
            # move's pairs add up
            values = cur.reshape(2 * v_size, -1).T[:, sel] + pair_offs
            np.clip(values, 0.0, 1.0, out=values)
            n = values.shape[-1]
            tables = _entropy_term_tables(mix, values[:, 0], values[:, 1])
            # Score whole starts per chunk, or offsets of row 0 of one start
            # per chunk when a start alone exceeds it. The first maximum of
            # each row, then the first row reaching the start's maximum, is
            # the first maximum of the start's grid in row-major order.
            row_arg = np.empty((active.size, n_offs), dtype=np.intp)
            row_best = np.empty((active.size, n_offs))
            for s in range(0, active.size, start_chunk):
                t = min(active.size, s + start_chunk)
                for r in range(0, n_offs, offs_chunk):
                    q = min(n_offs, r + offs_chunk)
                    row0 = np.arange(s, t)[:, None] * n + place_a[:, None, r:q]
                    obj = _pair_scores(mix, c0, tables, row0[..., None] + place_b[:, None, None],
                                       h[0, s:t, r:q, None], h[1, s:t, None],
                                       usable[0, s:t, r:q, None] & usable[1, s:t, None])
                    row_arg[s:t, r:q] = obj.argmax(axis=-1)
                    row_best[s:t, r:q] = obj.max(axis=-1)
            at = np.arange(active.size)
            i = row_best.argmax(axis=1)
            j = row_arg[at, i]
            best = row_best[at, i]
            better = best > vals[active] + 1e-15
            active = active[better]
            vals[active] = best[better]
            current[:, 0, active] = cand[:, 0, better, i[better]]
            current[:, 1, active] = cand[:, 1, better, j[better]]
            if not active.size:
                break
        window_vals[:, w] = vals

    best_start = int(np.argmax(vals))  # the first best, as a strict > over the starts
    trace = [(f"grid/{grid_resolution}", grid_best)]
    trace += [(f"refine/{window / 2.0:.3e}", float(v))
              for window, v in zip(windows, window_vals[best_start])]
    return CapacitySearchResult(float(vals[best_start]), current[:, :, best_start].T.copy(),
                                tuple(trace))


# ---------------------------------------------------------------------------
# Erasure pair
# ---------------------------------------------------------------------------

_E = 2  # index of the erasure letter in {0, 1, e}


def make_bec_pair(p: float, c0: float = 0.0, c_cf: float = 0.0) -> RelayNetSpec:
    """Network spec whose broadcast is a product of two independent
    erasure channels with erasure probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise SchemaError(f"p must lie in [0, 1], got {p}")
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
    if not 0.0 <= p <= 1.0:
        raise SchemaError(f"p must lie in [0, 1], got {p}")
    if not 0.0 <= q <= 1.0:
        raise SchemaError(f"q must lie in [0, 1], got {q}")
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


def bec_rate(p: float, q: float, c0: float) -> float:
    """Closed-form no-cooperation rate of the re-erasure strategy."""
    for name, val in (("p", p), ("q", q)):
        if not 0.0 <= val <= 1.0:
            raise SchemaError(f"{name} must lie in [0, 1], got {val}")
    if not (np.isfinite(c0) and c0 >= 0.0):
        raise SchemaError(f"c0 must be a nonnegative real, got {c0}")
    first = (1.0 - p) * (1.0 + p * (1.0 - q))
    second = (1.0 - p - binary_entropy((1.0 - p) * (1.0 - q))
              + (1.0 - p) * binary_entropy(q) + c0)
    return min(first, second)


def bec_best_q(p: float, c0: float) -> tuple[float, float]:
    """Maximize the closed-form rate over q by golden-section search.

    Endpoints q = 0 and q = 1 are always included as candidates, and a
    coarse seeding grid guards against non-unimodal corners.
    """
    def f(q: float) -> float:
        return bec_rate(p, q, c0)

    grid = np.linspace(0.0, 1.0, 33)
    vals = [f(q) for q in grid]
    k = int(np.argmax(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    candidates = [0.0, 1.0, (a + b) / 2.0, grid[k]]
    best_q = max(candidates, key=f)
    return float(best_q), float(f(best_q))


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
    for name, val in (("p", p), ("q", q)):
        if not 0.0 <= val <= 1.0:
            raise SchemaError(f"{name} must lie in [0, 1], got {val}")
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
