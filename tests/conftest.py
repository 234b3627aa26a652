"""Shared instance generators and independent oracles for the test suite.

The oracles here intentionally avoid the library's vectorized paths:
``mi_loops`` accumulates marginals in dictionaries and applies the log-ratio
definition directly, ``shifted_terms`` rebuilds perturbed kernels by plain
array arithmetic so derivative formulas can be checked against finite
differences, ``reduction_by_kernel`` finds the components of the
full-support reduction by depth-first search and composes W as a kernel,
``reference_kappa`` sums the cost coefficient cell by cell,
``least_deviation`` minimises the largest alignment deviation itself,
apart from the library's dual solve, and ``five_pass_pmf`` validates a pmf
by a separate scan per check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cfdiamond import config, probcore, relaynet, slope
from cfdiamond.probcore import (Alphabet, CondKernel, FiniteDist, SchemaError, compose,
                                mutual_information)
from cfdiamond.relaynet import CodingDist, RelayNetSpec, build_joint
from cfdiamond.slope import Perturbation


def rand_pmf(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    x = rng.random(n) + floor
    return x / x.sum()


def random_markov_instance(rng: np.random.Generator, max_size: int = 3,
                           full_support: bool = False, c0: float | None = None,
                           c_cf: float = 0.0) -> tuple[RelayNetSpec, CodingDist]:
    """A random network spec plus Markov-form coding distribution."""
    su = int(rng.integers(1, max_size + 1))
    sx = int(rng.integers(2, max_size + 1))
    sy1 = int(rng.integers(2, max_size + 1))
    syr = int(rng.integers(2, max_size + 1))
    sv = int(rng.integers(2, max_size + 1))
    floor = 0.15 if full_support else 0.0
    u_a, x_a = Alphabet("u", su), Alphabet("x", sx)
    y1_a, yr_a = Alphabet("y1", sy1), Alphabet("yr", syr)
    v_a = Alphabet("v", sv)
    ux = FiniteDist((u_a, x_a), rand_pmf(rng, su * sx, floor))
    broadcast = CondKernel(
        (x_a,), (yr_a, y1_a),
        np.vstack([rand_pmf(rng, syr * sy1, floor) for _ in range(sx)]))
    mk = np.stack([np.stack([rand_pmf(rng, sv, floor) for _ in range(syr)])
                   for _ in range(su)])
    tensor = np.broadcast_to(mk[:, None, None, :, :], (su, sx, sy1, syr, sv))
    vk = CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, sv))
    cd = CodingDist(ux, vk, markov_form=True)
    if c0 is None:
        c0 = float(rng.uniform(0.0, 1.0))
    spec = RelayNetSpec(x_a, y1_a, yr_a, broadcast, c0=c0, c_cf=c_cf)
    return spec, cd


def block_aligned_instance(seed: int) -> tuple[RelayNetSpec, CodingDist]:
    """A full-support Markov instance whose compression channel is aligned
    by blocks: under each u the yr letters fall into groups, the rows of
    p(v | u, yr) in one group are one pmf on the group's own block of V
    letters, and every V letter lies in some block, so every letter carries
    mass."""
    rng = np.random.default_rng(seed)
    su, sx, sy1, syr, sv = (int(k) for k in rng.integers([1, 2, 2, 2, 2], [2, 3, 3, 4, 5],
                                                         endpoint=True))
    u_a, x_a = Alphabet("u", su), Alphabet("x", sx)
    y1_a, yr_a, v_a = Alphabet("y1", sy1), Alphabet("yr", syr), Alphabet("v", sv)
    mk = np.zeros((su, syr, sv))
    for u in range(su):
        _, group = np.unique(rng.integers(0, min(syr, sv), size=syr), return_inverse=True)
        block = rng.permutation(np.arange(sv) % (group.max() + 1))
        for g in range(group.max() + 1):
            mk[u][np.ix_(group == g, block == g)] = rand_pmf(rng, int((block == g).sum()), 0.1)
    tensor = np.broadcast_to(mk[:, None, None], (su, sx, sy1, syr, sv))
    cd = CodingDist(FiniteDist((u_a, x_a), rand_pmf(rng, su * sx, 0.1)),
                    CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, sv)),
                    markov_form=True)
    rows = np.vstack([rand_pmf(rng, syr * sy1, 0.1) for _ in range(sx)])
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=float(rng.uniform(0.0, 1.0)))
    return spec, cd


def sparse_pmf(rng: np.random.Generator, n: int) -> np.ndarray:
    """A pmf with about 40% exact zeros and at least one positive entry."""
    x = rng.random(n) * (rng.random(n) > 0.4)
    if not x.any():
        x[rng.integers(n)] = 1.0
    return x / x.sum()


def zero_rich_instance(seed: int) -> tuple[RelayNetSpec, CodingDist]:
    """A small Markov instance with zeros in the broadcast channel and in the
    compression kernel."""
    rng = np.random.default_rng(seed)
    su, sx, sy1, syr, sv = (int(k) for k in rng.integers([1, 2, 2, 2, 2], [3, 4, 4, 4, 4],
                                                         endpoint=True))
    u_a, x_a = Alphabet("u", su), Alphabet("x", sx)
    y1_a, yr_a, v_a = Alphabet("y1", sy1), Alphabet("yr", syr), Alphabet("v", sv)
    rows = np.vstack([sparse_pmf(rng, syr * sy1) for _ in range(sx)])
    mk = np.array([[sparse_pmf(rng, sv) for _ in range(syr)] for _ in range(su)])
    tensor = np.broadcast_to(mk[:, None, None], (su, sx, sy1, syr, sv))
    cd = CodingDist(FiniteDist((u_a, x_a), rand_pmf(rng, su * sx, 0.05)),
                    CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, sv)),
                    markov_form=True)
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=float(rng.uniform(0.0, 1.0)))
    return spec, cd


def sample_joint(kind: str, seed: int) -> FiniteDist:
    """A dense, zero-rich or random Markov joint from the generators above."""
    if kind == "zero-rich":
        return build_joint(*zero_rich_instance(seed))
    rng = np.random.default_rng(seed)
    return build_joint(*random_markov_instance(rng, full_support=kind == "dense"))


def random_direction(rng: np.random.Generator, spec: RelayNetSpec,
                     cd: CodingDist) -> Perturbation:
    """A valid random direction: zero-sum rows, zero off support, peak 1."""
    joint = build_joint(spec, cd)
    tuple_p = joint.pmf.sum(axis=4)
    mk = cd.v_kernel.tensor[:, 0, 0, :, :]
    free = (tuple_p > 1e-12)[..., None] & (mk[:, None, None, :, :] > 1e-12)
    r = np.where(free, rng.uniform(-1.0, 1.0, size=free.shape), 0.0)
    counts = free.sum(axis=-1, keepdims=True).astype(float)
    means = np.divide(r.sum(axis=-1, keepdims=True), counts,
                      out=np.zeros_like(counts), where=counts > 0)
    r = np.where(free, r - means, 0.0)
    peak = float(np.abs(r).max())
    if peak > 0.0:
        r = r / peak
    return Perturbation(r, cd)


def shifted_kernel(cd: CodingDist, pert: Perturbation, alpha: float) -> CodingDist:
    """q = p + alpha * r built by direct array arithmetic (alpha may be < 0)."""
    tensor = cd.v_kernel.tensor + alpha * pert.r
    kernel = CondKernel(cd.v_kernel.from_vars, cd.v_kernel.to_vars,
                        tensor.reshape(cd.v_kernel.rows.shape))
    return CodingDist(cd.ux, kernel, markov_form=False)


def shifted_terms(spec: RelayNetSpec, cd: CodingDist, pert: Perturbation,
                  alpha: float) -> tuple[float, float]:
    """(f1, f2) evaluated from scratch at the shifted kernel."""
    joint = build_joint(spec, shifted_kernel(cd, pert, alpha))
    f1 = mutual_information(joint, "x", "v", ("u", "y1"))
    f2 = (mutual_information(joint, "v", ("x", "y1"), "u")
          - mutual_information(joint, "yr", "v", "u"))
    return f1, f2


def central_difference(spec: RelayNetSpec, cd: CodingDist, pert: Perturbation,
                       alpha: float = 1e-5) -> tuple[float, float]:
    up = shifted_terms(spec, cd, pert, alpha)
    dn = shifted_terms(spec, cd, pert, -alpha)
    return (up[0] - dn[0]) / (2 * alpha), (up[1] - dn[1]) / (2 * alpha)


def reference_kappa(spec: RelayNetSpec, cd: CodingDist, pert: Perturbation) -> float:
    """kappa = sum p(tuple) (r - rbar)^2 / p(v|u,yr) / (2 ln 2), cell by cell.

    p(v | u, yr) is read from the coding kernel, and rbar(v | u, yr) is the
    average of r over the (x, y1) of each (u, yr), weighted by p(tuple).
    """
    r = pert.r
    tuple_p = build_joint(spec, cd).pmf.sum(axis=4)
    mk = cd.v_kernel.tensor[:, 0, 0]
    nu, nx, ny1, nyr, nv = r.shape
    total = 0.0
    for u, yr, v in itertools.product(range(nu), range(nyr), range(nv)):
        cells = [(tuple_p[u, x, y1, yr], r[u, x, y1, yr, v])
                 for x in range(nx) for y1 in range(ny1)]
        p_uyr = sum(p for p, _ in cells)
        if p_uyr == 0.0 or mk[u, yr, v] == 0.0:
            continue
        rbar = sum(p * rv for p, rv in cells) / p_uyr
        total += sum(p * (rv - rbar) ** 2 for p, rv in cells) / mk[u, yr, v]
    return total / (2.0 * math.log(2.0))


def least_deviation(joint: FiniteDist, stop: float = -np.inf) -> tuple[float, float]:
    """Least (lambda, max deviation) over [0, 1] of the alignment profile
    g2 + lambda*drift of a joint's view, per tuple with two or more free
    letters.

    The deviation, max over tuples of (max - min over free v), is convex and
    piecewise linear in lambda, and the subgradient at lambda is the drift
    spread of the tuple and letters that attain it. lambda = 0, then lambda
    = 1, is returned at once when its deviation is at most ``stop``;
    otherwise the exact minimiser, from ``slope._pwl_argmin``.
    """
    view = slope.JointView.of(joint)
    nv = view.free.shape[-1]
    free = view.free.reshape(-1, nv)
    rows = np.flatnonzero(free.sum(axis=1) >= 2)
    if rows.size == 0:
        return 0.0, 0.0
    free = free[rows]
    base = view.g2.reshape(-1, nv)[rows]
    drift = np.broadcast_to(view.drift, view.free.shape).reshape(-1, nv)[rows]
    hi0 = np.where(free, base, -np.inf)
    lo0 = np.where(free, base, np.inf)
    drift = np.where(free, drift, 0.0)
    idx = np.arange(rows.size)

    def evaluate(lam: float):
        hi = hi0 + lam * drift
        lo = lo0 + lam * drift
        top = hi.argmax(axis=1)
        bot = lo.argmin(axis=1)
        spread = hi[idx, top] - lo[idx, bot]
        t = int(spread.argmax())
        return float(spread[t]), float(drift[t, top[t]] - drift[t, bot[t]]), None

    at0 = evaluate(0.0)
    if at0[0] <= stop:
        return 0.0, at0[0]
    at1 = evaluate(1.0)
    if at1[0] <= stop:
        return 1.0, at1[0]
    lam, at, _, _ = slope._pwl_argmin(evaluate, at0, at1)
    return lam, at[0]


def mi_loops(joint: FiniteDist, a, b, g=()) -> float:
    """I(a; b | g) by dictionary accumulation and the log-ratio definition."""
    def names(x):
        return (x,) if isinstance(x, str) else tuple(x)

    a, b, g = names(a), names(b), names(g)
    pos = {n: k for k, n in enumerate(joint.names)}
    p_abg: dict = {}
    p_ag: dict = {}
    p_bg: dict = {}
    p_g: dict = {}
    for cell in itertools.product(*[range(s) for s in joint.sizes]):
        p = float(joint.pmf[cell])
        if p <= 0.0:
            continue
        ka = tuple(cell[pos[n]] for n in a)
        kb = tuple(cell[pos[n]] for n in b)
        kg = tuple(cell[pos[n]] for n in g)
        p_abg[(ka, kb, kg)] = p_abg.get((ka, kb, kg), 0.0) + p
        p_ag[(ka, kg)] = p_ag.get((ka, kg), 0.0) + p
        p_bg[(kb, kg)] = p_bg.get((kb, kg), 0.0) + p
        p_g[kg] = p_g.get(kg, 0.0) + p
    total = 0.0
    for (ka, kb, kg), p in p_abg.items():
        total += p * math.log2(p * p_g[kg] / (p_ag[(ka, kg)] * p_bg[(kb, kg)]))
    return total


def components_dfs(adjacent: np.ndarray) -> np.ndarray:
    """Connected-component labels for a symmetric boolean adjacency matrix,
    by depth-first search from each unlabelled node in turn."""
    n = adjacent.shape[0]
    labels = np.full(n, -1, dtype=int)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(adjacent[node])[0]:
                if labels[nxt] < 0:
                    labels[nxt] = comp
                    stack.append(nxt)
        comp += 1
    return labels


def reduction_by_kernel(joint: FiniteDist) -> dict:
    """The full-support reduction of a canonical-order joint, built letter by
    letter: per u, the co-support components by ``components_dfs`` (every
    letter, used or not, is a node), then W composed as a 0/1 kernel into a
    six-variable joint and the residuals from four ``mutual_information``
    calls."""
    tol = config.CONFIG.tol_supp
    pv_uyr = probcore.conditional_table(joint, "v", ("u", "yr"))
    nu, nyr, nv = pv_uyr.shape
    w_of_v = np.zeros((nu, nv), dtype=int)
    w_of_yr = np.zeros((nu, nyr), dtype=int)
    for u in range(nu):
        supp = pv_uyr[u] > tol
        adjacent = np.zeros((nv, nv), dtype=bool)
        for yr in range(nyr):
            vs = np.nonzero(supp[yr])[0]
            adjacent[np.ix_(vs, vs)] = True
        w_of_v[u] = components_dfs(adjacent)
        for yr in range(nyr):
            vs = np.nonzero(supp[yr])[0]
            w_of_yr[u, yr] = w_of_v[u, vs[0]] if vs.size else 0
    num = int(w_of_v.max()) + 1
    rows = np.zeros((nu * nv, num))
    rows[np.arange(nu * nv), w_of_v.ravel()] = 1.0
    w_kernel = CondKernel((joint.alphabet("u"), joint.alphabet("v")), (Alphabet("w", num),), rows)
    extended = compose(joint, w_kernel)
    i_v = mutual_information(extended, "x", ("y1", "v"), "u")
    i_w = mutual_information(extended, "x", ("y1", "w"), "u")
    pen_v = mutual_information(extended, "yr", "v", ("u", "x", "y1"))
    pen_w = mutual_information(extended, "yr", "w", ("u", "x", "y1"))
    return {"w_of_v": w_of_v, "w_of_yr": w_of_yr, "num_components": num,
            "rate_residual": abs(i_v - i_w), "penalty_slack": pen_v - pen_w}


def shift_entropies(monkeypatch, scale: float) -> None:
    """Add scale * (number of variables)**2 to every entropy that
    ``probcore.entropy`` and ``probcore.marginal_entropies`` return, so to
    every entropy a rate term reads.

    I(a; b | g) then moves by -2 * scale * |a| * |b|, which forces a
    negative raw value on independent variables.
    """
    exact, exact_pass = probcore.entropy, probcore.marginal_entropies
    monkeypatch.setattr(probcore, "entropy", lambda d, vars=None:
                        exact(d, vars) + scale * len(probcore._as_names(vars)) ** 2)
    monkeypatch.setattr(probcore, "marginal_entropies", lambda pmf, reductions: [
        h + scale * (pmf.ndim - len(r)) ** 2
        for h, r in zip(exact_pass(pmf, reductions), reductions)])


def record_entropy_passes(monkeypatch) -> list[int]:
    """The number of marginals in each ``probcore.marginal_entropies`` pass,
    in call order, filled in as the passes run."""
    sizes = []
    exact_pass = probcore.marginal_entropies

    def recorded(pmf, reductions):
        sizes.append(len(reductions))
        return exact_pass(pmf, reductions)

    monkeypatch.setattr(probcore, "marginal_entropies", recorded)
    return sizes


def attempt(fn, *args):
    """``fn(*args)``, or the error it raised as text."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def five_pass_pmf(variables, pmf) -> np.ndarray:
    """The array ``FiniteDist(variables, pmf)`` stores, or the
    ``SchemaError`` it raises, by five scans of the entries: the finiteness
    mask and its ``all``, the minimum, the clip to nonnegative and the sum
    of the clipped entries.

    A sum of finite entries that overflows warns as well as raising; the
    warning is silenced here, so that only the error is compared.
    """
    shape = tuple(v.size for v in variables)
    arr = np.asarray(pmf, dtype=float)
    if arr.shape != shape:
        if arr.size != math.prod(shape):
            raise SchemaError(f"pmf has {arr.size} entries, expected {math.prod(shape)} "
                              f"for shape {shape}")
        arr = arr.reshape(shape)
    else:
        arr = arr.copy()
    if not np.all(np.isfinite(arr)):
        raise SchemaError("pmf contains non-finite entries")
    low = arr.min()
    if low < -1e-12:
        raise SchemaError(f"pmf has negative entry {low}")
    np.clip(arr, 0.0, None, out=arr)
    with np.errstate(over="ignore"):
        s = float(arr.sum())
    if abs(s - 1.0) > config.CONFIG.tol_norm:
        raise SchemaError(f"pmf sums to {s}, not 1 within {config.CONFIG.tol_norm}")
    return np.ascontiguousarray(arr)


def relative_gap(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def count_calls(monkeypatch, functions):
    """Count the calls to each of ``functions`` ({module: names}) through
    every cfdiamond module that binds it."""
    counts = {}
    for module, names in functions.items():
        for name in names:
            orig = getattr(module, name)
            counts[name] = 0

            def counted(*args, _name=name, _orig=orig, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for mod in (probcore, relaynet, slope):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted)
    return counts
