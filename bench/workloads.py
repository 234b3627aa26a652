"""Seeded inputs, timed operations and output checks of the four workloads.

A workload is a list of blocks; a block is a fixed mix of operations (ops).
The timed loop runs whole blocks, cycling through the list, so every block
it completes has the same input mix. An op is one user-level call: one
verdict, one rate evaluation, one capacity search or one CLI process.

Each op carries a check that runs after the timed loop, and a ``ref``
projection: the values that must not drift between commits, compared
against ``reference.json`` when the run uses the reference seed.

The library only sees the generated inputs; nothing here reads the seed
after the instances are built.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cfdiamond as cfd
from cfdiamond import probcore, relaynet, slope, zoo, diamond3
from cfdiamond.probcore import Alphabet, CondKernel, FiniteDist

WORKLOADS = ("certify", "sweep", "capacity", "cli")
REFERENCE_SEED = 0

#: The north-star ladder of dense |U|,|X|,|Y1|,|Yr|,|V| sizes run by the
#: traced mode. (4,10,10,10,10) waits for an exact direction solver: the
#: current LP builds a 1.28 GB dense constraint matrix at that size.
LADDER = ((2, 4, 4, 4, 4), (2, 6, 6, 6, 6), (3, 6, 6, 6, 6), (3, 8, 8, 8, 8))

#: Absolute tolerance of the value checks and of the reference comparison.
VALUE_TOL = 1e-9


@dataclass
class Op:
    """One timed call plus what to verify about its output afterwards."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    ref: Callable[[Any], Any] = lambda out: None
    argv: list[str] | None = None  # the command line, for cli ops


@dataclass
class Workload:
    name: str
    blocks: list[list[Op]]
    warmup: list[Op]
    cleanup: Callable[[], None] = lambda: None

    def ops(self) -> list[Op]:
        return [op for block in self.blocks for op in block]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def _pmf(rng: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    x = rng.random(n) + floor
    return x / x.sum()


def _alphabets(sizes):
    su, sx, sy1, syr, sv = sizes
    return (Alphabet("u", su), Alphabet("x", sx), Alphabet("y1", sy1),
            Alphabet("yr", syr), Alphabet("v", sv))


def _markov_coding(rng, alphas) -> cfd.CodingDist:
    u_a, x_a, y1_a, yr_a, v_a = alphas
    su, sx, sy1, syr, sv = (a.size for a in alphas)
    ux = FiniteDist((u_a, x_a), _pmf(rng, su * sx))
    mk = np.stack([np.stack([_pmf(rng, sv) for _ in range(syr)]) for _ in range(su)])
    tensor = np.broadcast_to(mk[:, None, None, :, :], (su, sx, sy1, syr, sv))
    vk = CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, sv))
    return cfd.CodingDist(ux, vk, markov_form=True)


def dense_instance(rng, sizes, c_cf: float = 0.0):
    """Full-support broadcast channel and Markov coding distribution."""
    alphas = _alphabets(sizes)
    _, x_a, y1_a, yr_a, _ = alphas
    rows = np.vstack([_pmf(rng, yr_a.size * y1_a.size) for _ in range(x_a.size)])
    cd = _markov_coding(rng, alphas)
    spec = cfd.RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                            c0=float(rng.uniform(0.1, 1.0)), c_cf=c_cf)
    return spec, cd


def aligned_instance(rng, sizes):
    """Broadcast channel with yr a deterministic function of (x, y1).

    Then p(v|u,x,y1) = p(v|u,yr) on the support, so lambda = 0 is an
    exponential-alignment witness and the verdict must be
    CONDITION_12_HOLDS.
    """
    alphas = _alphabets(sizes)
    _, x_a, y1_a, yr_a, _ = alphas
    f = rng.integers(0, yr_a.size, size=(x_a.size, y1_a.size))
    rows = np.zeros((x_a.size, yr_a.size * y1_a.size))
    for x in range(x_a.size):
        py1 = _pmf(rng, y1_a.size)
        for y1 in range(y1_a.size):
            rows[x, f[x, y1] * y1_a.size + y1] = py1[y1]
    cd = _markov_coding(rng, alphas)
    spec = cfd.RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                            c0=float(rng.uniform(0.1, 1.0)))
    return spec, cd


def random_mac(rng, n_out: int) -> cfd.MacSpec:
    x0, x1 = Alphabet("x0", 2), Alphabet("x1", 2)
    rows = np.vstack([_pmf(rng, n_out, 0.02) for _ in range(4)])
    return cfd.MacSpec(x0, x1, CondKernel((x0, x1), (Alphabet("y_w", n_out),), rows))


def adder_mac() -> cfd.MacSpec:
    x0, x1 = Alphabet("x0", 2), Alphabet("x1", 2)
    rows = np.zeros((4, 3))
    for a, b in itertools.product(range(2), repeat=2):
        rows[a * 2 + b, a + b] = 1.0
    return cfd.MacSpec(x0, x1, CondKernel((x0, x1), (Alphabet("y_w", 3),), rows))


# ---------------------------------------------------------------------------
# Independent numerics used by the checks (plain numpy, no probcore)
# ---------------------------------------------------------------------------


def _h(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def _mi5(p5: np.ndarray, a, b, g) -> float:
    """I(a; b | g) over axes of a (u, x, y1, yr, v) array."""
    def h(axes):
        other = tuple(i for i in range(5) if i not in axes)
        return _h(p5.sum(axis=other)) if axes else 0.0
    return h(a + g) + h(b + g) - h(a + b + g) - h(g)


def _joint5(spec, cd, kernel: np.ndarray) -> np.ndarray:
    bc = spec.broadcast.tensor.transpose(0, 2, 1)  # (x, y1, yr)
    return cd.ux.pmf[:, :, None, None, None] * bc[None, :, :, :, None] * kernel


def _f12(spec, cd, kernel) -> tuple[float, float]:
    p5 = _joint5(spec, cd, kernel)
    u, x, y1, yr, v = range(5)
    f1 = _mi5(p5, (x,), (v,), (u, y1))
    f2 = _mi5(p5, (v,), (x, y1), (u,)) - _mi5(p5, (yr,), (v,), (u,))
    return f1, f2


def _alignment_deviation(joint, lam: float) -> float:
    """Largest per-tuple spread of the alignment log-ratio at ``lam``."""
    tol = cfd.CONFIG.tol_supp
    pv_uxy1 = probcore.conditional_table(joint, "v", ("u", "x", "y1"))
    pv_uy1 = probcore.conditional_table(joint, "v", ("u", "y1"))
    pv_uyr = probcore.conditional_table(joint, "v", ("u", "yr"))
    supp = joint.pmf > tol
    with np.errstate(divide="ignore"):
        d = (np.log2(pv_uxy1)[:, :, :, None, :]
             - lam * np.log2(pv_uy1)[:, None, :, None, :]
             - (1.0 - lam) * np.log2(pv_uyr)[:, None, None, :, :])
    hi = np.where(supp, d, -np.inf).max(axis=4)
    lo = np.where(supp, d, np.inf).min(axis=4)
    spread = np.where(supp.sum(axis=4) >= 2, hi - lo, 0.0)
    return float(spread.max(initial=0.0))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CERTIFY_BLOCK = (("dense", (2, 4, 4, 4, 4)), ("aligned", (2, 6, 6, 6, 6)),
                 ("dense", (2, 6, 6, 6, 6)), ("dense", (2, 4, 4, 4, 4)),
                 ("aligned", (3, 8, 8, 8, 8)), ("dense", (2, 6, 6, 6, 6)),
                 ("dense", (2, 4, 4, 4, 4)), ("aligned", (2, 6, 6, 6, 6)),
                 ("dense", (2, 6, 6, 6, 6)), ("dense", (2, 4, 4, 4, 4)))
#: Twelve blocks of distinct instances: a run's latency quantiles then rest
#: on 48 (2,4,4,4,4) and 36 (2,6,6,6,6) draws, whose verdict costs differ by
#: up to ±25%, so they move little from seed to seed.
CERTIFY_BLOCKS = 12


def check_verdict(kind: str, spec, cd, v) -> str | None:
    if kind == "aligned" and v.verdict != slope.VERDICT_ALIGNED:
        return f"aligned-by-construction instance returned {v.verdict}"
    if v.verdict == slope.VERDICT_CERTIFIED:
        joint = relaynet.build_joint(spec, cd)
        try:
            slope.validate_against_joint(v.direction, joint)
        except ValueError as exc:
            return f"certified direction fails validate_against_joint: {exc}"
        r = v.direction.r
        p = cd.v_kernel.tensor
        moving = np.abs(r) > 0
        room = np.minimum(p[moving], 1.0 - p[moving]) / np.abs(r[moving])
        alpha = min(1e-5, 0.5 * float(room.min()))
        up = _f12(spec, cd, p + alpha * r)
        dn = _f12(spec, cd, p - alpha * r)
        for i, claimed in enumerate((v.f1_prime, v.f2_prime)):
            diff = (up[i] - dn[i]) / (2.0 * alpha)
            if np.sign(diff) != np.sign(claimed):
                return (f"central difference of f{i + 1} is {diff:.3e}, "
                        f"claimed derivative {claimed:.3e}")
    elif v.verdict == slope.VERDICT_PRECONDITION:
        p5 = _joint5(spec, cd, cd.v_kernel.tensor)
        u, x, y1, yr, vv = range(5)
        gap = _mi5(p5, (x,), (y1, yr), (u,)) - _mi5(p5, (x,), (y1, vv), (u,))
        if gap > cfd.CONFIG.tol_norm:
            return f"PRECONDITION_FAILS but I(X;Y1,Yr|U) - I(X;Y1,V|U) = {gap:.3e}"
    elif v.verdict == slope.VERDICT_ALIGNED:
        lam = v.lambda_witness[0]
        dev = _alignment_deviation(relaynet.build_joint(spec, cd), lam)
        if not dev <= cfd.CONFIG.tol_dev:
            return (f"CONDITION_12_HOLDS witness lambda={lam:.6g} has deviation "
                    f"{dev:.3e} > tol_dev {cfd.CONFIG.tol_dev:g} (gray zone)")
    return None


def build_certify(seed: int) -> Workload:
    rng = _rng(seed, "certify")
    blocks = []
    for b in range(CERTIFY_BLOCKS):
        block = []
        for k, (kind, sizes) in enumerate(CERTIFY_BLOCK):
            make = dense_instance if kind == "dense" else aligned_instance
            spec, cd = make(rng, sizes)
            label = f"{kind}-{'-'.join(map(str, sizes))}/{b}.{k}"
            block.append(Op(label,
                            lambda spec=spec, cd=cd: slope.infinite_slope_verdict(spec, cd),
                            lambda v, kind=kind, spec=spec, cd=cd: check_verdict(kind, spec, cd, v),
                            lambda v: v.verdict))
        blocks.append(block)
    wrng = np.random.default_rng(12345)
    warm = []
    for make, sizes in ((dense_instance, (2, 4, 4, 4, 4)), (aligned_instance, (2, 6, 6, 6, 6))):
        spec, cd = make(wrng, sizes)
        warm.append(Op("warmup", lambda spec=spec, cd=cd: slope.infinite_slope_verdict(spec, cd),
                       lambda v: None))
    return Workload("certify", blocks, warm)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_SIZES = ((1, 2, 2, 2, 2), (1, 2, 3, 2, 3), (2, 2, 2, 3, 3),
               (2, 3, 3, 3, 3), (1, 3, 2, 2, 3), (2, 2, 3, 3, 2))
SWEEP_DIRECTION_SIZES = ((1, 2, 2, 2, 3), (2, 3, 3, 3, 3), (1, 3, 3, 2, 3))
SWEEP_BLOCKS = 6
#: slope_curve ops per block. On a shared host the CPU's speed can switch
#: between two modes (about 1.7x apart on the 2-core x86_64 machine this was
#: sized on), for seconds at a time, in a share that differs from run to run. A latency quantile that falls in the lower half of a
#: class of like ops moves with that share; one in its upper quarter does
#: not. With 18 rate ops, 1 ccf_curvature and 12 curves per block of 31,
#: op_p50_s sits at about 86% of the rate evaluations and op_p90_s at about
#: 74% of the curves.
SWEEP_CURVES = 12
#: Steps of every swept curve; a fixed count keeps the cost of a curve op
#: independent of how far the drawn direction may be followed.
SWEEP_STEPS = 8


def _schedule(cd, pert) -> list[float]:
    """SWEEP_STEPS geometric steps, a factor sqrt(10) apart, from just
    inside half the direction's validity limit."""
    top = min(0.1, slope.alpha_max(cd, pert) / 2.0)
    return [top * 10.0 ** (-k / 2.0) for k in range(SWEEP_STEPS)]


def _check_cf_rate(spec, cd, report) -> str | None:
    pdcf = relaynet.eval_pdcf(spec, cd)
    if not report.feasible:
        return f"zero-budget Markov instance reported infeasible (cf_required {report.cf_required:.3e})"
    gap = abs(min(report.bound1, report.bound2) - pdcf)
    if not gap <= VALUE_TOL:
        return f"min(bound1, bound2) differs from eval_pdcf by {gap:.3e}"
    return None


def _check_pdcf(spec, cd, rate, bec) -> str | None:
    if bec is not None:
        expect = zoo.bec_rate(*bec)
        if not abs(rate - expect) <= VALUE_TOL:
            return f"bec generic rate {rate!r} differs from bec_rate {expect!r}"
    report = relaynet.eval_cf_rate(spec, cd)
    gap = abs(min(report.bound1, report.bound2) - rate)
    if not gap <= VALUE_TOL:
        return f"eval_pdcf differs from min(bound1, bound2) by {gap:.3e}"
    return None


def _check_residuals(res) -> str | None:
    if not max(res) <= VALUE_TOL:
        return f"Markov-form reduction residuals {res} exceed {VALUE_TOL:g}"
    return None


def _check_curve(curve) -> str | None:
    for a, c, d, q in curve.points:
        if not all(math.isfinite(t) for t in (a, c, d, q)) or c < 0.0:
            return f"curve point (alpha={a!r}, ccf={c!r}, delta={d!r}, ratio={q!r}) is invalid"
    return None


def _check_curvature(spec, base, pert, rep) -> str | None:
    curve = slope.slope_curve(spec, base, pert, [a for a, _, _ in rep.points])
    curve_ccf = {a: c for a, c, _, _ in curve.points}
    for a, c, _ in rep.points:
        c2 = curve_ccf[a]
        if not (math.isfinite(c) and abs(c - c2) <= VALUE_TOL):
            return f"ccf_curvature ccf({a!r}) = {c!r} disagrees with slope_curve {c2!r}"
    return None


def _rate_ops(tag: str, spec, cd, bec=None) -> list[Op]:
    return [
        Op(f"{tag}/eval_cf_rate", lambda: relaynet.eval_cf_rate(spec, cd),
           lambda r: _check_cf_rate(spec, cd, r),
           lambda r: [r.bound1, r.bound2, r.cf_required]),
        Op(f"{tag}/eval_pdcf", lambda: relaynet.eval_pdcf(spec, cd),
           lambda r: _check_pdcf(spec, cd, r, bec), lambda r: r),
        Op(f"{tag}/pdcf_reduction_residuals",
           lambda: relaynet.pdcf_reduction_residuals(spec, cd), _check_residuals,
           lambda r: list(r)),
    ]


def _certified_direction(spec, cd):
    v = slope.infinite_slope_verdict(spec, cd)
    if v.verdict != slope.VERDICT_CERTIFIED:
        raise RuntimeError(f"sweep set-up: direction instance returned {v.verdict}")
    return v.direction


def build_sweep(seed: int) -> Workload:
    rng = _rng(seed, "sweep")
    bases = [(f"dense-{'-'.join(map(str, sizes))}", *dense_instance(rng, sizes))
             for sizes in SWEEP_DIRECTION_SIZES]
    p, q, c0 = (float(t) for t in rng.uniform([0.1, 0.1, 0.1], [0.9, 0.9, 0.6]))
    bases.append((f"bec-p{p:.3f}-q{q:.3f}", zoo.make_bec_pair(p, c0=c0),
                  zoo.bec_coding_dist(p, q)))
    directions = []
    for tag, spec, cd in bases:
        pert = _certified_direction(spec, cd)
        directions.append((tag, spec, cd, pert, _schedule(cd, pert)))

    blocks = []
    for b in range(SWEEP_BLOCKS):
        block: list[Op] = []
        for k in range(2):
            sizes = SWEEP_SIZES[(2 * b + k) % len(SWEEP_SIZES)]
            spec, cd = dense_instance(rng, sizes)
            block += _rate_ops(f"random-{'-'.join(map(str, sizes))}/{b}.{k}", spec, cd)
        for k in range(2):
            p, q, c0 = (float(t) for t in rng.uniform([0.02, 0.02, 0.0], [0.98, 0.98, 1.0]))
            block += _rate_ops(f"bec/{b}.{k}", zoo.make_bec_pair(p, c0=c0),
                               zoo.bec_coding_dist(p, q), bec=(p, q, c0))
            kernel = np.vstack([_pmf(rng, 3, 0.0) for _ in range(2)])
            p, delta, c0 = (float(t) for t in rng.uniform([0.02, 0.02, 0.0], [0.45, 0.45, 1.0]))
            block += _rate_ops(f"modadd/{b}.{k}", zoo.make_modadd(zoo.ModAddParams(p, delta, c0)),
                               zoo.modadd_coding_dist(kernel))
        for k in range(SWEEP_CURVES):
            tag, spec, cd, pert, steps = directions[(SWEEP_CURVES * b + k) % len(directions)]
            block.append(Op(f"{tag}/slope_curve/{b}.{k}",
                            lambda spec=spec, cd=cd, pert=pert, steps=steps:
                                slope.slope_curve(spec, cd, pert, steps),
                            _check_curve))
        tag, spec, cd, pert, steps = directions[b % len(directions)]
        block.append(Op(f"{tag}/ccf_curvature/{b}",
                        lambda spec=spec, cd=cd, pert=pert, steps=steps:
                            slope.ccf_curvature(spec, cd, pert, steps),
                        lambda rep, spec=spec, cd=cd, pert=pert: _check_curvature(spec, cd, pert, rep)))
        blocks.append(block)
    return Workload("sweep", blocks, list(blocks[0]))


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

MODADD_RESOLUTION = 20
MAC_RESOLUTION = 64
CAPACITY_BLOCKS = 12


def _check_modadd(params, res) -> str | None:
    k = np.asarray(res.kernel, dtype=float)
    pz = np.array([1.0 - params.p, params.p])
    pw = np.array([1.0 - params.delta, params.delta])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    p_yr = p_zyr.sum(axis=0)
    p_zv = p_zyr @ k
    h_v = _h(p_zv.sum(axis=0))
    info = h_v - float(sum(p_yr[yr] * _h(k[yr]) for yr in range(2)))
    if not info <= params.c0 + VALUE_TOL:
        return f"kernel has I(Yr;V) = {info!r} > c0 + 1e-9 = {params.c0 + VALUE_TOL!r}"
    value = 1.0 - (_h(p_zv.ravel()) - h_v)
    if not abs(value - res.value) <= VALUE_TOL:
        return f"reported value {res.value!r} recomputes to {value!r}"
    return None


def _check_mac(mac, value, adder: bool) -> str | None:
    if adder:
        return None if abs(value - 1.5) <= VALUE_TOL else f"adder MAC gives {value!r}, not 1.5"
    rows = mac.kernel.rows
    centre = _h(np.full(4, 0.25) @ rows) - 0.25 * sum(_h(r) for r in rows)
    if not centre - VALUE_TOL <= value <= math.log2(rows.shape[1]) + VALUE_TOL:
        return f"value {value!r} outside [I at (1/2, 1/2) = {centre!r}, log2|Y|]"
    return None


def build_capacity(seed: int) -> Workload:
    rng = _rng(seed, "capacity")
    p_levels = (0.05, 0.1, 0.2, 0.3)
    delta_levels = (0.05, 0.15, 0.3)
    c0_levels = (0.1, 0.3, 0.6)
    grid = list(itertools.product(p_levels, delta_levels, c0_levels))
    blocks = []
    for b in range(CAPACITY_BLOCKS):
        block = []
        for k in range(3):
            p, delta, c0 = (lvl * float(rng.uniform(0.9, 1.1)) for lvl in grid[(3 * b + k) % len(grid)])
            params = zoo.ModAddParams(p, delta, c0)
            block.append(Op(f"modadd-p{p:.4f}-d{delta:.4f}-c{c0:.4f}/{b}.{k}",
                            lambda params=params: zoo.modadd_capacity(params, MODADD_RESOLUTION),
                            lambda res, params=params: _check_modadd(params, res),
                            lambda res: res.value))
        for k, mac in enumerate((adder_mac(), random_mac(rng, 3 + b % 2))):
            block.append(Op(f"mac-{'adder' if k == 0 else 'random'}/{b}",
                            lambda mac=mac: diamond3.mac_sum_capacity_indep(mac, MAC_RESOLUTION),
                            lambda v, mac=mac, k=k: _check_mac(mac, v, k == 0),
                            lambda v: v))
        blocks.append(block)
    return Workload("capacity", blocks, [blocks[0][0], blocks[0][3]])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

#: Result fields compared against the reference. Directions, witnesses and
#: derivatives are solver-dependent and left out.
CLI_REF_KEYS = ("verdict", "kind", "rate", "achievable", "bound1", "bound2",
                "cf_required", "value", "c_sum0", "upper_bound", "q", "infeasible")


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def cli_commands(seed: int, workdir: str) -> list[list[list[str]]]:
    """The fixed command list, on spec and coding files written to ``workdir``,
    as two blocks of 11 with the same kinds of command: five on a spec pair,
    three bec examples and three others. A block is short enough that a run
    measures for most of ``--seconds`` instead of stopping after one pass."""
    rng = _rng(seed, "cli")
    os.makedirs(workdir, exist_ok=True)

    def dump(name: str, obj: dict) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    files = []
    for k in range(2):
        spec, cd = dense_instance(rng, (2, 4, 4, 4, 4))
        files.append((dump(f"spec{k}.json", spec.to_json_dict()),
                      dump(f"coding{k}.json", cd.to_json_dict())))
    mac = dump("mac.json", random_mac(rng, 3).to_json_dict())
    adder = dump("adder.json", adder_mac().to_json_dict())

    def num(lo: float, hi: float) -> str:
        return f"{float(rng.uniform(lo, hi)):.4f}"

    blocks: list[list[list[str]]] = [[], []]
    for block, (spec_path, coding_path) in zip(blocks, files):
        pair = ["--spec", spec_path, "--coding", coding_path]
        block += [["eval-thm1", *pair], ["eval-pdcf", *pair], ["check-slope", *pair],
                  ["check-slope", *pair, "--reduction"], ["sweep-curve", *pair]]
    for block in blocks:
        bec = ["--p", num(0.2, 0.8), "--q", num(0.2, 0.8), "--c0", num(0.1, 0.5)]
        block += [["example", "bec", "check-slope", *bec], ["example", "bec", "rate", *bec],
                  ["example", "bec", "eval-thm1", *bec]]
    others = [["example", "bec", "best-q", "--p", num(0.2, 0.8), "--c0", num(0.1, 0.5)],
              ["example", "bec", "sweep-curve", "--p", num(0.3, 0.7), "--q", num(0.3, 0.7),
               "--c0", num(0.1, 0.4)],
              ["example", "modadd", "capacity", "--p", num(0.05, 0.3), "--delta", num(0.05, 0.3),
               "--c0", num(0.1, 0.6)],
              ["diamond3", "mac-capacity", "--mac", adder],
              ["diamond3", "mac-capacity", "--mac", mac],
              ["diamond3", "rate-split", "--r0", num(0.5, 1.0), "--r1", num(0.1, 0.5),
               "--eps", "0.01"]]
    blocks[0] += others[:3]
    blocks[1] += others[3:]
    return blocks


def _label(argv: list[str]) -> str:
    """Command label without the file paths, stable across checkouts."""
    return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One cold CLI process, in the environment the benchmark was started with."""
    proc = subprocess.run([sys.executable, "-m", "cfdiamond.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _check_cli(out) -> str | None:
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    return None


def _cli_ref(out) -> Any:
    try:
        result = json.loads(out[1], parse_constant=_reject_constant).get("result", {})
    except ValueError:
        return None
    return {k: result[k] for k in CLI_REF_KEYS if k in result}


def build_cli(seed: int, root: str) -> Workload:
    workdir = os.path.join(root, ".bench_build", "cli-inputs", f"{os.getpid()}")
    blocks = [[Op(_label(argv), lambda argv=argv: run_cli(argv), _check_cli, _cli_ref, argv)
               for argv in cmds] for cmds in cli_commands(seed, workdir)]
    warm = [Op("warmup", lambda: run_cli(["diamond3", "upper-bound", "--c-sum0", "1.5"]),
               _check_cli)]

    return Workload("cli", blocks, warm, lambda: shutil.rmtree(workdir))


def build(name: str, seed: int, root: str) -> Workload:
    if name == "cli":
        wl = build_cli(seed, root)
    else:
        wl = {"certify": build_certify, "sweep": build_sweep,
              "capacity": build_capacity}[name](seed)
    labels = [op.label for op in wl.ops()]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: op labels are not unique")
    return wl
