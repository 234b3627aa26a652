"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and match the package defaults.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import cfdiamond as cfd
from cfdiamond.cli import EXIT_OK, main
from cfdiamond.probcore import Alphabet, CondKernel, FiniteDist, binary_entropy
from cfdiamond.relaynet import build_joint
from cfdiamond.slope import VERDICT_CERTIFIED
from conftest import (
    central_difference,
    rand_pmf,
    random_direction,
    random_markov_instance,
    relative_gap,
)


def report(number: int, description: str):
    """Decorator printing one pass/fail line per criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return inner
    return wrap


def aligned_instance(rng):
    """Random instance where v is independent of yr (alignment holds)."""
    x_a = Alphabet("x", 2)
    y1_a = Alphabet("y1", 2)
    yr_a = Alphabet("yr", 2)
    rows = np.vstack([rand_pmf(rng, 4, 0.2) for _ in range(2)])
    spec = cfd.RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows), c0=0.3)
    u_a = Alphabet("u", 1)
    v_a = Alphabet("v", 3)
    row = rand_pmf(rng, 3, 0.1)
    ux = FiniteDist((u_a, x_a), np.full((1, 2), 0.5))
    tensor = np.broadcast_to(np.tile(row, (2, 1)).reshape(1, 1, 1, 2, 3), (1, 2, 2, 2, 3))
    vk = CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, 3))
    return spec, cfd.CodingDist(ux, vk, markov_form=True)


@report(1, "cooperative bounds at zero budget reduce to PD/CF on 100 random instances")
def test_criterion_1_reduction():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(100):
        spec, cd = random_markov_instance(rng, max_size=3, c_cf=0.0)
        rep = cfd.eval_cf_rate(spec, cd)
        assert rep.feasible
        assert abs(rep.achievable - cfd.eval_pdcf(spec, cd)) <= 1e-9
    assert time.monotonic() - start < 10.0


@report(2, "derivative formulas match central finite differences (1e-4 relative, 100 instances)")
def test_criterion_2_derivatives():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 100:
        spec, cd = random_markov_instance(rng, max_size=3, full_support=True)
        pert = random_direction(rng, spec, cd)
        if pert.is_zero:
            continue
        joint = build_joint(spec, cd)
        f1, f2 = cfd.f_primes(joint, pert)
        fd1, fd2 = central_difference(spec, cd, pert, alpha=1e-5)
        assert relative_gap(f1, fd1) < 1e-4
        assert relative_gap(f2, fd2) < 1e-4
        checked += 1


@report(3, "cooperation cost is quadratic: ccf/alpha^2 matches kappa at alpha = 1e-4")
def test_criterion_3_curvature():
    spec = cfd.make_bec_pair(0.5, c0=0.25)
    cd = cfd.bec_coding_dist(0.5, 0.5)
    pert, _ = cfd.find_direction(build_joint(spec, cd), base=cd)
    rep = cfd.ccf_curvature(spec, cd, pert)
    ratios = [q for a, _, q in rep.points if a > 0]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))

    # the erasure pair at its best re-erasure, along the certified direction
    q, _ = cfd.bec_best_q(0.3, 0.25)
    spec, cd = cfd.make_bec_pair(0.3, c0=0.25), cfd.bec_coding_dist(0.3, q)
    curve = cfd.slope_curve(spec, cd, cfd.infinite_slope_verdict(spec, cd).direction, (1e-4,))
    assert f"{curve.kappa:.6g}" == "1.78802"
    ((alpha, ccf, _, _),) = curve.points
    assert relative_gap(ccf / alpha**2, curve.kappa) <= 1e-4

    rng = np.random.default_rng(103)
    done = 0
    while done < 20:
        spec, cd = random_markov_instance(rng, max_size=3, full_support=True)
        pert = random_direction(rng, spec, cd)
        if pert.is_zero:
            continue
        curve = cfd.slope_curve(spec, cd, pert, (1e-4,))
        ((alpha, ccf, _, _),) = curve.points
        assert relative_gap(ccf / alpha**2, curve.kappa) <= 1e-3
        done += 1


@report(4, "LP direction feasibility agrees with the alignment check on 100/100 instances")
def test_criterion_4_duality():
    rng = np.random.default_rng(104)
    agreements = 0
    for k in range(100):
        if k % 4 == 3:
            spec, cd = aligned_instance(rng)
        else:
            spec, cd = random_markov_instance(rng, max_size=3, full_support=True)
        joint = build_joint(spec, cd)
        _, t_star = cfd.find_direction(joint, base=cd)
        witness = cfd.check_lambda(joint)
        if (t_star > 1e-9) == (witness is None):
            agreements += 1
    assert agreements == 100


@report(5, "erasure-pair family: alignment verdicts and closed-form rate vs generic path")
def test_criterion_5_bec():
    rng = np.random.default_rng(105)
    for _ in range(20):
        p = float(rng.uniform(0.02, 0.98))
        q = float(rng.uniform(0.02, 0.98))
        assert cfd.bec_lambda_infeasibility(p, q).infeasible, (p, q)
    for p in (0.0, 1.0):
        assert not cfd.bec_lambda_infeasibility(p, 0.5).infeasible
    assert not cfd.bec_lambda_infeasibility(0.5, 1.0).infeasible

    for p in np.linspace(0.0, 1.0, 10):
        for q in np.linspace(0.0, 1.0, 10):
            cd = cfd.bec_coding_dist(p, q)
            for c0 in np.linspace(0.0, 1.0, 5):
                spec = cfd.make_bec_pair(p, c0=c0)
                assert abs(cfd.eval_pdcf(spec, cd) - cfd.bec_rate(p, q, c0)) <= 1e-9


@report(6, "modulo-additive optimizer matches a 10x-finer brute-force oracle; "
           "deterministic compressions are strictly suboptimal")
def test_criterion_6_modadd():
    p = delta = 0.1
    c0 = 0.2
    params = cfd.ModAddParams(p, delta, c0)
    resolution = 10
    result = cfd.modadd_capacity(params, resolution)

    # brute-force oracle: pure simplex grid at 10x resolution, no refinement
    pz = np.array([1 - p, p])
    pw = np.array([1 - delta, delta])
    p_zyr = np.array([[pz[z] * pw[z ^ yr] for yr in range(2)] for z in range(2)])
    p_yr = p_zyr.sum(axis=0)

    def h_rows(rows):
        safe = np.maximum(rows, 1e-300)
        return -np.where(rows > 0, rows * np.log2(safe), 0.0).sum(axis=-1)

    k = resolution * 10
    grid = np.array([(i / k, j / k, (k - i - j) / k)
                     for i in range(k + 1) for j in range(k + 1 - i)])
    h_grid = h_rows(grid)
    oracle = -np.inf
    chunk = 200
    for s in range(0, len(grid), chunk):
        r0 = grid[s:s + chunk]
        pv = p_yr[0] * r0[:, None, :] + p_yr[1] * grid[None, :, :]
        hv = h_rows(pv)
        info = hv - (p_yr[0] * h_grid[s:s + chunk, None] + p_yr[1] * h_grid[None, :])
        pzv0 = p_zyr[0, 0] * r0[:, None, :] + p_zyr[0, 1] * grid[None, :, :]
        pzv1 = p_zyr[1, 0] * r0[:, None, :] + p_zyr[1, 1] * grid[None, :, :]
        obj = 1.0 - (h_rows(pzv0) + h_rows(pzv1) - hv)
        obj = np.where(info <= c0 + 1e-9, obj, -np.inf)
        oracle = max(oracle, float(obj.max()))
    assert abs(result.value - oracle) <= 1e-3

    # deterministic compressions: evaluate every map yr -> v directly
    pe = p * (1 - delta) + delta * (1 - p)
    assert 0.0 < c0 < binary_entropy(pe)
    best_deterministic = -np.inf
    for v0, v1 in itertools.product(range(3), repeat=2):
        rows = np.zeros((2, 3))
        rows[0, v0] = rows[1, v1] = 1.0
        pv = p_yr[0] * rows[0] + p_yr[1] * rows[1]
        info = h_rows(pv) - (p_yr[0] * h_rows(rows[0]) + p_yr[1] * h_rows(rows[1]))
        if info > c0 + 1e-9:
            continue
        pzv0 = p_zyr[0, 0] * rows[0] + p_zyr[0, 1] * rows[1]
        pzv1 = p_zyr[1, 0] * rows[0] + p_zyr[1, 1] * rows[1]
        val = 1.0 - (h_rows(pzv0) + h_rows(pzv1) - h_rows(pv))
        best_deterministic = max(best_deterministic, float(val))
    assert result.value >= best_deterministic + 1e-3


@report(7, "certified erasure instance: gain per unit cooperation diverges as alpha -> 0")
def test_criterion_7_divergence():
    spec = cfd.make_bec_pair(0.5, c0=0.25)
    cd = cfd.bec_coding_dist(0.5, 0.5)
    verdict = cfd.infinite_slope_verdict(spec, cd)
    assert verdict.verdict == VERDICT_CERTIFIED
    curve = cfd.slope_curve(spec, cd, verdict.direction)
    by_alpha = {a: q for a, _, _, q in curve.points}
    assert by_alpha[1e-5] >= 10.0 * by_alpha[1e-1]
    last_four = [q for _, _, _, q in curve.points[-4:]]
    assert all(b > a for a, b in zip(last_four, last_four[1:]))


@report(8, "deterministic reduction preserves the rate terms on aligned instances")
def test_criterion_8_reduction():
    rng = np.random.default_rng(108)

    def spec_full(sy1, syr):
        x_a = Alphabet("x", 2)
        y1_a = Alphabet("y1", sy1)
        yr_a = Alphabet("yr", syr)
        rows = np.vstack([rand_pmf(rng, sy1 * syr, 0.2) for _ in range(2)])
        return cfd.RelayNetSpec(x_a, y1_a, yr_a,
                                CondKernel((x_a,), (yr_a, y1_a), rows), c0=0.3)

    def coding(spec, mk, u_pmf=None):
        mk = np.asarray(mk, dtype=float)
        su = mk.shape[0]
        u_a = Alphabet("u", su)
        v_a = Alphabet("v", mk.shape[-1])
        if u_pmf is None:
            u_pmf = np.full(su, 1.0 / su)
        ux = FiniteDist((u_a, spec.x_alphabet),
                        np.outer(u_pmf, np.full(2, 0.5)))
        tensor = np.broadcast_to(mk[:, None, None, :, :],
                                 (su, 2, spec.y1_alphabet.size, spec.yr_alphabet.size,
                                  mk.shape[-1]))
        return cfd.CodingDist(ux, CondKernel(
            (u_a, spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet), (v_a,),
            tensor.reshape(-1, mk.shape[-1])), markov_form=True)

    # two separated support blocks
    spec_a = spec_full(2, 4)
    mk_a = np.array([[
        [0.3, 0.7, 0.0, 0.0],
        [0.3, 0.7, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.6],
        [0.0, 0.0, 0.4, 0.6],
    ]])
    joint_a = build_joint(spec_a, coding(spec_a, mk_a))
    assert cfd.check_lambda(joint_a) is not None
    red_a = cfd.deterministic_reduction(joint_a)
    assert red_a.num_components == 2
    assert red_a.rate_residual <= 1e-9
    assert red_a.penalty_slack >= -1e-9

    # per-u structure: blocks under u = 0, full overlap under u = 1
    spec_b = spec_full(2, 2)
    mk_b = np.stack([
        np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]),
        np.tile(rand_pmf(rng, 4, 0.2), (2, 1)),
    ])
    joint_b = build_joint(spec_b, coding(spec_b, mk_b))
    assert cfd.check_lambda(joint_b) is not None
    red_b = cfd.deterministic_reduction(joint_b)
    assert red_b.w_of_yr[0, 0] != red_b.w_of_yr[0, 1]
    assert red_b.w_of_yr[1, 0] == red_b.w_of_yr[1, 1]
    assert red_b.rate_residual <= 1e-9
    assert red_b.penalty_slack >= -1e-9

    # deterministic compression already: reduction reproduces it
    spec_c = spec_full(2, 2)
    joint_c = build_joint(spec_c, coding(spec_c, [np.eye(2)]))
    red_c = cfd.deterministic_reduction(joint_c)
    assert red_c.rate_residual <= 1e-9
    assert red_c.w_of_yr[0, 0] != red_c.w_of_yr[0, 1]


@report(9, "three-relay arithmetic: halving bound, rate splits, transfer flags")
def test_criterion_9_diamond():
    assert cfd.diamond_upper_bound(1.5) == 0.75
    assert cfd.diamond_upper_bound(0.0) == 0.0

    rs1 = cfd.rate_split_achievable(1.0, 1.0, 1e-9)
    assert abs(rs1.rate - 1.0) < 1e-8
    rs2 = cfd.rate_split_achievable(1.0, 0.0, 1e-9)
    assert abs(rs2.rate - 0.5) < 1e-8 and abs(rs2.m2_size - 0.5) < 1e-8
    rs3 = cfd.rate_split_achievable(0.8, 0.4, 0.01)
    assert rs3.rate == pytest.approx(0.59, abs=1e-12)
    assert (rs3.first_fraction, rs3.coded_fraction, rs3.padding_fraction) == \
        pytest.approx((0.4, 0.4, 0.2), abs=1e-12)

    sqrt_curve = cfd.CoopCurve(tuple((c, 1.0 + np.sqrt(c))
                                     for c in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)))
    assert cfd.slope_transfer(sqrt_curve).diverging
    linear_curve = cfd.CoopCurve(tuple((c, 1.0 + 3.0 * c)
                                       for c in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)))
    assert not cfd.slope_transfer(linear_curve).diverging


@report(10, "identical CLI configurations produce byte-identical reports")
def test_criterion_10_determinism(tmp_path):
    cases = [
        (["example", "bec", "check-slope", "--p", "0.5", "--q", "0.5", "--c0", "0.25"], "json"),
        (["example", "bec", "sweep-curve", "--p", "0.5", "--q", "0.5", "--c0", "0.25"], "csv"),
        (["example", "modadd", "capacity", "--p", "0.1", "--delta", "0.1", "--c0", "0.2"], "json"),
    ]
    for idx, (args, fmt) in enumerate(cases):
        outs = []
        for run_id in range(2):
            out = tmp_path / f"case{idx}-{run_id}.{fmt}"
            code = main(["--format", fmt, "--out", str(out), *args])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
