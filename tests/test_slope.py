import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfdiamond import probcore
from cfdiamond.probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    PreconditionError,
    compose,
    mutual_information,
)
from cfdiamond import slope as slope_module
from cfdiamond.relaynet import (
    CANON_ORDER,
    CodingDist,
    RateTerms,
    RelayNetSpec,
    build_joint,
    mi_terms,
    rate_bounds,
)
from cfdiamond.slope import (
    AlphaRangeError,
    JointView,
    Perturbation,
    SlopeVerdict,
    VERDICT_ALIGNED,
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_PRECONDITION,
    REDUCTION_DETERMINISTIC,
    REDUCTION_INFINITE_SLOPE,
    alpha_max,
    ccf_curvature,
    check_lambda,
    default_schedule,
    deterministic_reduction,
    f_primes,
    find_direction,
    full_support_verdict,
    infinite_slope_verdict,
    perturb,
    slope_curve,
    validate_against_joint,
    _components,
    _deviation,
    _dual_solve,
)
from cfdiamond.zoo import ModAddParams, bec_coding_dist, make_bec_pair, make_modadd, \
    modadd_capacity, modadd_coding_dist
from conftest import (
    attempt,
    block_aligned_instance,
    central_difference,
    components_dfs,
    count_calls,
    least_deviation,
    rand_pmf,
    random_direction,
    random_markov_instance,
    record_entropy_passes,
    reduction_by_kernel,
    relative_gap,
    zero_rich_instance,
)


def bec_instance(p=0.5, q=0.5, c0=0.25):
    return make_bec_pair(p, c0=c0), bec_coding_dist(p, q)


def markov_cd_from_rows(spec, mk_rows, u_size=1):
    """CodingDist with p(v | u, yr) given as an array (u, yr, v)."""
    mk = np.asarray(mk_rows, dtype=float)
    u_a = Alphabet("u", u_size)
    x_a = spec.x_alphabet
    v_a = Alphabet("v", mk.shape[-1])
    ux = FiniteDist((u_a, x_a), np.full((u_size, x_a.size), 1.0 / (u_size * x_a.size)))
    tensor = np.broadcast_to(
        mk[:, None, None, :, :],
        (u_size, x_a.size, spec.y1_alphabet.size, spec.yr_alphabet.size, mk.shape[-1]))
    vk = CondKernel((u_a, x_a, spec.y1_alphabet, spec.yr_alphabet), (v_a,),
                    tensor.reshape(-1, mk.shape[-1]))
    return CodingDist(ux, vk, markov_form=True)


def full_support_spec(rng, sy1=2, syr=2):
    x_a = Alphabet("x", 2)
    y1_a = Alphabet("y1", sy1)
    yr_a = Alphabet("yr", syr)
    rows = np.vstack([rand_pmf(rng, sy1 * syr, 0.2) for _ in range(2)])
    return RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows), c0=0.3)


# ---------------------------------------------------------------------------
# perturbation family
# ---------------------------------------------------------------------------


def test_perturbation_invariants_enforced():
    spec, cd = bec_instance()
    shape = cd.v_kernel.tensor.shape
    bad = np.zeros(shape)
    bad[0, 0, 0, 0, 0] = 0.5  # row sum not zero
    with pytest.raises(ValueError, match="sum to zero"):
        Perturbation(bad, cd)
    bad2 = np.zeros(shape)
    bad2[0, 0, 0, 0, 1] = 0.5  # v=1 has no support under yr=0
    bad2[0, 0, 0, 0, 0] = -0.5
    with pytest.raises(ValueError, match="support"):
        Perturbation(bad2, cd)


@pytest.mark.parametrize("levels", [None, 3])
def test_perturbation_returns_r_exactly(levels):
    # Rows that are rounded to thirds and then made to sum to zero (31
    # distinct values) or left unrounded are stored as float64; both must
    # give back the same read-only array. The 4-bit codes are tested below.
    rng = np.random.default_rng(22)
    spec = full_support_spec(rng, sy1=4, syr=4)
    cd = markov_cd_from_rows(spec, [[rand_pmf(rng, 12, 0.2) for _ in range(4)]])
    shape = cd.v_kernel.tensor.shape
    r = rng.uniform(-1.0, 1.0, shape)
    if levels is not None:
        r = np.round(r * levels) / levels
    r[..., -1] -= r.sum(axis=-1)
    pert = Perturbation(r, cd)
    assert np.array_equal(pert.r, r)
    assert not pert.r.flags.writeable
    assert not pert.is_zero
    assert np.array_equal(pert.scaled(-2.0).r, -2.0 * r)


def _exact_direction(rng, cd, distinct):
    """A direction with exactly ``distinct`` values (16 or 17), exact zero
    row sums, and both nibbles of the 4-bit codes in use.

    Rows (a, -a, 0) give 0 and +-a; one row (2b, -b, -b) with -b already
    present adds 2b. The kernel needs |V| = 3 and full support.
    """
    shape = cd.v_kernel.tensor.shape
    n_rows = math.prod(shape[:-1])
    levels = rng.uniform(0.01, 0.3, size=(distinct - 1) // 2)
    rows = [(a, -a, 0.0) for a in levels]
    if distinct % 2 == 0:
        rows.append((2.0 * levels[0], -levels[0], -levels[0]))
    rows += [rows[k % len(rows)] for k in range(n_rows - len(rows))]
    r = np.array([rng.permutation(row) for row in rows])[rng.permutation(n_rows)]
    r = r.reshape(shape)
    assert np.unique(r).size == distinct and not np.any(r.sum(axis=-1))
    return r


@pytest.mark.parametrize("distinct", [16, 17])
@pytest.mark.parametrize("sizes", [(1, 3, 3, 3, 3), (1, 3, 3, 1, 3)])  # 81 and 27 entries
def test_perturbation_round_trips_bit_for_bit(distinct, sizes):
    rng = np.random.default_rng(23)
    _, cd = sized_instance(rng, sizes)
    r = _exact_direction(rng, cd, distinct)
    assert r.size % 2 == 1
    pert = Perturbation(r, cd)
    assert pert.r.tobytes() == r.tobytes()
    assert not pert.r.flags.writeable
    if distinct == 16:
        assert type(pert._codes) is bytes and len(pert._codes) == (r.size + 1) // 2
    else:
        assert pert._codes is None


def test_perturbation_packs_find_direction_directions():
    rng = np.random.default_rng(24)
    for sizes in ((2, 4, 4, 4, 4), (1, 3, 3, 3, 3), (2, 5, 3, 3, 3)):
        spec, cd = sized_instance(rng, sizes)
        pert, _ = find_direction(build_joint(spec, cd), base=cd)
        r = pert.r
        assert np.unique(r).size <= 9
        assert len(pert._codes) == math.ceil(r.size / 2)
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[(0,) * r.ndim] = 1.0
        # What reads r sees the stored values exactly.
        assert pert.to_json_dict() == {"shape": list(r.shape), "r": r.ravel().tolist()}
        assert pert.scaled(-0.5).r.tobytes() == (-0.5 * r).tobytes()
        p = cd.v_kernel.tensor
        pos, neg = r > 1e-15, r < -1e-15
        assert alpha_max(cd, pert) == min(((1.0 - p[pos]) / r[pos]).min(),
                                          (p[neg] / -r[neg]).min())


def test_perturb_alpha_zero_returns_base():
    rng = np.random.default_rng(20)
    spec, cd = random_markov_instance(rng, full_support=True)
    pert = random_direction(rng, spec, cd)
    assert perturb(cd, pert, 0.0) is cd


def test_perturb_at_alpha_max_hits_boundary():
    rng = np.random.default_rng(21)
    spec, cd = random_markov_instance(rng, full_support=True)
    pert = random_direction(rng, spec, cd)
    amax = alpha_max(cd, pert)
    q = perturb(cd, pert, amax).v_kernel.tensor
    closest = min(float(q.min()), float((1.0 - q).min()))
    assert closest == pytest.approx(0.0, abs=1e-12)


def test_perturb_rows_renormalize_exactly():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    q = perturb(cd, pert, 1e-3)
    sums = q.v_kernel.rows.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_perturb_range_error_names_entry():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    with pytest.raises(AlphaRangeError, match=r"entry \(u,x,y1,yr,v\)=\((\d+, ){4}\d+\) "):
        perturb(cd, pert, alpha_max(cd, pert) * 1.5)


def test_perturb_preserves_support_strictly_inside():
    rng = np.random.default_rng(22)
    for _ in range(20):
        spec, cd = random_markov_instance(rng, full_support=True)
        pert = random_direction(rng, spec, cd)
        if pert.is_zero:
            continue
        amax = alpha_max(cd, pert)
        joint_p = build_joint(spec, cd)
        joint_q = build_joint(spec, perturb(cd, pert, amax / 2))
        assert np.array_equal(joint_p.pmf > 1e-12, joint_q.pmf > 1e-12)


def test_alpha_max_zero_direction_is_infinite():
    spec, cd = bec_instance()
    pert = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    assert alpha_max(cd, pert) == float("inf")


def test_alpha_max_half_entry():
    # single perturbed coordinate at value 0.5 with r = -1 allows step 0.5
    rng = np.random.default_rng(23)
    spec = full_support_spec(rng)
    cd = markov_cd_from_rows(spec, [[[0.5, 0.5], [0.5, 0.5]]])
    r = np.zeros(cd.v_kernel.tensor.shape)
    r[0, 0, 0, 0, 0] = -1.0
    r[0, 0, 0, 0, 1] = 1.0
    pert = Perturbation(r, cd)
    assert alpha_max(cd, pert) == pytest.approx(0.5, abs=1e-15)


def test_alpha_max_matches_bisection():
    rng = np.random.default_rng(24)

    def bisect(cd, pert):
        def ok(a):
            q = cd.v_kernel.tensor + a * pert.r
            return q.min() >= -1e-15 and q.max() <= 1.0 + 1e-15
        hi = 1.0
        while ok(hi):
            hi *= 2.0
            if hi > 1e9:
                return float("inf")
        lo = 0.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo

    for _ in range(15):
        spec, cd = random_markov_instance(rng, full_support=True)
        pert = random_direction(rng, spec, cd)
        if pert.is_zero:
            continue
        assert alpha_max(cd, pert) == pytest.approx(bisect(cd, pert), abs=1e-9)


def test_validate_against_joint():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    validate_against_joint(pert, joint)  # no error


# ---------------------------------------------------------------------------
# derivatives and curvature
# ---------------------------------------------------------------------------


def test_f_primes_zero_direction():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    assert f_primes(joint, pert) == (0.0, 0.0)


def test_f_primes_match_finite_differences():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 30:
        spec, cd = random_markov_instance(rng, full_support=True)
        pert = random_direction(rng, spec, cd)
        if pert.is_zero:
            continue
        joint = build_joint(spec, cd)
        f1, f2 = f_primes(joint, pert)
        fd1, fd2 = central_difference(spec, cd, pert, alpha=1e-5)
        assert relative_gap(f1, fd1) < 1e-4
        assert relative_gap(f2, fd2) < 1e-4
        checked += 1


def test_ccf_zero_at_alpha_zero_and_zero_direction():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    rep = ccf_curvature(spec, cd, pert, alphas=(0.0, 1e-2))
    assert rep.points[0][1] == 0.0
    assert rep.points[1][1] > 0.0
    zero = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    rep0 = ccf_curvature(spec, cd, zero, alphas=(1e-1, 1e-2, 1e-3))
    assert all(c == 0.0 for _, c, _ in rep0.points)


#: Schedules with an entry that is negative, NaN or infinite.
BAD_SCHEDULES = [(-1e-3, 1e-3), (float("nan"), 1e-3), (1e-3, float("inf"))]


def _no_joint(*args, **kwargs):
    raise AssertionError("a joint was built before the schedule was checked")


@pytest.mark.parametrize("curve", [slope_curve, ccf_curvature])
@pytest.mark.parametrize("alphas", BAD_SCHEDULES)
def test_curves_reject_bad_alphas_before_evaluating(monkeypatch, curve, alphas):
    spec, cd = bec_instance()
    pert, _ = find_direction(build_joint(spec, cd), base=cd)
    zero = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    monkeypatch.setattr(slope_module, "build_joint", _no_joint)
    for direction in (pert, zero):
        with pytest.raises(AlphaRangeError, match="finite and nonnegative"):
            curve(spec, cd, direction, alphas)


@pytest.mark.parametrize("curve", [slope_curve, ccf_curvature])
def test_curves_reject_alpha_beyond_limit_before_evaluating(monkeypatch, curve):
    spec, cd = bec_instance()
    pert, _ = find_direction(build_joint(spec, cd), base=cd)
    monkeypatch.setattr(slope_module, "build_joint", _no_joint)
    with pytest.raises(AlphaRangeError, match=r"entry \(u,x,y1,yr,v\)=\((\d+, ){4}\d+\) "):
        curve(spec, cd, pert, (1e-3, alpha_max(cd, pert) * 2))


@pytest.mark.parametrize("alpha", [-1e-3, float("nan"), float("inf")])
def test_perturb_rejects_bad_alpha(alpha):
    spec, cd = bec_instance()
    pert, _ = find_direction(build_joint(spec, cd), base=cd)
    with pytest.raises(AlphaRangeError, match="finite and nonnegative"):
        perturb(cd, pert, alpha)


def test_slope_curve_alpha_zero_is_the_base_point():
    spec, cd = bec_instance(0.8, 0.2, 0.25)
    pert, _ = find_direction(build_joint(spec, cd), base=cd)
    curve = slope_curve(spec, cd, pert, (1e-2, 0.0))
    assert curve.points[-1] == (0.0, 0.0, 0.0, 0.0)
    assert curve.points[0][1] > 0.0


def test_ccf_curvature_quadratic_on_bec():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    rep = ccf_curvature(spec, cd, pert, alphas=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4))
    ratios = [q for _, _, q in rep.points]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    kappa = slope_curve(spec, cd, pert, (1e-4,)).kappa
    assert relative_gap(rep.points[-1][1] / 1e-4**2, kappa) <= 1e-3


def test_ccf_curvature_empty_schedule_rejected():
    spec, cd = bec_instance()
    pert = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    with pytest.raises(ValueError):
        ccf_curvature(spec, cd, pert, alphas=())


# ---------------------------------------------------------------------------
# direction LP and lambda check
# ---------------------------------------------------------------------------


def test_find_direction_v_independent_of_yr():
    rng = np.random.default_rng(26)
    spec = full_support_spec(rng)
    row = rand_pmf(rng, 3, 0.2)
    cd = markov_cd_from_rows(spec, [[row, row]])
    joint = build_joint(spec, cd)
    pert, t = find_direction(joint, base=cd)
    assert t <= 1e-9
    assert check_lambda(joint) is not None


def test_find_direction_bec_positive():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, t = find_direction(joint, base=cd)
    assert t > 1e-9
    f1, f2 = f_primes(joint, pert)
    assert min(f1, f2) > 1e-9
    assert f1 == pytest.approx(t, rel=1e-6)


def test_find_direction_rejects_non_markov_joint():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    joint_q = build_joint(spec, perturb(cd, pert, 0.05))
    with pytest.raises(PreconditionError, match="not Markov"):
        find_direction(joint_q, base=cd)


def test_check_lambda_v_independent_of_everything():
    rng = np.random.default_rng(27)
    spec = full_support_spec(rng)
    row = rand_pmf(rng, 3, 0.2)
    cd = markov_cd_from_rows(spec, [[row, row]])
    joint = build_joint(spec, cd)
    lam, dev = check_lambda(joint)
    assert lam == 0.0
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_check_lambda_bec_interior_none():
    for p, q in [(0.5, 0.5), (0.3, 0.6), (0.7, 0.2)]:
        spec, cd = bec_instance(p, q)
        assert check_lambda(build_joint(spec, cd)) is None


def test_check_lambda_bec_degenerate_found():
    for p, q in [(0.5, 1.0), (0.0, 0.5), (1.0, 0.5)]:
        spec, cd = bec_instance(p, q)
        assert check_lambda(build_joint(spec, cd)) is not None


def test_duality_consistency_sample():
    rng = np.random.default_rng(28)
    agree = 0
    for k in range(30):
        if k % 3 == 2:
            # constructed alignment-side instance: v independent of yr
            spec = full_support_spec(rng)
            row = rand_pmf(rng, 3, 0.1)
            cd = markov_cd_from_rows(spec, [[row, row]])
        else:
            spec, cd = random_markov_instance(rng, full_support=True)
        joint = build_joint(spec, cd)
        _, t = find_direction(joint, base=cd)
        witness = check_lambda(joint)
        assert (t > 1e-9) == (witness is None)
        agree += 1
    assert agree == 30


@pytest.mark.parametrize("lam0", [0.137, 0.5, 0.861])
def test_dual_solve_finds_interior_lambda(lam0):
    # g2 = -lam0*drift + a per-row constant: every row is constant in v at
    # lam0 and only there. Unsupported entries hold junk the solve must skip.
    # The rows are the tuples of a hand-built view, with g1 = g2 + drift.
    rng = np.random.default_rng(31)
    rows, nv = 40, 5
    free = rng.random((rows, nv)) < 0.7
    free[:, :2] = True
    drift = np.where(free, rng.normal(0.0, 3.0, (rows, nv)), 1e6)
    const = rng.normal(0.0, 10.0, (rows, 1))
    g2 = np.where(free, -lam0 * drift + const, -1e6)
    shape = (1, rows, 1, 1, nv)
    view = JointView(None, rng.uniform(0.5, 1.5, shape[:4]), free.reshape(shape), None,
                     (g2 + drift).reshape(shape), g2.reshape(shape), drift.reshape(shape))
    lam, t_star, r = _dual_solve(view)
    assert lam == pytest.approx(lam0, abs=1e-9)
    assert _deviation(view, lam) <= 1e-12
    assert abs(t_star) <= 1e-12
    assert not r[~view.free].any()


def _log_cond(m, tol=1e-12):
    """log2 p(v | rest) from a marginal whose last axis is v; 0 off support."""
    total = m.sum(axis=-1, keepdims=True)
    c = np.divide(m, total, out=np.zeros_like(m), where=total > tol)
    return np.where(c > tol, np.log2(np.maximum(c, tol)), 0.0)


def _grid_deviation(joint, lams):
    """Largest alignment spread at each lambda, from the pmf directly."""
    p = joint.pmf  # (u, x, y1, yr, v)
    l1 = _log_cond(p.sum(axis=3))[:, :, :, None, :]
    l_y1 = _log_cond(p.sum(axis=(1, 3)))[:, None, :, None, :]
    l_yr = _log_cond(p.sum(axis=(1, 2)))[:, None, None, :, :]
    free = p > 1e-12
    lam = np.asarray(lams)[:, None, None, None, None, None]
    d = l1 - lam * l_y1 - (1.0 - lam) * l_yr
    spread = np.where(free, d, -np.inf).max(axis=-1) - np.where(free, d, np.inf).min(axis=-1)
    spread = np.where(free.sum(axis=-1) >= 2, spread, 0.0)
    return spread.reshape(len(lams), -1).max(axis=1, initial=0.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["zero_rich", "dense", "sparse"]))
def test_verdict_reads_one_dual_solve(seed, kind):
    # Strong duality: outside INCONCLUSIVE, exactly one of the two witnesses
    # passes its tolerance, and the verdict names it.
    if kind == "zero_rich":
        spec, cd = zero_rich_instance(seed)
    else:
        rng = np.random.default_rng(seed)
        spec, cd = random_markov_instance(rng, max_size=3, full_support=kind == "dense")
    joint = build_joint(spec, cd)
    view = JointView.of(joint)
    lam, t_star, _ = _dual_solve(view)
    dev = _deviation(view, lam)
    assert 0.0 <= lam <= 1.0
    assert dev == pytest.approx(_grid_deviation(joint, [lam])[0], abs=1e-12)
    v = infinite_slope_verdict(spec, cd)
    if v.verdict in (VERDICT_PRECONDITION, VERDICT_INCONCLUSIVE):
        return
    tol = slope_module.config.CONFIG
    assert (dev <= tol.tol_dev) != (t_star > tol.tol_lp)
    assert v.verdict == (VERDICT_CERTIFIED if t_star > tol.tol_lp else VERDICT_ALIGNED)


def _linprog_value(joint, cd):
    """The direction LP solved by HiGHS: max t, f1' >= t, f2' >= t, zero sum
    per tuple, |r| <= 1 on free coordinates."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    p5 = joint.pmf
    tuple_p = p5.sum(axis=4)
    mk = cd.v_kernel.tensor[:, 0, 0, :, :]
    free5 = (tuple_p > 1e-12)[..., None] & (mk[:, None, None, :, :] > 1e-12)
    coords = np.argwhere(free5)
    if coords.shape[0] == 0:
        return 0.0

    l1 = _log_cond(p5.sum(axis=3))
    l_y1 = _log_cond(p5.sum(axis=(1, 3)))
    l_yr = _log_cond(p5.sum(axis=(1, 2)))
    iu, ix, iy1, iyr, iv = coords.T
    n = coords.shape[0]
    w = tuple_p[iu, ix, iy1, iyr]
    a = w * (l1[iu, ix, iy1, iv] - l_y1[iu, iy1, iv])
    b = w * (l1[iu, ix, iy1, iv] - l_yr[iu, iyr, iv])
    _, inverse = np.unique(np.ravel_multi_index((iu, ix, iy1, iyr), free5.shape[:4]),
                           return_inverse=True)
    a_eq = np.zeros((inverse.max() + 1, n + 1))
    a_eq[inverse, np.arange(n)] = 1.0
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.vstack([np.append(-a, 1.0), np.append(-b, 1.0)]),
                  b_ub=np.zeros(2), A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                  bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1])


def test_find_direction_matches_linprog():
    rng = np.random.default_rng(32)
    cases = [bec_instance(p, q) for p, q in [(0.5, 0.5), (0.2, 0.7), (0.5, 1.0), (0.0, 0.4)]]
    cases += [random_markov_instance(rng, max_size=4, full_support=k % 2 == 0)
              for k in range(46)]
    for spec, cd in cases:
        joint = build_joint(spec, cd)
        pert, t_star = find_direction(joint, base=cd)
        assert t_star == pytest.approx(_linprog_value(joint, cd), abs=1e-9)
        assert np.abs(pert.r).max(initial=0.0) <= 1.0
        f1, f2 = f_primes(joint, pert)
        assert min(f1, f2) == pytest.approx(t_star, abs=1e-12)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verdict_bec_certified():
    spec, cd = bec_instance(0.5, 0.5, 0.25)
    v = infinite_slope_verdict(spec, cd)
    assert v.verdict == VERDICT_CERTIFIED
    assert v.precondition_strict
    assert v.lp_value > 1e-9
    assert v.direction is not None
    assert min(v.f1_prime, v.f2_prime) > 0.5e-9


def test_verdict_precondition_fails_on_copy():
    x_a = Alphabet("x", 2)
    y1_a = Alphabet("y1", 2)
    yr_a = Alphabet("yr", 2)
    rows = np.zeros((2, 4))
    for x in range(2):
        rows[x, x * 2 + x] = 1.0
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows), c0=1.0)
    cd = markov_cd_from_rows(spec, [np.eye(2)])  # v = yr exactly
    v = infinite_slope_verdict(spec, cd)
    assert v.verdict == VERDICT_PRECONDITION
    assert not v.precondition_strict


def test_verdict_aligned_when_v_independent():
    rng = np.random.default_rng(29)
    spec = full_support_spec(rng)
    row = rand_pmf(rng, 3, 0.2)
    cd = markov_cd_from_rows(spec, [[row, row]])
    v = infinite_slope_verdict(spec, cd)
    assert v.verdict == VERDICT_ALIGNED
    assert v.lambda_witness is not None


def test_verdict_modadd_optimal_certified():
    params = ModAddParams(0.1, 0.1, 0.2)
    spec = make_modadd(params)
    search = modadd_capacity(params, 10)
    cd = modadd_coding_dist(search.kernel)
    v = infinite_slope_verdict(spec, cd)
    assert v.verdict == VERDICT_CERTIFIED


def with_broadcast(spec, rows):
    return RelayNetSpec(spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet,
                        CondKernel(spec.broadcast.from_vars, spec.broadcast.to_vars, rows),
                        c0=spec.c0)


def moved_off_alignment(spec, eps):
    """The aligned spec with eps of p(y1=0, yr=f(0, 0) | x=0) moved to the
    next yr letter: one tuple of probability near eps breaks the alignment."""
    rows = spec.broadcast.rows.copy()
    grid = rows[0].reshape(spec.yr_alphabet.size, spec.y1_alphabet.size)
    yr = int(np.flatnonzero(grid[:, 0])[0])
    grid[yr, 0] -= eps
    grid[(yr + 1) % spec.yr_alphabet.size, 0] += eps
    rows[0] = grid.ravel()
    return with_broadcast(spec, rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdict_gray_zone_is_inconclusive(seed):
    # At eps = 1e-10 the least alignment deviation is 0.74 to 1.21 and t* is
    # near 8e-11: neither witness passes its tolerance, so the verdict may
    # claim neither certificate.
    spec, cd = sized_instance(np.random.default_rng(seed), (1, 3, 3, 3, 3), aligned=True)
    tol = slope_module.config.CONFIG
    for eps in (1e-6, 1e-8):
        assert infinite_slope_verdict(moved_off_alignment(spec, eps), cd).verdict == \
            VERDICT_CERTIFIED
    gray = moved_off_alignment(spec, 1e-10)
    v = infinite_slope_verdict(gray, cd)
    assert v.verdict == VERDICT_INCONCLUSIVE
    assert 0.0 < v.lp_value <= tol.tol_lp
    assert v.lambda_witness[1] > tol.tol_dev
    assert v.direction is None
    assert least_deviation(build_joint(gray, cd))[1] > 0.5  # no lambda is a witness


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_support_and_slope_verdicts_agree_in_the_gray_zone(seed):
    # Every broadcast entry raised by 1e-11: full support, t* between 5e-11
    # and 3e-10, and no alignment witness. Both verdicts read one solve by
    # one rule, so they agree.
    spec, cd = sized_instance(np.random.default_rng(seed), (1, 3, 3, 3, 3), aligned=True)
    rows = spec.broadcast.rows + 1e-11
    spec = with_broadcast(spec, rows / rows.sum(axis=1, keepdims=True))
    v = infinite_slope_verdict(spec, cd)
    rv = full_support_verdict(spec, cd)
    assert v.verdict == rv.kind == VERDICT_INCONCLUSIVE
    assert v.lambda_witness == rv.lambda_witness
    assert rv.reduction is None


# ---------------------------------------------------------------------------
# one view per verdict
# ---------------------------------------------------------------------------


def sized_instance(rng, sizes, aligned=False, floor=0.1):
    """A Markov instance of sizes (|U|, |X|, |Y1|, |Yr|, |V|). Aligned: yr is
    a function of (x, y1), so lambda = 0 is an alignment witness."""
    su, sx, sy1, syr, sv = sizes
    u_a, x_a, y1_a, yr_a, v_a = (Alphabet(n, k) for n, k in zip(("u", "x", "y1", "yr", "v"),
                                                                 sizes))
    if aligned:
        f = rng.integers(0, syr, size=(sx, sy1))
        rows = np.zeros((sx, syr * sy1))
        for x in range(sx):
            rows[x, f[x] * sy1 + np.arange(sy1)] = rand_pmf(rng, sy1, floor)
    else:
        rows = np.vstack([rand_pmf(rng, syr * sy1, floor) for _ in range(sx)])
    ux = FiniteDist((u_a, x_a), rand_pmf(rng, su * sx, floor))
    mk = np.array([[rand_pmf(rng, sv, floor) for _ in range(syr)] for _ in range(su)])
    tensor = np.broadcast_to(mk[:, None, None], (su, sx, sy1, syr, sv))
    cd = CodingDist(ux, CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, sv)),
                    markov_form=True)
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=float(rng.uniform(0.1, 1.0)))
    return spec, cd


def reference_verdict(spec, cd):
    """The verdict as every step once computed it: all nine rate terms for
    the precondition, each step building its own tables from the joint, and
    the alignment witness from its own least-deviation search."""
    joint = build_joint(spec, cd)
    _, _, _, terms = rate_bounds(joint, spec.c0)
    if not terms["I(X;Y1,Yr|U)"] - terms["I(X;Y1,V|U)"] > slope_module.config.CONFIG.tol_norm:
        return SlopeVerdict(VERDICT_PRECONDITION, False, 0.0, None)
    tol_dev = slope_module.config.CONFIG.tol_dev
    lam, dev = least_deviation(joint, stop=tol_dev)
    if dev <= tol_dev:
        return SlopeVerdict(VERDICT_ALIGNED, True, 0.0, (lam, dev))
    pert, t_star = find_direction(joint, base=cd)
    f1p, f2p = f_primes(joint, pert)
    tol_lp = slope_module.config.CONFIG.tol_lp
    if t_star > tol_lp and min(f1p, f2p) > tol_lp / 2.0:
        return SlopeVerdict(VERDICT_CERTIFIED, True, t_star, None, pert, f1p, f2p)
    return SlopeVerdict(VERDICT_INCONCLUSIVE, True, t_star, (lam, dev))


def outcome(fn, *args):
    """The verdict's JSON text less the alignment witness, and the witness;
    or the error it raised."""
    try:
        report = fn(*args).to_json_dict()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    witness = report.pop("lambda_witness")
    return json.dumps(report), witness


LADDER_SIZES = ((2, 4, 4, 4, 4), (2, 6, 6, 6, 6), (3, 6, 6, 6, 6), (3, 8, 8, 8, 8))


@pytest.mark.parametrize("sizes", LADDER_SIZES)
def test_verdict_is_bit_identical_to_reference(sizes):
    rng = np.random.default_rng([41, *sizes])
    kinds = set()
    for k in range(4):
        spec, cd = sized_instance(rng, sizes, aligned=k % 2 == 1)
        got = infinite_slope_verdict(spec, cd)
        assert json.dumps(got.to_json_dict()) == json.dumps(
            reference_verdict(spec, cd).to_json_dict())
        kinds.add(got.verdict)
    assert kinds == {VERDICT_CERTIFIED, VERDICT_ALIGNED}


def test_verdict_precondition_fails_like_reference():
    x_a, y1_a, yr_a = Alphabet("x", 2), Alphabet("y1", 2), Alphabet("yr", 2)
    rows = np.array([[0.7, 0.0, 0.0, 0.3], [0.2, 0.0, 0.0, 0.8]])  # yr = y1
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows), c0=0.4)
    cd = markov_cd_from_rows(spec, [np.eye(2)])  # v = yr = y1
    got = infinite_slope_verdict(spec, cd)
    assert got.verdict == VERDICT_PRECONDITION
    assert json.dumps(got.to_json_dict()) == json.dumps(
        reference_verdict(spec, cd).to_json_dict())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verdict_matches_reference_with_zeros(seed):
    # Where alignment holds on an interval of lambda, the dual solve and the
    # reference's search may report different points of it; and in the
    # gray zone the solve's lambda* need not be the least misaligned. So
    # the witness is checked by its deviation.
    spec, cd = zero_rich_instance(seed)
    got, witness = outcome(infinite_slope_verdict, spec, cd)
    want, ref_witness = outcome(reference_verdict, spec, cd)
    assert got == want
    assert (witness is None) == (ref_witness is None)
    if witness is not None:
        lam, dev = witness["lambda"], witness["max_deviation"]
        assert dev == pytest.approx(_grid_deviation(build_joint(spec, cd), [lam])[0], abs=1e-12)
        assert dev >= ref_witness["max_deviation"] - 1e-12
        if json.loads(got)["verdict"] == VERDICT_ALIGNED:
            assert dev <= slope_module.config.CONFIG.tol_dev


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_direction_value_is_bounded_by_alignment_deviation(seed):
    # Weak duality between the direction LP and the alignment search. At any
    # lambda, g(lambda) = max_r c.r adds, per tuple, p(tuple) times the sum of
    # the top half minus the bottom half of the tuple's deviation profile, at
    # most |V| // 2 times its spread. So t* = min g <= g(lambda*) is at most
    # |V| // 2 times the least deviation, found apart from the dual solve.
    spec, cd = zero_rich_instance(seed)
    view = JointView.of(build_joint(spec, cd))
    _, t_star = find_direction(view, base=cd)
    _, dev = least_deviation(view)
    assert t_star <= (cd.v_kernel.rows.shape[1] // 2) * dev + 1e-10


@pytest.mark.parametrize("kind, expect", [
    ("dense", {"mutual_information": 0, "entropy": 0, "conditional_table": 0, "_given_rest": 3,
               "_pwl_argmin": 1, "Perturbation": 1, "f_primes": 1, "_deviation": 0}),
    ("aligned", {"mutual_information": 0, "entropy": 0, "conditional_table": 0, "_given_rest": 3,
                 "_pwl_argmin": 1, "Perturbation": 0, "f_primes": 0, "_deviation": 1}),
])
def test_verdict_work_is_pinned(monkeypatch, kind, expect):
    # one entropy pass of the precondition's 6 subsets, one view (3 tables),
    # one dual solve per verdict, a direction only when it certifies, and
    # the deviation only when it is reported
    spec, cd = sized_instance(np.random.default_rng(43), (2, 4, 4, 4, 4),
                              aligned=kind == "aligned")
    passes = record_entropy_passes(monkeypatch)
    counts = count_calls(monkeypatch, {
        probcore: ("mutual_information", "entropy", "conditional_table"),
        slope_module: ("_given_rest", "_pwl_argmin", "Perturbation", "f_primes", "_deviation")})
    verdict = infinite_slope_verdict(spec, cd)
    assert verdict.verdict == (VERDICT_CERTIFIED if kind == "dense" else VERDICT_ALIGNED)
    assert counts == expect
    assert passes == [6]


def test_full_support_verdict_shares_one_view(monkeypatch):
    spec = make_modadd(ModAddParams(0.1, 0.1, 0.2))
    passes = record_entropy_passes(monkeypatch)
    counts = count_calls(monkeypatch, {probcore: ("conditional_table",),
                                       slope_module: ("_given_rest", "_pwl_argmin", "_deviation")})
    rv = full_support_verdict(spec, modadd_coding_dist(np.eye(2)))
    assert rv.kind == REDUCTION_DETERMINISTIC
    # one view (3 tables) for both steps, one dual solve, the reported
    # deviation read once, and one entropy pass per joint of the reduction
    assert counts == {"conditional_table": 0, "_given_rest": 3, "_pwl_argmin": 1,
                      "_deviation": 1}
    assert passes == [7, 7]


def relabelled(spec, cd, rng):
    """The instance with the letters of U, X, Y1, Yr and V permuted, and the
    index that moves a (u, x, y1, yr, v) array along with it."""
    u_a, x_a, y1_a, yr_a = cd.v_kernel.from_vars
    v_a = cd.v_kernel.to_vars[0]
    pu, px, py1, pyr, pv = (rng.permutation(a.size) for a in (u_a, x_a, y1_a, yr_a, v_a))
    rows = spec.broadcast.rows.reshape(x_a.size, yr_a.size, y1_a.size)[np.ix_(px, pyr, py1)]
    spec2 = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a),
                                                     rows.reshape(x_a.size, -1)), c0=spec.c0)
    index = np.ix_(pu, px, py1, pyr, pv)
    tensor = cd.v_kernel.tensor[index]
    cd2 = CodingDist(FiniteDist((u_a, x_a), cd.ux.pmf[np.ix_(pu, px)]),
                     CondKernel((u_a, x_a, y1_a, yr_a), (v_a,), tensor.reshape(-1, v_a.size)),
                     markov_form=True)
    return spec2, cd2, index


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verdict_is_invariant_under_relabelling(seed):
    # The tie rules of find_direction can pick a different optimal direction
    # after relabelling, so only the verdict, t* and the witness deviation
    # are compared.
    spec, cd = zero_rich_instance(seed)
    got = infinite_slope_verdict(spec, cd)
    spec2, cd2, _ = relabelled(spec, cd, np.random.default_rng([seed, 1]))
    moved = infinite_slope_verdict(spec2, cd2)
    assert moved.verdict == got.verdict
    assert abs(moved.lp_value - got.lp_value) <= 1e-12
    assert (moved.lambda_witness is None) == (got.lambda_witness is None)
    if got.lambda_witness is not None:
        assert abs(moved.lambda_witness[1] - got.lambda_witness[1]) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kappa_is_nonnegative_label_free_and_zero_on_markov_directions(seed):
    spec, cd = zero_rich_instance(seed)
    rng = np.random.default_rng([seed, 2])
    pert = random_direction(rng, spec, cd)
    kappa = slope_curve(spec, cd, pert, (0.0,)).kappa
    assert kappa >= 0.0
    spec2, cd2, index = relabelled(spec, cd, np.random.default_rng([seed, 1]))
    moved = slope_curve(spec2, cd2, Perturbation(pert.r[index], cd2), (0.0,)).kappa
    assert abs(moved - kappa) <= 1e-12 * kappa

    # r(v | u, yr) on every supported tuple: q stays Markov, so no cost
    tuple_p = build_joint(spec, cd).pmf.sum(axis=4)
    mk = cd.v_kernel.tensor[:, 0, 0]
    supp = mk > 1e-12
    s = np.where(supp, rng.uniform(-1.0, 1.0, mk.shape), 0.0)
    mean = s.sum(axis=-1, keepdims=True) / np.maximum(supp.sum(axis=-1, keepdims=True), 1)
    s = np.where(supp, s - mean, 0.0)
    markov = Perturbation(np.where((tuple_p > 1e-12)[..., None], s[:, None, None], 0.0), cd)
    curve = slope_curve(spec, cd, markov, default_schedule(alpha_max(cd, markov)))
    assert curve.kappa <= 1e-20  # zero up to the rounding of the (x, y1) average
    assert all(ccf <= slope_module.config.CONFIG.tol_norm for _, ccf, _, _ in curve.points)


def test_steps_agree_on_joint_and_view():
    rng = np.random.default_rng(44)
    for aligned in (False, True):
        spec, cd = sized_instance(rng, (2, 4, 3, 4, 3), aligned=aligned)
        joint = build_joint(spec, cd)
        shuffled = probcore.reorder(joint, ("v", "yr", "u", "y1", "x"))
        view = JointView.of(shuffled)
        assert JointView.of(view) is view
        assert check_lambda(joint) == check_lambda(view)
        pert_j, t_j = find_direction(joint, base=cd)
        pert_v, t_v = find_direction(view, base=cd)
        assert t_j == t_v
        assert pert_j.r.tobytes() == pert_v.r.tobytes()
        assert f_primes(joint, pert_j) == f_primes(view, pert_j)


def table_view(joint):
    """The view with its three conditional tables from ``conditional_table``,
    each named through the joint's variables."""
    joint = probcore.reorder(joint, CANON_ORDER)
    tol = slope_module.config.CONFIG.tol_supp
    tables = [probcore.conditional_table(joint, "v", given)
              for given in (("u", "x", "y1"), ("u", "y1"), ("u", "yr"))]
    with np.errstate(divide="ignore"):
        l1, l_y1, l_yr = (np.where(t > 0.0, np.log2(t), 0.0) for t in tables)
    l1, l_y1, l_yr = l1[:, :, :, None], l_y1[:, None, :, None], l_yr[:, None, None]
    tuple_p = joint.pmf.sum(axis=4)
    free = (tuple_p > tol)[..., None] & (tables[2] > tol)[:, None, None]
    return JointView(joint, tuple_p, free, tables[2], l1 - l_y1, l1 - l_yr, l_yr - l_y1)


def spread_deviation(view, lam):
    """The alignment deviation at lambda, over the whole tuple grid at once
    rather than the rows with a free letter: max and min are exact, so the
    order of the comparisons cannot move a bit."""
    profile = view.g2 + lam * view.drift
    spread = (np.where(view.free, profile, -np.inf).max(axis=-1)
              - np.where(view.free, profile, np.inf).min(axis=-1))[view.free.any(axis=-1)]
    return float(spread.max()) if spread.size else 0.0


def rate_terms_read(pmf, names):
    """The terms ``names`` of a canonical-order pmf, from a ``RateTerms``
    table, one ``probcore.entropy`` call per subset."""
    terms = RateTerms(FiniteDist(tuple(map(Alphabet, CANON_ORDER, pmf.shape)), pmf))
    return [terms[name] for name in names]


@contextlib.contextmanager
def table_readers():
    """The verdicts with the readers they had before each took every table
    once: views from ``table_view``, rate terms from ``RateTerms`` and the
    deviation from ``spread_deviation``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(JointView, "of", staticmethod(
            lambda j: j if isinstance(j, JointView) else table_view(j)))
        m.setattr(slope_module, "_read_terms", rate_terms_read)
        m.setattr(slope_module, "_deviation", spread_deviation)
        yield


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["dense", "zero_rich", "relabelled", "block_aligned"]),
       st.sampled_from([None, 0.05]))
def test_verdicts_take_each_table_once_bit_for_bit(seed, kind, tol_supp):
    # block-aligned instances reach the full-support reduction
    if kind == "dense":
        spec, cd = random_markov_instance(np.random.default_rng(seed), full_support=True)
    elif kind == "block_aligned":
        spec, cd = block_aligned_instance(seed)
    else:
        spec, cd = zero_rich_instance(seed)
        if kind == "relabelled":
            spec, cd, _ = relabelled(spec, cd, np.random.default_rng([seed, 1]))
    joint = build_joint(spec, cd)
    coarse = {} if tol_supp is None else {"tol_supp": tol_supp}
    with slope_module.config.temporary_tolerances(**coarse):
        view, want = JointView.of(joint), table_view(joint)
        for field in ("tuple_p", "pv_uyr", "free", "g1", "g2", "drift"):
            got, ref = getattr(view, field), getattr(want, field)
            assert got.dtype == ref.dtype and got.shape == ref.shape, field
            assert got.tobytes() == ref.tobytes(), field

        for names in (slope_module._PRECONDITION_TERMS, slope_module._REDUCTION_TERMS):
            got = attempt(slope_module._read_terms, joint.pmf, names)
            ref = attempt(rate_terms_read, joint.pmf, names)
            if isinstance(ref, str):
                assert got == ref
            else:
                assert [t.hex() for t in got] == [t.hex() for t in ref]
                assert (got[0] - got[1]).hex() == (ref[0] - ref[1]).hex()

        lam = _dual_solve(view)[0]
        for at in (lam, 0.0, 1.0):
            assert _deviation(view, at).hex() == spread_deviation(want, at).hex()

        verdicts = (infinite_slope_verdict, full_support_verdict)
        got = [attempt(lambda f=f: f(spec, cd).to_json_dict()) for f in verdicts]
        with table_readers():
            ref = [attempt(lambda f=f: f(spec, cd).to_json_dict()) for f in verdicts]
    assert json.dumps(got) == json.dumps(ref)


#: Broadcast rows over (yr, y1) and kernels p(v | yr) in which a tuple of
#: probability near 5e-8 meets a letter of probability 3e-6: both factors
#: exceed tol_supp, but the joint's cell, their product, does not. In the
#: second, p(v | x, y1) at that cell is 3e-13, below tol_supp as well.
KNIFE_EDGES = [
    ([[0.5, 0.2, 0.2, 0.1], [0.4, 0.3, 0.3 - 9.2e-8, 9.2e-8]],
     [[0.5, 0.3, 0.2], [0.3, 0.7 - 3e-6, 3e-6]]),
    ([[0.5, 0.2, 0.2, 0.1], [0.25, 0.5 - 5e-8, 0.25, 5e-8]],
     [[0.5, 0.5, 0.0], [0.3, 0.7 - 3e-6, 3e-6]]),
]


@pytest.mark.parametrize("rows, mk", KNIFE_EDGES)
def test_certification_steps_share_one_support(rows, mk):
    x_a, y1_a, yr_a = Alphabet("x", 2), Alphabet("y1", 2), Alphabet("yr", 2)
    spec = RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), np.array(rows)),
                        c0=0.4)
    cd = markov_cd_from_rows(spec, [mk])
    joint = build_joint(spec, cd)
    p5 = joint.pmf
    both = (p5.sum(axis=4) > 1e-12)[..., None] & (np.array(mk) > 1e-12)[None, None, None]
    assert (both & (p5 <= 1e-12)).any()
    v = infinite_slope_verdict(spec, cd)
    assert v.verdict == VERDICT_CERTIFIED
    assert abs(v.lp_value - min(v.f1_prime, v.f2_prime)) <= 1e-12
    # the closed forms with unthresholded logs, on the cells the direction moves
    moved = v.direction.r != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        l1, l_y1, l_yr = (np.log2(m / m.sum(axis=4, keepdims=True))
                          for m in (p5.sum(axis=axes, keepdims=True)
                                    for axes in (3, (1, 3), (1, 2))))
        w = p5.sum(axis=4, keepdims=True) * v.direction.r
        f1, f2 = (float((w * g)[moved].sum()) for g in (l1 - l_y1, l1 - l_yr))
    assert abs(v.f1_prime - f1) <= 1e-12
    assert abs(v.f2_prime - f2) <= 1e-12


# ---------------------------------------------------------------------------
# slope curve
# ---------------------------------------------------------------------------


def test_slope_curve_ratio_divergence_on_bec():
    spec, cd = bec_instance(0.5, 0.5, 0.25)
    v = infinite_slope_verdict(spec, cd)
    curve = slope_curve(spec, cd, v.direction)
    by_alpha = {a: q for a, _, _, q in curve.points}
    assert by_alpha[1e-5] >= 10 * by_alpha[1e-1]
    ratios = [q for _, _, _, q in curve.points]
    assert all(b > a for a, b in zip(ratios[-4:], ratios[-3:]))
    assert curve.kappa > 0.0
    # first-order cross-check at the smallest step
    a_min, _, delta, _ = curve.points[-1]
    assert relative_gap(delta / a_min, min(v.f1_prime, v.f2_prime), floor=1e-9) < 0.1


def test_slope_curve_zero_direction():
    spec, cd = bec_instance()
    zero = Perturbation(np.zeros(cd.v_kernel.tensor.shape), cd)
    curve = slope_curve(spec, cd, zero, alphas=(1e-1, 1e-2, 1e-3))
    assert all(c == 0.0 and d == 0.0 and q == 0.0 for _, c, d, q in curve.points)
    assert curve.kappa == 0.0


def test_slope_curve_schedule_beyond_alpha_max_raises():
    spec, cd = bec_instance()
    joint = build_joint(spec, cd)
    pert, _ = find_direction(joint, base=cd)
    with pytest.raises(AlphaRangeError):
        slope_curve(spec, cd, pert, alphas=(alpha_max(cd, pert) * 2,))


def test_default_schedule_truncates():
    sched = default_schedule(2e-3)
    assert max(sched) <= 1e-3
    assert default_schedule(float("inf")) == pytest.approx(
        (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6))


# ---------------------------------------------------------------------------
# deterministic reduction
# ---------------------------------------------------------------------------


def test_reduction_recovers_deterministic_map():
    rng = np.random.default_rng(30)
    spec = full_support_spec(rng, sy1=2, syr=2)
    cd = markov_cd_from_rows(spec, [np.eye(2)])  # v = yr
    red = deterministic_reduction(build_joint(spec, cd))
    assert red.num_components == 2
    assert red.w_of_yr[0, 0] != red.w_of_yr[0, 1]
    assert red.rate_residual <= 1e-9
    assert red.penalty_slack >= -1e-9


def test_reduction_single_component_when_independent():
    rng = np.random.default_rng(31)
    spec = full_support_spec(rng)
    row = rand_pmf(rng, 3, 0.2)
    cd = markov_cd_from_rows(spec, [[row, row]])
    red = deterministic_reduction(build_joint(spec, cd))
    assert red.num_components == 1
    assert np.all(red.w_of_yr == 0)
    assert red.rate_residual <= 1e-9


def test_reduction_two_component_instance():
    rng = np.random.default_rng(32)
    spec = full_support_spec(rng, sy1=2, syr=4)
    mk = np.array([[
        [0.3, 0.7, 0.0, 0.0],
        [0.3, 0.7, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.6],
        [0.0, 0.0, 0.4, 0.6],
    ]])
    cd = markov_cd_from_rows(spec, mk)
    joint = build_joint(spec, cd)
    assert check_lambda(joint) is not None
    red = deterministic_reduction(joint)
    assert red.num_components == 2
    assert red.w_of_yr[0].tolist() == [0, 0, 1, 1]
    assert red.rate_residual <= 1e-9
    assert red.penalty_slack >= -1e-9
    # independent verification of the rate identity on the same joint
    t = mi_terms(joint)
    w_rows = np.zeros((4, 2))
    w_rows[np.arange(4), red.w_of_v[0]] = 1.0
    wk = CondKernel((joint.alphabet("u"), joint.alphabet("v")), (Alphabet("w", 2),),
                    np.tile(w_rows, (1, 1)))
    from cfdiamond.probcore import compose, mutual_information
    ext = compose(joint, wk)
    assert mutual_information(ext, "x", ("y1", "w"), "u") == pytest.approx(
        t["I(X;Y1,V|U)"], abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_components_match_depth_first_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    upper = np.triu(rng.random((n, n)) < rng.random())
    adjacent = upper | upper.T
    labels = _components(adjacent)
    loops = np.diagonal(adjacent)
    assert labels[loops].tolist() == components_dfs(adjacent[np.ix_(loops, loops)]).tolist()
    assert not labels[~loops].any()
    other = rng.random((n, n)) < 0.5
    other = other | other.T
    assert _components(np.stack([adjacent, other])).tolist() == [
        labels.tolist(), _components(other).tolist()]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reduction_matches_kernel_oracle(seed):
    spec, cd = block_aligned_instance(seed)
    joint = build_joint(spec, cd)
    assert check_lambda(joint) is not None
    red = deterministic_reduction(joint)
    ref = reduction_by_kernel(joint)
    assert red.w_of_v.tolist() == ref["w_of_v"].tolist()
    assert red.w_of_yr.tolist() == ref["w_of_yr"].tolist()
    assert red.num_components == ref["num_components"]
    assert abs(red.rate_residual - ref["rate_residual"]) <= 1e-12
    assert abs(red.penalty_slack - ref["penalty_slack"]) <= 1e-12


def test_reduction_work_is_pinned(monkeypatch):
    view = JointView.of(build_joint(*block_aligned_instance(7)))
    passes = record_entropy_passes(monkeypatch)
    counts = count_calls(monkeypatch, {probcore: ("entropy", "mutual_information", "compose")})
    deterministic_reduction(view)
    # the 7 subsets of the two residual terms, one pass per joint
    assert counts == {"entropy": 0, "mutual_information": 0, "compose": 0}
    assert passes == [7, 7]


def test_reduction_numbers_only_letters_with_mass():
    # letter 2 is never used
    spec = make_modadd(ModAddParams(0.1, 0.1, 1.0))
    rv = full_support_verdict(spec, modadd_coding_dist([[1, 0, 0], [0, 1, 0]]))
    assert rv.kind == REDUCTION_DETERMINISTIC
    assert rv.reduction.num_components == 2
    assert rv.reduction.w_of_v.tolist() == [[0, 1, 0]]
    assert rv.reduction.w_of_yr.tolist() == [[0, 1]]

    # u = 1 has no mass, so none of its letters is used
    spec = full_support_spec(np.random.default_rng(33))
    row = rand_pmf(np.random.default_rng(34), 3, 0.2)
    cd = markov_cd_from_rows(spec, [[row, row], np.eye(3)[:2]], u_size=2)
    cd = CodingDist(FiniteDist(cd.ux.variables, [[0.5, 0.5], [0.0, 0.0]]), cd.v_kernel, True)
    red = deterministic_reduction(build_joint(spec, cd))
    assert red.num_components == 1
    assert red.w_of_v.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert red.rate_residual <= 1e-12


def test_reduction_precondition_support_gap():
    spec, cd = bec_instance()
    with pytest.raises(PreconditionError, match="support gap"):
        deterministic_reduction(build_joint(spec, cd))


def test_full_support_verdict_cases():
    params = ModAddParams(0.1, 0.1, 0.2)
    spec = make_modadd(params)
    optimal = modadd_coding_dist(modadd_capacity(params, 10).kernel)
    assert full_support_verdict(spec, optimal).kind == REDUCTION_INFINITE_SLOPE

    copy = modadd_coding_dist(np.eye(2))
    rv = full_support_verdict(spec, copy)
    assert rv.kind == REDUCTION_DETERMINISTIC
    assert rv.reduction.w_of_yr[0, 0] != rv.reduction.w_of_yr[0, 1]

    const = modadd_coding_dist(np.array([[1.0, 0.0], [1.0, 0.0]]))
    rv2 = full_support_verdict(spec, const)
    assert rv2.kind == REDUCTION_DETERMINISTIC
    assert rv2.reduction.w_of_yr[0, 0] == rv2.reduction.w_of_yr[0, 1]

    bec_spec, bec_cd = bec_instance()
    with pytest.raises(PreconditionError, match="full-support"):
        full_support_verdict(bec_spec, bec_cd)
