import itertools

import numpy as np
import pytest

from cfdiamond.probcore import SchemaError, binary_entropy
from cfdiamond.relaynet import build_joint, eval_pdcf
from cfdiamond.slope import check_lambda
from cfdiamond.zoo import (
    ModAddParams,
    bec_best_q,
    bec_coding_dist,
    bec_lambda_infeasibility,
    bec_rate,
    make_bec_pair,
    make_modadd,
    modadd_capacity,
)


# ---------------------------------------------------------------------------
# modulo-additive channel
# ---------------------------------------------------------------------------


def test_make_modadd_deterministic_limit():
    spec = make_modadd(ModAddParams(0.0, 0.0, 0.1))
    k = spec.broadcast.tensor  # (x, yr, y1)
    for x in range(2):
        assert k[x, 0, x] == pytest.approx(1.0)  # z = w = 0: yr = 0, y1 = x
    assert spec.broadcast.rows.sum() == pytest.approx(2.0)


def test_make_modadd_half_half_enumeration():
    spec = make_modadd(ModAddParams(0.5, 0.5, 0.1))
    # enumerate the channel law directly
    expected = np.zeros((2, 2, 2))
    for x, z, w in itertools.product(range(2), repeat=3):
        expected[x, z ^ w, x ^ z] += 0.25
    assert np.max(np.abs(spec.broadcast.tensor - expected)) < 1e-12
    # outputs uniform and independent given x
    assert np.max(np.abs(spec.broadcast.tensor - 0.25)) < 1e-12


def test_make_modadd_full_support_interior():
    spec = make_modadd(ModAddParams(0.2, 0.3, 0.1))
    assert spec.broadcast.rows.min() > 0.0


def test_modadd_capacity_no_relay_information():
    res = modadd_capacity(ModAddParams(0.1, 0.1, 0.0), 10)
    assert res.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)


def test_modadd_capacity_full_relay_information():
    p = delta = 0.1
    pe = p * (1 - delta) + delta * (1 - p)
    h_z_given_yr = binary_entropy(p) + binary_entropy(delta) - binary_entropy(pe)
    res = modadd_capacity(ModAddParams(p, delta, binary_entropy(pe)), 10)
    assert res.value == pytest.approx(1.0 - h_z_given_yr, abs=1e-6)
    # adding resolution never pushes past the closed-form ceiling
    for resolution in (8, 12, 16):
        more = modadd_capacity(ModAddParams(p, delta, binary_entropy(pe)), resolution)
        assert more.value <= 1.0 - h_z_given_yr + 1e-9


def test_modadd_capacity_monotone_and_bounded():
    vals = [modadd_capacity(ModAddParams(0.1, 0.1, c0), 8).value
            for c0 in (0.0, 0.1, 0.2, 0.4, 0.7, 1.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 + 1e-9 for v in vals)


def test_modadd_capacity_trace_converges():
    res = modadd_capacity(ModAddParams(0.1, 0.1, 0.2), 10)
    values = [v for _, v in res.trace]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert res.kernel.shape == (2, 3)
    assert np.max(np.abs(res.kernel.sum(axis=1) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# erasure pair
# ---------------------------------------------------------------------------


def test_make_bec_pair_identity_and_erased():
    spec0 = make_bec_pair(0.0)
    k0 = spec0.broadcast.tensor  # (x, yr, y1)
    for x in range(2):
        assert k0[x, x, x] == pytest.approx(1.0)
    spec1 = make_bec_pair(1.0)
    k1 = spec1.broadcast.tensor
    for x in range(2):
        assert k1[x, 2, 2] == pytest.approx(1.0)


def test_make_bec_pair_half_pattern():
    spec = make_bec_pair(0.5)
    k = spec.broadcast.tensor
    for x in range(2):
        pattern = sorted(v for v in k[x].ravel() if v > 0)
        assert pattern == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_bec_coding_dist_rows():
    mk0 = bec_coding_dist(0.5, 0.0).v_kernel.tensor[0, 0, 0]
    assert np.array_equal(mk0, np.eye(3))
    mk1 = bec_coding_dist(0.5, 1.0).v_kernel.tensor[0, 0, 0]
    assert np.all(mk1[:, 2] == 1.0)
    mk_half = bec_coding_dist(0.5, 0.5).v_kernel.tensor[0, 0, 0]
    assert mk_half[0].tolist() == [0.5, 0.0, 0.5]
    assert mk_half[1].tolist() == [0.0, 0.5, 0.5]
    assert mk_half[2].tolist() == [0.0, 0.0, 1.0]


def test_bec_rate_perfect_channel():
    for q in (0.0, 0.3, 1.0):
        for c0 in (0.0, 0.5):
            assert bec_rate(0.0, q, c0) == pytest.approx(1.0, abs=1e-12)


def test_bec_rate_q_one_closed_form():
    for p in (0.2, 0.5, 0.8):
        for c0 in (0.0, 0.3):
            assert bec_rate(p, 1.0, c0) == pytest.approx(min((1 - p), 1 - p + c0), abs=1e-12)
            spec = make_bec_pair(p, c0=c0)
            assert eval_pdcf(spec, bec_coding_dist(p, 1.0)) == pytest.approx(
                bec_rate(p, 1.0, c0), abs=1e-9)


def test_bec_rate_matches_generic_path():
    for p in (0.1, 0.5, 0.9):
        for q in (0.0, 0.4, 1.0):
            for c0 in (0.0, 0.25, 0.8):
                spec = make_bec_pair(p, c0=c0)
                cd = bec_coding_dist(p, q)
                assert eval_pdcf(spec, cd) == pytest.approx(bec_rate(p, q, c0), abs=1e-9)


def test_bec_best_q_includes_endpoints():
    # c0 huge: no reason to erase anything, q* = 0
    q, rate = bec_best_q(0.5, 5.0)
    assert q == pytest.approx(0.0, abs=1e-6)
    assert rate == pytest.approx(bec_rate(0.5, 0.0, 5.0), abs=1e-9)
    # c0 = 0: q = 1 is optimal (nothing can be forwarded)
    q0, rate0 = bec_best_q(0.5, 0.0)
    assert rate0 >= bec_rate(0.5, 1.0, 0.0) - 1e-9
    # interior optimum beats both endpoints at moderate c0
    qm, rm = bec_best_q(0.5, 0.25)
    assert rm >= max(bec_rate(0.5, 0.0, 0.25), bec_rate(0.5, 1.0, 0.25)) - 1e-12


def test_bec_best_q_is_exact():
    # at c0 = 0 the two bounds meet at q = 1, both at 1 - p; a grid plus
    # golden-section search stopped 2e-12 short of it
    assert bec_best_q(0.5, 0.0) == (1.0, 0.5)
    for p, c0 in [(0.4221, 0.2533), (0.2, 0.1), (0.8, 0.4)]:
        q, rate = bec_best_q(p, c0)
        assert 0.0 < q < 1.0 and rate == bec_rate(p, q, c0)
        assert rate >= max(bec_rate(p, x, c0) for x in np.linspace(0.0, 1.0, 1001)) - 1e-15


def test_bec_lambda_interior_infeasible():
    for p in (0.2, 0.5, 0.8):
        for q in (0.3, 0.5, 0.9):
            check = bec_lambda_infeasibility(p, q)
            assert check.infeasible, (p, q)


def test_bec_lambda_degenerate_feasible():
    for p, q in [(0.0, 0.5), (1.0, 0.5), (0.5, 1.0)]:
        check = bec_lambda_infeasibility(p, q)
        assert not check.infeasible, (p, q)
        assert check.lam is not None


def test_bec_lambda_agrees_with_generic_check():
    rng = np.random.default_rng(40)
    for k in range(55):
        if k == 50:  # 1 - (1-p)(1-q) rounds to zero unless computed as p + q - pq
            p, q = 0.0, 1e-300
        elif k == 51:
            p, q = 0.0, 1e-13
        elif k >= 52:  # one of the two compared cells at or below tol_supp
            p, q = ((0.5, 1e-13), (0.5, 1 - 1e-13), (1 - 1e-13, 0.5))[k - 52]
        elif k % 5 == 4:  # mix in degenerate parameters
            p = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
            q = float(rng.choice([1.0, rng.uniform(0.05, 0.95)]))
        else:
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
        verdict = bec_lambda_infeasibility(p, q)
        witness = check_lambda(build_joint(make_bec_pair(p), bec_coding_dist(p, q)))
        assert verdict.infeasible == (witness is None), (p, q)


def test_param_validation():
    with pytest.raises(SchemaError):
        ModAddParams(1.2, 0.1, 0.0)
    with pytest.raises(SchemaError):
        bec_coding_dist(0.5, -0.1)
    with pytest.raises(SchemaError):
        bec_rate(0.5, 0.5, -1.0)
    with pytest.raises(SchemaError):
        make_bec_pair(1.5)


@pytest.mark.parametrize("c0", [float("nan"), float("inf")])
def test_param_validation_rejects_non_finite_c0(c0):
    with pytest.raises(SchemaError):
        ModAddParams(0.1, 0.1, c0)
    with pytest.raises(SchemaError):
        make_bec_pair(0.5, c0=c0)
    with pytest.raises(SchemaError):
        bec_rate(0.5, 0.5, c0)
    with pytest.raises(SchemaError):
        bec_best_q(0.5, c0)
