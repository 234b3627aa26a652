import itertools
import re

import numpy as np
import pytest

from cfdiamond.probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    SchemaError,
    mutual_information,
)
from cfdiamond.diamond3 import (
    CoopCurve,
    MacSpec,
    diamond_upper_bound,
    mac_sum_capacity_indep,
    rate_split_achievable,
    slope_transfer,
)


def mac_from_rows(rows, out_size):
    x0 = Alphabet("x0", 2)
    x1 = Alphabet("x1", 2)
    y = Alphabet("y_w", out_size)
    return MacSpec(x0, x1, CondKernel((x0, x1), (y,), np.asarray(rows, dtype=float)))


def adder_mac():
    rows = np.zeros((4, 3))
    for a in range(2):
        for b in range(2):
            rows[a * 2 + b, a + b] = 1.0
    return mac_from_rows(rows, 3)


# ---------------------------------------------------------------------------
# MAC sum-capacity
# ---------------------------------------------------------------------------


def test_mac_identity_two_bits():
    assert mac_sum_capacity_indep(mac_from_rows(np.eye(4), 4), 16) == pytest.approx(2.0, abs=1e-9)


def test_mac_single_user():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert mac_sum_capacity_indep(mac_from_rows(rows, 2), 16) == pytest.approx(1.0, abs=1e-9)


def test_mac_adder_matches_fine_grid_oracle():
    mac = adder_mac()
    val = mac_sum_capacity_indep(mac, 16)
    # brute-force oracle at 10x the resolution, no refinement
    best = -1.0
    grid = np.linspace(0.0, 1.0, 161)
    rows = mac.kernel.rows
    for a in grid:
        for b in grid:
            px = np.array([(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b])
            py = px @ rows
            h = lambda v: float(-(v[v > 1e-12] * np.log2(v[v > 1e-12])).sum())
            mi = h(py) - sum(px[i] * h(rows[i]) for i in range(4))
            best = max(best, mi)
    assert val == pytest.approx(best, abs=1e-6)
    assert val == pytest.approx(1.5, abs=1e-9)  # peaks at uniform inputs


def test_mac_relabeling_invariance():
    mac = adder_mac()
    swapped_rows = mac.kernel.rows[[1, 0, 3, 2]]  # relabel x1
    mac2 = mac_from_rows(swapped_rows, 3)
    assert mac_sum_capacity_indep(mac, 12) == pytest.approx(
        mac_sum_capacity_indep(mac2, 12), abs=1e-9)


def test_mac_json_round_trip():
    mac = adder_mac()
    back = MacSpec.from_json_dict(mac.to_json_dict())
    assert np.array_equal(back.kernel.rows, mac.kernel.rows)


# ---------------------------------------------------------------------------
# halving bound and its derivation chain at blocklength one
# ---------------------------------------------------------------------------


def test_upper_bound_halving():
    assert diamond_upper_bound(1.5) == pytest.approx(0.75)
    assert diamond_upper_bound(0.0) == 0.0
    with pytest.raises(ValueError):
        diamond_upper_bound(-0.1)


def test_halving_chain_single_letter_bookkeeping():
    """Each step of the halving derivation, evaluated on the depth-one joint.

    Variables: x, y0, y1, z independent fair bits, e = x xor y_z,
    y_w = y0 + y1 (adder MAC on the relay observations).
    """
    names = ("x", "y0", "y1", "z", "e", "yw")
    sizes = (2, 2, 2, 2, 2, 3)
    pmf = np.zeros(sizes)
    for x, y0, y1, z in itertools.product(range(2), repeat=4):
        y_z = y0 if z == 0 else y1
        e = x ^ y_z
        yw = y0 + y1
        pmf[x, y0, y1, z, e, yw] += 1.0 / 16.0
    joint = FiniteDist(tuple(Alphabet(n, s) for n, s in zip(names, sizes)), pmf)

    # source independent of the forwarded pair (e, z)
    assert mutual_information(joint, "x", ("e", "z")) == pytest.approx(0.0, abs=1e-12)
    # conditioning chain
    lhs = mutual_information(joint, "x", "yw", ("e", "z"))
    mid = mutual_information(joint, ("x", "e"), "yw", "z")
    assert lhs <= mid + 1e-12
    # (x, e) determines y_z given z, and x alone carries nothing about yw
    assert mid == pytest.approx(
        mutual_information(joint, "x", "yw", "z")
        + mutual_information(joint, "e", "yw", ("x", "z")), abs=1e-9)
    # symmetric halves: I(Y_z; Yw | Z) averages the two relay contributions
    i_yz = mutual_information(joint, "e", "yw", ("x", "z"))  # e stands in for y_z given x
    half_sum = 0.5 * (mutual_information(joint, "y0", "yw", "z")
                      + mutual_information(joint, "y1", "yw", "z"))
    assert i_yz == pytest.approx(half_sum, abs=1e-9)
    # grouping both relay observations dominates
    i_pair = mutual_information(joint, ("y0", "y1"), "yw", "z")
    assert 2 * i_yz <= i_pair + 1e-9
    # and the pair bound is the unconditioned MAC information
    assert i_pair == pytest.approx(mutual_information(joint, ("y0", "y1"), "yw"), abs=1e-9)


# ---------------------------------------------------------------------------
# rate splitting
# ---------------------------------------------------------------------------


def test_rate_split_symmetric_pair():
    rs = rate_split_achievable(1.0, 1.0, 1e-9)
    assert rs.rate == pytest.approx(1.0, abs=1e-8)
    assert rs.first_fraction == 1.0
    assert rs.coded_fraction == 0.0
    assert rs.m2_size == pytest.approx(0.0, abs=1e-8)


def test_rate_split_one_zero():
    rs = rate_split_achievable(1.0, 0.0, 1e-9)
    assert rs.rate == pytest.approx(0.5, abs=1e-8)
    assert rs.m2_size == pytest.approx(0.5, abs=1e-8)
    assert rs.coded_fraction == pytest.approx(1.0)


def test_rate_split_example_fractions():
    rs = rate_split_achievable(0.8, 0.4, 0.01)
    assert rs.rate == pytest.approx(0.59, abs=1e-12)
    assert (rs.first_fraction, rs.coded_fraction, rs.padding_fraction) == \
        pytest.approx((0.4, 0.4, 0.2), abs=1e-12)
    assert rs.m2_size == pytest.approx(0.19, abs=1e-12)
    assert rs.code_rate == pytest.approx(0.49, abs=1e-12)


def test_rate_split_symmetry_and_bound():
    a = rate_split_achievable(0.3, 0.9, 0.01)
    b = rate_split_achievable(0.9, 0.3, 0.01)
    assert a.rate == b.rate
    assert a.swapped and not b.swapped
    assert a.rate <= (0.3 + 0.9) / 2


def test_rate_split_validation():
    with pytest.raises(ValueError):
        rate_split_achievable(-0.1, 0.0, 0.01)
    with pytest.raises(ValueError):
        rate_split_achievable(0.5, 0.2, 0.0)


def test_rate_split_rejects_eps_that_makes_a_rate_negative():
    # the erasure code's rate 1/2 - eps must be positive
    for eps in (0.5, 0.7):
        with pytest.raises(ValueError, match="below 1/2"):
            rate_split_achievable(1.0, 1.0, eps)
    # the diamond rate (r0 + r1)/2 - eps must be nonnegative
    with pytest.raises(ValueError, match=re.escape("at most (r0 + r1)/2")):
        rate_split_achievable(0.1, 0.1, 0.2)
    rs = rate_split_achievable(0.1, 0.1, 0.1)  # the edge itself is rate 0
    assert rs.rate == 0.0 and rs.code_rate == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# cooperation-curve transfer
# ---------------------------------------------------------------------------


def test_transfer_linear_curve_no_flag():
    k = 3.0
    curve = CoopCurve(tuple((c, 1.0 + k * c) for c in (0.0, 1e-6, 1e-4, 1e-2)))
    rep = slope_transfer(curve)
    quotients = [q for c, _, q in rep.points if c > 0]
    assert quotients == pytest.approx([k / 2] * 3, abs=1e-9)
    assert not rep.diverging


def test_transfer_sqrt_curve_flagged():
    curve = CoopCurve(tuple((c, 1.0 + np.sqrt(c)) for c in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)))
    rep = slope_transfer(curve)
    quotients = [q for c, _, q in rep.points if c > 0]
    expected = [1 / (2 * np.sqrt(c)) for c in (1e-8, 1e-6, 1e-4, 1e-2)]
    assert quotients == pytest.approx(expected, rel=1e-9)
    assert rep.diverging


def test_transfer_constant_curve():
    curve = CoopCurve(((0.0, 1.0), (1e-4, 1.0), (1e-2, 1.0)))
    rep = slope_transfer(curve)
    assert all(q == 0.0 for c, _, q in rep.points if c > 0)
    assert not rep.diverging


def test_transfer_requires_zero_sample():
    curve = CoopCurve(((1e-4, 1.0), (1e-2, 1.1), (1e-1, 1.2)))
    with pytest.raises(ValueError, match="c_cf = 0"):
        slope_transfer(curve)


def test_curve_validation_and_csv():
    with pytest.raises(SchemaError):
        CoopCurve(((0.0, 1.0), (0.0, 1.1)))
    with pytest.raises(SchemaError):
        CoopCurve(((0.0, 1.0), (0.1, 0.5)))
    with pytest.raises(SchemaError):
        CoopCurve(((-0.1, 1.0), (0.1, 1.1)))
    curve = CoopCurve(((0.0, 1.0), (0.5, 1.25), (1.0, 1.5)))
    back = CoopCurve.from_csv(curve.to_csv())
    assert back.samples == curve.samples
    assert back.c_sum_at(0.25) == pytest.approx(1.125)


def test_upper_bound_meets_transfer_at_zero():
    mac = adder_mac()
    c_sum0 = mac_sum_capacity_indep(mac, 16)
    curve = CoopCurve(((0.0, c_sum0), (1e-4, c_sum0 + 1e-3), (1e-2, c_sum0 + 1e-2)))
    rep = slope_transfer(curve)
    assert rep.points[0][1] == pytest.approx(diamond_upper_bound(c_sum0), abs=1e-9)
