"""``slope_curve`` and ``ccf_curvature`` against the per-alpha rebuild.

Both functions evaluate every perturbed joint as the base joint plus alpha
times one fixed array, and ``slope_curve`` reuses the base's terms free of
V. The reference here rebuilds each point in full instead:
``perturb``, then ``build_joint``, then ``rate_bounds`` or
``mutual_information``. The two sum in different orders, so values agree
to rounding, not bitwise. The cost coefficient kappa is checked against
the cell-by-cell sum of ``conftest.reference_kappa``.
"""

from __future__ import annotations

import numpy as np
import pytest

from cfdiamond import probcore
from cfdiamond.probcore import mutual_information
from cfdiamond.relaynet import (
    NO_V_TERMS,
    TERM_NAMES,
    build_joint,
    mi_terms,
    rate_bounds,
)
from cfdiamond.slope import (
    VERDICT_CERTIFIED,
    alpha_max,
    ccf_curvature,
    default_schedule,
    infinite_slope_verdict,
    perturb,
    slope_curve,
)
from cfdiamond.zoo import bec_coding_dist, make_bec_pair
from conftest import (
    count_calls,
    random_markov_instance,
    record_entropy_passes,
    reference_kappa,
    relative_gap,
)

#: Absolute agreement of ccf and of the rate gain with the reference.
CURVE_TOL = 1e-12


def reference_slope_curve(spec, cd, pert, alphas):
    """The points of the curve, each rebuilt in full."""
    b1, b2, _, _ = rate_bounds(build_joint(spec, cd), spec.c0)
    points = []
    for a in sorted(alphas, reverse=True):
        q1, q2, ccf, _ = rate_bounds(build_joint(spec, perturb(cd, pert, a)), spec.c0)
        delta = min(q1, q2) - min(b1, b2)
        points.append((a, ccf, delta, delta / ccf if ccf > 1e-15 else 0.0))
    return points


def reference_ccf(spec, cd, pert, alpha):
    joint = build_joint(spec, perturb(cd, pert, alpha))
    return mutual_information(joint, ("x", "y1"), "v", ("u", "yr"))


def reference_mi_terms(joint):
    """The nine calls ``mi_terms`` has always made, in their order."""
    mi = mutual_information
    return {
        "I(U;Yr)": mi(joint, "u", "yr"),
        "I(U;Y1)": mi(joint, "u", "y1"),
        "I(X;Y1|U)": mi(joint, "x", "y1", "u"),
        "I(X;Y1,Yr|U)": mi(joint, "x", ("y1", "yr"), "u"),
        "I(X;Y1,V|U)": mi(joint, "x", ("y1", "v"), "u"),
        "I(V;X,Y1|U)": mi(joint, "v", ("x", "y1"), "u"),
        "I(Yr;V|U)": mi(joint, "yr", "v", "u"),
        "I(X,Y1;V|U,Yr)": mi(joint, ("x", "y1"), "v", ("u", "yr")),
        "I(Yr;V|U,X,Y1)": mi(joint, "yr", "v", ("u", "x", "y1")),
    }


def certified_cases():
    """Seeded dense Markov instances with certified directions, then bec."""
    cases = []
    rng = np.random.default_rng(2024)
    while len(cases) < 6:
        spec, cd = random_markov_instance(rng, max_size=3, full_support=True)
        verdict = infinite_slope_verdict(spec, cd)
        if verdict.verdict == VERDICT_CERTIFIED:
            cases.append((f"dense-{len(cases)}", spec, cd, verdict.direction))
    for p, q, c0 in ((0.5, 0.5, 0.25), (0.3, 0.7, 0.4), (0.8, 0.2, 0.1)):
        spec, cd = make_bec_pair(p, c0=c0), bec_coding_dist(p, q)
        cases.append((f"bec-{p}-{q}-{c0}", spec, cd, infinite_slope_verdict(spec, cd).direction))
    return cases


CASES = certified_cases()


@pytest.mark.parametrize("tag, spec, cd, pert", CASES, ids=[c[0] for c in CASES])
def test_slope_curve_matches_per_alpha_rebuild(tag, spec, cd, pert):
    alphas = default_schedule(alpha_max(cd, pert))
    want = reference_slope_curve(spec, cd, pert, alphas)
    curve = slope_curve(spec, cd, pert, alphas)
    assert [p[0] for p in curve.points] == [p[0] for p in want]
    for (_, ccf, delta, _), (_, ccf_ref, delta_ref, _) in zip(curve.points, want):
        assert abs(ccf - ccf_ref) <= CURVE_TOL
        assert abs(delta - delta_ref) <= CURVE_TOL
    assert relative_gap(curve.kappa, reference_kappa(spec, cd, pert)) <= 1e-12


@pytest.mark.parametrize("tag, spec, cd, pert", CASES, ids=[c[0] for c in CASES])
def test_ccf_curvature_matches_per_alpha_rebuild(tag, spec, cd, pert):
    alphas = default_schedule(alpha_max(cd, pert))
    rep = ccf_curvature(spec, cd, pert, alphas)
    assert [a for a, _, _ in rep.points] == list(alphas)
    for a, ccf, _ in rep.points:
        assert abs(ccf - reference_ccf(spec, cd, pert, a)) <= CURVE_TOL


@pytest.mark.parametrize("tag, spec, cd, pert", CASES, ids=[c[0] for c in CASES])
def test_mi_terms_makes_the_same_calls_in_term_order(tag, spec, cd, pert):
    for joint in (build_joint(spec, cd), build_joint(spec, perturb(cd, pert, 1e-3))):
        got, want = mi_terms(joint), reference_mi_terms(joint)
        assert list(got) == list(want) == list(TERM_NAMES)
        assert got == want  # bit for bit


def test_slope_curve_entropy_work_is_pinned(monkeypatch):
    _, spec, cd, pert = CASES[0]
    alphas = tuple(alpha_max(cd, pert) / 2 ** k for k in range(2, 10))
    counts = count_calls(monkeypatch, {probcore: ("mutual_information", "entropy")})
    passes = record_entropy_passes(monkeypatch)
    slope_curve(spec, cd, pert, alphas)
    # one pass of 14 for the base's nine terms, then 10 entropies for the
    # four V terms per step; term by term the 8 steps take 162
    assert passes == [14]
    assert counts == {"mutual_information": 0, "entropy": 8 * 10}


@pytest.mark.parametrize("tag, spec, cd, pert", CASES, ids=[c[0] for c in CASES])
def test_term_groups_split_on_v(tag, spec, cd, pert):
    bound_v_terms = ("I(X;Y1,V|U)", "I(V;X,Y1|U)", "I(Yr;V|U)", "I(X,Y1;V|U,Yr)")
    assert set(NO_V_TERMS).isdisjoint(bound_v_terms)
    base = mi_terms(build_joint(spec, cd))
    moved = mi_terms(build_joint(spec, perturb(cd, pert, alpha_max(cd, pert) / 2)))
    for name in NO_V_TERMS:
        assert abs(moved[name] - base[name]) <= CURVE_TOL
    # a certified direction moves both bounds at first order, so the bound
    # terms in V move
    assert any(abs(moved[name] - base[name]) > 1e-9 for name in bound_v_terms)
