import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfdiamond import config, probcore
from cfdiamond.probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    InfeasibleError,
    PreconditionError,
    SchemaError,
    compose,
    mutual_information,
    reorder,
)
from cfdiamond.relaynet import (
    CANON_ORDER,
    TERM_NAMES,
    CodingDist,
    RateTerms,
    RelayNetSpec,
    _TERM_ARGS,
    build_joint,
    eval_cf_rate,
    eval_pdcf,
    mi_terms,
    pdcf_reduction_residuals,
)
from cfdiamond.slope import alpha_max, perturb
from cfdiamond.zoo import bec_coding_dist, bec_rate, make_bec_pair
from conftest import (
    count_calls,
    mi_loops,
    rand_pmf,
    random_direction,
    random_markov_instance,
    record_entropy_passes,
    sample_joint,
    shift_entropies,
    zero_rich_instance,
)


def noiseless_spec(c0=2.0, c_cf=0.0):
    """y1 = x and yr = x, both exact copies."""
    x_a = Alphabet("x", 2)
    y1_a = Alphabet("y1", 2)
    yr_a = Alphabet("yr", 2)
    rows = np.zeros((2, 4))
    for x in range(2):
        rows[x, x * 2 + x] = 1.0  # yr = x, y1 = x
    return RelayNetSpec(x_a, y1_a, yr_a, CondKernel((x_a,), (yr_a, y1_a), rows),
                        c0=c0, c_cf=c_cf)


def simple_coding(spec, v_rows_per_yr, u_size=1, x_pmf=None):
    """Markov coding distribution from per-yr rows (u trivial by default)."""
    u_a = Alphabet("u", u_size)
    x_a = spec.x_alphabet
    v_rows = np.asarray(v_rows_per_yr, dtype=float)
    v_a = Alphabet("v", v_rows.shape[1])
    if x_pmf is None:
        x_pmf = np.full(x_a.size, 1.0 / x_a.size)
    ux = FiniteDist((u_a, x_a), np.tile(x_pmf / u_size, (u_size, 1)))
    tensor = np.broadcast_to(
        v_rows.reshape(1, 1, 1, spec.yr_alphabet.size, v_a.size),
        (u_size, x_a.size, spec.y1_alphabet.size, spec.yr_alphabet.size, v_a.size))
    vk = CondKernel((u_a, x_a, spec.y1_alphabet, spec.yr_alphabet), (v_a,),
                    tensor.reshape(-1, v_a.size))
    return CodingDist(ux, vk, markov_form=True)


# ---------------------------------------------------------------------------
# build_joint
# ---------------------------------------------------------------------------


def test_build_joint_deterministic_permutation_support():
    spec = noiseless_spec()
    cd = simple_coding(spec, [[1.0], [1.0]])  # v constant
    joint = build_joint(spec, cd)
    assert joint.names == ("u", "x", "y1", "yr", "v")
    assert joint.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # deterministic channel: exactly one cell per x value
    assert int(np.count_nonzero(joint.pmf)) == 2
    assert joint.pmf[0, 0, 0, 0, 0] == pytest.approx(0.5)
    assert joint.pmf[0, 1, 1, 1, 0] == pytest.approx(0.5)


def test_build_joint_bec_support_count():
    p = q = 0.5
    spec = make_bec_pair(p, c0=0.25)
    cd = bec_coding_dist(p, q)
    joint = build_joint(spec, cd)
    # independent enumeration of consistent tuples with positive probability
    e = 2
    count = 0
    for x in range(2):
        for y1 in (x, e):
            for yr in (x, e):
                vs = (yr, e) if yr != e else (e,)
                count += len(set(vs))
    assert int(np.count_nonzero(joint.pmf > 0)) == count
    assert joint.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_build_joint_uniform_product():
    x_a = Alphabet("x", 2)
    y1_a = Alphabet("y1", 2)
    yr_a = Alphabet("yr", 2)
    spec = RelayNetSpec(x_a, y1_a, yr_a,
                        CondKernel((x_a,), (yr_a, y1_a), np.full((2, 4), 0.25)),
                        c0=0.0)
    cd = simple_coding(spec, [[0.5, 0.5], [0.5, 0.5]])
    joint = build_joint(spec, cd)
    assert np.max(np.abs(joint.pmf - 1.0 / joint.pmf.size)) < 1e-12


def test_build_joint_alphabet_mismatch():
    spec = noiseless_spec()
    other = make_bec_pair(0.3)
    cd = bec_coding_dist(0.3, 0.3)
    with pytest.raises(SchemaError):
        build_joint(spec, cd)
    assert build_joint(other, cd).pmf.sum() == pytest.approx(1.0, abs=1e-9)


def composed_joint(spec, cd):
    """The joint built by the two compositions and the reorder, the oracle
    for ``build_joint``'s one product."""
    return reorder(compose(compose(cd.ux, spec.broadcast), cd.v_kernel), CANON_ORDER)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("dense", "sparse", "zero-rich")), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_build_joint_is_the_composed_joint_bit_for_bit(kind, perturbed, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero-rich":
        spec, cd = zero_rich_instance(seed)
    else:
        spec, cd = random_markov_instance(rng, max_size=4, full_support=kind == "dense")
    if perturbed:  # a general (non-Markov) compression channel
        pert = random_direction(rng, spec, cd)
        if not pert.is_zero:
            cd = perturb(cd, pert, float(rng.uniform(0.05, 0.5)) * alpha_max(cd, pert))
    got, want = build_joint(spec, cd), composed_joint(spec, cd)
    assert got.variables == want.variables
    assert got.pmf.tobytes() == want.pmf.tobytes()


@pytest.mark.parametrize("name", ["x", "y1", "yr"])
def test_build_joint_rejects_each_alphabet_mismatch(name):
    # same sizes, other labels: only the alphabet check can catch it
    spec, cd = random_markov_instance(np.random.default_rng(5))
    alphas = {a.name: a for a in (spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet)}
    old = alphas[name]
    alphas[name] = Alphabet(name, old.size, tuple(f"{name}{i}" for i in range(old.size)))
    broadcast = CondKernel((alphas["x"],), (alphas["yr"], alphas["y1"]), spec.broadcast.rows)
    other = RelayNetSpec(alphas["x"], alphas["y1"], alphas["yr"], broadcast, c0=spec.c0)
    with pytest.raises(SchemaError, match="x alphabet" if name == "x" else repr(name)):
        build_joint(other, cd)


def test_cf_rate_builds_one_joint_and_no_composition(monkeypatch):
    spec, cd = random_markov_instance(np.random.default_rng(16))
    counts = count_calls(monkeypatch, {probcore: ("compose", "reorder")})
    counts["FiniteDist"] = 0
    post_init = FiniteDist.__post_init__

    def counted(self):
        counts["FiniteDist"] += 1
        post_init(self)

    monkeypatch.setattr(FiniteDist, "__post_init__", counted)
    eval_cf_rate(spec, cd)
    assert counts == {"compose": 0, "reorder": 0, "FiniteDist": 1}


# ---------------------------------------------------------------------------
# eval_cf_rate
# ---------------------------------------------------------------------------


def test_cf_rate_constant_v_reduces_to_pdcf_terms():
    rng = np.random.default_rng(10)
    spec, _ = random_markov_instance(rng, c0=0.3)
    cd = simple_coding(spec, [[1.0]] * spec.yr_alphabet.size,
                       x_pmf=rand_pmf(rng, spec.x_alphabet.size))
    rep = eval_cf_rate(spec, cd)
    t = rep.terms
    assert rep.cf_required == pytest.approx(0.0, abs=1e-12)
    assert rep.feasible
    assert rep.bound1 == pytest.approx(t["I(U;Yr)"] + t["I(X;Y1|U)"], abs=1e-9)
    assert rep.bound2 == pytest.approx(
        min(t["I(U;Y1)"], t["I(U;Yr)"]) + t["I(X;Y1|U)"] + spec.c0, abs=1e-9)


def test_cf_rate_markov_zero_budget_matches_pdcf():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec, cd = random_markov_instance(rng)
        rep = eval_cf_rate(spec, cd)
        assert rep.feasible
        assert rep.achievable == pytest.approx(eval_pdcf(spec, cd), abs=1e-9)


def test_cf_rate_bec_terms_match_loop_oracle():
    spec = make_bec_pair(0.5, c0=0.25)
    cd = bec_coding_dist(0.5, 0.5)
    joint = build_joint(spec, cd)
    t = mi_terms(joint)
    expected = {
        "I(U;Yr)": mi_loops(joint, "u", "yr"),
        "I(U;Y1)": mi_loops(joint, "u", "y1"),
        "I(X;Y1|U)": mi_loops(joint, "x", "y1", "u"),
        "I(X;Y1,Yr|U)": mi_loops(joint, "x", ("y1", "yr"), "u"),
        "I(X;Y1,V|U)": mi_loops(joint, "x", ("y1", "v"), "u"),
        "I(V;X,Y1|U)": mi_loops(joint, "v", ("x", "y1"), "u"),
        "I(Yr;V|U)": mi_loops(joint, "yr", "v", "u"),
        "I(X,Y1;V|U,Yr)": mi_loops(joint, ("x", "y1"), "v", ("u", "yr")),
        "I(Yr;V|U,X,Y1)": mi_loops(joint, "yr", "v", ("u", "x", "y1")),
    }
    for name, val in expected.items():
        assert t[name] == pytest.approx(val, abs=1e-9), name
    rep = eval_cf_rate(spec, cd)
    assert rep.bound1 == pytest.approx(
        expected["I(U;Yr)"] + min(expected["I(X;Y1,Yr|U)"], expected["I(X;Y1,V|U)"]), abs=1e-9)
    assert rep.bound2 == pytest.approx(
        min(expected["I(U;Y1)"], expected["I(U;Yr)"]) + expected["I(X;Y1|U)"]
        + expected["I(V;X,Y1|U)"] - expected["I(Yr;V|U)"] + 0.25, abs=1e-9)


def test_cf_rate_infeasible_when_budget_too_small():
    # non-Markov coding distribution needs cooperation; budget 0 fails
    spec = make_bec_pair(0.4, c0=0.25, c_cf=0.0)
    cd = bec_coding_dist(0.4, 0.4)
    tensor = cd.v_kernel.tensor.copy()
    # make v depend on y1: shift mass within the support for y1 = 0 rows
    mk = tensor[0, 0, 0]
    shift = np.zeros_like(tensor)
    shift[0, :, 0, 0, 0] = 0.2
    shift[0, :, 0, 0, 2] = -0.2
    tensor = tensor + shift * (mk[None, None, None, :, :] > 0)
    vk = CondKernel(cd.v_kernel.from_vars, cd.v_kernel.to_vars,
                    tensor.reshape(cd.v_kernel.rows.shape))
    cd2 = CodingDist(cd.ux, vk, markov_form=False)
    rep = eval_cf_rate(spec, cd2)
    assert rep.cf_required > 1e-3
    assert not rep.feasible
    assert rep.achievable is None
    assert rep.to_json_dict()["achievable"] == "infeasible"
    # with enough budget the same distribution is feasible
    rep2 = eval_cf_rate(RelayNetSpec(spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet,
                                     spec.broadcast, c0=0.25, c_cf=1.0), cd2)
    assert rep2.feasible


def test_cf_rate_monotone_in_c0_and_flat_in_ccf():
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec, cd = random_markov_instance(rng, c0=0.2)
        base = eval_cf_rate(spec, cd)
        more_pipe = RelayNetSpec(spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet,
                                 spec.broadcast, c0=0.5, c_cf=0.0)
        assert eval_cf_rate(more_pipe, cd).achievable >= base.achievable - 1e-12
        more_coop = RelayNetSpec(spec.x_alphabet, spec.y1_alphabet, spec.yr_alphabet,
                                 spec.broadcast, c0=0.2, c_cf=0.7)
        assert eval_cf_rate(more_coop, cd).achievable == pytest.approx(
            base.achievable, abs=1e-12)


# ---------------------------------------------------------------------------
# eval_pdcf
# ---------------------------------------------------------------------------


def test_pdcf_relay_copy_noiseless():
    spec = noiseless_spec(c0=1.0)
    cd = simple_coding(spec, np.eye(2))  # v = yr
    joint = build_joint(spec, cd)
    expected = mi_loops(joint, "x", ("y1", "yr"))
    assert eval_pdcf(spec, cd) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(1.0, abs=1e-9)


def test_pdcf_constant_v():
    rng = np.random.default_rng(13)
    spec, _ = random_markov_instance(rng, c0=5.0)
    cd = simple_coding(spec, [[1.0]] * spec.yr_alphabet.size)
    joint = build_joint(spec, cd)
    t = mi_terms(joint)
    assert eval_pdcf(spec, cd) == pytest.approx(t["I(U;Yr)"] + t["I(X;Y1|U)"], abs=1e-9)


def test_pdcf_matches_bec_closed_form():
    for p, q, c0 in [(0.5, 0.5, 0.25), (0.3, 0.7, 0.1), (0.2, 1.0, 0.4)]:
        spec = make_bec_pair(p, c0=c0)
        cd = bec_coding_dist(p, q)
        assert eval_pdcf(spec, cd) == pytest.approx(bec_rate(p, q, c0), abs=1e-9)


def test_pdcf_rejects_non_markov():
    spec = make_bec_pair(0.5, c0=0.25)
    cd = bec_coding_dist(0.5, 0.5)
    loose = CodingDist(cd.ux, cd.v_kernel, markov_form=False)
    with pytest.raises(PreconditionError):
        eval_pdcf(spec, loose)


def test_markov_flag_validated_against_kernel():
    spec = make_bec_pair(0.5)
    cd = bec_coding_dist(0.5, 0.5)
    tensor = cd.v_kernel.tensor.copy()
    tensor[0, 0, 0, 0] = [0.7, 0.0, 0.3]  # depends on (x, y1) now
    vk = CondKernel(cd.v_kernel.from_vars, cd.v_kernel.to_vars,
                    tensor.reshape(cd.v_kernel.rows.shape))
    with pytest.raises(SchemaError, match="markov"):
        CodingDist(cd.ux, vk, markov_form=True)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------


def test_reduction_residuals_vanish_on_markov():
    rng = np.random.default_rng(14)
    for _ in range(25):
        spec, cd = random_markov_instance(rng)
        r1, r2 = pdcf_reduction_residuals(spec, cd)
        assert r1 <= 1e-9
        assert r2 <= 1e-9


def test_reduction_residual_breaks_off_markov():
    spec = make_bec_pair(0.4, c0=0.25)
    cd = bec_coding_dist(0.4, 0.4)
    tensor = cd.v_kernel.tensor.copy()
    mk = tensor[0, 0, 0]
    shift = np.zeros_like(tensor)
    shift[0, :, 0, 0, 0] = 0.2
    shift[0, :, 0, 0, 2] = -0.2
    tensor = tensor + shift * (mk[None, None, None, :, :] > 0)
    vk = CondKernel(cd.v_kernel.from_vars, cd.v_kernel.to_vars,
                    tensor.reshape(cd.v_kernel.rows.shape))
    cd2 = CodingDist(cd.ux, vk, markov_form=False)
    r1, _ = pdcf_reduction_residuals(spec, cd2)
    assert r1 > 1e-6


# the five terms read 11 of the 14 entropies, but one pass over all 14
# costs less than 11 separate entropies; term by term they would take 18
# and 20
@pytest.mark.parametrize("evaluate", [eval_pdcf, pdcf_reduction_residuals])
def test_pdcf_evaluators_take_one_entropy_pass(monkeypatch, evaluate):
    spec, cd = random_markov_instance(np.random.default_rng(16))
    t = mi_terms(build_joint(spec, cd))
    if evaluate is eval_pdcf:
        want = min(t["I(U;Yr)"] + t["I(X;Y1,V|U)"],
                   min(t["I(U;Y1)"], t["I(U;Yr)"]) + t["I(X;Y1|U)"] + spec.c0
                   - t["I(Yr;V|U,X,Y1)"])
    else:
        want = (abs(t["I(V;X,Y1|U)"] - t["I(Yr;V|U)"] + t["I(Yr;V|U,X,Y1)"]),
                abs(t["I(X;Y1,V|U)"] - min(t["I(X;Y1,V|U)"], t["I(X;Y1,Yr|U)"])))
    counts = count_calls(monkeypatch, {probcore: ("mutual_information", "entropy")})
    passes = record_entropy_passes(monkeypatch)
    assert evaluate(spec, cd) == want  # the same terms, bit for bit
    assert counts == {"mutual_information": 0, "entropy": 0}
    assert passes == [14]


def test_data_processing_inequality_markov():
    rng = np.random.default_rng(15)
    for _ in range(25):
        spec, cd = random_markov_instance(rng)
        t = mi_terms(build_joint(spec, cd))
        assert t["I(X;Y1,V|U)"] <= t["I(X;Y1,Yr|U)"] + 1e-9


# ---------------------------------------------------------------------------
# RateTerms: each term computed when read, entropies shared between terms
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("dense", "zero-rich", "random")), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(TERM_NAMES), min_size=1, unique=True),
       st.permutations(CANON_ORDER))
def test_rate_terms_equal_each_mutual_information(kind, seed, names, order):
    joint = sample_joint(kind, seed)
    for j in (joint, reorder(joint, order)):
        table = RateTerms(j)
        for name in names:  # bit for bit
            assert table[name].hex() == mutual_information(j, *_TERM_ARGS[name]).hex()
        assert list(table) == names  # in read order


def test_rate_terms_keep_the_tol_norm_rule(monkeypatch):
    # U is trivial, so I(U;Yr) and I(U;Y1) are zero up to rounding, and a
    # shift of the entropies by s * |names|**2 moves them by -2 s
    spec = noiseless_spec()
    joint = build_joint(spec, simple_coding(spec, [[0.7, 0.3], [0.2, 0.8]]))
    zero_terms = ("I(U;Yr)", "I(U;Y1)")
    with monkeypatch.context() as m:
        shift_entropies(m, 0.2 * config.CONFIG.tol_norm)  # raw about -0.4 tol_norm
        table = RateTerms(joint)
        assert [table[name] for name in zero_terms] == [0.0, 0.0]
        assert {name: table[name] for name in TERM_NAMES} == {
            name: mutual_information(joint, *_TERM_ARGS[name]) for name in TERM_NAMES}
        assert mi_terms(joint) == table  # the one-pass entropies shift alike
    shift_entropies(monkeypatch, 1e-6)
    for name in zero_terms:
        with pytest.raises(InfeasibleError, match="tol_norm"):
            RateTerms(joint)[name]
    with pytest.raises(InfeasibleError, match="tol_norm"):
        mi_terms(joint)


def test_rate_terms_compute_each_term_once(monkeypatch):
    joint = build_joint(*random_markov_instance(np.random.default_rng(17)))
    want = mi_terms(joint)
    known = {"I(U;Yr)": 0.25, "I(X;Y1,V|U)": 0.5}  # not the joint's values
    counts = count_calls(monkeypatch, {probcore: ("mutual_information", "entropy")})
    table = RateTerms(joint, known)
    assert table["I(X;Y1|U)"] == want["I(X;Y1|U)"]
    assert counts == {"mutual_information": 0, "entropy": 4}  # (u,x), (u,y1), (u,x,y1), (u)
    assert table["I(X;Y1|U)"] == want["I(X;Y1|U)"]  # a second read computes nothing
    assert counts["entropy"] == 4
    assert table["I(U;Yr)"] == 0.25 and table["I(X;Y1,V|U)"] == 0.5  # given, never computed
    assert counts["entropy"] == 4
    with pytest.raises(KeyError, match="I\\(X;V\\)"):
        table["I(X;V)"]
    assert list(table) == ["I(U;Yr)", "I(X;Y1,V|U)", "I(X;Y1|U)"]


def test_mi_terms_take_each_entropy_once(monkeypatch):
    joint = build_joint(*random_markov_instance(np.random.default_rng(16)))
    counts = count_calls(monkeypatch, {probcore: ("mutual_information", "entropy")})
    passes = record_entropy_passes(monkeypatch)
    mi_terms(joint)
    # one pass over the 14 distinct non-empty subsets; term by term the
    # nine terms take 34 entropies
    assert counts == {"mutual_information": 0, "entropy": 0}
    assert passes == [14]


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_spec_and_coding_json_round_trip():
    spec = make_bec_pair(0.3, c0=0.1, c_cf=0.05)
    cd = bec_coding_dist(0.3, 0.6)
    spec2 = RelayNetSpec.from_json_dict(spec.to_json_dict())
    cd2 = CodingDist.from_json_dict(cd.to_json_dict())
    assert spec2.c0 == spec.c0 and spec2.c_cf == spec.c_cf
    assert np.array_equal(spec2.broadcast.rows, spec.broadcast.rows)
    assert np.array_equal(cd2.v_kernel.rows, cd.v_kernel.rows)
    assert cd2.markov_form
    j1 = build_joint(spec, cd)
    j2 = build_joint(spec2, cd2)
    assert np.array_equal(j1.pmf, j2.pmf)
