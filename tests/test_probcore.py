import itertools
import json
import pathlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfdiamond
from cfdiamond import config, probcore
from cfdiamond.diamond3 import MacSpec, mac_sum_capacity_indep
from cfdiamond.probcore import (
    Alphabet,
    CondKernel,
    FiniteDist,
    InfeasibleError,
    SchemaError,
    UndefinedRowError,
    binary_entropy,
    compose,
    condition,
    conditional_entropy,
    conditional_table,
    entropy,
    entropy_letters_first,
    entropy_terms,
    marginalize,
    mutual_information,
    reorder,
)
from conftest import rand_pmf, shift_entropies


def dist(*pairs):
    """dist(("a", [..probs..]), ...) builds a joint from flat row-major data."""
    names_sizes, pmf = pairs[:-1], pairs[-1]
    variables = tuple(Alphabet(n, s) for n, s in names_sizes)
    return FiniteDist(variables, np.asarray(pmf, dtype=float))


def random_joint(rng, sizes):
    variables = tuple(Alphabet(f"v{i}", s) for i, s in enumerate(sizes))
    return FiniteDist(variables, rand_pmf(rng, int(np.prod(sizes))))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_uniform_binary():
    d = dist(("a", 2), [0.5, 0.5])
    assert entropy(d) == pytest.approx(1.0, abs=1e-12)


def test_entropy_point_mass():
    d = dist(("a", 3), [0.0, 1.0, 0.0])
    assert entropy(d) == 0.0


def test_entropy_bernoulli_quarter():
    d = dist(("a", 2), [0.25, 0.75])
    assert entropy(d) == pytest.approx(0.8112781, abs=1e-6)


def test_entropy_letters_first_matches_entropy_per_pmf():
    rng = np.random.default_rng(3)
    pmfs = np.stack([rand_pmf(rng, 4) for _ in range(6)]).reshape(2, 3, 4)
    pmfs[0, 1] = [0.0, 1.0, 0.0, 0.0]
    pmfs[1, 2] = [0.5, 0.5 - 1e-13, 1e-13, 0.0]
    h = entropy_letters_first(np.moveaxis(pmfs, -1, 0).copy())
    assert h.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert h[idx] == pytest.approx(entropy(dist(("a", 4), pmfs[idx])), abs=1e-12)


def test_entropy_letters_first_counts_entries_at_tol_supp_as_zero():
    with config.temporary_tolerances(tol_supp=0.1):
        h = entropy_letters_first(np.array([[0.1, 0.2], [0.9, 0.8]]))
    assert h[0] == pytest.approx(-0.9 * np.log2(0.9), abs=1e-15)
    assert h[1] == pytest.approx(binary_entropy(0.2), abs=1e-15)


@pytest.mark.parametrize("letters", range(2, 8))
def test_entropy_letters_first_equals_last_axis_sum_bit_for_bit(letters):
    # below 8 entries numpy adds a last axis in order, as the letters-first
    # sum does; from 8 it sums pairwise and the last bits may differ
    rng = np.random.default_rng(letters)
    rows = rng.dirichlet(np.ones(letters), size=500)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    terms = np.where(rows > config.CONFIG.tol_supp, rows, 1.0)
    last_axis = -(np.log2(terms) * rows).sum(axis=-1)
    assert entropy_letters_first(rows.T.copy()).tobytes() == last_axis.tobytes()


@pytest.mark.parametrize("letters", range(2, 8))
def test_entropy_letters_first_is_negated_sum_of_entropy_terms_bit_for_bit(letters):
    # the capacity search adds gathered terms letter by letter and relies on
    # matching entropy_letters_first in every bit
    rng = np.random.default_rng(100 + letters)
    p = rng.dirichlet(np.ones(letters), size=(40, 30)).transpose(2, 0, 1).copy()
    p[rng.random(p.shape) < 0.2] = 0.0
    terms = entropy_terms(p)
    in_order = terms[0].copy()
    for t in terms[1:]:
        in_order += t
    h = entropy_letters_first(p)
    assert h.tobytes() == (-terms.sum(axis=0)).tobytes()
    assert h.tobytes() == (-in_order).tobytes()


def test_entropy_terms_are_zero_at_and_below_tol_supp():
    p = np.array([0.0, 0.05, 0.1, 0.2, 1.0])
    with config.temporary_tolerances(tol_supp=0.1):
        terms = entropy_terms(p)
    assert terms.tobytes() == np.array([0.0, 0.0, 0.0, 0.2 * np.log2(0.2), 0.0]).tobytes()
    # the unmasked product leaves +0.0, never -0.0, at 0, at or below
    # tol_supp and at 1
    tol = config.CONFIG.tol_supp
    terms = entropy_terms(np.array([0.0, tol / 2, tol, 1.0]))
    assert terms.tobytes() == np.zeros(4).tobytes()


def test_mac_capacity_goldens_stay_exact():
    # mac_sum_capacity_indep sums its entropies with entropy_letters_first;
    # the recorded values come from a scalar double loop
    golden = json.loads((pathlib.Path(__file__).parent / "capacity_golden.json").read_text())
    for case in golden["mac"]:
        rows = np.asarray(case["rows"], dtype=float)
        x0, x1 = Alphabet("x0", 2), Alphabet("x1", 2)
        mac = MacSpec(x0, x1, CondKernel((x0, x1), (Alphabet("y_w", rows.shape[1]),), rows))
        for resolution, value in case["values"].items():
            assert mac_sum_capacity_indep(mac, int(resolution)) == value, (case["name"], resolution)


def test_entropy_unknown_variable():
    d = dist(("a", 2), [0.5, 0.5])
    with pytest.raises(ValueError, match="unknown variable"):
        entropy(d, "nope")


# ---------------------------------------------------------------------------
# conditional entropy
# ---------------------------------------------------------------------------


def test_conditional_entropy_independent():
    rng = np.random.default_rng(1)
    pa = rand_pmf(rng, 3)
    pb = rand_pmf(rng, 2)
    d = dist(("a", 3), ("b", 2), np.outer(pa, pb).ravel())
    assert conditional_entropy(d, "a", "b") == pytest.approx(entropy(d, "a"), abs=1e-12)


def test_conditional_entropy_functional():
    # b = a, so H(b | a) = 0
    pmf = np.zeros((2, 2))
    pmf[0, 0] = 0.3
    pmf[1, 1] = 0.7
    d = dist(("a", 2), ("b", 2), pmf.ravel())
    assert conditional_entropy(d, "b", "a") == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_xor_noise():
    # z ~ Ber(0.1), w ~ Ber(0.1) independent, v = z xor w
    p, delta = 0.1, 0.1
    table = np.zeros((2, 2))
    for z in range(2):
        for w in range(2):
            pz = p if z else 1 - p
            pw = delta if w else 1 - delta
            table[z, z ^ w] += pz * pw
    d = dist(("z", 2), ("v", 2), table.ravel())
    expected = -sum(table[z, v] * np.log2(table[z, v] / table[:, v].sum())
                    for z in range(2) for v in range(2))
    assert conditional_entropy(d, "z", "v") == pytest.approx(expected, abs=1e-12)


def test_conditional_entropy_overlap_rejected():
    d = dist(("a", 2), ("b", 2), [0.25] * 4)
    with pytest.raises(ValueError, match="overlap"):
        conditional_entropy(d, ("a", "b"), "b")


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_independent_is_zero():
    rng = np.random.default_rng(2)
    d = dist(("a", 3), ("b", 3), np.outer(rand_pmf(rng, 3), rand_pmf(rng, 3)).ravel())
    assert mutual_information(d, "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_mi_copied_variable():
    pmf = np.zeros((2, 2))
    pmf[0, 0] = pmf[1, 1] = 0.5
    d = dist(("a", 2), ("b", 2), pmf.ravel())
    assert mutual_information(d, "a", "b") == pytest.approx(1.0, abs=1e-12)


def test_mi_binary_symmetric_channel():
    eps = 0.11
    pmf = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
    d = dist(("x", 2), ("y", 2), pmf.ravel())
    assert mutual_information(d, "x", "y") == pytest.approx(1 - binary_entropy(eps), abs=1e-12)
    assert mutual_information(d, "x", "y") == pytest.approx(0.5001, abs=1e-3)


def test_mi_negative_within_tol_norm_is_clamped(monkeypatch):
    rng = np.random.default_rng(2)
    d = dist(("a", 3), ("b", 3), np.outer(rand_pmf(rng, 3), rand_pmf(rng, 3)).ravel())
    shift_entropies(monkeypatch, 0.2 * config.CONFIG.tol_norm)  # raw about -0.4 tol_norm
    assert mutual_information(d, "a", "b") == 0.0


def test_mi_negative_beyond_tol_norm_raises(monkeypatch):
    rng = np.random.default_rng(2)
    d = dist(("a", 3), ("b", 3), np.outer(rand_pmf(rng, 3), rand_pmf(rng, 3)).ravel())
    shift_entropies(monkeypatch, 1e-6)
    with pytest.raises(InfeasibleError, match="tol_norm"):
        mutual_information(d, "a", "b")


def test_package_config_reads_the_live_tolerances():
    before = config.CONFIG
    assert cfdiamond.CONFIG is before
    try:
        cfdiamond.set_tolerances(tol_dev=1e-5)
        assert cfdiamond.CONFIG.tol_dev == 1e-5
        with cfdiamond.temporary_tolerances(tol_dev=1e-3):
            assert cfdiamond.CONFIG.tol_dev == 1e-3
            from cfdiamond import CONFIG
            assert CONFIG.tol_dev == 1e-3
        assert cfdiamond.CONFIG.tol_dev == 1e-5
    finally:
        config.CONFIG = before
    assert cfdiamond.CONFIG is before
    with pytest.raises(AttributeError):
        cfdiamond.no_such_name


@pytest.mark.parametrize("field", ["tol_norm", "tol_supp", "tol_dev", "tol_lp"])
@pytest.mark.parametrize("value", [-1e-12, float("nan"), float("inf")])
def test_tolerances_must_be_finite_and_nonnegative(field, value):
    before = config.CONFIG
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        config.set_tolerances(**{field: value})
    assert config.CONFIG is before
    with config.temporary_tolerances(**{field: 0.0}):
        assert getattr(config.CONFIG, field) == 0.0


def test_temporary_tolerances_hold_per_thread():
    # More threads than cores, each holding its own tol_supp in a block, all
    # blocks open at once and switching often. Each thread sees only its own
    # value, in the config and in the entropy terms it computes, and the
    # process-wide config stays as it was.
    before = config.CONFIG
    tols = (1e-6, 1e-5, 1e-3, 1e-2)
    all_open = threading.Barrier(len(tols), timeout=10)
    seen = {}

    def hold(tol_supp: float) -> None:
        with config.temporary_tolerances(tol_supp=tol_supp):
            all_open.wait()
            seen[tol_supp] = {(config.CONFIG.tol_supp, cfdiamond.CONFIG.tol_supp,
                               float(probcore.entropy_terms(np.array([5e-4]))[0]))
                              for _ in range(200)}
            all_open.wait()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold, args=(tol,)) for tol in tols]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    term = 5e-4 * np.log2(5e-4)
    assert seen == {tol: {(tol, tol, term if tol < 5e-4 else 0.0)} for tol in tols}
    assert config.CONFIG is before


def test_set_tolerances_is_process_wide():
    before = config.CONFIG
    try:
        config.set_tolerances(tol_dev=1e-5)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(config.CONFIG.tol_dev))
        thread.start()
        thread.join()
        assert seen == [1e-5]
        with config.temporary_tolerances(tol_lp=1e-6):
            # an open block starts from the config in effect and keeps it
            assert (config.CONFIG.tol_dev, config.CONFIG.tol_lp) == (1e-5, 1e-6)
            config.set_tolerances(tol_dev=1e-4)
            assert config.CONFIG.tol_dev == 1e-5
        assert config.CONFIG.tol_dev == 1e-4
    finally:
        config.CONFIG = before
    assert config.CONFIG is before


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chain_rule(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(rng.integers(2, 5)) for _ in range(2))
    d = random_joint(rng, sizes)
    lhs = entropy(d, ("v0", "v1"))
    rhs = entropy(d, "v0") + conditional_entropy(d, "v1", "v0")
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mi_decomposition_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(rng.integers(2, 5)) for _ in range(3))
    d = random_joint(rng, sizes)
    left = mutual_information(d, "v0", ("v1", "v2"))
    right = mutual_information(d, "v0", "v2") + mutual_information(d, "v0", "v1", "v2")
    assert left == pytest.approx(right, abs=1e-9)
    # pre-clamp value from raw entropies stays above -1e-9
    raw = (entropy(d, ("v0", "v2")) + entropy(d, ("v1", "v2"))
           - entropy(d, ("v0", "v1", "v2")) - entropy(d, "v2"))
    assert raw >= -1e-9


# ---------------------------------------------------------------------------
# marginalize / condition / compose
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compose_condition_round_trip(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(rng.integers(2, 5)) for _ in range(3))
    d = random_joint(rng, sizes)
    k = condition(d, ("v0",))
    m = marginalize(d, ("v0",))
    back = compose(m, k)
    assert back.names == d.names
    assert np.max(np.abs(back.pmf - d.pmf)) < 1e-12


def test_condition_independent_rows_equal():
    rng = np.random.default_rng(4)
    pa, pb = rand_pmf(rng, 3), rand_pmf(rng, 4)
    d = dist(("a", 3), ("b", 4), np.outer(pa, pb).ravel())
    k = condition(d, "a")
    for row in k.rows:
        assert np.max(np.abs(row - pb)) < 1e-12


def test_condition_zero_probability_row_flagged():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
    d = dist(("a", 2), ("b", 2), pmf.ravel())
    k = condition(d, "a")
    assert k.defined is not None
    assert k.defined.tolist() == [True, False]
    assert np.all(k.rows[1] == 0.0)


def test_compose_on_undefined_row_raises():
    pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
    d = dist(("a", 2), ("b", 2), pmf.ravel())
    k = condition(d, "a")
    bad_input = dist(("a", 2), [0.5, 0.5])
    with pytest.raises(UndefinedRowError):
        compose(bad_input, k)
    ok_input = dist(("a", 2), [1.0, 0.0])
    out = compose(ok_input, k)
    assert out.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_consistency_through_compose():
    rng = np.random.default_rng(5)
    ux = dist(("u", 2), ("x", 3), rand_pmf(rng, 6))
    x_a = ux.alphabet("x")
    y_a = Alphabet("y", 2)
    k = CondKernel((x_a,), (y_a,), np.vstack([rand_pmf(rng, 2) for _ in range(3)]))
    j = compose(ux, k)
    assert j.names == ("u", "x", "y")
    back = marginalize(j, ("u", "x"))
    assert np.max(np.abs(back.pmf - ux.pmf)) < 1e-12


def test_reorder_is_explicit_permutation():
    rng = np.random.default_rng(6)
    d = random_joint(rng, (2, 3, 2))
    r = reorder(d, ("v2", "v0", "v1"))
    assert r.names == ("v2", "v0", "v1")
    assert r.pmf[1, 0, 2] == d.pmf[0, 2, 1]
    with pytest.raises(ValueError):
        reorder(d, ("v0", "v1"))


# ---------------------------------------------------------------------------
# validation and JSON
# ---------------------------------------------------------------------------


def test_pmf_must_normalize():
    with pytest.raises(SchemaError, match="sums to"):
        dist(("a", 2), [0.5, 0.4])


def test_pmf_rejects_negative():
    with pytest.raises(SchemaError, match="negative"):
        dist(("a", 2), [1.1, -0.1])


def test_alphabet_labels_validated():
    with pytest.raises(SchemaError):
        Alphabet("a", 2, ("x",))
    with pytest.raises(SchemaError):
        Alphabet("a", 2, ("x", "x"))


def test_kernel_rows_must_normalize():
    a, b = Alphabet("a", 2), Alphabet("b", 2)
    with pytest.raises(SchemaError, match="sums to"):
        CondKernel((a,), (b,), np.array([[0.5, 0.5], [0.9, 0.0]]))


def test_dist_json_round_trip():
    rng = np.random.default_rng(7)
    d = FiniteDist((Alphabet("a", 2, ("0", "1")), Alphabet("b", 3)), rand_pmf(rng, 6))
    back = FiniteDist.from_json_dict(d.to_json_dict())
    assert back.variables == d.variables
    assert np.array_equal(back.pmf, d.pmf)


def test_dist_json_length_checked():
    obj = {"variables": [{"name": "a", "size": 2, "labels": None}], "pmf": [0.5, 0.25, 0.25]}
    with pytest.raises(SchemaError, match="length"):
        FiniteDist.from_json_dict(obj)


def test_kernel_json_round_trip():
    rng = np.random.default_rng(8)
    a, b = Alphabet("a", 3), Alphabet("b", 2)
    k = CondKernel((a,), (b,), np.vstack([rand_pmf(rng, 2) for _ in range(3)]))
    back = CondKernel.from_json_dict(k.to_json_dict())
    assert back.from_vars == k.from_vars
    assert np.array_equal(back.rows, k.rows)


BIT = {"name": "a", "size": 2, "labels": None}


def kernel_json(rows, defined=None):
    obj = {"from": [BIT], "to": [dict(BIT, name="b")], "rows": rows}
    if defined is not None:
        obj["defined"] = defined
    return obj


@pytest.mark.parametrize("reader, obj, field", [
    pytest.param(FiniteDist, {"variables": [BIT], "pmf": ["0.5", "0.5"]},
                 r"pmf\[0\] must be a JSON number", id="pmf-str"),
    pytest.param(FiniteDist, {"variables": [BIT], "pmf": [True, False]},
                 r"pmf\[0\] must be a JSON number", id="pmf-bool"),
    pytest.param(FiniteDist, {"variables": [BIT], "pmf": "0.5"}, "pmf must be a list",
                 id="pmf-not-list"),
    pytest.param(CondKernel, kernel_json([["1", 0], [0, True]]),
                 r"rows\[0\]\[0\] must be a JSON number", id="rows-str"),
    pytest.param(CondKernel, kernel_json([[1, 0], [0, True]]),
                 r"rows\[1\]\[1\] must be a JSON number", id="rows-bool"),
    pytest.param(CondKernel, kernel_json([[1, 0], 1]), r"rows\[1\] must be a list",
                 id="row-not-list"),
    pytest.param(CondKernel, kernel_json([[1, 0], [0, 1]], ["no", 1]),
                 r"defined\[0\] must be true or false", id="defined-str"),
    pytest.param(CondKernel, kernel_json([[1, 0], [0, 1]], [True, 1]),
                 r"defined\[1\] must be true or false", id="defined-int"),
])
def test_json_readers_take_only_json_numbers_and_booleans(reader, obj, field):
    with pytest.raises(SchemaError, match=field):
        reader.from_json_dict(obj)


def test_json_readers_take_ints_floats_and_booleans():
    d = FiniteDist.from_json_dict({"variables": [BIT], "pmf": [1, 0.0]})
    assert d.pmf.tolist() == [1.0, 0.0]
    k = CondKernel.from_json_dict(kernel_json([[1, 0], [0.0, 0.0]], [True, False]))
    assert k.rows.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert k.defined.tolist() == [True, False]


def test_entropy_is_the_same_for_every_order_of_the_names():
    # a marginal is summed in the joint's own variable order, so the names'
    # order cannot move a bit; term by term this makes H(u, y1, v) and
    # H(y1, v, u) the same computation
    rng = np.random.default_rng(11)
    names = ("a", "b", "c", "d", "e")
    for _ in range(20):
        sizes = rng.integers(2, 6, size=5)
        pmf = rng.random(sizes) ** 3 * (rng.random(sizes) > 0.3)
        d = FiniteDist(tuple(Alphabet(n, int(k)) for n, k in zip(names, sizes)),
                       pmf / pmf.sum())
        for k in range(1, 6):
            for subset in itertools.combinations(names, k):
                want = entropy(d, subset)
                assert all(entropy(d, perm) == want for perm in itertools.permutations(subset))
        want = mutual_information(d, ("a", "c"), "e", ("b", "d"))
        assert mutual_information(d, "e", ("c", "a"), ("d", "b")) == want


# ---------------------------------------------------------------------------
# marginals on a permuted joint: names in axis order and out of it
# ---------------------------------------------------------------------------


def numpy_marginal(d, names):
    """Marginal on ``names`` by moving their axes to the front and summing
    the rest, apart from the library's reduction."""
    axes = [d.names.index(n) for n in names]
    moved = np.moveaxis(d.pmf, axes, range(len(axes)))
    return moved.sum(axis=tuple(range(len(axes), d.pmf.ndim)))


def permuted_joint():
    """A zero-rich joint that ``reorder`` has permuted out of its declared order."""
    rng = np.random.default_rng(12)
    sizes = (2, 3, 4, 2)
    pmf = rng.random(sizes) ** 3 * (rng.random(sizes) > 0.3)
    d = FiniteDist(tuple(Alphabet(n, k) for n, k in zip("abcd", sizes)), pmf / pmf.sum())
    return reorder(d, ("c", "a", "d", "b"))


def test_marginals_of_a_permuted_joint_match_numpy():
    d = permuted_joint()
    tol = config.CONFIG.tol_supp
    in_order = 0
    for k in range(1, 5):
        for subset in itertools.combinations(d.names, k):  # in axis order
            in_order += 1
            want_h = entropy(d, subset)
            for names in itertools.permutations(subset):
                p = numpy_marginal(d, names).ravel()
                p = p[p > tol]
                assert entropy(d, names) == want_h  # the same bits in every order
                assert want_h == pytest.approx(-(p * np.log2(p)).sum(), rel=1e-12, abs=1e-15)
                for split in range(1, k):
                    given, target = names[:split], names[split:]
                    marg = numpy_marginal(d, given + target)
                    mass = marg.sum(axis=tuple(range(split, k)), keepdims=True)
                    want = np.divide(marg, mass, out=np.zeros_like(marg), where=mass > tol)
                    got = conditional_table(d, target, given)
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert in_order == 15


def test_marginal_name_errors_are_unchanged():
    d = permuted_joint()
    for names in (("c", "c"), ("a", "a"), ("c", "d", "c")):
        with pytest.raises(ValueError, match=r"repeated variable in subset: \('"):
            entropy(d, names)
    for names in (("c", "zz"), ("zz", "c"), ("zz",)):
        with pytest.raises(ValueError, match="unknown variable name 'zz'"):
            entropy(d, names)
        with pytest.raises(ValueError, match="unknown variable name 'zz'"):
            conditional_table(d, "a", names)
    with pytest.raises(ValueError, match="repeated variable within a subset"):
        conditional_table(d, ("c", "c"), "a")
    with pytest.raises(ValueError, match="overlapping variable subsets"):
        conditional_table(d, "c", ("c", "d"))
