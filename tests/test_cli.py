import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfdiamond
from cfdiamond import cli
from cfdiamond.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, main
from cfdiamond.diamond3 import CoopCurve
from cfdiamond.probcore import SchemaError
from cfdiamond.relaynet import CodingDist, RelayNetSpec
from cfdiamond.zoo import bec_coding_dist, make_bec_pair
from conftest import shift_entropies


@pytest.fixture()
def bec_files(tmp_path):
    spec = make_bec_pair(0.5, c0=0.25)
    cd = bec_coding_dist(0.5, 0.5)
    spec_path = tmp_path / "spec.json"
    coding_path = tmp_path / "coding.json"
    spec_path.write_text(json.dumps(spec.to_json_dict()))
    coding_path.write_text(json.dumps(cd.to_json_dict()))
    return str(spec_path), str(coding_path)


def run(tmp_path, *args, name="out"):
    out = tmp_path / f"{name}.txt"
    code = main(["--out", str(out), *args])
    return code, out


def test_example_bec_check_slope_certifies(tmp_path):
    code, out = run(tmp_path, "example", "bec", "check-slope",
                    "--p", "0.5", "--q", "0.5", "--c0", "0.25")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["result"]["verdict"] == "INFINITE_SLOPE_CERTIFIED"
    assert payload["config"]["tol_dev"] == 1e-7
    assert payload["result"]["direction"] is not None


def test_eval_thm1_and_pdcf_match_on_files(tmp_path, bec_files):
    spec_path, coding_path = bec_files
    code1, out1 = run(tmp_path, "eval-thm1", "--spec", spec_path, "--coding", coding_path,
                      name="thm")
    code2, out2 = run(tmp_path, "eval-pdcf", "--spec", spec_path, "--coding", coding_path,
                      name="pdcf")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    r1 = json.loads(out1.read_text())["result"]
    r2 = json.loads(out2.read_text())["result"]
    assert r1["achievable"] == pytest.approx(r2["rate"], abs=1e-9)
    assert "term_breakdown" in r1 and "I(U;Yr)" in r1["term_breakdown"]


def test_malformed_pmf_schema_exit(tmp_path, bec_files):
    spec_path, coding_path = bec_files
    broken = json.loads(open(coding_path).read())
    broken["ux"]["pmf"] = [0.5, 0.4]  # sums to 0.9
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(broken))
    code = main(["eval-pdcf", "--spec", spec_path, "--coding", str(bad_path)])
    assert code == EXIT_SCHEMA


def test_missing_file_schema_exit(tmp_path, bec_files):
    spec_path, _ = bec_files
    code = main(["eval-pdcf", "--spec", spec_path, "--coding", str(tmp_path / "nope.json")])
    assert code == EXIT_SCHEMA


def test_full_support_precondition_exit():
    code = main(["example", "bec", "reduction", "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert code == EXIT_PRECONDITION


def test_sweep_infeasible_without_certificate(tmp_path):
    # v independent of yr: aligned, nothing to sweep
    code = main(["--out", str(tmp_path / "x.json"),
                 "example", "bec", "sweep-curve", "--p", "0.5", "--q", "1.0", "--c0", "0.25"])
    assert code == EXIT_INFEASIBLE


def test_sweep_curve_csv_ratios_increase(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--format", "csv", "--out", str(out),
                 "example", "bec", "sweep-curve", "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,ccf,delta_rate,ratio"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    alphas = [r[0] for r in rows]
    ratios = [r[3] for r in rows]
    assert alphas == sorted(alphas, reverse=True)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_modadd_capacity_action(tmp_path):
    code, out = run(tmp_path, "example", "modadd", "capacity",
                    "--p", "0.1", "--delta", "0.1", "--c0", "0.2")
    assert code == EXIT_OK
    result = json.loads(out.read_text())["result"]
    assert 0.53 < result["value"] < 0.75
    assert len(result["kernel"]) == 2


def test_diamond3_rate_split(tmp_path):
    code, out = run(tmp_path, "diamond3", "rate-split", "--r0", "0.8", "--r1", "0.4",
                    "--eps", "0.01")
    assert code == EXIT_OK
    result = json.loads(out.read_text())["result"]
    assert result["rate"] == pytest.approx(0.59)


def test_diamond3_slope_transfer(tmp_path):
    curve = tmp_path / "curve.csv"
    rows = ["c_cf,c_sum"] + [f"{c},{1.0 + np.sqrt(c)}" for c in (0.0, 1e-8, 1e-6, 1e-4)]
    curve.write_text("\n".join(rows) + "\n")
    code, out = run(tmp_path, "diamond3", "slope-transfer", "--curve", str(curve))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["result"]["diverging"] is True


def write_adder_mac(path):
    from cfdiamond.diamond3 import MacSpec
    from cfdiamond.probcore import Alphabet, CondKernel
    rows = np.zeros((4, 3))
    for a in range(2):
        for b in range(2):
            rows[a * 2 + b, a + b] = 1.0
    mac = MacSpec(Alphabet("x0", 2), Alphabet("x1", 2),
                  CondKernel((Alphabet("x0", 2), Alphabet("x1", 2)), (Alphabet("y_w", 3),), rows))
    path.write_text(json.dumps(mac.to_json_dict()))


def test_mac_capacity_action(tmp_path):
    mac_path = tmp_path / "mac.json"
    write_adder_mac(mac_path)
    code, out = run(tmp_path, "--grid-resolution", "16", "diamond3", "mac-capacity",
                    "--mac", str(mac_path))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["result"]["c_sum0"] == pytest.approx(1.5, abs=1e-6)


def test_tolerance_overrides_embedded_and_restored(tmp_path):
    from cfdiamond import config
    before = config.CONFIG.tol_dev
    code, out = run(tmp_path, "--tol-dev", "1e-5",
                    "example", "bec", "lambda-check", "--p", "0.5", "--q", "0.5")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["tol_dev"] == 1e-5
    assert config.CONFIG.tol_dev == before


def test_report_reloads_bit_for_bit(tmp_path):
    code, out = run(tmp_path, "example", "bec", "check-slope",
                    "--p", "0.5", "--q", "0.5", "--c0", "0.25")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    again = json.loads(json.dumps(payload, sort_keys=True, indent=2))
    assert again == payload  # all floats survive the round trip exactly
    assert isinstance(payload["result"]["lp_value"], float)


def test_runs_are_byte_identical(tmp_path):
    args = ["example", "bec", "check-slope", "--p", "0.5", "--q", "0.5", "--c0", "0.25"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1), *args]) == EXIT_OK
    assert main(["--out", str(out2), *args]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_unavailable_for_json_only_command(tmp_path, bec_files):
    spec_path, coding_path = bec_files
    code = main(["--format", "csv", "--out", str(tmp_path / "x.csv"),
                 "eval-pdcf", "--spec", spec_path, "--coding", coding_path])
    assert code == EXIT_SCHEMA


def test_example_requires_parameters():
    assert main(["example", "bec", "rate"]) == EXIT_SCHEMA
    assert main(["example", "modadd", "rate", "--p", "0.1", "--delta", "0.1"]) == EXIT_SCHEMA


def assert_one_schema_error(code, capsys, names=""):
    assert code == EXIT_SCHEMA
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: schema: "), captured.err
    assert names in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["example", "bec", "rate", "--p", "0.5", "--q", "0.5", "--c0", "nan"],
    ["example", "modadd", "capacity", "--p", "0.1", "--delta", "0.1", "--c0", "nan"],
])
def test_nan_c0_is_a_schema_error(argv, capsys):
    assert_one_schema_error(main(argv), capsys, names="c0")


@pytest.mark.parametrize("argv", [
    ["diamond3", "upper-bound", "--c-sum0", "nan"],
    ["diamond3", "rate-split", "--r0", "nan", "--r1", "0.4"],
    ["diamond3", "rate-split", "--r0", "0.8", "--r1", "nan"],
    ["diamond3", "rate-split", "--r0", "0.8", "--r1", "0.4", "--eps", "inf"],
])
def test_non_finite_diamond3_input_is_a_schema_error(argv, capsys):
    assert_one_schema_error(main(argv), capsys)


@pytest.mark.parametrize("r0, r1, eps, bound", [
    ("0.1", "0.1", "0.7", "below 1/2"),
    ("1", "1", "0.5", "below 1/2"),
    ("0.1", "0.1", "0.2", "at most (r0 + r1)/2"),
])
def test_rate_split_eps_out_of_range_is_a_schema_error(r0, r1, eps, bound, capsys):
    argv = ["diamond3", "rate-split", "--r0", r0, "--r1", r1, "--eps", eps]
    assert_one_schema_error(main(argv), capsys, names=bound)


def test_report_with_nan_is_refused_not_written(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "diamond_upper_bound", lambda c_sum0: float("nan"))
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "diamond3", "upper-bound", "--c-sum0", "1.0"])
    assert_one_schema_error(code, capsys)
    assert not out.exists()


def test_negative_mutual_information_is_an_infeasible_error(tmp_path, monkeypatch, capsys):
    shift_entropies(monkeypatch, 1.0)  # every I(a; b | g) moves by -2 |a| |b| bits
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "example", "bec", "eval-pdcf",
                 "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: infeasible: "), captured.err
    assert "mutual information" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("level", ["bogus", "10", ""])
def test_unknown_log_level_is_a_schema_error(monkeypatch, capsys, level):
    monkeypatch.setenv("CFD_LOG_LEVEL", level)
    code = main(["example", "bec", "eval-pdcf", "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert_one_schema_error(code, capsys, names="CFD_LOG_LEVEL")


def test_bec_lambda_check_tiny_q_exits_ok(tmp_path):
    code, out = run(tmp_path, "example", "bec", "lambda-check", "--p", "0", "--q", "1e-300")
    assert code == EXIT_OK
    assert json.loads(out.read_text())["result"]["infeasible"] is False


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfdiamond.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import cfdiamond.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def assert_one_error_line(code, err):
    """A failing run prints exactly one ``error: <category>: <reason>`` line."""
    assert code in (EXIT_SCHEMA, EXIT_PRECONDITION, EXIT_INFEASIBLE), (code, err)
    lines = err.splitlines()
    assert len(lines) == 1 and re.match(r"error: (schema|precondition|infeasible): ", lines[0]), err


@pytest.mark.parametrize("argv", [
    [],
    ["example"],
    ["example", "bec", "nope"],
    ["example", "bec", "--p", "0.5", "rate", "--q", "0.5"],  # family flags follow the action
    ["example", "modadd", "rate", "--p", "0.1", "--delta", "0.1"],
    ["example", "bec", "capacity", "--p", "0.1", "--q", "0.1"],
    ["example", "bec", "rate", "--p", "0.5", "--q", "0.5", "--delta", "0.1"],
    ["example", "bec", "rate", "--p", "x", "--q", "0.5"],
    ["diamond3", "rate-split", "--r0", "0.8"],
    ["diamond3", "slope-transfer"],
    ["--grid-resolution", "1.5", "diamond3", "upper-bound", "--c-sum0", "1"],
    ["--format", "xml", "diamond3", "upper-bound", "--c-sum0", "1"],
])
def test_parse_errors_print_one_schema_line(argv, capsys):
    assert_one_schema_error(main(argv), capsys)


def test_help_prints_usage_and_exits_ok(capsys):
    assert main(["-h"]) == EXIT_OK
    assert main(["example", "bec", "rate", "-h"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: cfdiamond") and "--q" in out


@pytest.mark.parametrize("argv", [
    ["eval-pdcf", "--spec", "{dir}", "--coding", "{dir}"],
    ["diamond3", "slope-transfer", "--curve", "{dir}"],
    ["diamond3", "mac-capacity", "--mac", "{dir}"],
    ["diamond3", "mac-capacity", "--mac", "{binary}"],
    ["--out", "{dir}/missing/x.json", "diamond3", "upper-bound", "--c-sum0", "1"],
    ["--out", "{dir}", "diamond3", "upper-bound", "--c-sum0", "1"],
])
def test_file_errors_print_one_schema_line(argv, tmp_path, capsys):
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
    argv = [a.format(dir=tmp_path, binary=tmp_path / "binary") for a in argv]
    assert_one_schema_error(main(argv), capsys, names=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary"]
    assert not list(tmp_path.parent.rglob(".cfd-*"))  # no temporary left


@pytest.mark.parametrize("which, path, value, field", [
    pytest.param("spec", ("x_alphabet", "size"), 2.5, "'x' size must be", id="size-float"),
    pytest.param("spec", ("x_alphabet", "size"), True, "'x' size must be", id="size-bool"),
    pytest.param("spec", ("x_alphabet", "labels"), "01", "'x' labels must be", id="labels-str"),
    pytest.param("coding", ("markov_form",), "false", "markov_form must be", id="markov-str"),
    pytest.param("spec", ("c0",), True, "c0 must be", id="c0-bool"),
    pytest.param("spec", ("c0",), "0.3", "c0 must be", id="c0-str"),
    pytest.param("coding", ("ux", "pmf", 0), "0.5", "pmf[0] must be a JSON number",
                 id="pmf-str"),
    pytest.param("coding", ("ux", "pmf", 1), False, "pmf[1] must be a JSON number",
                 id="pmf-bool"),
    pytest.param("spec", ("broadcast", "rows", 0, 0), "1", "rows[0][0] must be a JSON number",
                 id="rows-str"),
    pytest.param("coding", ("v_kernel", "rows", 1, 0), True,
                 "rows[1][0] must be a JSON number", id="rows-bool"),
    pytest.param("spec", ("broadcast", "defined"), ["no", 1],
                 "defined[0] must be true or false", id="defined-str"),
    # integers past the double range, which float() cannot convert
    pytest.param("spec", ("c0",), 10**400, "c0 must be a JSON number", id="c0-huge"),
    pytest.param("coding", ("ux", "pmf", 0), 10**400, "pmf[0] must be a JSON number",
                 id="pmf-huge"),
    pytest.param("spec", ("broadcast", "rows", 0, 0), -10**400,
                 "rows[0][0] must be a JSON number", id="rows-huge"),
    pytest.param("coding", ("ux", "variables", 0, "size"), 10**400, "pmf array has length 2,",
                 id="size-huge"),
])
def test_json_values_of_the_wrong_type_are_schema_errors(which, path, value, field, tmp_path,
                                                         capsys):
    objs = {"spec": make_bec_pair(0.5, c0=0.25).to_json_dict(),
            "coding": bec_coding_dist(0.5, 0.5).to_json_dict()}
    target = objs[which]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    reader = RelayNetSpec if which == "spec" else CodingDist
    with pytest.raises(SchemaError, match=re.escape(field)):
        reader.from_json_dict(objs[which])
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    code = main(["eval-pdcf", "--spec", str(tmp_path / "spec.json"),
                 "--coding", str(tmp_path / "coding.json")])
    assert_one_schema_error(code, capsys, names=field)


@pytest.mark.parametrize("rows, bad", [
    pytest.param("0,0.5\n0.1,nan\n", 1, id="nan"),
    pytest.param("0,0.5\n0.1,inf\n", 1, id="inf"),
    pytest.param("0,-inf\n0.1,0.5\n", 0, id="-inf")])
def test_non_finite_curve_sample_is_a_schema_error(rows, bad, tmp_path, capsys):
    samples = tuple(tuple(float(v) for v in row.split(",")) for row in rows.split())
    with pytest.raises(SchemaError, match=f"curve sample {bad} "):
        CoopCurve(samples)
    path = tmp_path / "curve.csv"
    path.write_text("c_cf,c_sum\n" + rows)
    code = main(["diamond3", "slope-transfer", "--curve", str(path)])
    assert_one_schema_error(code, capsys, names=f"curve sample {bad} ")


@pytest.mark.parametrize("flag", ["--tol-norm", "--tol-supp", "--tol-dev"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerance_override_is_a_schema_error(flag, value, tmp_path, capsys):
    from cfdiamond import config
    before = config.CONFIG
    out = tmp_path / "report.json"
    code = main(["--out", str(out), flag, value,
                 "example", "bec", "check-slope", "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert_one_schema_error(code, capsys, names=flag[2:].replace("-", "_"))
    assert config.CONFIG is before
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["0", "-0.1", "0.01,0", "nan", "inf", "0.01,x", ""])
def test_bad_alpha_schedule_is_a_schema_error(schedule, capsys):
    code = main(["--alpha-schedule", schedule,
                 "example", "bec", "sweep-curve", "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert_one_schema_error(code, capsys, names="--alpha-schedule")


def test_alpha_schedule_is_reported_as_given(tmp_path):
    code, out = run(tmp_path, "--alpha-schedule", "0.01,0.001",
                    "example", "bec", "sweep-curve", "--p", "0.5", "--q", "0.5", "--c0", "0.25")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["alpha_schedule"] == [0.01, 0.001]
    assert [p["alpha"] for p in payload["result"]["curve"]["points"]] == [0.01, 0.001]


# ---------------------------------------------------------------------------
# The whole grammar, drawn from the parser itself
# ---------------------------------------------------------------------------


def parser_leaves(parser, path=()):
    """(subcommand path, option actions) of every leaf subparser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, [a for a in parser._actions if a.option_strings and a.dest != "help"])]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in parser_leaves(child, (*path, name))]


LEAVES = parser_leaves(cli._build_parser())
#: Per flag: (good values, bad or edge values); a draw mostly takes a good one.
NUMBERS = (("0.1", "0.25", "0.5"), ("0", "1", "1e-300", "-0.1", "nan", "inf"))
GLOBAL_VALUES = {
    "--tol-norm": (("1e-9", "1e-6"), ("0", "0.5", "-1", "nan", "inf")),
    "--tol-supp": (("1e-12", "1e-9"), ("0", "0.5", "-1", "nan", "inf")),
    "--tol-dev": (("1e-7", "1e-5"), ("0", "0.5", "-1", "nan", "inf")),
    "--alpha-schedule": (("0.01,0.001", "0.1"), ("1e-300", "0", "-0.1", "nan", "x")),
    "--format": (("json",), ("csv",)),
}
INPUT_FILES = {"--spec": "spec.json", "--coding": "coding.json", "--mac": "mac.json",
               "--curve": "curve.csv"}


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def grammar_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    spec = make_bec_pair(0.5, c0=0.25)
    (root / "spec.json").write_text(json.dumps(spec.to_json_dict()))
    (root / "coding.json").write_text(json.dumps(bec_coding_dist(0.5, 0.5).to_json_dict()))
    write_adder_mac(root / "mac.json")
    (root / "curve.csv").write_text("c_cf,c_sum\n0.0,1.5\n0.001,1.6\n0.01,1.65\n")
    (root / "dir").mkdir()
    return root


@st.composite
def grammar_argv(draw, root):
    """An argv of the grammar: a leaf's path (sometimes cut short), and flags
    that are absent, bare or given a value, most often a good one."""
    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))

    files = tuple(str(root / n) for n in (*INPUT_FILES.values(), "missing.json", "dir"))
    argv = ["--grid-resolution", draw(st.sampled_from(("-1", "0", "1", "2", "5", "8")))]
    for flag, (good, bad) in GLOBAL_VALUES.items():
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, pick(good, bad)]
    if draw(st.booleans()):
        argv += ["--out", pick((str(root / "report.out"),),
                               (str(root / "no" / "x.json"), str(root / "dir")))]
    path, options = draw(st.sampled_from(LEAVES))
    if draw(st.integers(0, 9)) == 9:
        path = path[:-1]  # a command or family without its action
    argv += path
    for opt in options:
        flag = opt.option_strings[0]
        how = draw(st.sampled_from(("value",) * 8 + ("absent", "bare")))
        if how == "absent":
            continue
        argv.append(flag)
        if how == "value" and opt.nargs != 0:
            argv.append(pick(*NUMBERS) if opt.type is float
                        else pick((str(root / INPUT_FILES[flag]),), files))
    return argv


def check_output(text, fmt):
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[0] == "alpha,ccf,delta_rate,ratio"
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        [float(v) for line in lines[1:] for v in line.split(",")]
    else:
        json.loads(text, parse_constant=reject_constant)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argv_of_the_grammar_exits_by_contract(grammar_root, data):
    report = grammar_root / "report.out"
    argv = data.draw(grammar_argv(grammar_root))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != EXIT_OK:
        assert_one_error_line(code, err.getvalue())
        assert out.getvalue() == "" and not report.exists()
        return
    assert err.getvalue() == ""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if str(report) in argv:
        check_output(report.read_text(), fmt)
        report.unlink()
    else:
        check_output(out.getvalue(), fmt)


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def readme_cli_examples():
    """The ``cfdiamond`` lines of the fenced block after "Examples" in the
    README's "Command line" section."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("\nExamples", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cfdiamond ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coop_curve.csv").write_text("c_cf,c_sum\n0.0,1.5\n0.001,1.6\n0.01,1.65\n")
    examples = readme_cli_examples()
    assert len(examples) >= 5
    for argv in examples:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
