import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cfdiamond
from cfdiamond import cli
from cfdiamond.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, main
from cfdiamond.zoo import bec_coding_dist, make_bec_pair


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


def test_mac_capacity_action(tmp_path):
    from cfdiamond.diamond3 import MacSpec
    from cfdiamond.probcore import Alphabet, CondKernel
    rows = np.zeros((4, 3))
    for a in range(2):
        for b in range(2):
            rows[a * 2 + b, a + b] = 1.0
    mac = MacSpec(Alphabet("x0", 2), Alphabet("x1", 2),
                  CondKernel((Alphabet("x0", 2), Alphabet("x1", 2)), (Alphabet("y_w", 3),), rows))
    mac_path = tmp_path / "mac.json"
    mac_path.write_text(json.dumps(mac.to_json_dict()))
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


def test_report_with_nan_is_refused_not_written(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "diamond_upper_bound", lambda c_sum0: float("nan"))
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "diamond3", "upper-bound", "--c-sum0", "1.0"])
    assert_one_schema_error(code, capsys)
    assert not out.exists()


def test_negative_mutual_information_is_an_infeasible_error(tmp_path, monkeypatch, capsys):
    from cfdiamond import probcore
    exact = probcore.entropy
    # every I(a; b | g) moves by -2 |a| |b| bits, far below -tol_norm
    monkeypatch.setattr(probcore, "entropy", lambda d, vars=None:
                        exact(d, vars) + len(probcore._as_names(vars)) ** 2)
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "example", "bec", "eval-pdcf",
                 "--p", "0.5", "--q", "0.5", "--c0", "0.25"])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: infeasible: "), captured.err
    assert "mutual information" in lines[0]
    assert not out.exists()


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
