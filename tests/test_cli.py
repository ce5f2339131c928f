"""Command-line surface: exit codes, output routing, seed precedence."""

import json

import pytest

from sdlab.cli import main


def test_simulate_golden_first_row(capsys):
    rc = main(["simulate", "--beta", "0.3", "--input", "constant", "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,f,q,u,v"
    assert lines[1] == "1,0.29999999999999999,1,-0.69999999999999996,-0.69999999999999996"
    assert len(lines) == 4


def test_simulate_writes_to_file(tmp_path, capsys):
    dest = tmp_path / "traj.csv"
    rc = main(["simulate", "--beta", "0.3", "--steps", "5", "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().splitlines()[0] == "n,f,q,u,v"


def test_simulate_dash_out_is_stdout(capsys):
    rc = main(["simulate", "--beta", "0.3", "--steps", "2", "--out", "-"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("n,f,q,u,v")


def test_simulate_trilevel_small_input_emits_zero_levels(capsys):
    rc = main(["simulate", "--beta", "0.01", "--steps", "40", "--trilevel"])
    out = capsys.readouterr().out
    assert rc == 0
    levels = {ln.split(",")[2] for ln in out.splitlines()[1:]}
    assert "0" in levels


def test_simulate_divergence_exit_code_and_partial_table(capsys):
    rc = main(["simulate", "--beta", "0.0", "--lambda1", "1.5", "--lambda2", "1.5",
               "--steps", "1000"])
    cap = capsys.readouterr()
    assert rc == 4
    assert "diverged" in cap.err
    body = cap.out.splitlines()
    assert body[0] == "n,f,q,u,v"
    assert 2 < len(body) < 1000  # partial history up to the failing step


def test_simulate_validation_exit_codes(capsys):
    assert main(["simulate", "--steps", "3"]) == 1            # missing --beta
    assert main(["simulate", "--beta", "1.5", "--steps", "3"]) == 1
    assert main(["simulate", "--beta", "0.3", "--steps", "0"]) == 1
    capsys.readouterr()


def test_random_input_seed_precedence(tmp_path, monkeypatch, capsys):
    def grab(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    base = ["simulate", "--beta", "0.3", "--input", "random", "--steps", "5"]
    flag7 = grab(base + ["--seed", "7"])
    monkeypatch.setenv("SD_LAB_SEED", "7")
    env7 = grab(base)
    assert env7 == flag7
    # an explicit flag outranks the environment
    monkeypatch.setenv("SD_LAB_SEED", "9")
    assert grab(base + ["--seed", "7"]) == flag7
    assert grab(base) != flag7
    monkeypatch.setenv("SD_LAB_SEED", "bogus")
    assert main(base) == 1
    assert "SD_LAB_SEED" in capsys.readouterr().err


def test_negative_seed_is_invalid_input(monkeypatch, capsys):
    for argv in (["verify", "--alpha", "0.5", "--lambda", "1.02", "--seed", "-2"],
                 ["simulate", "--beta", "0.3", "--input", "random", "--steps", "5",
                  "--seed", "-1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "--seed" in err
    monkeypatch.setenv("SD_LAB_SEED", "-1")
    assert main(["simulate", "--beta", "0.3", "--input", "random", "--steps", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "SD_LAB_SEED" in err


def test_certificate_json_golden(capsys):
    rc = main(["certificate", "--alpha", "0.5", "--lambda", "1.0"])
    cap = capsys.readouterr()
    assert rc == 0
    doc = json.loads(cap.out)
    assert doc["beta"] == 0.5
    assert doc["C"] == 6.0
    assert doc["v_max_bound"] == 6.0625
    assert doc["variant"] == "remark-derived"


def test_certificate_variant_and_epsilon_paths(capsys):
    rc = main(["certificate", "--alpha", "0.5", "--lambda", "1.01",
               "--variant", "eq5"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(doc["beta"] - 0.38268) < 5e-6
    rc = main(["certificate", "--alpha", "0.5", "--lambda", "1.01",
               "--epsilon", "0.2"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["epsilon"] == 0.2


def test_certificate_infeasible_names_the_gain_bound(capsys):
    rc = main(["certificate", "--alpha", "0.5", "--lambda", "1.09",
               "--variant", "remark"])
    cap = capsys.readouterr()
    assert rc == 3
    assert "lambda <= 1.0833333333333333" in cap.err


def test_region_table_golden(capsys):
    rc = main(["region", "--alpha", "0.5", "--C", "6", "--points", "5"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out.splitlines() == [
        "u,B1,B2",
        "-3,1.5,1.5",
        "-1.5,4.5,-4.5",
        "0,6,-6",
        "1.5,4.5,-4.5",
        "3,-1.5,-1.5",
    ]


def test_verify_feasible_configuration_passes(tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc = main(["verify", "--alpha", "0.5", "--lambda", "1.01",
               "--points", "300", "--deltas", "9", "--out", str(dest)])
    cap = capsys.readouterr()
    assert rc == 0
    assert "0 violations" in cap.err
    doc = json.loads(dest.read_text())
    assert doc["ok"] is True
    assert doc["n_checked"] == 300 * 9


def test_verify_inadmissible_gain_is_falsified(capsys):
    rc = main(["verify", "--alpha", "0.5", "--lambda", "1.2",
               "--points", "300", "--deltas", "9"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "no certificate" in cap.err
    assert "violations" in cap.err


def test_sweep_fig1_golden_table(capsys):
    rc = main(["sweep", "fig1", "--lambda-min", "1.0", "--lambda-max", "1.02",
               "--grid-step", "0.01"])
    cap = capsys.readouterr()
    assert rc == 0
    lines = cap.out.splitlines()
    assert lines[0] == "lambda,beta_max,alpha_star"
    assert lines[1] == "1,0.98999999999999999,0.98999999999999999"
    assert len(lines) == 4


def test_sweep_fig2_small_budget(capsys):
    rc = main(["sweep", "fig2", "--lambda-min", "1.0", "--lambda-max", "1.0",
               "--grid-step", "0.01", "--max-iters", "100000"])
    cap = capsys.readouterr()
    assert rc == 0
    lines = cap.out.splitlines()
    assert lines[0] == "lambda,beta_theoretical,beta_observed,gamma_mode,alpha_used"
    assert lines[1].startswith("1,0.98999999999999999,")


def test_reconstruct_schema_and_slope_note(tmp_path, capsys):
    dest = tmp_path / "curve.csv"
    rc = main(["reconstruct", "--beta", "0.3", "--components", "4",
               "--rates", "16,24", "--trunc-tol", "1e-4", "--out", str(dest)])
    cap = capsys.readouterr()
    assert rc == 0
    assert "skipped" in cap.err  # 2 rates cannot support a log-log fit
    lines = dest.read_text().splitlines()
    assert lines[0] == "T,sup_error,bound"
    assert len(lines) == 3


def test_reconstruct_unreachable_tolerance_is_a_resource_failure(capsys):
    rc = main(["reconstruct", "--beta", "0.3", "--rates", "16,24",
               "--rolloff", "raised-cosine-squared", "--trunc-tol", "1e-8"])
    cap = capsys.readouterr()
    assert rc == 3
    assert "best achievable" in cap.err


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--beta", "0.5", "--rates", "nan"],
    ["reconstruct", "--beta", "0.5", "--rates", "inf"],
    ["sweep", "fig1", "--lambda-max", "inf"],
])
def test_non_finite_numbers_are_invalid_input(argv, capsys):
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith("invalid input:")
    assert "Traceback" not in cap.err
    assert cap.out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()


def test_unknown_command_or_flag_is_a_usage_error(capsys):
    assert main(["simlate"]) == 1
    assert main(["simulate", "--beta", "0.3", "--steps", "3", "--bogus"]) == 1
    capsys.readouterr()
