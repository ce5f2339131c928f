"""Command-line surface: exit codes, output routing, seed precedence."""

import json
import os
import subprocess
import sys
import warnings

import pytest

from sdlab.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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


def test_simulate_trilevel_with_no_dead_band_is_the_sign_quantizer(capsys):
    base = ["simulate", "--beta", "0.3", "--input", "random", "--steps", "500"]
    assert main(base) == 0
    sign = capsys.readouterr().out
    assert main(base + ["--trilevel", "--deadband", "0"]) == 0
    assert capsys.readouterr().out == sign


def test_a_reader_closing_stdout_early_ends_the_run_quietly():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdlab.cli", "simulate", "--beta", "0.3",
         "--steps", "300000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,f,q,u,v\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("argv, dest", [
    (["certificate", "--alpha", "0.5", "--lambda", "1.0"], "missing-dir"),
    (["simulate", "--beta", "0.3", "--steps", "10"], "/dev/full"),
])
def test_an_unwritable_output_file_exits_1_with_one_line(argv, dest, tmp_path):
    if dest == "missing-dir":
        dest = str(tmp_path / "missing" / "x.json")
    elif not os.path.exists(dest):
        pytest.skip(f"{dest} does not exist here")
    proc = subprocess.run(
        [sys.executable, "-m", "sdlab.cli", *argv, "--out", dest],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["certificate", "verify"])
def test_a_warning_prints_as_one_line(command, capsys):
    rc = main([command, "--alpha", "0.5", "--lambda", "1.0", "--epsilon", "0.5",
               *(["--points", "100"] if command == "verify" else [])])
    err = capsys.readouterr().err
    assert rc == 0
    want = "warning: beta is 0: the certificate admits only the zero input\n"
    assert err.startswith(want)
    assert err.count("\n") == (1 if command == "certificate" else 2)


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


def test_constant_input_simulate_still_validates_the_seed(monkeypatch, capsys):
    # the constant input draws nothing, but a bad seed is refused as in
    # every other subcommand
    base = ["simulate", "--beta", "0.3", "--steps", "3"]
    assert main(base + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("invalid input:")
    monkeypatch.setenv("SD_LAB_SEED", "bogus")
    assert main(base) == 1
    assert capsys.readouterr().err.startswith("invalid input:")
    assert main(base + ["--seed", "3"]) == 0  # accepted, and unused
    monkeypatch.delenv("SD_LAB_SEED")
    out = capsys.readouterr().out
    assert main(base) == 0 and capsys.readouterr().out == out


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


_CERT = ("--alpha", "0.5", "--lambda", "1.02")


@pytest.mark.parametrize("argv,flag", [
    # --gamma picks a point of the general certificate's gamma range
    (["certificate", "--gamma", "0.3", *_CERT], "--gamma"),
    # the general certificate is remark-derived; eq5 shapes only thm1
    (["certificate", "--epsilon", "0.2", "--variant", "eq5", *_CERT], "--variant"),
    (["verify", "--epsilon", "0.2", "--variant", "eq5", "--points", "10", *_CERT],
     "--variant"),
    # the dead band belongs to the three-level quantizer only
    (["simulate", "--beta", "0.3", "--steps", "5", "--deadband", "0.9"],
     "--deadband"),
    # --chaotic sets both gains to 1 + 1/T
    (["reconstruct", "--beta", "0.5", "--rates", "32", "--chaotic",
      "--lambda1", "1.5"], "--lambda1"),
    (["reconstruct", "--beta", "0.5", "--rates", "32", "--chaotic",
      "--lambda2", "1.0"], "--lambda2"),
])
def test_flags_that_would_be_ignored_are_invalid_input(argv, flag, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 1
    assert cap.err.startswith("invalid input:") and flag in cap.err
    assert cap.out == ""


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


_NO_CERT = ("verify", "--alpha", "0.5", "--lambda", "2.0")


@pytest.mark.parametrize("extra", [("--points", "0"), ("--deltas", "1"),
                                   ("--tol", "nan"), ("--workers", "0")])
def test_verify_refusals_come_before_the_nominal_region_note(extra, capsys):
    # lambda = 2 has no certificate; the note that the nominal region is
    # checked anyway must not precede a refusal of the check's arguments
    rc = main([*_NO_CERT, *extra])
    cap = capsys.readouterr()
    assert rc == 1
    assert cap.err.startswith("invalid input:")
    assert "checking" not in cap.err and cap.out == ""


def test_verify_without_a_certificate_still_notes_the_nominal_check(capsys):
    rc = main([*_NO_CERT, "--points", "50"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.err.splitlines()[0] == ("no certificate (lambda2 bound fails): "
                                       "checking the nominal region anyway")


@pytest.mark.parametrize("argv", [
    ["sweep", "fig1", "--workers", "-3"],
    ["sweep", "fig2", "--workers", "0"],
    ["verify", "--alpha", "0.5", "--lambda", "1.02", "--points", "50",
     "--workers", "0"],
])
def test_a_worker_count_below_one_is_invalid_input(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 1
    assert cap.err.startswith("invalid input:") and "workers" in cap.err
    assert cap.out == ""


def test_verify_inadmissible_gain_is_falsified(capsys):
    rc = main(["verify", "--alpha", "0.5", "--lambda", "1.2",
               "--points", "300", "--deltas", "9"])
    cap = capsys.readouterr()
    assert rc == 2
    assert "no certificate" in cap.err
    assert "violations" in cap.err


def test_verify_with_an_overflowing_default_epsilon_is_invalid_input(capsys):
    # coef*(lambda - 1)*(1 + alpha)/(1 - alpha) overflows to inf at 1e308
    for variant in ("remark", "eq5"):
        rc = main(["verify", "--alpha", "0.5", "--lambda", "1e308",
                   "--variant", variant, "--points", "10"])
        cap = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in cap.err
        assert "invalid input: the default epsilon overflows" in cap.err
        assert "--epsilon" in cap.err
        assert cap.out == ""


@pytest.mark.parametrize("lam", ["1e308", "1e154"])
def test_verify_refuses_a_gain_whose_step_can_overflow(lam, capsys):
    # the region check is refused before any point is sampled, where it
    # used to run and then fail to write infinite excesses as JSON
    rc = main(["verify", "--alpha", "0.5", "--lambda", lam, "--epsilon", "0.2"])
    cap = capsys.readouterr()
    assert rc == 1
    assert f"invalid input: lambda={float(lam)!r} too large" in cap.err
    assert "checked" not in cap.err and "Traceback" not in cap.err
    assert "checking" not in cap.err
    assert cap.out == ""


def test_verify_at_the_largest_finite_gains_still_reports(tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc = main(["verify", "--alpha", "0.5", "--lambda", "1e150", "--epsilon",
               "0.2", "--points", "200", "--out", str(dest)])
    capsys.readouterr()
    assert rc == 2
    doc = json.loads(dest.read_text())
    assert doc["ok"] is False and 1e300 < doc["max_excess"] < float("inf")


def test_sweep_fig1_past_overflow_writes_infeasible_rows(capsys):
    # coef*(lambda - 1) overflows at 1e308; every row is infeasible alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "fig1", "--lambda-min", "1e307", "--lambda-max",
                   "1e308", "--grid-step", "1e307"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 11 and lines[-1] == "1e+308,0,NA"
    assert all(line.endswith(",0,NA") for line in lines[1:])


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


def test_sweep_fig1_validates_every_sweep_flag(monkeypatch, capsys):
    # fig1 builds the same SweepConfig as fig2-fig4, probe settings included
    assert main(["sweep", "fig1", "--max-iters", "0"]) == 1
    assert capsys.readouterr().err.startswith("invalid input:")
    monkeypatch.setenv("SD_LAB_SEED", "bogus")
    assert main(["sweep", "fig1"]) == 1
    assert "SD_LAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("lam,budget", [("1.05", "1000"), ("1", "10")])
def test_sweep_bisection_ends_below_the_spacing_of_doubles(lam, budget, capsys):
    # at lambda = 1 and 10 iterations every probe is stable, so the
    # bisection climbs to the double below 1 and must not probe 1.0
    rc = main(["sweep", "fig2", "--bisect-tol", "1e-300", "--max-iters", budget,
               "--lambda-min", lam, "--lambda-max", lam])
    cap = capsys.readouterr()
    assert rc == 0, cap.err
    observed = float(cap.out.splitlines()[1].split(",")[2])
    assert 0.0 < observed < 1.0


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


def test_chaotic_reconstruct_is_the_error_curve_at_gains_one_plus_one_over_t(capsys):
    from sdlab.filters import design_filter
    from sdlab.modulator import SchemeParams
    from sdlab.pipeline import error_curve, gen_signal
    from sdlab.serialize import csv_text

    rc = main(["reconstruct", "--beta", "0.3", "--components", "4", "--rates",
               "32,48", "--trunc-tol", "1e-4", "--chaotic", "--seed", "2"])
    cap = capsys.readouterr()
    assert rc == 0, cap.err
    rows = error_curve(gen_signal(2, 4, 0.3),
                       lambda T: SchemeParams(1.0 + 1.0 / T, 1.0 + 1.0 / T, 1.0),
                       [32.0, 48.0], design_filter(trunc_tol=1e-4))
    assert cap.out == csv_text(rows)


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
    # u0 = sqrt(2 C dH dL) overflows, so no boundary point is finite
    ["region", "--alpha", "0.5", "--C", "1e308"],
    ["certificate", "--alpha", "0.5", "--lambda", "1.02", "--epsilon", "0.2",
     "--gamma", "nan"],
    # and malformed rate lists or point counts
    ["reconstruct", "--beta", "0.5", "--rates", "32,x"],
    ["reconstruct", "--beta", "0.5", "--rates", ","],
    ["region", "--alpha", "0.5", "--C", "6", "--points", "1"],
])
def test_non_finite_numbers_are_invalid_input(argv, capsys):
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith("invalid input:")
    assert "Traceback" not in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("argv", [
    # 728 TiB of history, as constant or as drawn input
    ["simulate", "--beta", "0.3", "--steps", "100000000000000"],
    ["simulate", "--beta", "0.3", "--steps", "100000000000000",
     "--input", "random"],
    ["sweep", "fig1", "--grid-step", "1e-300"],
    ["sweep", "fig1", "--grid-step", "5e-324"],
    ["reconstruct", "--beta", "0.5", "--rates", "1e300", "--trunc-tol", "1e-4"],
    # counts past the largest array numpy can index
    ["simulate", "--beta", "0.3", "--steps", "100000000000000000000"],
    ["verify", "--alpha", "0.5", "--lambda", "1.02",
     "--points", "100000000000000000000"],
    ["verify", "--alpha", "0.5", "--lambda", "1.02",
     "--deltas", "100000000000000000000"],
    ["region", "--alpha", "0.5", "--C", "6", "--points", "100000000000000000000"],
    ["reconstruct", "--beta", "0.5", "--rates", "32",
     "--components", "100000000000000000000"],
    ["reconstruct", "--beta", "0.5", "--rates", "32", "--T0", "1e300"],
])
def test_requests_too_large_for_memory_are_infeasible(argv, capsys):
    assert main(argv) == 3
    cap = capsys.readouterr()
    assert cap.err.startswith("infeasible:")
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
    assert main(["sweep", "fig5"]) == 1
    capsys.readouterr()
