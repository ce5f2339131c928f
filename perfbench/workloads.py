"""Workload command lists, output checks and the golden-hash gate.

A workload is a fixed list of sdlab CLI commands.  Each command carries
its expected exit code and a check that reads its output file and
raises ValueError when the output breaks a property the paper's results
guarantee (row counts, certified thresholds, error bounds, violation
counts).  The checks judge outputs for seeds that have no golden; the
golden sha256 pins the exact bytes for the seeds recorded in
goldens.json.

Sizes are fixed per workload, never scaled by the run length, so a
seed always yields the same outputs.  "full" is what the benchmark
measures; "tiny" exists for the smoke test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

SIZES = ("full", "tiny")
RATES = (32, 64, 128, 256)
VERIFY_DELTAS = 50  # the CLI default for --deltas
BISECT_TOL = 1e-3  # the CLI default for --bisect-tol


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv without --seed/--out, and its contract."""

    name: str
    argv: tuple
    expected_exit: int
    check: object  # check(argv, data: bytes) -> None, raises ValueError


def _rows(data: bytes):
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:-1]]


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _grid_size(argv):
    lo = float(_flag(argv, "--lambda-min", 1.0))
    hi = float(_flag(argv, "--lambda-max", 1.12))
    step = float(_flag(argv, "--grid-step", 0.005))
    return int(round((hi - lo) / step)) + 1


def _num(cell):
    return None if cell == "NA" else float(cell)


def check_fig2(argv, data):
    """Observed threshold never falls below the certified one.

    Every probe at beta <= beta_theoretical is stable by Theorem 1, so
    the bisection's unstable end lies above it and the returned stable
    end is within one bisection tolerance of it or higher.
    """
    head, rows = _rows(data)
    if head != ["lambda", "beta_theoretical", "beta_observed", "gamma_mode",
                "alpha_used"]:
        raise ValueError(f"unexpected header {head}")
    if len(rows) != _grid_size(argv):
        raise ValueError(f"{len(rows)} rows, expected {_grid_size(argv)}")
    for lam, b_th, b_obs, mode, _alpha in rows:
        b_obs = float(b_obs)
        if not 0.0 <= b_obs < 1.0:
            raise ValueError(f"beta_observed {b_obs} outside [0, 1) at {lam}")
        if mode not in ("thm1", "gamma1-fallback"):
            raise ValueError(f"unknown gamma_mode {mode!r}")
        if b_th != "NA" and b_obs < float(b_th) - BISECT_TOL:
            raise ValueError(f"observed {b_obs} below certified {b_th} at {lam}")


def check_fig4(argv, data):
    head, rows = _rows(data)
    if head != ["lambda", "vmax_theoretical", "vmax_empirical_thm1gamma",
                "vmax_empirical_gamma1"]:
        raise ValueError(f"unexpected header {head}")
    if len(rows) != _grid_size(argv):
        raise ValueError(f"{len(rows)} rows, expected {_grid_size(argv)}")
    for row in rows:
        for cell in row[1:]:
            x = _num(cell)
            if x is not None and not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"bad state bound {cell!r} at {row[0]}")


def check_reconstruct(argv, data):
    """Errors stay below max|v| C_g / T^2 and fall from the first rate to the last."""
    head, rows = _rows(data)
    if head != ["T", "sup_error", "bound"]:
        raise ValueError(f"unexpected header {head}")
    rates = [float(r) for r in _flag(argv, "--rates", "").split(",")]
    if [float(r[0]) for r in rows] != rates:
        raise ValueError(f"rates {[r[0] for r in rows]} != {rates}")
    errs = [float(r[1]) for r in rows]
    for (T, err, bound) in rows:
        if not 0.0 < float(err) <= float(bound):
            raise ValueError(f"sup_error {err} not in (0, bound {bound}] at T={T}")
    if errs[-1] >= errs[0]:
        raise ValueError(f"error does not decay over rates: {errs}")


def check_simulate(argv, data):
    steps = int(_flag(argv, "--steps", 0))
    if not data.startswith(b"n,f,q,u,v\n"):
        raise ValueError("unexpected trajectory header")
    n_rows = data.count(b"\n") - 1
    if n_rows != steps:
        raise ValueError(f"{n_rows} rows, expected {steps}")
    last = data[data.rindex(b"\n", 0, len(data) - 1) + 1:-1].split(b",")
    if int(last[0]) != steps or last[2] not in (b"1", b"-1"):
        raise ValueError(f"bad last row {last!r}")


def check_verify(argv, data):
    """Report counts agree with the sampling plan and the verdict."""
    rep = json.loads(data)
    points = int(_flag(argv, "--points", 2000))
    if rep["n_checked"] != points * VERIFY_DELTAS:
        raise ValueError(f"n_checked {rep['n_checked']} != {points * VERIFY_DELTAS}")
    if rep["ok"] != (rep["n_violations"] == 0):
        raise ValueError("verdict disagrees with the violation count")


def _sweep(size):
    if size == "full":
        fig2 = ("sweep", "fig2", "--max-iters", "30000")
        fig4 = ("sweep", "fig4", "--input", "random", "--max-iters", "2500")
    else:
        grid = ("--lambda-min", "1.05", "--lambda-max", "1.1", "--grid-step", "0.025")
        fig2 = ("sweep", "fig2", "--max-iters", "500") + grid
        fig4 = ("sweep", "fig4", "--input", "random", "--max-iters", "500") + grid
    return [Command("sweep_fig2", fig2, 0, check_fig2),
            Command("sweep_fig4", fig4, 0, check_fig4)]


def _reconstruct(size):
    base = ("reconstruct", "--beta", "0.5", "--rates", ",".join(map(str, RATES)))
    if size == "tiny":
        base += ("--components", "2", "--trunc-tol", "1e-3")
    return [Command("reconstruct", base, 0, check_reconstruct),
            Command("reconstruct_chaotic", base + ("--chaotic", "--gamma", "0.5"),
                    0, check_reconstruct)]


def _simulate_verify(size):
    steps, certified, violating = {
        "full": ("500000", "200000", "10000"),
        "tiny": ("2000", "400", "200"),
    }[size]
    return [
        Command("simulate",
                ("simulate", "--input", "random", "--steps", steps,
                 "--lambda1", "1.02", "--lambda2", "1.02", "--gamma", "0.22",
                 "--beta", "0.15"), 0, check_simulate),
        Command("verify_certified",
                ("verify", "--alpha", "0.5", "--lambda", "1.02", "--epsilon", "0.3",
                 "--points", certified), 0, check_verify),
        # lambda = 2 has no certificate: the CLI checks the nominal
        # region anyway, finds it violated and exits 2
        Command("verify_violating",
                ("verify", "--alpha", "0.5", "--lambda", "2.0", "--points", violating),
                2, check_verify),
    ]


WORKLOADS = {
    "sweep": _sweep,
    "reconstruct": _reconstruct,
    "simulate_verify": _simulate_verify,
}


def commands(workload: str, size: str = "full"):
    return WORKLOADS[workload](size)


def command_names():
    """Every command name across workloads, in workload order."""
    return [c.name for w in WORKLOADS for c in commands(w)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens():
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(goldens, size, workload, seed):
    """{command: {"exit": int, "sha256": str}} or None when not recorded."""
    return goldens.get(size, {}).get(workload, {}).get(str(seed))


def judge(cmd: Command, exit_code: int, data: bytes, golden) -> list:
    """Reasons the command's outcome is wrong; empty when it passes.

    With a golden entry the exit code and sha256 must match it exactly;
    without one the exit code must equal the command's expected one.
    The output must always pass the command's check.
    """
    reasons = []
    want_exit = cmd.expected_exit if golden is None else golden[cmd.name]["exit"]
    if exit_code != want_exit:
        reasons.append(f"exit {exit_code}, expected {want_exit}")
    if golden is not None and sha256(data) != golden[cmd.name]["sha256"]:
        reasons.append("sha256 differs from the golden")
    try:
        cmd.check(list(cmd.argv), data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reasons.append(f"check failed: {exc}")
    return reasons
