"""Smoke test of the benchmark harness at tiny workload sizes.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is reported with its
unit, that a corrupted output fails the golden-hash gate, that tracing
changes no output byte nor misses a layer, that tracing refuses a
missing layer function, and that the runner refuses to report without
the sdlab sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def cli():
    return run.import_sdlab()


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
    printed = {ln.split()[1] for ln in proc.stdout.splitlines()[:-1]}
    assert "failed_frac" in printed
    if not trace:
        assert printed >= {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    if trace:
        assert line["metrics"]["trace.overhead_frac"]["value"] > -1.0


class _Corrupting:
    """A cli whose main appends one byte to the output it wrote."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        code = self.cli.main(argv)
        with open(argv[argv.index("--out") + 1], "ab") as fh:
            fh.write(b"\n")
        return code


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_corrupted_output_fails_the_hash_gate(cli, tmp_out, workload):
    golden = workloads.golden_for(workloads.load_goldens(), "tiny", workload, SEED)
    assert golden is not None, "tiny goldens for the smoke seed are recorded"
    cmds = workloads.commands(workload, "tiny")
    clean = run.Gate(golden)
    run.run_pass(cli, cmds, SEED, tmp_out, clean, "clean")
    assert clean.failed == 0, clean.failures

    bad = run.Gate(golden)
    run.run_pass(_Corrupting(cli), cmds, SEED, tmp_out, bad, "corrupt")
    assert bad.failed == len(cmds)
    for f in bad.failures:
        assert "sha256 differs from the golden" in f["reasons"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_changes_no_output_byte(cli, tmp_out, workload):
    cmds = workloads.commands(workload, "tiny")
    gate = run.Gate(None)
    run.run_pass(cli, cmds, SEED, tmp_out, gate, "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(cli, cmds, SEED, tmp_out, gate, "traced", tracer)
    finally:
        tracer.uninstall()
    # the gate compares every pass's sha256 with the first pass's
    assert gate.failed == 0, gate.failures
    # every layer the workload exercises was seen by its wrapper
    assert tracing.missing_spans(workload, tracer.spans) == []


def test_install_refuses_a_missing_layer_function(cli, monkeypatch):
    import sdlab.invariance

    monkeypatch.delattr(sdlab.invariance, "b2_eval")
    kernels_probe = sys.modules["sdlab._kernels"].probe_const
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="b2_eval"):
        tracer.install()
    # the wrappers installed before the failure are taken out again
    assert sys.modules["sdlab._kernels"].probe_const is kernels_probe


def test_refuses_to_report_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
