#!/usr/bin/env python3
"""sdlab benchmark: time CLI workloads end to end, trace them per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process runs one workload.  It imports sdlab from ./src, runs the
workload's command list once as a warm-up, then repeats it through
sdlab.cli.main(argv) for --seconds, with --out pointed at files under
perfbench_out/.  Every output is judged after every pass (exit code,
golden sha256, output checks, same bytes as the first pass).

--trace 0 reports the end-to-end metrics: the median pass wall time,
the process's peak RSS, and the cold-start time of a fresh interpreter
importing sdlab.cli (median of several); it also prints the median
process CPU time per pass.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (see
tracing.py), the import-time breakdown and the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (metadata, output
hashes, spreads, failures) goes to perfbench_out/, with the span file
of a traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, Tracer, layer_metrics, missing_spans
from workloads import WORKLOADS, commands, golden_for, judge, load_goldens, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")

# Least samples per run, whatever --seconds says.  Cold starts are taken
# one after each pass, so they sample the same stretch of time as the
# passes (the host's speed drifts over tens of seconds), and topped up
# at the end of the run if the passes were fewer.
MIN_PASSES = 3  # timed passes of an untraced run
MIN_PAIRS = 2  # untraced/traced pass pairs of a traced run
MIN_COLD_STARTS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="workload size; tiny is for the smoke test")
    return p.parse_args(argv)


def import_sdlab():
    """Import sdlab.cli from ./src of this checkout, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "sdlab", "cli.py")):
        sys.exit(f"perfbench: no sdlab sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sdlab.cli

    if not os.path.abspath(sdlab.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported sdlab from {sdlab.cli.__file__}, not {SRC}")
    return sdlab.cli


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


# ---------------------------------------------------------------- passes


class Gate:
    """Judges every command outcome of a run and keeps the tallies."""

    def __init__(self, golden):
        self.golden = golden
        self.first_sha = {}
        self.exits = {}
        self.attempted = 0
        self.failures = []

    def judge(self, cmd, exit_code, data, stderr, pass_label):
        self.attempted += 1
        sha = sha256(data)
        reasons = judge(cmd, exit_code, data, self.golden)
        first = self.first_sha.setdefault(cmd.name, sha)
        self.exits.setdefault(cmd.name, exit_code)
        if sha != first:
            reasons.append("bytes differ from the first pass")
        if reasons:
            self.failures.append({"command": cmd.name, "pass": pass_label,
                                  "reasons": reasons, "stderr": stderr[-2000:]})

    @property
    def failed(self):
        return len(self.failures)

    def hashes(self):
        out = {}
        for name, sha in self.first_sha.items():
            if self.golden is None:
                status = "no golden"
            else:
                status = "match" if self.golden[name]["sha256"] == sha else "mismatch"
            out[name] = {"exit": self.exits[name], "sha256": sha, "golden": status}
        return out


def run_pass(cli, cmds, seed, tmp, gate, label, tracer=None):
    """Run the command list once; return (wall_s, cpu_s, bytes written)."""
    paths = [os.path.join(tmp, f"{c.name}.out") for c in cmds]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    exits, errs = [], []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for cmd, path in zip(cmds, paths):
        argv = [*cmd.argv, "--seed", str(seed), "--out", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{cmd.name}", cli.main, (argv,))
        exits.append(code)
        errs.append(err.getvalue())
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    written = 0
    for cmd, path, code, err in zip(cmds, paths, exits, errs):
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        written += len(data)
        gate.judge(cmd, code, data, err, label)
    return wall, cpu, written


# ----------------------------------------------------------------- setup


def _fresh_python(code, *flags):
    """Wall time and stderr of a fresh interpreter running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed: {proc.stderr[-2000:]}")
    return wall, proc.stderr


def import_breakdown(stderr):
    """Cumulative -X importtime seconds of sdlab, numpy and scipy.

    A package's time is the sum of the cumulative times of its modules
    imported from outside the package, so nested imports count once.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((name.strip(), depth, int(cum)))
    totals = {"sdlab": 0, "numpy": 0, "scipy": 0}
    stack = []
    # importtime prints children before their parent: reversed, parents
    # come first and a stack of open ancestors gives each line's nesting
    for name, depth, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(n.split(".")[0] != top for _, n in stack):
            totals[top] += cum
        stack.append((depth, name))
    return {f"setup.{k}_s": v / 1e6 for k, v in totals.items()}


# -------------------------------------------------------------- metadata


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread settings: environment and the loaded library's count."""
    import ctypes

    info = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(p for p in libs if p.startswith("/")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["runtime"] = fn()
                return info
    return info


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        # the ceiling keeps git from reporting a repository above ROOT
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args):
    import numpy
    import scipy
    import sdlab._kernels

    return {
        "backend": "numba" if sdlab._kernels.HAVE_NUMBA else "python",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        # sweep uses the CLI default (os.cpu_count()); verify's default is serial
        "workers": {"sweep": os.cpu_count() or 1, "verify": 1},
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ runs


def _window(args, least):
    """Yield until --seconds have passed and least passes were made."""
    start = time.perf_counter()
    n = 0
    while n < least or time.perf_counter() - start < args.seconds:
        yield n
        n += 1


def _cold_starts(samples, take):
    """Top samples up to MIN_COLD_STARTS with take()."""
    while len(samples) < MIN_COLD_STARTS:
        samples.append(take())
    return samples


def _cold_start():
    return _fresh_python("import sdlab.cli")[0]


def _bare_start():
    return _fresh_python("pass")[0]


def _import_times():
    return import_breakdown(_fresh_python("import sdlab.cli", "-X", "importtime")[1])


def measure_untraced(cli, cmds, args, tmp, gate):
    """End-to-end metrics: pass wall and CPU, peak RSS, cold start."""
    walls, cpus, cold, bare = [], [], [], []
    for n in _window(args, MIN_PASSES):
        wall, cpu, _ = run_pass(cli, cmds, args.seed, tmp, gate, n)
        walls.append(wall)
        cpus.append(cpu)
        cold.append(_cold_start())
        bare.append(_bare_start())
    _cold_starts(cold, _cold_start)
    _cold_starts(bare, _bare_start)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": summary(walls, "s"), "peak_rss_mb": summary([rss_mb], "MB"),
               "setup_s": summary(cold, "s")}
    # cpu_s spreads too far between runs to gate on; it is printed here
    # and gated nowhere, and traced runs report it per layer
    extra = {"also": {"cpu_s": summary(cpus, "s"),
                      "bare_python_s": summary(bare, "s")},
             "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": cold}}
    return metrics, extra


def measure_traced(cli, cmds, args, tmp, gate):
    """Per-layer metrics from traced passes, each paired with an untraced one."""
    layer_runs, spans, plain, cpus, traced, setup, bare = [], [], [], [], [], [], []
    for n in _window(args, MIN_PAIRS):
        wall, cpu, _ = run_pass(cli, cmds, args.seed, tmp, gate, n)
        plain.append(wall)
        cpus.append(cpu)
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, written = run_pass(cli, cmds, args.seed, tmp, gate,
                                        f"traced {n}", tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        missing = missing_spans(args.workload, tracer.spans)
        if missing:
            sys.exit(f"perfbench: traced {args.workload} pass recorded no "
                     f"{', '.join(missing)} span; its wrapper saw no call")
        layer_runs.append(layer_metrics(tracer.spans, os.cpu_count() or 1, written))
        spans.append([s.to_json(tracer.origin) for s in tracer.spans])
        setup.append(_import_times())
        bare.append(_bare_start())
    _cold_starts(setup, _import_times)
    _cold_starts(bare, _bare_start)
    samples = {"cpu_s": cpus, "setup.bare_python_s": bare}
    for r in layer_runs + setup:
        for k, v in r.items():
            samples.setdefault(k, []).append(v)
    samples["trace.overhead_frac"] = [
        statistics.median(traced) / statistics.median(plain) - 1.0]
    metrics = {name: summary(samples[name], unit) for name, unit in PER_LAYER}
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return metrics, {"samples": {"untraced_wall_s": plain, "traced_wall_s": traced}}


def run_workload(args):
    cli = import_sdlab()
    cmds = commands(args.workload, args.size)
    meta = metadata(args)
    gate = Gate(golden_for(load_goldens(), args.size, args.workload, args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        run_pass(cli, cmds, args.seed, tmp, gate, "warm-up")
        measure = measure_traced if args.trace else measure_untraced
        metrics, extra = measure(cli, cmds, args, tmp, gate)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"meta": meta, "commands": gate.hashes(), "attempted": gate.attempted,
              "failed": gate.failed, "failed_frac": gate.failed / gate.attempted,
              "failures": gate.failures, "metrics": metrics, **extra}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_line(record):
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()}}


def print_table(workload, record):
    meta = record["meta"]
    print(f"{workload:16} backend={meta['backend']} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']} scipy={meta['scipy']} "
          f"openblas={meta['openblas_threads']} commit={meta['git_commit']} "
          f"seed={meta['seed']}")
    for name, m in {**record["metrics"], **record.get("also", {})}.items():
        print(f"{workload:16} {name:44} {m['value']:14.6g} {m['unit']:8} "
              f"spread {m['spread']:.3f} n={m['n']}")
    print(f"{workload:16} {'failed_frac':44} {record['failed_frac']:14.6g} "
          f"{'ratio':8} ({record['failed']}/{record['attempted']} commands)")
    for f in record["failures"]:
        print(f"{workload:16} FAILED {f['command']} pass {f['pass']}: "
              f"{'; '.join(f['reasons'])}", file=sys.stderr)


def run_all(args):
    """Each workload in its own process, so peak RSS does not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {w} exited {proc.returncode}")
        record_path = os.path.join(OUT_DIR, f"{w}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        print_table(w, record)
        line = report_line(record)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for k, m in line["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = m
    return combined


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        line = run_all(args)
    elif args.workload in WORKLOADS:
        record = run_workload(args)
        print_table(args.workload, record)
        line = report_line(record)
    else:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)} or all")
    print(json.dumps(line))
    if not line["correct"]:
        print("perfbench: some outputs failed the correctness gate", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
