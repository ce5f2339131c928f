"""Spans around sdlab's public layer functions, and the per-layer metrics.

A Tracer replaces the module (or class) attributes listed in WRAPS with
wrappers that call the original and record one span per call: name,
parent span, thread, wall start and end (perf_counter) and thread CPU
start and end (thread_time), plus counts read from the arguments and
the result.  Wrappers pass arguments and results through unchanged, so a
traced command writes the same bytes as an untraced one.  Spans stay in
memory; the runner writes them out when the run ends.

Parents follow the calling thread's open spans.  A span opened on a
thread with none open (a sweep's pool worker) takes the innermost span
open on the thread that created the Tracer, the one calling the CLI.

A layer's self time is its span's duration minus the part of that
interval covered by the union of its child spans, from any thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from workloads import RATES, command_names, commands


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    t0: float
    t1: float
    c0: float
    c1: float
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def cpu(self):
        return self.c1 - self.c0

    def to_json(self, origin):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start_s": self.t0 - origin,
                "end_s": self.t1 - origin, "thread_cpu_s": self.cpu,
                "attrs": self.attrs}


_NO_RESULT = object()


class Tracer:
    """Collects spans; install() patches sdlab, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._home = threading.get_ident()
        self._home_stack = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs=None, count=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        sid = next(self._ids)
        stack.append(sid)
        result = _NO_RESULT
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            c1 = time.thread_time()
            t1 = time.perf_counter()
            stack.pop()
            span_attrs = dict(attrs or {})
            if result is _NO_RESULT:
                span_attrs["raised"] = True
            elif count is not None:
                bound = inspect.signature(fn).bind(*args, **kwargs).arguments
                span_attrs.update(count(bound, result))
            self.spans.append(Span(sid, name, parent, threading.get_ident(),
                                   t0, t1, c0, c1, span_attrs))

    def install(self):
        """Wrap every attribute in WRAPS; raise if sdlab lacks one."""
        for module, path, name, count in WRAPS:
            owner = importlib.import_module(module)
            attr = path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls, None)
            original = inspect.getattr_static(owner, attr, None)
            if original is None:
                self.uninstall()
                raise AttributeError(f"{module}.{path} is gone; the {name} "
                                     "layer cannot be traced")
            if name == "pipeline.error_curve":
                wrapper = self._per_rate(original)
            else:
                wrapper = self._wrap(name, original, count)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _per_rate(self, fn):
        """error_curve called once per rate, so each rate gets its own span.

        error_curve treats every rate independently, so the rows are the
        same as those of one call over the whole list.
        """
        @functools.wraps(fn)
        def traced(signal, params, T_list, filt):
            rows = []
            for T in T_list:
                rows += self.call("pipeline.error_curve", fn,
                                  (signal, params, [T], filt), attrs={"T": float(T)})
            return rows
        return traced


def _steps_of_fill(a, bad):
    return {"steps": bad + 1 if bad >= 0 else len(a["f"])}


def _steps_of_probe_const(a, r):
    return {"steps": r[0] + 1 if r[0] >= 0 else int(a["n_steps"]),
            "diverged": r[0] >= 0}


def _steps_of_probe_input(a, r):
    return {"steps": r[0] + 1 if r[0] >= 0 else len(a["f"]),
            "diverged": r[0] >= 0}


def _rows_of(a, rows):
    return {"rows": len(rows)}


def _report_of(a, rep):
    return {"transitions": rep.n_checked, "violations": len(rep.violations),
            "ok": rep.ok}


def _points_of(arg):
    def count(a, _result):
        return {"points": int(np.size(a[arg]))}
    return count


# (module, attribute or Class.attribute, span name, counter)
WRAPS = [
    ("sdlab._kernels", "probe_const", "kernels.probe_const", _steps_of_probe_const),
    ("sdlab._kernels", "probe_input", "kernels.probe_input", _steps_of_probe_input),
    ("sdlab._kernels", "run_fill", "kernels.run_fill", _steps_of_fill),
    ("sdlab.cli", "run_fig2", "sweeps.run_fig2", _rows_of),
    ("sdlab.cli", "run_fig4", "sweeps.run_fig4", _rows_of),
    ("sdlab.sweeps", "max_beta_theoretical", "certificates.max_beta_theoretical", None),
    ("sdlab.cli", "run", "modulator.run", None),
    ("sdlab.pipeline", "run", "modulator.run", None),
    ("sdlab.cli", "write_trajectory_csv", "serialize.trajectory_csv", None),
    ("sdlab.cli", "write_csv", "serialize.csv", None),
    ("sdlab.cli", "write_json", "serialize.json", None),
    ("sdlab.cli", "verify_invariance", "invariance.verify", _report_of),
    ("sdlab.invariance", "b1_eval", "region.b1_eval", _points_of("u")),
    ("sdlab.invariance", "b2_eval", "region.b2_eval", _points_of("u")),
    ("sdlab.cli", "design_filter", "filters.design_filter", None),
    ("sdlab.filters", "FilterSpec.g", "filters.g", None),
    ("sdlab.cli", "gen_signal", "pipeline.gen_signal", None),
    ("sdlab.cli", "error_curve", "pipeline.error_curve", None),
    ("sdlab.pipeline", "BandlimitedSignal.eval", "pipeline.signal_eval", _points_of("t")),
]

KERNELS = ("probe_const", "probe_input", "run_fill")

# Every per-layer metric with its unit, in report order.  cpu_s, setup.*
# and trace.* come from the runner, the rest from layer_metrics.
PER_LAYER = (
    [("cpu_s", "s")]
    + [(f"kernels.{k}.{m}", u) for k in KERNELS
     for m, u in (("steps", "count"), ("ns_per_step", "ns/step"))]
    + [("kernels.calls", "count"), ("kernels.wait_s", "s"),
       ("kernels.diverged_frac", "ratio"),
       ("sweeps.rows", "count"), ("sweeps.probes_per_row", "count"),
       ("sweeps.self_s", "s"), ("sweeps.parallel_eff", "ratio"),
       ("certificates.max_beta_theoretical.calls", "count"),
       ("certificates.max_beta_theoretical.us_per_call", "us"),
       ("modulator.run.calls", "count"), ("modulator.run.self_s", "s"),
       ("serialize.trajectory_csv_s", "s"), ("serialize.csv_s", "s"),
       ("serialize.json_s", "s"), ("serialize.bytes_out", "bytes"),
       ("serialize.mb_per_s", "MB/s"),
       ("invariance.transitions", "count"), ("invariance.violations", "count"),
       ("invariance.certified.transitions_per_s", "1/s"),
       ("invariance.violating.transitions_per_s", "1/s"),
       ("invariance.self_s", "s"),
       ("region.boundary_evals", "count"), ("region.busy_s", "s"),
       ("filters.design_filter_s", "s"), ("filters.g.calls", "count"),
       ("filters.g.busy_s", "s"),
       ("pipeline.gen_signal_s", "s"), ("pipeline.signal_eval.points", "count"),
       ("pipeline.signal_eval_s", "s")]
    + [(f"pipeline.error_curve.T{r}_s", "s") for r in RATES]
    + [("pipeline.self_s", "s")]
    + [(f"cli.{c}_s", "s") for c in command_names()]
    + [("cli.self_s", "s"),
       ("setup.sdlab_s", "s"), ("setup.numpy_s", "s"), ("setup.scipy_s", "s"),
       ("setup.bare_python_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


# Layer spans a traced pass of each workload must record.  A wrapper that
# no longer sees the calls (the function is re-imported under another
# name, or inlined) would otherwise leave its layer's metrics at 0.
EXPECTED_SPANS = {
    "sweep": {"kernels.probe_const", "kernels.probe_input", "sweeps.run_fig2",
              "sweeps.run_fig4", "certificates.max_beta_theoretical",
              "serialize.csv"},
    "reconstruct": {"filters.design_filter", "filters.g", "pipeline.gen_signal",
                    "pipeline.signal_eval", "pipeline.error_curve",
                    "modulator.run", "kernels.run_fill", "serialize.csv"},
    "simulate_verify": {"kernels.run_fill", "modulator.run",
                        "serialize.trajectory_csv", "serialize.json",
                        "invariance.verify", "region.b1_eval", "region.b2_eval"},
}


def missing_spans(workload, spans):
    """Expected layer and cli span names that no span in spans has."""
    want = EXPECTED_SPANS[workload] | {f"cli.{c.name}" for c in commands(workload)}
    return sorted(want - {s.name for s in spans})


def _self_time(span, children):
    """Span duration minus the union of its children's clipped intervals."""
    ivs = sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children)
    covered = 0.0
    end = span.t0
    for lo, hi in ivs:
        lo = max(lo, end)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.wall - covered


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, workers: int, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass; layers not run read 0."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def layer(prefix):
        return [s for s in spans if s.name.split(".")[0] == prefix]

    def wall(ss):
        return sum(s.wall for s in ss)

    def cpu(ss):
        return sum(s.cpu for s in ss)

    def self_s(ss):
        return sum(_self_time(s, children[s.id]) for s in ss)

    def attr(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    def under(s, roots):
        p = s.parent
        while p is not None:
            if p in roots:
                return True
            p = by_id[p].parent
        return False

    m = {}
    kernels = layer("kernels")
    for k in KERNELS:
        ss = by_name[f"kernels.{k}"]
        steps = attr(ss, "steps")
        m[f"kernels.{k}.steps"] = steps
        m[f"kernels.{k}.ns_per_step"] = _ratio(cpu(ss) * 1e9, steps)
    probes = by_name["kernels.probe_const"] + by_name["kernels.probe_input"]
    m["kernels.calls"] = len(kernels)
    m["kernels.wait_s"] = wall(kernels) - cpu(kernels)
    m["kernels.diverged_frac"] = _ratio(attr(probes, "diverged"), len(probes))

    sweeps = layer("sweeps")
    sweep_ids = {s.id for s in sweeps}
    rows = attr(sweeps, "rows")
    m["sweeps.rows"] = rows
    m["sweeps.probes_per_row"] = _ratio(
        sum(1 for s in probes if under(s, sweep_ids)), rows)
    m["sweeps.self_s"] = self_s(sweeps)
    m["sweeps.parallel_eff"] = _ratio(
        cpu(s for s in kernels if under(s, sweep_ids)), wall(sweeps) * workers)

    certs = by_name["certificates.max_beta_theoretical"]
    m["certificates.max_beta_theoretical.calls"] = len(certs)
    m["certificates.max_beta_theoretical.us_per_call"] = _ratio(cpu(certs) * 1e6,
                                                                len(certs))
    runs = by_name["modulator.run"]
    m["modulator.run.calls"] = len(runs)
    m["modulator.run.self_s"] = self_s(runs)

    for kind in ("trajectory_csv", "csv", "json"):
        m[f"serialize.{kind}_s"] = wall(by_name[f"serialize.{kind}"])
    m["serialize.bytes_out"] = bytes_out
    m["serialize.mb_per_s"] = _ratio(bytes_out / 1e6, wall(layer("serialize")))

    checks = by_name["invariance.verify"]
    m["invariance.transitions"] = attr(checks, "transitions")
    m["invariance.violations"] = attr(checks, "violations")
    for verdict, ok in (("certified", True), ("violating", False)):
        ss = [s for s in checks if s.attrs.get("ok") is ok]
        m[f"invariance.{verdict}.transitions_per_s"] = _ratio(
            attr(ss, "transitions"), wall(ss))
    m["invariance.self_s"] = self_s(checks)

    region = layer("region")
    m["region.boundary_evals"] = attr(region, "points")
    m["region.busy_s"] = wall(region)

    m["filters.design_filter_s"] = wall(by_name["filters.design_filter"])
    m["filters.g.calls"] = len(by_name["filters.g"])
    m["filters.g.busy_s"] = wall(by_name["filters.g"])

    evals = by_name["pipeline.signal_eval"]
    curves = by_name["pipeline.error_curve"]
    m["pipeline.gen_signal_s"] = wall(by_name["pipeline.gen_signal"])
    m["pipeline.signal_eval.points"] = attr(evals, "points")
    m["pipeline.signal_eval_s"] = wall(evals)
    for r in RATES:
        m[f"pipeline.error_curve.T{r}_s"] = wall(
            s for s in curves if s.attrs["T"] == r)
    m["pipeline.self_s"] = self_s(curves + by_name["pipeline.gen_signal"])

    for c in command_names():
        m[f"cli.{c}_s"] = wall(by_name[f"cli.{c}"])
    m["cli.self_s"] = self_s(layer("cli"))
    return m
