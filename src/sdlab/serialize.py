"""CSV and JSON writers with reproducible number formatting.

All floats are rendered with %.17g so 64-bit values round-trip exactly
and repeated runs produce byte-identical files.  Missing or infeasible
cells are the literal NA in CSV and null in JSON.  Writers accept a
filesystem path or any object with a write method, so an io.StringIO
gives the text of any of them as one string.

Trajectories are streamed in CHUNK_ROWS-row chunks, formatted one at a
time on the calling thread by _kernels.format_rows: the C row formatter
in the same library as the recursion or, when no compiler is present,
its plain-Python %-formatting reference.  One chunk buffer is alive at a
time, and the bytes do not depend on the backend.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from io import StringIO

import numpy as np

from . import _kernels
from .errors import InvalidInputError

__all__ = [
    "fmt_float",
    "csv_text",
    "write_csv",
    "json_text",
    "write_json",
    "write_trajectory_csv",
    "write_region_csv",
    "sweep_fieldnames",
    "TRAJECTORY_FIELDS",
    "REGION_FIELDS",
    "ERROR_CURVE_FIELDS",
]

TRAJECTORY_FIELDS = ("n", "f", "q", "u", "v")
REGION_FIELDS = ("u", "B1", "B2")
ERROR_CURVE_FIELDS = ("T", "sup_error", "bound")
_SWEEP_FIELDS = {
    "fig1": ("lambda", "beta_max", "alpha_star"),
    "fig2": ("lambda", "beta_theoretical", "beta_observed",
             "gamma_mode", "alpha_used"),
    "fig3": ("lambda", "beta_theoretical", "beta_observed",
             "gamma_mode", "alpha_used"),
    "fig4": ("lambda", "vmax_theoretical", "vmax_empirical_thm1gamma",
             "vmax_empirical_gamma1"),
}


def sweep_fieldnames(fig: str):
    try:
        return _SWEEP_FIELDS[fig]
    except KeyError:
        raise InvalidInputError(
            f"unknown figure {fig!r}; choose from {sorted(_SWEEP_FIELDS)}"
        ) from None


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, shortest via %g."""
    return "%.17g" % x


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "NA"
    return fmt_float(x)


def csv_text(fieldnames, rows) -> str:
    """Render dict rows to CSV with a header line and \\n line endings."""
    out = StringIO()
    out.write(",".join(fieldnames))
    out.write("\n")
    for row in rows:
        out.write(",".join(_cell(row[k]) for k in fieldnames))
        out.write("\n")
    return out.getvalue()


@contextmanager
def _opened(dest):
    """dest itself if it has a write method, else the file at that path."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(os.fspath(dest), "w", encoding="utf-8", newline="") as fh:
            yield fh


def _dump(text: str, dest) -> None:
    with _opened(dest) as fh:
        fh.write(text)


def write_csv(dest, fieldnames, rows) -> None:
    _dump(csv_text(fieldnames, rows), dest)


def _json_render(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise InvalidInputError("non-finite float has no JSON form")
        out.write(fmt_float(x))
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(k)))
            out.write(": ")
            _json_render(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.write(", ")
            _json_render(v, out)
        out.write("]")
    else:
        raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


def json_text(obj) -> str:
    """JSON with %.17g numbers, key order preserved, trailing newline."""
    out = StringIO()
    _json_render(obj, out)
    out.write("\n")
    return out.getvalue()


def write_json(dest, obj) -> None:
    _dump(json_text(obj), dest)


CHUNK_ROWS = 65_536


def _write_ascii(write, buf):
    """write(buf as str), 256 KiB at a time, so no full-chunk copy exists."""
    with memoryview(buf) as view:
        for i in range(0, len(view), 1 << 18):
            write(str(view[i:i + (1 << 18)], "ascii"))


def write_trajectory_csv(dest, traj) -> None:
    """Header n,f,q,u,v, then one row per step, streamed chunk by chunk."""
    n = traj.n_steps
    f, u, v = (np.ascontiguousarray(a, dtype=np.float64)
               for a in (traj.f, traj.u, traj.v))
    q = np.ascontiguousarray(traj.q, dtype=np.int64)
    with _opened(dest) as fh:
        fh.write(",".join(TRAJECTORY_FIELDS) + "\n")
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            # passed, never named, so each chunk is freed before the next
            _write_ascii(fh.write, _kernels.format_rows(
                lo, f[lo:hi], q[lo:hi], u[lo:hi], v[lo:hi]))


def write_region_csv(dest, spec, n_points: int = 513) -> None:
    """Tabulate the bounding curves B1 (upper) and B2 (lower) on [-u0, u0]."""
    from .region import b1_eval, b2_eval  # local import avoids a cycle

    if n_points < 2:
        raise InvalidInputError("n_points must be at least 2")
    u = np.linspace(-spec.u0, spec.u0, n_points)
    rows = (
        {"u": ui, "B1": b1i, "B2": b2i}
        for ui, b1i, b2i in zip(u.tolist(),
                                b1_eval(spec, u).tolist(),
                                b2_eval(spec, u).tolist())
    )
    write_csv(dest, REGION_FIELDS, rows)
