"""CSV and JSON writers with reproducible number formatting.

All floats are rendered with %.17g so 64-bit values round-trip exactly
and repeated runs produce byte-identical files.  Missing or infeasible
cells are the literal NA in CSV and null in JSON.  Writers accept a
filesystem path or any object with a write method, so an io.StringIO
gives the text of any of them as one string.
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager
from io import StringIO

import numpy as np

from . import _kernels
from .errors import InvalidInputError, _check_array_len
from .region import b1_eval, b2_eval

__all__ = [
    "fmt_float",
    "csv_text",
    "write_csv",
    "json_text",
    "write_json",
    "write_trajectory_csv",
    "write_region_csv",
    "TRAJECTORY_FIELDS",
]

TRAJECTORY_FIELDS = ("n", "f", "q", "u", "v")


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


def csv_text(rows) -> str:
    """Render dict rows to CSV with \\n line endings, under a header of
    the first row's keys; every row is read by those keys, so a row that
    lacks one raises KeyError.  No rows give no text, not even a header."""
    rows = list(rows)
    if not rows:
        return ""
    keys = rows[0]
    lines = [",".join(keys), *(",".join(_cell(r[k]) for k in keys) for r in rows)]
    return "\n".join(lines) + "\n"


def _dump(text: str, dest) -> None:
    """Write text to dest itself if it has a write method, else to the file
    at that path."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(os.fspath(dest), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_csv(dest, rows) -> None:
    _dump(csv_text(rows), dest)


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


@contextmanager
def _byte_writer(dest):
    """A write(bytes) into dest: a path takes the bytes as they are, a file
    object ASCII text in 256 KiB pieces (no text copy of a whole chunk)."""
    if hasattr(dest, "write"):
        def write(buf):
            with memoryview(buf) as view:
                for i in range(0, len(view), 1 << 18):
                    dest.write(str(view[i:i + (1 << 18)], "ascii"))
        yield write
    else:
        with open(os.fspath(dest), "wb") as fh:
            yield fh.write


def _pipelined(fn, items, lanes, sink):
    """sink(fn(x)) for x in items, in item order, on the calling thread; with
    lanes >= 2, one pool of lanes threads runs fn meanwhile, lane k on items
    k, k + lanes, ..., at most 2 * lanes items ahead of the sink (it
    included).  The lanes are joined on every exit; an item's error is
    raised in place of its sink, so the first in item order is raised."""
    if lanes < 2:  # nothing to overlap with
        for x in items:
            sink(fn(x))
        return
    items, cond, pool = list(items), threading.Condition(), []
    done, sunk = [None] * len(items), 0  # sunk None: the lanes stop

    def lane(k):
        for i in range(k, len(items), lanes):
            with cond:
                cond.wait_for(lambda: sunk is None or i < sunk + 2 * lanes)
                if sunk is None:
                    return
            try:
                out = (fn(items[i]),)
            except BaseException as e:  # raised on the calling thread
                out = e
            with cond:
                done[i] = out
                cond.notify_all()
            del out  # so a written item is freed

    try:
        for k in range(lanes):
            pool.append(threading.Thread(target=lane, args=(k,)))
            pool[-1].start()
        for i in range(len(items)):
            with cond:
                cond.wait_for(lambda: done[i] is not None)
                out, done[i] = done[i], None
            if isinstance(out, BaseException):
                raise out
            sink(*out)
            del out
            with cond:
                sunk = i + 1
                cond.notify_all()
    finally:
        with cond:
            sunk = None
            cond.notify_all()
        for t in pool:
            if t.ident is not None:
                t.join()


def write_trajectory_csv(dest, traj) -> None:
    """Header n,f,q,u,v, then one row per step, in pieces of CHUNK_ROWS //
    (2 lanes) rows that lanes threads format while this one writes the one
    before: at most CHUNK_ROWS rows are alive, and the bytes depend neither
    on the backend nor on the core count."""
    n = traj.n_steps
    f, u, v = (np.ascontiguousarray(a, dtype=np.float64)
               for a in (traj.f, traj.u, traj.v))
    q = np.ascontiguousarray(traj.q, dtype=np.int64)
    # the Python formatter holds the GIL: it runs serially, on this thread
    lanes = min(2, _kernels.cores()) if _kernels.BACKEND == "c" else 1
    rows = CHUNK_ROWS // (2 * lanes)
    # one buffer per piece in flight, allocated on this thread: a lane's own
    # malloc arena would keep the memory after the call
    free = [bytearray(min(rows, n) * _kernels.row_width(n, q)) for _ in range(2 * lanes)]

    def piece(lo):
        hi, buf = min(lo + rows, n), free.pop()
        return buf, _kernels.format_rows(lo, f[lo:hi], q[lo:hi], u[lo:hi], v[lo:hi], buf)

    def sink(out):
        buf, size = out
        with memoryview(buf) as view:
            write(view[:size])
        free.append(buf)

    with _byte_writer(dest) as write:
        write(",".join(TRAJECTORY_FIELDS).encode() + b"\n")
        _pipelined(piece, range(0, n, rows), lanes, sink)


def write_region_csv(dest, spec, n_points: int = 513) -> None:
    """Tabulate the bounding curves B1 (upper) and B2 (lower) on [-u0, u0]."""
    if n_points < 2:
        raise InvalidInputError("n_points must be at least 2")
    u = np.linspace(-spec.u0, spec.u0, _check_array_len(n_points, "points"))
    rows = (
        {"u": ui, "B1": b1i, "B2": b2i}
        for ui, b1i, b2i in zip(u.tolist(),
                                b1_eval(spec, u).tolist(),
                                b2_eval(spec, u).tolist())
    )
    write_csv(dest, rows)
