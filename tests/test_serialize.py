"""Table and report writers: exact float text, NA cells, stable layouts."""

import hashlib
import io
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdlab import _kernels, serialize
from sdlab.cli import main
from sdlab.errors import InvalidInputError
from sdlab.modulator import SchemeParams, run
from sdlab.region import RegionSpec, b1_eval, corner_u0
from sdlab.serialize import (
    CHUNK_ROWS,
    TRAJECTORY_FIELDS,
    csv_text,
    fmt_float,
    json_text,
    write_csv,
    write_json,
    write_region_csv,
    write_trajectory_csv,
)


def trajectory_text(tr):
    buf = io.StringIO()
    write_trajectory_csv(buf, tr)
    return buf.getvalue()


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_roundtrips_exactly(x):
    assert float(fmt_float(x)) == x


def test_cell_conventions():
    rows = [{"a": None, "b": math.nan, "c": True, "d": 7, "e": "txt", "f": 0.1}]
    text = csv_text(rows)
    assert text == "a,b,c,d,e,f\nNA,NA,true,7,txt,0.10000000000000001\n"
    assert csv_text([]) == ""  # no rows, so no keys for a header


def test_csv_rejects_rows_missing_a_field():
    # the first row's keys are the header; absent values must be explicit
    # Nones, so a later row that lacks a key is a schema bug
    with pytest.raises(KeyError):
        csv_text([{"a": 1, "b": 2}, {"a": 1}])
    assert csv_text([{"a": 0, "b": 2}, {"a": 1, "b": None}]).splitlines() == [
        "a,b", "0,2", "1,NA"]


def test_trajectory_fast_path_matches_the_generic_writer():
    tr = run(SchemeParams(lambda1=1.02, gamma=0.8), np.linspace(-0.4, 0.4, 50), 50)
    fast = trajectory_text(tr)
    rows = [
        {"n": i + 1, "f": tr.f[i], "q": int(tr.q[i]), "u": tr.u[i], "v": tr.v[i]}
        for i in range(tr.n_steps)
    ]
    assert fast == csv_text(rows)
    assert fast.startswith(",".join(TRAJECTORY_FIELDS) + "\n")


def test_trajectory_text_is_parse_exact():
    tr = run(SchemeParams(), 0.3, 20)
    lines = trajectory_text(tr).splitlines()
    assert lines[0] == "n,f,q,u,v"
    n, f, q, u, v = lines[3].split(",")
    assert (int(n), int(q)) == (3, int(tr.q[2]))
    assert float(u) == tr.u[2] and float(v) == tr.v[2]


def test_million_row_trajectory_formats_within_budget():
    tr = run(SchemeParams(), 0.3, 10**6)
    t0 = time.monotonic()
    text = trajectory_text(tr)
    elapsed = time.monotonic() - t0
    assert text.count("\n") == 10**6 + 1
    assert elapsed < 5.0


def _reference_text(tr):
    rows = zip(range(1, tr.n_steps + 1), tr.f.tolist(), tr.q.tolist(),
               tr.u.tolist(), tr.v.tolist())
    return "n,f,q,u,v\n" + "".join("%d,%.17g,%d,%.17g,%.17g\n" % r for r in rows)


# 100_001 rows end in an odd chunk of 34_465 rows, whose first half is all
# 5-digit row numbers and whose second half crosses 99_999 -> 100_000
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                               100_001])
def test_chunked_output_is_the_same_for_every_backend_and_worker_count(
        n, monkeypatch, tmp_path):
    # rows on both sides of a chunk boundary, with n counting on across it
    f = np.random.default_rng(n).uniform(-0.4, 0.4, n)
    tr = run(SchemeParams(lambda1=1.01, lambda2=1.01, gamma=0.5), f, n)
    expected = _reference_text(tr)
    c_rows = _kernels.BACKEND == "c" and _kernels._chosen.format_rows
    outputs = []
    for backend in ("chosen", "python"):
        if backend == "python":
            monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
        for workers in (1, 2):
            monkeypatch.setattr(serialize._kernels, "cores", lambda: workers)
            buf = io.StringIO()
            write_trajectory_csv(buf, tr)
            outputs.append(buf.getvalue())
            # a path takes the formatted bytes as they are
            path = tmp_path / f"{backend}-{workers}.csv"
            write_trajectory_csv(path, tr)
            assert path.read_bytes() == buf.getvalue().encode("ascii")
            outputs.append(path.read_bytes().decode("ascii"))
    assert outputs == [expected] * len(outputs)
    if n > 1 and c_rows:
        # the C formatter's rows in two pieces are its rows in one
        q = np.ascontiguousarray(tr.q, dtype=np.int64)
        h = n // 2
        halves = []
        for a, b in ((0, h), (h, n)):
            out = bytearray((b - a) * _kernels.row_width(b, q))
            halves.append(out[:c_rows(a, tr.f[a:b], q[a:b], tr.u[a:b], tr.v[a:b], out)])
        assert [bytes(h).count(b"\n") for h in halves] == [n // 2, n - n // 2]
        assert b"".join(halves) == expected.encode("ascii")[len("n,f,q,u,v\n"):]
    if n > CHUNK_ROWS:
        lines = expected.splitlines()  # lines[k] is row k
        assert [ln.split(",")[0] for ln in lines[CHUNK_ROWS - 1:CHUNK_ROWS + 2]] == [
            str(CHUNK_ROWS - 1), str(CHUNK_ROWS), str(CHUNK_ROWS + 1)]


def test_many_threads_switching_often_keep_the_chunk_order(monkeypatch):
    # more workers than cores, switching every microsecond, over five chunks
    n = 4 * CHUNK_ROWS + 123
    f = np.random.default_rng(5).uniform(-0.3, 0.3, n)
    tr = run(SchemeParams(lambda1=1.01, gamma=0.7), f, n)
    monkeypatch.setattr(serialize._kernels, "cores", lambda: 1)
    serial = io.StringIO()
    write_trajectory_csv(serial, tr)
    monkeypatch.setattr(serialize._kernels, "cores", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = io.StringIO()
        write_trajectory_csv(threaded, tr)
    finally:
        sys.setswitchinterval(old)
    assert threaded.getvalue() == serial.getvalue()
    assert serial.getvalue().count("\n") == n + 1


@pytest.mark.parametrize("backend", ["chosen", "python"])
def test_divergent_simulate_writes_its_infinite_row(backend, monkeypatch, capsys):
    if backend == "python":
        monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    with np.errstate(over="ignore"):
        rc = main(["simulate", "--beta", "0.3", "--steps", "5",
                   "--lambda1", "1.7e308", "--lambda2", "1.7e308"])
    cap = capsys.readouterr()
    assert rc == 4
    assert cap.out == (
        "n,f,q,u,v\n"
        "1,0.29999999999999999,1,-0.69999999999999996,-0.69999999999999996\n"
        "2,0.29999999999999999,-1,-1.1899999999999998e+308,-inf\n"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_file_holds_only_the_chunks_in_flight(workers, monkeypatch,
                                                       tmp_path):
    # one chunk buffer is alive at a time, sized for the widest row the
    # chunk can have, whatever the core count is; the text is ~71 MB and
    # never held whole
    if _kernels.BACKEND != "c":
        pytest.skip("the bound is for the C formatter's buffers")
    n = 10**6
    tr = run(SchemeParams(), 0.3, n)
    row_cap = len(str(n)) + 2 + 3 * _kernels._NUM_WIDTH + 5  # q is +-1
    chunk_cap = CHUNK_ROWS * row_cap
    monkeypatch.setattr(serialize._kernels, "cores", lambda: workers)
    path = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(path, tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 65 * 10**6
    # a second chunk alive at once would break the bound
    assert peak < chunk_cap + chunk_cap // 2
    assert peak < size / 4


def test_json_layout_and_float_text():
    obj = {"b": 1, "a": 0.1, "nested": {"x": [1.5, None, True]}, "s": "q\"q"}
    text = json_text(obj)
    assert text.endswith("\n")
    # insertion order is preserved, floats carry 17 significant digits
    assert text.index('"b"') < text.index('"a"')
    assert "0.10000000000000001" in text
    assert "null" in text and "true" in text
    assert json.loads(text) == obj


def test_json_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        json_text({"x": math.inf})
    with pytest.raises(InvalidInputError):
        json_text([math.nan])


def test_json_rejects_a_type_it_has_no_form_for():
    with pytest.raises(InvalidInputError, match="cannot serialize object"):
        json_text({"x": object()})


def test_writers_accept_paths_and_file_objects(tmp_path):
    rows = [{"T": 32.0, "sup_error": 1e-3, "bound": 2e-3}]
    p = tmp_path / "curve.csv"
    write_csv(p, rows)
    buf = io.StringIO()
    write_csv(buf, rows)
    assert p.read_text() == buf.getvalue()
    pj = tmp_path / "r.json"
    write_json(pj, {"ok": True})
    assert json.loads(pj.read_text()) == {"ok": True}


def test_region_table_shape_and_symmetry(tmp_path):
    spec = RegionSpec(alpha=0.5, C=6.0)
    buf = io.StringIO()
    write_region_csv(buf, spec, n_points=201)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "u,B1,B2"
    assert len(lines) == 202
    u0 = corner_u0(spec)
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == -u0 and float(last[0]) == u0
    # central symmetry: reversing u negates and swaps the two boundaries
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    for (u, b1, b2), (ur, b1r, b2r) in zip(rows, rows[::-1]):
        assert ur == pytest.approx(-u, rel=1e-12)
        assert b1r == pytest.approx(-b2, rel=1e-12, abs=1e-12)


def test_trajectory_writer_to_file(tmp_path):
    tr = run(SchemeParams(), 0.3, 5)
    p = tmp_path / "traj.csv"
    write_trajectory_csv(p, tr)
    body = p.read_text()
    assert body == trajectory_text(tr)
    assert body.splitlines()[1].startswith("1,0.29999999999999999,1,")


# sha256 of the CSV that the chunk-at-a-time writer, before the lane pool,
# wrote for run(SchemeParams(1.01, 1.01, 0.5), default_rng(n).uniform(-0.4,
# 0.4, n), n)
_TRAJECTORY_HASHES = {
    1: "7d9d59142881fabf1e76937d6aa8ec4a24b50f5059e3d5dcb325ae8726fe653a",
    CHUNK_ROWS // 2: "12203f20926f2c2cfe41ec70f1ddc398d1a0b137171ada24272129d3a444c11b",
    CHUNK_ROWS: "4ee446019ca2aea63cb2d680dff94432ca7b37d79f2788fb2aba0d29a4cf6428",
    CHUNK_ROWS + 1: "fc961ecc844ada5f10b26e7dfaa355b83d592aa6ccf67ebe4bef25aaf4dbea8c",
}


@pytest.mark.parametrize("n", sorted(_TRAJECTORY_HASHES))
def test_pipelined_trajectory_keeps_its_bytes(n, monkeypatch, tmp_path):
    f = np.random.default_rng(n).uniform(-0.4, 0.4, n)
    tr = run(SchemeParams(lambda1=1.01, lambda2=1.01, gamma=0.5), f, n)
    for workers in (1, 2):
        monkeypatch.setattr(serialize._kernels, "cores", lambda: workers)
        buf = io.StringIO()
        write_trajectory_csv(buf, tr)
        path = tmp_path / f"{workers}.csv"
        write_trajectory_csv(path, tr)
        for data in (buf.getvalue().encode("ascii"), path.read_bytes()):
            assert hashlib.sha256(data).hexdigest() == _TRAJECTORY_HASHES[n]


class _Failed(Exception):
    pass


@pytest.mark.parametrize("bad", [0, 1, 5, 6])
def test_a_failing_lane_raises_in_item_order_and_leaves_no_thread(bad):
    # items 5 and 6 fail on different lanes; the first in item order wins,
    # nothing at or after it is sunk, and every lane is joined
    before, sunk = set(threading.enumerate()), []

    def fn(x):
        if x in (bad, 6) and x >= bad:
            raise _Failed(x)
        time.sleep(0.001 * (x % 3))
        return x

    with pytest.raises(_Failed) as exc:
        serialize._pipelined(fn, range(20), 2, sunk.append)
    assert exc.value.args == (bad,)
    assert sunk == list(range(bad))
    assert set(threading.enumerate()) == before


def test_a_failing_sink_stops_the_lanes_within_their_window():
    before, started = set(threading.enumerate()), []

    def sink(x):
        time.sleep(0.01)  # time for the lanes to run ahead as far as they may
        raise _Failed(x)

    with pytest.raises(_Failed) as exc:
        serialize._pipelined(lambda x: started.append(x) or x, range(50), 2, sink)
    assert exc.value.args == (0,)
    assert sorted(started) == [0, 1, 2, 3]  # 2 * lanes items, the sunk one included
    assert set(threading.enumerate()) == before


def test_a_failing_write_leaves_no_lane_running(monkeypatch):
    monkeypatch.setattr(serialize._kernels, "cores", lambda: 2)
    tr = run(SchemeParams(), 0.3, 3 * CHUNK_ROWS)
    before, writes = set(threading.enumerate()), []

    class Full(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            if len(writes) > 3:
                raise OSError(28, "No space left on device")
            return super().write(text)

    with pytest.raises(OSError):
        write_trajectory_csv(Full(), tr)
    assert set(threading.enumerate()) == before


def test_the_writer_formats_at_most_two_pieces_per_lane_ahead_of_the_sink(monkeypatch):
    # at 2 cores, 2 lanes: while piece k is written, at most pieces k..k+3
    # have been started, and a slow sink lets the lanes reach that bound
    if _kernels.BACKEND != "c":
        pytest.skip("the Python formatter runs serially, on the calling thread")
    lanes, rows = 2, CHUNK_ROWS // 4
    tr = run(SchemeParams(), 0.3, 12 * rows)
    want = trajectory_text(tr)
    monkeypatch.setattr(serialize._kernels, "cores", lambda: lanes)
    started, ahead, fmt = [], [], _kernels.format_rows

    def format_rows(n0, *arrays):
        started.append(n0)
        return fmt(n0, *arrays)

    class Slow(io.StringIO):
        lines = 0

        def write(self, text):
            if self.lines:  # past the header: the text is of piece (lines - 1) // rows
                ahead.append(len(started) - (self.lines - 1) // rows)
                time.sleep(0.002)
            self.lines += text.count("\n")
            return super().write(text)

    monkeypatch.setattr(serialize._kernels, "format_rows", format_rows)
    out = Slow()
    write_trajectory_csv(out, tr)
    assert out.getvalue() == want
    assert sorted(started) == list(range(0, 12 * rows, rows))
    assert min(ahead) >= 1 and max(ahead) == 2 * lanes


def test_pipelined_keeps_item_order_and_its_window_with_more_lanes_than_cores():
    # x is submitted only once item x - 2 * lanes is sunk; a short switch
    # interval interleaves the lanes and the sink as often as it can
    lanes, sunk = 4, []
    before = set(threading.enumerate())

    def fn(x):
        assert x < len(sunk) + 2 * lanes
        return x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serialize._pipelined(fn, range(2000), lanes, sunk.append)
    finally:
        sys.setswitchinterval(interval)
    assert sunk == list(range(2000))
    assert set(threading.enumerate()) == before
