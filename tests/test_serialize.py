"""Table and report writers: exact float text, NA cells, stable layouts."""

import io
import json
import math
import sys
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
    ERROR_CURVE_FIELDS,
    REGION_FIELDS,
    TRAJECTORY_FIELDS,
    csv_text,
    filter_norms_dict,
    fmt_float,
    json_text,
    sweep_fieldnames,
    trajectory_csv_text,
    write_csv,
    write_json,
    write_region_csv,
    write_trajectory_csv,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_roundtrips_exactly(x):
    assert float(fmt_float(x)) == x


def test_cell_conventions():
    rows = [{"a": None, "b": math.nan, "c": True, "d": 7, "e": "txt", "f": 0.1}]
    text = csv_text(("a", "b", "c", "d", "e", "f"), rows)
    assert text == "a,b,c,d,e,f\nNA,NA,true,7,txt,0.10000000000000001\n"


def test_csv_rejects_rows_missing_a_field():
    # absent values must be explicit Nones; a missing key is a schema bug
    with pytest.raises(KeyError):
        csv_text(("a", "b"), [{"a": 1}])
    assert csv_text(("a", "b"), [{"a": 1, "b": None}]).splitlines()[1] == "1,NA"


def test_trajectory_fast_path_matches_the_generic_writer():
    tr = run(SchemeParams(lambda1=1.02, gamma=0.8), np.linspace(-0.4, 0.4, 50), 50)
    fast = trajectory_csv_text(tr)
    rows = [
        {"n": i + 1, "f": tr.f[i], "q": int(tr.q[i]), "u": tr.u[i], "v": tr.v[i]}
        for i in range(tr.n_steps)
    ]
    assert fast == csv_text(TRAJECTORY_FIELDS, rows)


def test_trajectory_text_is_parse_exact():
    tr = run(SchemeParams(), 0.3, 20)
    lines = trajectory_csv_text(tr).splitlines()
    assert lines[0] == "n,f,q,u,v"
    n, f, q, u, v = lines[3].split(",")
    assert (int(n), int(q)) == (3, int(tr.q[2]))
    assert float(u) == tr.u[2] and float(v) == tr.v[2]


def test_million_row_trajectory_formats_within_budget():
    tr = run(SchemeParams(), 0.3, 10**6)
    t0 = time.monotonic()
    text = trajectory_csv_text(tr)
    elapsed = time.monotonic() - t0
    assert text.count("\n") == 10**6 + 1
    assert elapsed < 5.0


def _reference_text(tr):
    rows = zip(range(1, tr.n_steps + 1), tr.f.tolist(), tr.q.tolist(),
               tr.u.tolist(), tr.v.tolist())
    return "n,f,q,u,v\n" + "".join("%d,%.17g,%d,%.17g,%.17g\n" % r for r in rows)


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_chunked_output_is_the_same_for_every_backend_and_worker_count(
        n, monkeypatch, tmp_path):
    # rows on both sides of a chunk boundary, with n counting on across it
    f = np.random.default_rng(n).uniform(-0.4, 0.4, n)
    tr = run(SchemeParams(lambda1=1.01, lambda2=1.01, gamma=0.5), f, n)
    expected = _reference_text(tr)
    outputs = []
    for backend in ("chosen", "python"):
        if backend == "python":
            monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
        for workers in (1, 2):
            monkeypatch.setattr(serialize.os, "cpu_count", lambda: workers)
            buf = io.StringIO()
            write_trajectory_csv(buf, tr)
            outputs.append(buf.getvalue())
            path = tmp_path / f"{backend}-{workers}.csv"
            write_trajectory_csv(path, tr)
            outputs.append(path.read_bytes().decode("ascii"))
    assert outputs == [expected] * len(outputs)
    if n > CHUNK_ROWS:
        lines = expected.splitlines()  # lines[k] is row k
        assert [ln.split(",")[0] for ln in lines[CHUNK_ROWS - 1:CHUNK_ROWS + 2]] == [
            str(CHUNK_ROWS - 1), str(CHUNK_ROWS), str(CHUNK_ROWS + 1)]


def test_many_threads_switching_often_keep_the_chunk_order(monkeypatch):
    # more workers than cores, switching every microsecond, over five chunks
    n = 4 * CHUNK_ROWS + 123
    f = np.random.default_rng(5).uniform(-0.3, 0.3, n)
    tr = run(SchemeParams(lambda1=1.01, gamma=0.7), f, n)
    monkeypatch.setattr(serialize.os, "cpu_count", lambda: 1)
    serial = io.StringIO()
    write_trajectory_csv(serial, tr)
    monkeypatch.setattr(serialize.os, "cpu_count", lambda: 8)
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
    # chunk can have, whatever os.cpu_count() says; the text is ~71 MB and
    # never held whole
    if _kernels.BACKEND != "c":
        pytest.skip("the bound is for the C formatter's buffers")
    n = 10**6
    tr = run(SchemeParams(), 0.3, n)
    row_cap = len(str(n)) + 2 + 3 * _kernels._NUM_WIDTH + 5  # q is +-1
    chunk_cap = CHUNK_ROWS * row_cap
    monkeypatch.setattr(serialize.os, "cpu_count", lambda: workers)
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


def test_writers_accept_paths_and_file_objects(tmp_path):
    rows = [{"T": 32.0, "sup_error": 1e-3, "bound": 2e-3}]
    p = tmp_path / "curve.csv"
    write_csv(p, ERROR_CURVE_FIELDS, rows)
    buf = io.StringIO()
    write_csv(buf, ERROR_CURVE_FIELDS, rows)
    assert p.read_text() == buf.getvalue()
    pj = tmp_path / "r.json"
    write_json(pj, {"ok": True})
    assert json.loads(pj.read_text()) == {"ok": True}


def test_region_table_shape_and_symmetry(tmp_path):
    spec = RegionSpec(alpha=0.5, C=6.0)
    buf = io.StringIO()
    write_region_csv(buf, spec, n_points=201)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(REGION_FIELDS)
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
    assert body == trajectory_csv_text(tr)
    assert body.splitlines()[1].startswith("1,0.29999999999999999,1,")


def test_filter_table_is_mirrored(filt_fast, tmp_path):
    from sdlab.serialize import write_filter_csv

    buf = io.StringIO()
    write_filter_csv(buf, filt_fast)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,g"
    n = len(lines) - 1
    assert n % 2 == 1  # odd: one row per +-t pair plus t = 0
    t_first, g_first = map(float, lines[1].split(","))
    t_last, g_last = map(float, lines[-1].split(","))
    assert t_first == -filt_fast.W and t_last == filt_fast.W
    assert g_first == g_last


def test_filter_norms_dict_keys(filt_fast):
    d = filter_norms_dict(filt_fast)
    assert list(d) == ["T0", "rolloff", "dt", "W", "trunc_tol", "tail_bound",
                       "g_l1", "g1_l1", "g2_l1", "C_g"]
    assert d["C_g"] == filt_fast.C_g


def test_sweep_fieldnames_schemas():
    assert sweep_fieldnames("fig1") == ("lambda", "beta_max", "alpha_star")
    assert sweep_fieldnames("fig2") == (
        "lambda", "beta_theoretical", "beta_observed", "gamma_mode", "alpha_used")
    assert sweep_fieldnames("fig3") == sweep_fieldnames("fig2")
    assert sweep_fieldnames("fig4") == (
        "lambda", "vmax_theoretical", "vmax_empirical_thm1gamma",
        "vmax_empirical_gamma1")
    with pytest.raises(InvalidInputError):
        sweep_fieldnames("fig5")
