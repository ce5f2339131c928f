"""One-step containment probes: certified regions hold, inflated gains leak."""

import hashlib
import mmap
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sdlab import _kernels, invariance
from sdlab.certificates import thm1_certificate, thm2_certificate, unchecked_certificate
from sdlab.cli import main
from sdlab.errors import InvalidInputError
from sdlab.invariance import verify_invariance
from sdlab.serialize import json_text


def test_certified_region_has_no_escapes():
    cert = thm1_certificate(0.5, 1.01)
    report = verify_invariance(cert, n_points=500, n_deltas=11, seed=3)
    assert report.ok
    assert report.n_checked == 500 * 11
    assert report.max_excess == 0.0
    assert len(report.violations) == 0


def test_unit_gain_certified_region_has_no_escapes():
    cert = thm1_certificate(0.5, 1.0)
    report = verify_invariance(cert, n_points=500, n_deltas=11, seed=3)
    assert report.ok


def test_inadmissible_gain_is_falsified():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    report = verify_invariance(cert, n_points=500, n_deltas=11, seed=3)
    assert not report.ok
    assert report.max_excess > 0.0
    first = report.violations[0]
    # escape data names the offending sample and its image
    assert 0 <= first.point_index < 500
    assert 0 <= first.delta_index < 11
    assert first.excess > 0.0


def test_report_is_identical_for_any_worker_count():
    cert = thm1_certificate(0.4, 1.02)
    a = verify_invariance(cert, n_points=700, n_deltas=9, seed=5, workers=1)
    b = verify_invariance(cert, n_points=700, n_deltas=9, seed=5, workers=4)
    assert a.n_checked == b.n_checked
    assert a.max_excess == b.max_excess
    assert [r.point_index for r in a.violations] == [r.point_index for r in b.violations]


def test_falsification_report_is_identical_for_any_worker_count():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    a = verify_invariance(cert, n_points=700, n_deltas=9, seed=5, workers=1)
    b = verify_invariance(cert, n_points=700, n_deltas=9, seed=5, workers=3)
    assert a.max_excess == b.max_excess
    assert len(a.violations) == len(b.violations)
    assert [(r.point_index, r.delta_index) for r in a.violations] == \
           [(r.point_index, r.delta_index) for r in b.violations]
    assert a.violations.dtype == b.violations.dtype
    assert np.array_equal(a.violations, b.violations)


def test_violations_are_one_record_array_in_point_delta_order():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    report = verify_invariance(cert, n_points=700, n_deltas=9, seed=5)
    v = report.violations
    assert isinstance(v, np.recarray)
    assert v.dtype.names == ("point_index", "delta_index", "u", "v",
                             "u_next", "v_next", "excess")
    assert len(v) > 100
    keys = v.point_index * 9 + v.delta_index
    assert np.all(np.diff(keys) > 0)
    assert np.all((v.delta_index >= 0) & (v.delta_index < 9))
    assert np.all(v.excess > report.tol)
    assert report.max_excess == v.excess.max()


def test_violations_live_in_an_anonymous_mapping_not_the_malloc_heap():
    # rows freed from malloc would raise glibc's mmap threshold and keep
    # freed heap resident in later calls
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    report = verify_invariance(cert, n_points=2000, n_deltas=11, seed=3)
    assert len(report.violations) > 1000
    base = report.violations
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
    assert base.nbytes == report.violations.nbytes
    empty = verify_invariance(thm1_certificate(0.5, 1.01), n_points=100, n_deltas=3)
    assert len(empty.violations) == 0
    assert empty.violations.dtype == report.violations.dtype


def test_json_dict_keeps_the_full_count_and_the_first_hundred_rows():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    report = verify_invariance(cert, n_points=700, n_deltas=9, seed=5)
    d = report.to_json_dict()
    assert d["n_violations"] == len(report.violations)
    assert d["ok"] is False
    head = d["violations"]
    assert len(head) == 100
    for row, rec in zip(head, report.violations[:100]):
        assert list(row) == list(report.violations.dtype.names)
        assert type(row["point_index"]) is int
        assert type(row["delta_index"]) is int
        assert row == {name: rec[name] for name in row}


def test_fewer_points_than_blocks_still_report_every_escape():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    report = verify_invariance(cert, n_points=5, n_deltas=4, seed=1)
    assert report.n_checked == 20
    assert np.all(report.violations.point_index < 5)
    assert report.to_json_dict()["n_violations"] == len(report.violations)


def test_json_dict_shape():
    cert = thm1_certificate(0.5, 1.0)
    report = verify_invariance(cert, n_points=50, n_deltas=3, seed=0)
    d = report.to_json_dict()
    assert d["ok"] is True
    assert d["n_checked"] == 50 * 3
    assert d["violations"] == []


def test_sample_count_contracts():
    cert = thm1_certificate(0.5, 1.0)
    with pytest.raises(InvalidInputError):
        verify_invariance(cert, n_points=0)
    with pytest.raises(InvalidInputError):
        verify_invariance(cert, n_deltas=1)
    with pytest.raises(InvalidInputError):
        verify_invariance(cert, tol=-1e-9)
    for workers in (0, -1, True, 1.5):
        with pytest.raises(InvalidInputError, match="workers"):
            verify_invariance(cert, workers=workers)


@pytest.mark.parametrize("cert, is_max_excess", [
    (thm2_certificate(0.5, 1.02, 0.3), lambda m: m == 0.0),
    (unchecked_certificate(0.5, 2.0), lambda m: 0.0 < m < np.inf),
    (unchecked_certificate(0.5, 1e150, epsilon=0.2), lambda m: 1e300 < m < np.inf),
], ids=["certified", "violating", "huge-gain"])
def test_report_does_not_depend_on_backend_or_workers(cert, is_max_excess,
                                                      monkeypatch):
    if shutil.which(_kernels._CC[0]) is None:
        pytest.skip("no C compiler on PATH")
    runs = []
    for chosen in (_kernels._load_c(), _kernels._PYTHON):
        monkeypatch.setattr(_kernels, "_chosen", chosen)
        for workers in (1, 2, None):
            rep = verify_invariance(cert, n_points=3000, n_deltas=12, seed=4,
                                    workers=workers)
            runs.append((rep.violations.dtype, rep.violations.tobytes(),
                         rep.to_json_dict()))
    assert runs == [runs[0]] * 6
    assert is_max_excess(runs[0][2]["max_excess"])


def test_sampling_calls_the_boundaries_through_invariance(monkeypatch):
    # a traced benchmark run times region.b1_eval and region.b2_eval by
    # wrapping these two names; the sampler must keep calling them, for
    # at least its boundary-arc points (40% of them on each arc)
    points = {"b1_eval": 0, "b2_eval": 0}
    for name in points:
        def counted(spec, u, _f=getattr(invariance, name), _name=name):
            points[_name] += np.size(u)
            return _f(spec, u)
        monkeypatch.setattr(invariance, name, counted)
    verify_invariance(thm1_certificate(0.5, 1.01), n_points=1000, n_deltas=3, seed=0)
    assert min(points.values()) >= 400


def test_certified_verify_memory_does_not_grow_with_the_points():
    # a block without escapes keeps none of its points, and each of two
    # workers holds one block in flight, so ten times the points costs no
    # more than a few blocks' worth (2 M points are 0.5 MB a block)
    pytest.importorskip("resource")
    code = ("import os, resource, sys\n"
            "import sdlab.cli\n"
            "sdlab._kernels.cores = lambda: 2\n"
            "assert sdlab.cli.main(['verify', '--alpha', '0.5', '--lambda', '1.02',\n"
            "                       '--epsilon', '0.3', '--points', sys.argv[1],\n"
            "                       '--out', os.devnull]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    peaks = []
    for points in ("200000", "2000000"):
        proc = subprocess.run([sys.executable, "-c", code, points], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.split()[-1]) * unit / 2**20)
    assert peaks[1] - peaks[0] <= 15.0, f"peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB"


# sha256 of the JSON report and of violations.tobytes() for keep=None, as
# the version before the extreme-delta screen and the keep argument wrote
# them (n_points=3000, n_deltas=12, seed=4)
_REPORT_HASHES = {
    "certified": ("bc013873459bdc15cf58a88f111c0124c62effb7738bb4e425809aae3cef7c9c",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "violating": ("1b9f7668b41136287a57f89bcdfa3a4beca929949d68ca084a2519aa60130ce0",
                  "43189cd7730127458dbe64a494d529fbc5a82f2840f489fd50be2d641ab4e3da"),
    "inadmissible": ("ce0fea803031ed52011c460ceee9743a1d7178a7b4fafb69f9fa1ac70f30d88b",
                     "92e8a416a5037b160b06f3813abec806d45d7dda80142db85aef59f006aeb9a2"),
    "huge-gain": ("2cf368c82a2c7e3ffaf1dd81b2c0c87fd1ce249dd4e20fb28932a06ea3d4d968",
                  "24f41a4de18d2c9919b33b2f418f57d509aa05e0345e35cfc8622a271842e8ea"),
}
# sha256 of the benchmark's two verify commands' JSON, from the same version
_CLI_HASHES = {
    ("--lambda", "1.02", "--epsilon", "0.3", "--points", "200000"):
        "ab614ee895144493df909d73f926ed89b8fc525c88fc0f1d1217d610067eb0d9",
    ("--lambda", "2.0", "--points", "10000"):
        "d19393707cf49eb2eefbb8837534f7861b4c0416053b2d3ce675973848084b7f",
}


def _backends():
    if shutil.which(_kernels._CC[0]) is None:
        pytest.skip("no C compiler on PATH")
    return (_kernels._load_c(), _kernels._PYTHON)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_reports_keep_their_bytes_on_every_backend_and_worker_count(monkeypatch):
    certs = {"certified": thm2_certificate(0.5, 1.02, 0.3),
             "violating": unchecked_certificate(0.5, 2.0),
             "inadmissible": unchecked_certificate(0.5, 1.2, epsilon=0.2),
             "huge-gain": unchecked_certificate(0.5, 1e150, epsilon=0.2)}
    for chosen in _backends():
        monkeypatch.setattr(_kernels, "_chosen", chosen)
        for name, cert in certs.items():
            for workers in (1, 2, None):
                rep = verify_invariance(cert, n_points=3000, n_deltas=12, seed=4,
                                        workers=workers)
                got = (_sha(json_text(rep.to_json_dict()).encode()),
                       _sha(rep.violations.tobytes()))
                assert got == _REPORT_HASHES[name], (chosen.name, name, workers)


def test_benchmark_verify_commands_keep_their_bytes(monkeypatch, capsys):
    for chosen in _backends():
        monkeypatch.setattr(_kernels, "_chosen", chosen)
        for args, want in _CLI_HASHES.items():
            for workers in (["--workers", "1"], ["--workers", "2"], []):
                rc = main(["verify", "--alpha", "0.5", *args, *workers])
                assert rc == (0 if args[1] == "1.02" else 2)
                assert _sha(capsys.readouterr().out.encode()) == want, (chosen.name, args)


def test_kept_rows_are_the_leading_rows_of_the_full_report():
    cert = unchecked_certificate(0.5, 2.0)
    full = verify_invariance(cert, n_points=5000, n_deltas=20, seed=2)
    assert full.n_violations == len(full.violations) > 5000
    for keep in (0, 1, 100, 2345, full.n_violations, full.n_violations + 1):
        for workers in (1, 2):
            rep = verify_invariance(cert, n_points=5000, n_deltas=20, seed=2,
                                    keep=keep, workers=workers)
            assert (rep.n_violations, rep.max_excess) == (full.n_violations,
                                                          full.max_excess)
            assert rep.violations.tobytes() == full.violations[:keep].tobytes()
            assert not rep.ok
    for keep in (-1, 1.5, "100"):
        with pytest.raises(InvalidInputError, match="keep"):
            verify_invariance(cert, n_points=50, keep=keep)


def test_violating_verify_memory_does_not_grow_with_the_points():
    # the count pass keeps no points and no rows, and the rows the command
    # prints come from re-checking the leading block: 40 times the points
    # cost at most that block's rows (about 12 MB at 400 k points)
    pytest.importorskip("resource")
    code = ("import os, resource, sys\n"
            "import sdlab.cli\n"
            "sdlab._kernels.cores = lambda: 2\n"
            "assert sdlab.cli.main(['verify', '--alpha', '0.5', '--lambda', '2.0',\n"
            "                       '--points', sys.argv[1], '--out', os.devnull]) == 2\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    peaks = []
    for points in ("10000", "400000"):
        proc = subprocess.run([sys.executable, "-c", code, points], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.split()[-1]) * unit / 2**20)
    assert peaks[1] - peaks[0] <= 15.0, f"peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB"


@pytest.mark.parametrize("kw", [
    {"n_points": 200.0}, {"n_points": True}, {"n_points": "200"},
    {"n_deltas": 5.0}, {"n_deltas": np.float64(5)}, {"n_deltas": True},
    {"keep": True}, {"keep": 1.0}, {"keep": -1},
])
def test_counts_that_are_not_integers_are_refused(kw):
    # before, 200.0 and 5.0 raised numpy's TypeError and True was taken as 1
    with pytest.raises(InvalidInputError, match=next(iter(kw))):
        verify_invariance(thm1_certificate(0.5, 1.0), **kw)


def test_numpy_integer_counts_give_the_int_report():
    cert = unchecked_certificate(0.5, 1.2, epsilon=0.2)
    want = json_text(verify_invariance(cert, n_points=200, n_deltas=5,
                                       keep=3).to_json_dict())
    got = verify_invariance(cert, n_points=np.int64(200), n_deltas=np.int32(5),
                            keep=np.uint8(3))
    assert json_text(got.to_json_dict()) == want
