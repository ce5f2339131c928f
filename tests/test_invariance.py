"""One-step containment probes: certified regions hold, inflated gains leak."""

import shutil

import numpy as np
import pytest

from sdlab import _kernels, invariance
from sdlab.certificates import thm1_certificate, thm2_certificate, unchecked_certificate
from sdlab.errors import InvalidInputError
from sdlab.invariance import verify_invariance


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


@pytest.mark.parametrize("cert, is_max_excess", [
    (thm2_certificate(0.5, 1.02, 0.3), lambda m: m == 0.0),
    (unchecked_certificate(0.5, 2.0), lambda m: 0.0 < m < np.inf),
    (unchecked_certificate(0.5, 1e308, epsilon=0.2), lambda m: m == np.inf),
], ids=["certified", "violating", "overflowing"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on overflow
def test_report_does_not_depend_on_backend_or_workers(cert, is_max_excess,
                                                      monkeypatch):
    if shutil.which(_kernels._CC[0]) is None:
        pytest.skip("no C compiler on PATH")
    runs = []
    for chosen in (("c", *_kernels._load_c()), _kernels._PYTHON):
        monkeypatch.setattr(_kernels, "_chosen", chosen)
        for workers in (1, 2):
            rep = verify_invariance(cert, n_points=3000, n_deltas=12, seed=4,
                                    workers=workers)
            runs.append((rep.violations.dtype, rep.violations.tobytes(),
                         rep.to_json_dict()))
    assert runs == [runs[0]] * 4
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
