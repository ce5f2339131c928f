"""Threshold bisection, state-bound measurement, and the table builders.

All sweeps here run with reduced iteration budgets; the full-budget runs
live in the acceptance suite.  Determinism claims are exact equality.
"""

import shutil
import tracemalloc

import numpy as np
import pytest

from sdlab import _kernels, sweeps
from sdlab.errors import (
    DegenerateConfigurationError,
    DivergenceError,
    InvalidInputError,
)
from sdlab.sweeps import (
    SweepConfig,
    _bisect_threshold,
    _certified,
    _observed_threshold,
    is_stable,
    measure_vmax,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    vmax_at_theoretical,
)


def small_cfg(**kw):
    kw.setdefault("lambda_grid", np.array([1.0]))
    kw.setdefault("max_iters", 10**5)
    return SweepConfig(**kw)


def test_bisection_against_a_stub_oracle():
    # predicate with a known edge: stable iff beta < 0.37
    got = _bisect_threshold(lambda beta, k: beta < 0.37, 1e-3)
    assert abs(got - 0.37) <= 1e-3
    assert got <= 0.37  # returned endpoint is always a confirmed-stable probe
    got = _bisect_threshold(lambda beta, k: beta < 0.37, 1e-6)
    assert abs(got - 0.37) <= 1e-6


def test_bisection_requires_a_stable_floor():
    with pytest.raises(DegenerateConfigurationError):
        _bisect_threshold(lambda beta, k: False, 1e-3)


def test_bisection_stops_at_the_spacing_of_doubles():
    # a tolerance below the spacing of doubles near the edge used to spin
    # forever once the midpoint rounded onto an endpoint
    calls = []

    def stub(beta, k):
        calls.append(beta)
        return beta < 0.37

    got = _bisect_threshold(stub, 1e-300)
    assert len(calls) <= 60
    assert got < 0.37 <= np.nextafter(got, 1.0)


def test_bisection_never_probes_beta_one():
    calls = []

    def always_stable(beta, k):
        calls.append(beta)
        return True

    got = _bisect_threshold(always_stable, 1e-300)
    assert max(calls) < 1.0 and got == max(calls)
    assert np.nextafter(got, 1.0) == 1.0
    assert len(calls) <= 60


def test_observed_threshold_uses_the_module_predicate(monkeypatch):
    calls = []

    def stub(lam, gamma, beta, cfg, row_index=0, probe_index=0):
        calls.append((beta, probe_index))
        return beta < 0.37

    monkeypatch.setattr(sweeps, "is_stable", stub)
    got = _observed_threshold(1.0, 1.0, small_cfg(), 0)
    assert abs(got - 0.37) <= 1e-3
    # probe indices advance so stochastic probes would be independent
    assert [k for _, k in calls] == list(range(len(calls)))


def test_is_stable_known_cases():
    cfg = small_cfg()
    assert is_stable(1.0, 1.0, 0.5, cfg)
    assert not is_stable(1.08, 1.0, 0.999, cfg)


def test_measure_vmax_golden_zero_input():
    # beta = 0 at unit gains rides the period-four cycle, so sup|v| = 1
    got = measure_vmax(1.0, 1.0, 0.0, small_cfg())
    assert got == 1.0
    assert got <= 3.0


def test_measure_vmax_stays_under_the_certified_bound():
    from sdlab.certificates import thm1_certificate

    cert = thm1_certificate(0.5, 1.01)
    got = measure_vmax(1.01, cert.gamma, cert.beta, small_cfg())
    assert got <= cert.v_max_bound
    assert cert.v_max_bound == 6.0625


def test_measure_vmax_is_monotone_in_the_iteration_budget():
    lo = measure_vmax(1.0, 1.0, 0.9, small_cfg(max_iters=10**4))
    hi = measure_vmax(1.0, 1.0, 0.9, small_cfg(max_iters=10**5))
    assert lo <= hi


def test_probes_refuse_arguments_outside_their_domain():
    cfg = small_cfg()
    for probe in (is_stable, measure_vmax):
        for lam, gamma, beta in ((0.9, 1.0, 0.5), (1.0, 0.0, 0.5),
                                 (np.nan, 1.0, 0.5), (1.0, np.nan, 0.5),
                                 (1.0, 1.0, 1.0), (1.0, 1.0, -0.1)):
            with pytest.raises(InvalidInputError):
                probe(lam, gamma, beta, cfg)


def test_measure_vmax_raises_on_divergence():
    with pytest.raises(DivergenceError) as exc:
        measure_vmax(1.3, 1.0, 0.99, small_cfg())
    assert exc.value.step >= 1


def test_gamma_resolution_modes():
    # every row starts from thm1's certificate at the best alpha, or None
    cfg = small_cfg()
    cert = _certified(1.01, cfg)
    assert cert.alpha == pytest.approx(0.7522013143304804, rel=1e-9)
    assert cert.gamma == pytest.approx((1 - cert.alpha) / (1 + cert.alpha),
                                       rel=1e-12)
    assert cert.beta == pytest.approx(0.535104722043692, rel=1e-12)
    # the same bits as the best beta over alpha
    assert (cert.beta, cert.alpha) == sweeps.max_beta_theoretical(1.01)
    assert _certified(1.2, cfg) is None
    # past the cutoff fig2 falls back to the unit coupling
    cfg = small_cfg(lambda_grid=np.array([1.2]), max_iters=100)
    assert run_fig2(cfg)[0]["gamma_mode"] == "gamma1-fallback"
    assert run_fig3(cfg)[0]["gamma_mode"] == "gamma1"


def test_fig1_rows_golden():
    rows = run_fig1(SweepConfig(lambda_grid=np.array([1.0, 1.01, 1.09])))
    assert rows[0] == {"lambda": 1.0, "beta_max": 0.99, "alpha_star": 0.99}
    assert rows[1]["beta_max"] == pytest.approx(0.535104722043692, rel=1e-12)
    assert rows[1]["alpha_star"] == pytest.approx(0.7522013143304804, rel=1e-9)
    # past the cutoff no alpha works: zero bound, undefined maximizer
    assert rows[2]["beta_max"] == 0.0
    assert rows[2]["alpha_star"] is None or np.isnan(rows[2]["alpha_star"])


def test_fig2_row_golden_and_dominance():
    row = run_fig2(small_cfg())[0]
    assert row["lambda"] == 1.0
    assert row["beta_theoretical"] == 0.99
    assert row["beta_observed"] == 0.9970703125
    assert row["gamma_mode"] == "thm1"
    assert row["alpha_used"] == 0.99
    assert row["beta_observed"] >= row["beta_theoretical"] - 1e-3


def test_fig3_reports_the_unit_multiplier_mode():
    rows = run_fig3(SweepConfig(lambda_grid=np.array([1.0, 1.2]), max_iters=10**5))
    assert rows[0]["gamma_mode"] == "gamma1"
    assert rows[0]["alpha_used"] is None
    assert rows[0]["beta_observed"] == 0.9970703125
    # no certificate exists at 1.2; the theory column goes empty, the
    # observation column still reports the measured threshold
    assert rows[1]["beta_theoretical"] is None
    assert rows[1]["beta_observed"] == 0.0


def test_fig4_covers_both_multiplier_columns():
    rows = run_fig4(SweepConfig(lambda_grid=np.array([1.0, 1.2]), max_iters=10**5))
    r0 = rows[0]
    assert r0["vmax_theoretical"] == pytest.approx(398.00125, rel=1e-9)
    assert r0["vmax_empirical_thm1gamma"] == 679.6669921875
    assert r0["vmax_empirical_gamma1"] == 679.6669921875
    r1 = rows[1]
    assert r1["vmax_theoretical"] is None
    assert r1["vmax_empirical_thm1gamma"] is None
    assert r1["vmax_empirical_gamma1"] is not None


def test_vmax_at_certified_beta_never_exceeds_the_bound():
    rows = vmax_at_theoretical(SweepConfig(lambda_grid=np.array([1.0, 1.03]),
                                           max_iters=10**5))
    for r in rows:
        assert r["ratio"] == r["vmax_measured"] / r["vmax_theoretical"]
        assert r["ratio"] <= 1.0


def test_sweep_rows_are_byte_reproducible():
    cfg = small_cfg(input_mode="random-uniform", lambda_grid=np.array([1.0, 1.02]))
    assert run_fig2(cfg) == run_fig2(cfg)


def test_sweep_rows_do_not_depend_on_worker_count():
    grid = np.array([1.0, 1.01, 1.02])
    a = run_fig2(small_cfg(lambda_grid=grid, workers=1))
    b = run_fig2(small_cfg(lambda_grid=grid, workers=3))
    assert a == b
    a = run_fig4(small_cfg(lambda_grid=grid, input_mode="random-uniform", workers=1))
    b = run_fig4(small_cfg(lambda_grid=grid, input_mode="random-uniform", workers=4))
    assert a == b


@pytest.mark.parametrize("workers", [0, -3, True, 2.5])
def test_a_worker_count_that_is_not_a_positive_int_is_refused(workers, monkeypatch):
    # refused before any row runs
    monkeypatch.setattr(sweeps, "_certified", None)
    for run_fig in (run_fig1, run_fig2, run_fig4):
        with pytest.raises(InvalidInputError, match="workers"):
            run_fig(SweepConfig(workers=workers))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SweepConfig(lambda_grid=np.array([]))
    with pytest.raises(InvalidInputError):
        SweepConfig(lambda_grid=np.array([0.9]))
    with pytest.raises(InvalidInputError):
        SweepConfig(bisect_tol=0.0)
    with pytest.raises(InvalidInputError):
        SweepConfig(divergence_bound=5.0)
    with pytest.raises(InvalidInputError):
        SweepConfig(alpha_cap=1.0)
    with pytest.raises(InvalidInputError):
        SweepConfig(input_mode="impulse")
    with pytest.raises(TypeError):  # the coupling is an argument of each sweep
        SweepConfig(gamma_mode="thm1")
    with pytest.raises(InvalidInputError):  # the C loop counts in a long long
        SweepConfig(max_iters=2**63)
    assert SweepConfig(max_iters=2**63 - 1).max_iters == 2**63 - 1


needs_gcc = pytest.mark.skipif(shutil.which(_kernels._CC[0]) is None,
                               reason="no C compiler on PATH")


@needs_gcc
def test_random_probes_do_not_depend_on_the_backend(monkeypatch):
    # the C loop draws each probe's stream itself, the Python loop with numpy
    cfg = small_cfg(input_mode="random-uniform", max_iters=4000)
    cases = [(1.0, 0.99, 0.9), (1.05, 0.8, 0.5), (1.2, 1.0, 0.95), (1.12, 0.6, 0.3)]

    def results():
        return [(is_stable(lam, g, b, cfg, row_index=3, probe_index=7),
                 _vmax_or_divergence(lam, g, b, cfg)) for lam, g, b in cases]

    monkeypatch.setattr(_kernels, "_chosen", _kernels._load_c())
    ran = results()
    assert {r[0] for r in ran} == {True, False}
    monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    assert results() == ran


def _vmax_or_divergence(lam, gamma, beta, cfg):
    try:
        return measure_vmax(lam, gamma, beta, cfg, row_index=2)
    except DivergenceError as e:
        return "diverged", e.step


@needs_gcc
def test_a_random_probe_holds_no_input_array(monkeypatch):
    # 10^6 steps would take an 8 MB input array; the C loop draws in place
    monkeypatch.setattr(_kernels, "_chosen", _kernels._load_c())
    cfg = small_cfg(input_mode="random-uniform", max_iters=10**6)
    tracemalloc.start()
    try:
        assert is_stable(1.0, 0.99, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("max_iters", [1000.0, 2.5, True, "1000", None])
def test_a_max_iters_that_is_not_an_integer_is_refused(max_iters):
    # before, 1000.0 reached the C probe (ctypes ArgumentError) or range
    # (TypeError), and True ran a 1-step bisection
    with pytest.raises(InvalidInputError, match="max_iters"):
        SweepConfig(max_iters=max_iters, lambda_grid=[1.01])


def test_a_numpy_integer_max_iters_gives_the_int_table():
    want = run_fig2(small_cfg(lambda_grid=[1.01], max_iters=1000))
    for n in (np.int64(1000), np.uint16(1000)):
        assert run_fig2(small_cfg(lambda_grid=[1.01], max_iters=n)) == want
