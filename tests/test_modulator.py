"""Exact algebra and golden trajectories for the double-loop recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from sdlab import _kernels
from sdlab.errors import DivergenceError, InsufficientDataError, InvalidInputError, ResourceError
from sdlab.modulator import SchemeParams, residual_identity, run
from sdlab.region import step_region

gains = st.floats(min_value=1.0, max_value=1.2)
inputs = st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=3, max_size=64)


def test_zero_input_unit_gains_is_the_period_four_cycle():
    tr = run(SchemeParams(), 0.0, 12)
    assert tr.q.tolist() == [1, -1, -1, 1] * 3
    assert tr.u.tolist() == [-1.0, 0.0, 1.0, 0.0] * 3
    assert tr.v.tolist() == [-1.0, -1.0, 0.0, 0.0] * 3
    assert float(np.max(np.abs(tr.v))) == 1.0


def test_constant_input_first_steps_hand_computed():
    # f = 0.3 from (0, 0): q1 = +1, u1 = v1 = -0.7, then q2 = -1
    tr = run(SchemeParams(), 0.3, 3)
    assert tr.q[0] == 1
    assert tr.u[0] == pytest.approx(-0.7, abs=0)
    assert tr.v[0] == tr.u[0]
    assert tr.q[1] == -1
    assert tr.u[1] == pytest.approx(0.6)
    assert tr.v[1] == pytest.approx(-0.1)


def test_step_agrees_with_run_prefix():
    # run on the chosen backend against the plain-Python recursion kernel
    params = SchemeParams(lambda1=1.03, lambda2=1.01, gamma=0.7)
    f = np.linspace(-0.4, 0.4, 9)
    tr = run(params, f, f.size)
    q = np.empty(f.size, dtype=np.int64)
    u, v = np.empty(f.size), np.empty(f.size)
    at, _ = _kernels._recur(params.lambda1, params.lambda2, params.gamma,
                            0.0, f, 0.0, f.size,
                            _kernels.HARD_BOUND, _kernels.HARD_BOUND, q, u, v)
    assert at == -1
    assert tr.q.dtype == np.int64
    assert tr.q.tolist() == q.tolist()
    assert tr.u.tolist() == u.tolist()
    assert tr.v.tolist() == v.tolist()


@given(lam1=gains, lam2=gains, gamma=st.floats(min_value=0.05, max_value=3.0), f=inputs)
@settings(deadline=None)
def test_state_identity_u_equals_v_minus_lam2_v_prev(lam1, lam2, gamma, f):
    params = SchemeParams(lambda1=lam1, lambda2=lam2, gamma=gamma)
    try:
        tr = run(params, np.array(f), len(f))
    except DivergenceError:
        assume(False)
    v_prev = tr.v_with_origin()[:-1]
    scale = 1.0 + np.abs(tr.v) + lam2 * np.abs(v_prev)
    err = np.abs(tr.u - (tr.v - lam2 * v_prev)) / scale
    assert float(np.max(err)) < 1e-15


@given(lam1=gains, lam2=gains, gamma=st.floats(min_value=0.05, max_value=3.0), f=inputs)
@settings(deadline=None)
def test_residual_identity_near_zero_on_every_run(lam1, lam2, gamma, f):
    params = SchemeParams(lambda1=lam1, lambda2=lam2, gamma=gamma)
    try:
        tr = run(params, np.array(f), len(f))
    except DivergenceError:
        assume(False)
    scale = 1.0 + float(np.max(np.abs(tr.v)))
    assert residual_identity(tr) / scale < 1e-14


@given(
    u=st.floats(min_value=-10, max_value=10),
    v=st.floats(min_value=-10, max_value=10),
    delta=st.floats(min_value=0.001, max_value=1.999),
    gamma=st.floats(min_value=0.05, max_value=3.0),
    lam=st.floats(min_value=1.0, max_value=1.2),
)
def test_sign_symmetry_of_one_step(u, v, delta, gamma, lam):
    # negating the state negates its image, away from the quantizer tie
    # at u + gamma v = 0 where Q(0) = +1 sends both points left
    assume(abs(u + gamma * v) > 1e-9)
    a = step_region(np.array([u]), np.array([v]), delta, gamma, lam)
    b = step_region(np.array([-u]), np.array([-v]), delta, gamma, lam)
    assert b[0].tolist() == (-a[0]).tolist()
    assert b[1].tolist() == (-a[1]).tolist()


def test_quantizer_sign_convention_at_zero():
    # f = (0.75, -0.75) leads to u = 0 exactly and v = -0.25, so the third
    # quantizer input is gamma * v: 0 at step 1, then exactly -1e-300
    # the default dead band 0 is the sign quantizer
    assert SchemeParams().deadband == 0.0
    tr = run(SchemeParams(gamma=4e-300), [0.75, -0.75, 0.0], 3)
    assert tr.q.tolist() == [1, -1, -1]
    assert (tr.u[1], tr.v[1]) == (0.0, -0.25)
    assert run(SchemeParams(), 0.0, 1).q.tolist() == [1]


def test_trilevel_deadband_and_tie_resolution():
    # the first input 0 is in the dead band, so u = v = f1 and, with
    # gamma = 1, the second quantizer input is 2 * f1, exact at +-0.5
    params = SchemeParams(gamma=1.0, deadband=0.5)
    for f1, want in ((0.245, 0), (-0.245, 0), (0.25, 1), (-0.25, -1)):
        tr = run(params, [f1, 0.0], 2)
        assert tr.q[0] == 0
        assert tr.u[0] == tr.v[0] == f1
        assert tr.q[1] == want, f1


def test_trilevel_run_emits_zeros_for_small_input():
    tr = run(SchemeParams(deadband=0.5), 0.01, 50)
    assert set(np.unique(tr.q)) <= {-1, 0, 1}
    assert np.any(tr.q == 0)


def test_quantizer_rejects_non_finite_input_and_bad_deadbands():
    with pytest.raises(InvalidInputError):
        run(SchemeParams(), [math.nan], 1)
    for bad in (-0.1, -math.inf, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="deadband"):
            SchemeParams(deadband=bad)


def test_history_too_large_to_allocate_is_a_resource_error():
    # 10**14 steps need 728 TiB per array, so the allocation fails at once
    with pytest.raises(ResourceError):
        run(SchemeParams(), 0.3, 10**14)


def test_param_validation():
    with pytest.raises(InvalidInputError):
        SchemeParams(lambda1=0.99)
    with pytest.raises(InvalidInputError):
        SchemeParams(lambda2=0.5)
    with pytest.raises(InvalidInputError):
        SchemeParams(gamma=0.0)
    with pytest.raises(InvalidInputError):
        SchemeParams(lambda1=math.inf)


def test_run_input_contract():
    with pytest.raises(InvalidInputError):
        run(SchemeParams(), [0.1, 0.2], 5)  # too short
    with pytest.raises(InvalidInputError):
        run(SchemeParams(), (0.1 for _ in range(4)), 5)  # a short generator
    with pytest.raises(InvalidInputError):
        run(SchemeParams(), np.array([0.1, math.nan, 0.2]), 3)
    with pytest.raises(InvalidInputError):
        run(SchemeParams(), 0.0, -1)
    tr = run(SchemeParams(), 0.0, 0)
    assert tr.n_steps == 0
    assert tr.v_with_origin().tolist() == [0.0]


def test_run_accepts_generators_and_extra_long_arrays():
    tr_gen = run(SchemeParams(), (0.1 for _ in range(8)), 8)
    tr_arr = run(SchemeParams(), np.full(20, 0.1), 8)
    assert np.array_equal(tr_gen.v, tr_arr.v)


def test_divergence_reports_step_and_partial_history():
    params = SchemeParams(lambda1=5.0, lambda2=5.0)
    with pytest.raises(DivergenceError) as exc:
        run(params, 0.0, 1000)
    err = exc.value
    assert err.step < 100
    assert err.trajectory is not None
    assert err.trajectory.n_steps == err.step
    assert err.trajectory.q.dtype == np.int64
    assert math.isfinite(err.u) and math.isfinite(err.v)


def test_residual_identity_needs_three_steps():
    tr = run(SchemeParams(), 0.0, 2)
    with pytest.raises(InsufficientDataError):
        residual_identity(tr)


def test_million_step_run_stays_fast():
    import time

    t0 = time.monotonic()
    tr = run(SchemeParams(), 0.3, 10**6)
    elapsed = time.monotonic() - t0
    assert tr.n_steps == 10**6
    assert elapsed < 5.0
