"""Sample -> quantize -> reconstruct plumbing and its accuracy invariants."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.errors import CoverageError, InsufficientDataError, InvalidInputError
from sdlab.modulator import SchemeParams, run
from sdlab.pipeline import (
    _eval_grid_default,
    _reconstruct_polyphase,
    error_curve,
    first_order_quantize,
    gen_signal,
    order_fit,
    perfect_sample_error,
    reconstruct,
    reconstruction_error_of,
    sampling_plan,
    sup_error,
)


def test_gen_signal_normalizes_to_just_under_beta():
    sig = gen_signal(seed=4, n_components=6, beta=0.5)
    t = np.arange(0.0, 272.0, 1.0 / 2048.0)
    peak = float(np.max(np.abs(sig.eval(t))))
    assert peak <= 0.5
    assert peak >= 0.5 * (1.0 - 1e-3) * (1.0 - 1e-12)
    assert sig.freqs.size == 6
    assert np.all(sig.freqs <= 0.45)
    assert sig.sup_bound == 0.5


def test_gen_signal_is_seed_deterministic():
    a = gen_signal(seed=4, n_components=6, beta=0.5)
    b = gen_signal(seed=4, n_components=6, beta=0.5)
    c = gen_signal(seed=5, n_components=6, beta=0.5)
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.phases, c.phases)


def test_gen_signal_validation():
    with pytest.raises(InvalidInputError):
        gen_signal(seed=1, n_components=4, beta=0.0)
    with pytest.raises(InvalidInputError):
        gen_signal(seed=1, n_components=4, beta=1.0)
    with pytest.raises(InvalidInputError):
        gen_signal(seed=1, n_components=-1, beta=0.5)


def test_signal_eval_scalar_matches_vector():
    sig = gen_signal(seed=9, n_components=3, beta=0.4)
    t = np.array([0.0, 1.5, 17.2])
    vec = sig.eval(t)
    for i, ti in enumerate(t):
        assert vec[i] == sig.eval(float(ti))


def test_sampling_plan_margins(filt_fast):
    plan = sampling_plan(32.0, filt_fast)
    L = 4.0 * (filt_fast.W + 1.0)
    assert plan.window == (0.0, L)
    assert plan.n_samples == int(round(L * 32.0))
    # central half plus kernel width stays inside the sampled range
    assert L / 4.0 - filt_fast.W >= 1.0 / 32.0


@given(a=st.floats(min_value=-2, max_value=2), b=st.floats(min_value=-2, max_value=2))
@settings(deadline=None, max_examples=20)
def test_reconstruction_is_linear_in_the_samples(filt_fast, a, b):
    plan = sampling_plan(24.0, filt_fast)
    rng = np.random.default_rng(11)
    q1 = rng.choice([-1.0, 1.0], plan.n_samples)
    q2 = rng.choice([-1.0, 1.0], plan.n_samples)
    t = np.linspace(plan.window[1] / 4.0, 3.0 * plan.window[1] / 4.0, 7)
    lhs = reconstruct(a * q1 + b * q2, 24.0, filt_fast, t)
    rhs = a * reconstruct(q1, 24.0, filt_fast, t) + b * reconstruct(q2, 24.0, filt_fast, t)
    scale = float(np.max(np.abs(rhs))) + 1.0
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_polyphase_matches_direct_summation(filt_fast):
    T = 24.0
    plan = sampling_plan(T, filt_fast)
    rng = np.random.default_rng(7)
    q = rng.choice([-1.0, 1.0], plan.n_samples)
    grid, fast = _reconstruct_polyphase(q, plan, filt_fast)
    assert np.array_equal(grid, _eval_grid_default(plan))
    pick = np.linspace(0, grid.size - 1, 25).astype(int)
    slow = reconstruct(q, T, filt_fast, grid[pick])
    # the two paths may disagree on which side of the truncation edge an
    # argument within rounding of |t - n/T| = W falls; each straddle
    # contributes at most |g(W)|/T, so that sets the comparison scale
    edge = abs(filt_fast.g_tab[-1]) / T
    assert np.max(np.abs(fast[pick] - slow)) <= 8.0 * edge


def _polyphase_full_mode(values, plan, filt):
    """Oracle: every phase as a full-mode convolve, read at m - 1 + J."""
    T = plan.T
    L = plan.window[1]
    step16 = 1.0 / (16 * T)
    c_lo = math.ceil(L / 4.0 / step16)
    c_hi = math.floor(3.0 * L / 4.0 / step16)
    c = np.arange(c_lo, c_hi + 1)
    grid = c * step16
    out = np.empty(c.size)
    J = math.ceil(filt.W * T) + 1
    k = np.arange(2 * J + 1)
    for p in range(16):
        sel = np.nonzero(c % 16 == p)[0]
        if sel.size == 0:
            continue
        taps = filt.g(((k - J) * 16 + p) / (16 * T))
        conv = np.convolve(values, taps)
        m = c[sel] // 16
        out[sel] = conv[m - 1 + J] / T
    return grid, out


@pytest.mark.parametrize("T", [1.1, 1.15, 1.5, 2.0, 2.5, 3.0, 7.3, 32.0, 256.0])
def test_polyphase_is_bit_identical_to_full_mode_convolution(filt_default, T):
    # rates up to 2.5 leave some phases' windows outside the samples, so
    # they run the full-mode fallback; from 3 on every phase is "valid";
    # at 1.15 two phases' windows span exactly samples 0..N-1
    plan = sampling_plan(T, filt_default)
    rng = np.random.default_rng(int(T * 10))
    for q in (rng.choice([-1.0, 1.0], plan.n_samples),
              rng.normal(0.0, 0.5, plan.n_samples)):
        grid, fast = _reconstruct_polyphase(q, plan, filt_default)
        want_grid, want = _polyphase_full_mode(q, plan, filt_default)
        assert grid.tobytes() == want_grid.tobytes()
        assert fast.tobytes() == want.tobytes()


def test_reconstruct_rejects_uncovered_times(filt_fast):
    plan = sampling_plan(16.0, filt_fast)
    q = np.ones(plan.n_samples)
    with pytest.raises(CoverageError):
        reconstruct(q, 16.0, filt_fast, 0.0)
    with pytest.raises(CoverageError):
        reconstruct(q, 16.0, filt_fast, plan.window[1])
    mid = 0.5 * plan.window[1]
    assert math.isfinite(reconstruct(q, 16.0, filt_fast, mid))


def test_reconstruct_input_contracts(filt_fast):
    with pytest.raises(InvalidInputError):
        reconstruct(np.empty(0), 16.0, filt_fast, 1.0)
    with pytest.raises(InvalidInputError):
        reconstruct(np.ones(100), 1.0, filt_fast, 1.0)
    with pytest.raises(InvalidInputError):
        reconstruction_error_of(np.ones(3), gen_signal(1, 2, 0.5), 16.0, filt_fast)


def test_double_loop_error_shrinks_fast_with_rate(filt_default):
    sig = gen_signal(seed=4, n_components=6, beta=0.5)
    e32 = sup_error(sig, SchemeParams(), 32.0, filt_default)
    e64 = sup_error(sig, SchemeParams(), 64.0, filt_default)
    assert e64 < e32 / 3.0


def test_quantized_error_sits_well_above_the_perfect_sample_floor(filt_default):
    sig = gen_signal(seed=4, n_components=6, beta=0.5)
    e_quant = sup_error(sig, SchemeParams(), 64.0, filt_default)
    e_floor = perfect_sample_error(sig, 64.0, filt_default)
    assert e_floor > 0.0
    assert e_quant >= 10.0 * e_floor


def test_single_loop_converges_at_first_order(filt_default):
    sig = gen_signal(seed=4, n_components=6, beta=0.5)
    rows = []
    for T in (32.0, 64.0, 128.0, 256.0):
        plan = sampling_plan(T, filt_default)
        samples = sig.eval(plan.times())
        q = first_order_quantize(samples)
        rows.append((T, reconstruction_error_of(q, sig, T, filt_default)))
    slope = order_fit(rows)
    assert slope <= -0.9


def test_first_order_quantizer_tracks_the_running_sum():
    samples = np.array([0.3, 0.3, 0.3, -0.8, -0.8])
    q = first_order_quantize(samples)
    assert q.tolist() == [1, -1, 1, -1, -1]
    u = 0.0
    for i, f in enumerate(samples):
        u += f - q[i]
        assert abs(u) <= 1.0 + abs(f)


def test_first_order_quantizer_output_is_pinned():
    # pinned sha256 of the int64 output: the update order (u + f) - q
    # decides every sign, so a reordered loop changes the hash
    samples = np.random.default_rng(12345).uniform(-0.9, 0.9, 10**5)
    q = first_order_quantize(samples)
    assert q.dtype == np.int64
    assert hashlib.sha256(q.tobytes()).hexdigest() == (
        "779e790c42e63be8aea513903607157c3b7a887cb1e89af6968eae306c71c7f0")


def test_error_curve_rows_and_bound_column(filt_fast):
    sig = gen_signal(seed=4, n_components=4, beta=0.5)
    rows = error_curve(sig, SchemeParams(), [16.0, 24.0], filt_fast)
    assert [r["T"] for r in rows] == [16.0, 24.0]
    for r in rows:
        assert set(r) == {"T", "sup_error", "bound"}
        assert r["sup_error"] > 0.0
        assert r["bound"] > 0.0
    # rate-coupled family: callable params see the right T
    seen = []
    rows = error_curve(sig, lambda T: (seen.append(T), SchemeParams())[1],
                       [16.0, 24.0], filt_fast)
    assert seen == [16.0, 24.0]


def test_order_fit_recovers_an_exact_power_law():
    rows = [(T, 5.0 * T ** -2.0) for T in (8.0, 16.0, 32.0, 64.0)]
    assert order_fit(rows) == pytest.approx(-2.0, abs=1e-12)
    as_dicts = [{"T": T, "sup_error": e, "bound": 0.0} for T, e in rows]
    assert order_fit(as_dicts) == pytest.approx(-2.0, abs=1e-12)


def test_order_fit_drops_unusable_points():
    rows = [(8.0, 1.0), (16.0, 0.0), (32.0, 0.5), (64.0, 0.25)]
    usable = [rows[0], rows[2], rows[3]]
    assert order_fit(rows) == order_fit(usable)
    with pytest.raises(InsufficientDataError):
        order_fit([(8.0, 1.0), (16.0, 0.0), (32.0, 0.5)])
