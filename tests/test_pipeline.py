"""Sample -> quantize -> reconstruct plumbing and its accuracy invariants."""

import contextlib
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import _kernels, pipeline
from sdlab._kernels import _first_half, _valid_convolve
from sdlab.cli import main
from sdlab.errors import InsufficientDataError, InvalidInputError, ResourceError
from sdlab.modulator import SchemeParams, run
from sdlab.filters import design_filter
from sdlab.pipeline import (
    _grid_indices,
    _reconstruct_polyphase,
    _screen,
    error_curve,
    first_order_quantize,
    gen_signal,
    order_fit,
    perfect_sample_error,
    reconstruction_error_of,
    sampling_plan,
    sup_error,
)


class CoverageError(ValueError):
    """The oracle's refusal of a time whose kernel window is not sampled."""


def reconstruct(q, T, filt, t):
    """Kernel reconstruction (1/T) * sum_n q_n g(t - n/T) at time(s) t, by
    direct summation: the oracle for the polyphase path.

    q[i] is the sample taken at time (i+1)/T.  Every evaluation point
    must have its kernel window [t - W, t + W] inside the sampled range,
    otherwise a CoverageError is raised.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise InvalidInputError("q must be a nonempty 1-D sequence")
    if not T > 1.0:
        raise InvalidInputError(f"oversampling rate must exceed 1, got {T!r}")
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    tt = np.atleast_1d(t)
    N = q.size
    out = np.empty(tt.shape)
    for i, ti in enumerate(tt):
        n_lo = math.ceil((ti - filt.W) * T)
        n_hi = math.floor((ti + filt.W) * T)
        if n_lo < 1 or n_hi > N:
            raise CoverageError(
                f"evaluation at t={ti!r} needs samples n in [{n_lo}, {n_hi}] "
                f"but only 1..{N} are available"
            )
        n = np.arange(n_lo, n_hi + 1)
        out[i] = (q[n - 1] @ filt.g(ti - n / T)) / T
    return float(out[0]) if scalar else out


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


@pytest.mark.parametrize("T", [1e300, 1.7e308])
def test_sampling_plan_refuses_more_samples_than_an_array_holds(filt_fast, T):
    with pytest.raises(ResourceError, match="more than one array can hold"):
        sampling_plan(T, filt_fast)


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
    c_lo, c_hi, step16 = _grid_indices(plan)
    assert np.array_equal(grid, np.arange(c_lo, c_hi + 1) * step16)
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


@contextlib.contextmanager
def _blas_on_two_threads():
    """numpy's OpenBLAS on two threads inside the block, where it exposes
    a thread-count setter; otherwise at the count it has."""
    setter = _kernels._find_blas_setter()
    saved = setter(2) if setter is not None else None
    try:
        yield
    finally:
        if setter is not None:
            setter(saved)


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
        # the code sums long dots as OpenBLAS does on two threads; so must
        # the oracle, whose 13,789-tap dots at T = 256 it would thread
        with _blas_on_two_threads():
            want_grid, want = _polyphase_full_mode(q, plan, filt_default)
        assert grid.tobytes() == want_grid.tobytes()
        assert fast.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_taps", [6_895, 10_000, 10_001, 13_789, 20_000, 20_001])
def test_long_dots_are_split_into_two_single_thread_halves(n_taps):
    rng = np.random.default_rng(n_taps)
    taps = rng.normal(size=n_taps)
    window = rng.normal(size=n_taps + 6)
    got = _valid_convolve(window, taps)
    if n_taps <= 10_000:
        assert got.tobytes() == np.convolve(window, taps, mode="valid").tobytes()
        return
    # OpenBLAS's two-thread ddot: the first ceil(n/2) terms, then the rest,
    # each summed on one thread (above 20,000 taps a half would thread)
    h = -(-n_taps // 2)
    rev = np.ascontiguousarray(taps[::-1])
    with _kernels.one_blas_thread():
        want = [(0.0 + np.dot(window[i:i + h], rev[:h]))
                + np.dot(window[i + h:i + n_taps], rev[h:]) for i in range(7)]
    assert got.tobytes() == np.array(want).tobytes()
    if _kernels._find_blas_setter() is not None:  # np.convolve on two threads
        with _blas_on_two_threads():
            two = np.convolve(window, taps, mode="valid")
        assert got.tobytes() == two.tobytes()


@pytest.mark.parametrize("n_taps", [1_727, 6_895, 10_000, 10_001, 13_789])
def test_c_correlation_gives_the_bits_of_valid_convolve(n_taps):
    rng = np.random.default_rng(n_taps)
    taps = rng.normal(size=n_taps)
    values = rng.normal(size=n_taps + 40)
    if _kernels.BACKEND != "c":
        pytest.skip("no C loop: phases run _valid_convolve")
    correlate = _kernels.correlator(values)
    n_out = 25
    for start in range(8, 16):  # every window start mod 8
        out = np.full(3 * n_out, 7.0)
        correlate(start, taps[::-1], out[1::3])
        want = _valid_convolve(values[start:start + n_taps - 1 + n_out], taps)
        assert out[1::3].tobytes() == want.tobytes(), start
        assert np.all(out[0::3] == 7.0) and np.all(out[2::3] == 7.0)
    with pytest.raises(IndexError):  # one output past the last sample
        correlate(17, taps[::-1], np.empty(n_out))


def _openblas_corename():
    """The kernel family numpy's OpenBLAS picked, or None."""
    import ctypes

    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    with contextlib.suppress(AttributeError, OSError):
        fn = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return None


def test_c_dots_are_numpys_skylakex_ddot():
    # the C loop replicates OpenBLAS's one-thread SkylakeX ddot order; on
    # that kernel every length up to past two halves' 10,000 must match
    if _openblas_corename() != "SkylakeX":
        pytest.skip("numpy's OpenBLAS does not run its SkylakeX kernels here")
    rng = np.random.default_rng(26)
    values = rng.normal(size=20_001 + 48)
    taps = rng.normal(size=20_001)
    one_piece = _correlation_paths()["sdlab_correlate"]  # split = n past 10,000
    correlate = _kernels.correlator(values)
    bad = []
    with _kernels.one_blas_thread():
        for n in range(1, 20_002):
            # 1 to 6 outputs, and 33 to 38 at every 4th n
            start, n_out = n % 8, 1 + n % 6 + 32 * (n % 4 == 0)
            out = np.empty(n_out)
            if n == _first_half(n):
                correlate(start, taps[:n], out)
            else:
                one_piece(values.ctypes.data, start, taps.ctypes.data, n, n,
                          n_out, out.ctypes.data, 1)
            # np.dot is 0.0 + ddot; np.correlate has its own loop below 12 taps
            want = [np.dot(values[start + j:start + j + n], taps[:n])
                    for j in range(n_out)]
            if out.tobytes() != np.array(want).tobytes():
                bad.append(n)
    assert bad == []


def _correlation_paths():
    """The C correlation's exported paths this CPU can run, by name."""
    import ctypes

    if _kernels.BACKEND != "c":
        pytest.skip("no C loop")
    lib = ctypes.CDLL(_kernels._library_path())
    names = ["sdlab_correlate", "sdlab_correlate_c",
             "sdlab_correlate_avx2"][:2 + lib.sdlab_simd()]
    p, ll = ctypes.c_void_p, ctypes.c_longlong
    paths = {}
    for name in names:
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = [p, ll, p, ll, ll, ll, p, ll], None
        paths[name] = fn
    return paths


def test_every_correlation_path_gives_the_same_bits():
    # the AVX2 and portable fma() paths, each through its own symbol, over
    # every n mod 32 and mod 16 remainder, n < 16, several n_out, and
    # one-piece and two-piece dots
    paths = _correlation_paths()
    rng = np.random.default_rng(5)
    values = rng.normal(size=2_100) * np.exp(rng.normal(0.0, 4.0, 2_100))
    taps = rng.normal(size=1_900)
    sizes = [*range(1, 70), 95, 96, 97, 111, 112, 113, 1_000, 1_777]
    for n in sizes:
        for n_out in (1, 2, 3, 4, 5, 6, 7, 9, 32, 33, 35, 38, 70):
            for split in {n, -(-n // 2), max(1, n // 3)}:
                outs = {}
                for name, fn in paths.items():
                    out = np.full(2 * n_out, 7.0)
                    fn(values.ctypes.data, n % 8, taps.ctypes.data, n, split,
                       n_out, out.ctypes.data, 2)
                    assert np.all(out[1::2] == 7.0)
                    outs[name] = out[0::2].tobytes()
                assert len(set(outs.values())) == 1, (n, n_out, split, outs)


def test_polyphase_without_the_c_correlation_takes_the_numpy_path(
        filt_default, monkeypatch):
    # a W = 2 filter has 9 taps per phase at T = 1.5 and 11 at T = 2, which
    # np.correlate would sum in its own loop; 8 of its phases at T = 1.5
    # reach past the samples and take the full convolve on both backends
    short = design_filter(T0=4.0, trunc_tol=0.1)
    calls = []
    numpy_path = _kernels._valid_convolve
    monkeypatch.setattr(_kernels, "_valid_convolve",
                        lambda window, taps: calls.append(taps.size)
                        or numpy_path(window, taps))
    # one piece per dot, two pieces, and short phases
    for filt, T, phases in ((filt_default, 32.0, 16), (filt_default, 256.0, 16),
                            (short, 1.5, 8), (short, 2.0, 16)):
        plan = sampling_plan(T, filt)
        q = np.random.default_rng(3).normal(0.0, 0.5, plan.n_samples)
        want = _reconstruct_polyphase(q, plan, filt)[1].tobytes()
        assert (calls == []) == (_kernels.BACKEND == "c")
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_chosen", _kernels._PYTHON)
            got = _reconstruct_polyphase(q, plan, filt)[1]
        assert got.tobytes() == want, T
        assert len(calls) == phases, T
        calls.clear()


def test_reconstruct_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # T = 256 has 13,789 taps per dot, which OpenBLAS would thread
    argv = ["reconstruct", "--beta", "0.5", "--seed", "1"]
    dest = tmp_path / "in-process.csv"
    assert main(argv + ["--out", str(dest)]) == 0
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "sdlab.cli", *argv],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == dest.read_bytes(), f"OPENBLAS_NUM_THREADS={threads}"


def test_worker_count_does_not_change_curves_or_designs(filt_default, monkeypatch):
    sig = gen_signal(seed=2, n_components=8, beta=0.5)
    results = []
    for cores in (1, 4):
        monkeypatch.setattr(_kernels, "cores", lambda: cores)
        f = design_filter(trunc_tol=1e-4)
        tables = [getattr(f, name).tobytes()
                  for name in ("t_tab", "g_tab", "g1_tab", "g2_tab")]
        rows = error_curve(sig, SchemeParams(), [32.0, 256.0], filt_default)
        results.append((repr(f), tables, rows))
    assert results[0] == results[1]


def test_signal_eval_blocks_cover_every_point(monkeypatch):
    # blocks smaller than the input, and an input not a multiple of them
    sig = gen_signal(seed=6, n_components=5, beta=0.5)
    t = np.linspace(-3.0, 40.0, 1000)
    whole = sig.eval(t)
    monkeypatch.setattr(pipeline, "_EVAL_ROWS", 64)
    assert sig.eval(t).tobytes() == whole.tobytes()


def test_reconstruct_memory_stays_bounded():
    # the design's phase blocks and the signal's eval blocks are per
    # worker (4 MiB each for the design), so with two workers a run's peak
    # RSS sits close to the imported interpreter's, on any host
    pytest.importorskip("resource")
    code = ("import os, resource\n"
            "import sdlab.cli, scipy.interpolate\n"
            "sdlab._kernels.cores = lambda: 2\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert sdlab.cli.main(['reconstruct', '--beta', '0.5', '--rates',\n"
            "                       '32,64,128,256', '--seed', '1',\n"
            "                       '--out', os.devnull]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    grew = int(proc.stdout.split()[-1]) * unit / 2**20
    assert grew <= 30.0, f"peak RSS {grew:.1f} MB above the imported interpreter"


def _full_path_error(values, signal, T, filt):
    """max|s - rec| over every grid point, every dot summed exactly."""
    plan = sampling_plan(T, filt)
    grid, rec = _reconstruct_polyphase(np.asarray(values, dtype=np.float64), plan, filt)
    return float(np.max(np.abs(signal.eval(grid) - rec)))


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _scheme(chaotic, T):
    return SchemeParams(1.0 + 1.0 / T, 1.0 + 1.0 / T, 0.5) if chaotic else SchemeParams()


@pytest.mark.parametrize("backend", ["c", "python"])
def test_screened_error_is_the_full_paths_bit_for_bit(filt_default, monkeypatch, backend):
    # quantized streams of two seeds, plain and (where gains 1 + 1/T stay
    # stable) chaotic, and exact samples; rates 1.5 and 2.5 reach past the
    # samples and take the full path
    if backend == "python":
        monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    elif _kernels.BACKEND != "c":
        pytest.skip("no C loop")
    cases = []
    for seed in (0, 7):
        sig = gen_signal(seed, 8, 0.5)
        for T in (1.5, 2.5, 32.0, 64.0, 128.0, 256.0):
            plan = sampling_plan(T, filt_default)
            samples = sig.eval(plan.times())
            cases += [(sig, T, run(_scheme(chaotic, T), samples, plan.n_samples).q)
                      for chaotic in (False, True)[:1 + (T >= 32.0)]]
            if T <= 64.0:
                cases.append((sig, T, samples))
    for sig, T, values in cases:
        want = _full_path_error(values, sig, T, filt_default)
        for cores in (1, 2, None):
            with monkeypatch.context() as m:
                if cores is not None:
                    m.setattr(_kernels, "cores", lambda: cores)
                got = reconstruction_error_of(values, sig, T, filt_default)
            assert _same_float(got, want), (T, cores, got, want)


@pytest.mark.parametrize("chaotic", [False, True])
def test_fft_screen_sits_far_inside_its_bound(filt_default, chaotic):
    # the benchmark's inputs: against the exact reconstruction as s, the
    # screen's err is |approx - exact|, which must stay under delta/1000;
    # against the signal, few points may hold the maximum
    sig = gen_signal(1, 8, 0.5)
    for T in (32.0, 64.0, 128.0, 256.0):
        plan = sampling_plan(T, filt_default)
        q = run(_scheme(chaotic, T), sig.eval(plan.times()), plan.n_samples).q.astype(float)
        grid, rec = _reconstruct_polyphase(q, plan, filt_default)
        _, _, top, delta = _screen(q, rec, plan, filt_default)
        assert top <= delta / 1000.0, (T, top, delta)
        err, _, top, delta = _screen(q, sig.eval(grid), plan, filt_default)
        assert 1 <= np.count_nonzero(err >= top - 2.0 * delta) <= 64, T


def test_short_dots_skip_the_screen(filt_default):
    # below _SCREEN_TAPS taps the full pass costs less than the FFTs
    for T, screened in ((24.0, False), (28.0, True), (32.0, True)):
        plan = sampling_plan(T, filt_default)
        J = pipeline._phases(plan, filt_default)[0]
        assert (2 * J + 1 >= pipeline._SCREEN_TAPS) == screened, T
        values = np.zeros(plan.n_samples)
        assert (_screen(values, _zero_grid(plan), plan, filt_default) is None) != screened


def _zero_grid(plan):
    c_lo, c_hi, _ = _grid_indices(plan)
    return np.zeros(c_hi - c_lo + 1)


def test_screen_takes_every_point_when_all_errors_are_zero(filt_fast, monkeypatch):
    monkeypatch.setattr(pipeline, "_SCREEN_TAPS", 1)  # screen 233-tap dots too
    zero = gen_signal(3, 0, 0.5)
    plan = sampling_plan(16.0, filt_fast)
    values = np.zeros(plan.n_samples)
    err, _, top, delta = _screen(values, _zero_grid(plan), plan, filt_fast)
    assert top == 0.0 and np.all(err >= top - 2.0 * delta)
    assert reconstruction_error_of(values, zero, 16.0, filt_fast) == 0.0
    assert _full_path_error(values, zero, 16.0, filt_fast) == 0.0


@pytest.mark.parametrize("special", [np.nan, np.inf, 1e300, 1e306, 1.7e308, 1e-310])
def test_screen_keeps_the_full_paths_result_on_extreme_samples(filt_fast, special,
                                                              monkeypatch):
    # a nan, an inf, samples near overflow and subnormal samples
    monkeypatch.setattr(pipeline, "_SCREEN_TAPS", 1)
    sig, T = gen_signal(2, 4, 0.5), 16.0
    plan = sampling_plan(T, filt_fast)
    rng = np.random.default_rng(4)
    with np.errstate(all="ignore"):
        spread = rng.normal(size=plan.n_samples) * special
    for values in (spread, np.where(np.arange(plan.n_samples) == 300, special, 0.5)):
        with np.errstate(all="ignore"):
            want = _full_path_error(values, sig, T, filt_fast)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the screen itself warns of nothing
            got = reconstruction_error_of(values, sig, T, filt_fast)
        assert _same_float(got, want), (special, got, want)


@pytest.mark.parametrize("seed", [10, 16, 35])
def test_screen_separates_a_near_tie(filt_fast, seed, monkeypatch):
    # samples symmetric about N/2 with two equal spikes on grid points, on
    # the zero signal: the two peaks are equal in exact arithmetic, and
    # their dots, the same products summed in reverse order, differ by an
    # ulp or so; the FFT ranks them the other way for these seeds, so only
    # the 2 delta margin keeps the higher one a candidate
    monkeypatch.setattr(pipeline, "_SCREEN_TAPS", 1)
    zero, T = gen_signal(3, 0, 0.5), 16.0
    plan = sampling_plan(T, filt_fast)
    N, (c_lo, _, _) = plan.n_samples, _grid_indices(plan)
    f = np.random.default_rng(seed).normal(0.0, 0.01, N + 1)
    n = np.arange(1, N + 1)
    values = f[n] + f[N - n]
    n0 = c_lo // 16 + 30 + seed % 5
    values[[n0 - 1, N - n0 - 1]] += 10.0
    peaks = [16 * n0 - c_lo, 16 * (N - n0) - c_lo]
    exact = np.abs(_reconstruct_polyphase(values, plan, filt_fast)[1])
    err, _, top, delta = _screen(values, _zero_grid(plan), plan, filt_fast)
    assert 0.0 < abs(exact[peaks[0]] - exact[peaks[1]]) < delta
    assert np.all(err[peaks] >= top - 2.0 * delta)
    got = reconstruction_error_of(values, zero, T, filt_fast)
    assert got == _full_path_error(values, zero, T, filt_fast) == np.max(exact)


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


def test_both_error_paths_are_reconstruction_error_of(filt_fast):
    sig, T, params = gen_signal(3, 4, 0.5), 16.0, SchemeParams(1.01, 1.0, 0.5)
    plan = sampling_plan(T, filt_fast)
    samples = sig.eval(plan.times())
    q = run(params, samples, plan.n_samples).q
    assert sup_error(sig, params, T, filt_fast) == reconstruction_error_of(q, sig, T, filt_fast)
    assert (perfect_sample_error(sig, T, filt_fast)
            == reconstruction_error_of(samples, sig, T, filt_fast))


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


def test_first_order_quantizer_refuses_no_samples():
    with pytest.raises(InvalidInputError):
        first_order_quantize([])


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
