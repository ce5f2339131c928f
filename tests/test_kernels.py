"""One recursion loop behind run_fill, probe_const and probe_input.

The three entry points differ only in the input (constant or array), in
whether steps are recorded, and in the divergence bounds, so their
results must agree exactly wherever those differences do not matter.
The compiled C loop must agree bit for bit with the plain-Python
reference _kernels._recur, and the tables built on it must not depend on
the backend or the worker count.  The C row formatter must write the
same bytes as the %-formatting reference _kernels._format_rows, and the
C escape loop the same count and rows as the numpy reference
_kernels._escapes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import _kernels
from sdlab.cli import main
from sdlab.errors import InvalidInputError
from sdlab.sweeps import SweepConfig, run_fig2, run_fig4

HAVE_GCC = shutil.which(_kernels._CC[0]) is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no C compiler on PATH")

N_MAX = 400

# lam1, lam2, gamma, tau (0 is the sign quantizer); gains up to 1.3 with
# |beta| up to 1.2 make many runs diverge within N_MAX steps
schemes = st.tuples(
    st.floats(1.0, 1.3),
    st.floats(1.0, 1.3),
    st.floats(0.05, 2.0),
    st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
)
betas = st.floats(-1.2, 1.2)
bounds = st.floats(10.5, 1e4)


@settings(deadline=None)
@given(scheme=schemes, beta=betas, n=st.integers(0, N_MAX), bound=bounds)
def test_constant_probe_equals_the_array_probe(scheme, beta, n, bound):
    assert (_kernels.probe_const(*scheme, beta, n, bound)
            == _kernels.probe_input(*scheme, np.full(n, beta), bound))


@settings(deadline=None)
@given(scheme=schemes, beta=betas, n=st.integers(1, N_MAX), bound=bounds,
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_probe_matches_the_recorded_run(scheme, beta, n, bound, seed):
    # seed None drives the run with the constant beta, else with uniform draws
    if seed is None:
        f = np.full(n, beta)
    else:
        f = np.random.default_rng(seed).uniform(-abs(beta), abs(beta), n)
    q, u, v = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    bad = _kernels.run_fill(*scheme, f, q, u, v)
    recorded = np.abs(v[: bad + 1 if bad >= 0 else n])

    diverged_at, vmax = _kernels.probe_input(*scheme, f, bound)
    over = np.flatnonzero(~(recorded <= bound))
    assert diverged_at == (int(over[0]) if over.size else -1)
    seen = recorded[: diverged_at + 1 if diverged_at >= 0 else n]
    assert vmax == np.max(seen)
    if seed is None:
        assert _kernels.probe_const(*scheme, beta, n, bound) == (diverged_at, vmax)


# key words at the 32- and 64-bit edges, and keys of more than 4 words
key_ints = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]),
                     st.integers(0, 2**100))
stream_betas = st.one_of(st.sampled_from([0.0, 0.999]), st.floats(0.0, 1.2))
stream_lengths = st.one_of(st.sampled_from([0, 1, 2500]), st.integers(0, N_MAX))


@settings(deadline=None, max_examples=200)
@given(scheme=schemes, key=st.lists(key_ints, min_size=1, max_size=7),
       beta=stream_betas, n=stream_lengths, bound=bounds)
def test_keyed_stream_probe_equals_the_drawn_array(c_recur, scheme, key, beta,
                                                   n, bound):
    stream = _kernels.KeyedUniform(key, beta, n)
    drawn = np.random.default_rng(key).uniform(-beta, beta, n)
    assert len(stream) == n and stream.draw().tobytes() == drawn.tobytes()
    args = (_kernels.HARD_BOUND, bound, None, None, None)
    want = _kernels._recur(*scheme, drawn, 0.0, n, *args)
    assert _kernels._recur(*scheme, stream, 0.0, n, *args) == want
    assert c_recur(*scheme, stream, 0.0, n, *args) == want
    assert _kernels.probe_input(*scheme, stream, bound) == want


def test_keyed_stream_refuses_what_numpy_refuses():
    for key, beta, n in [((-1,), 0.5, 3), ((), 0.5, 3), ((1,), -0.5, 3),
                         ((1,), np.nan, 3), ((1,), 1e308, 3), ((1,), 0.5, -1)]:
        with pytest.raises(ValueError):
            _kernels.KeyedUniform(key, beta, n)
    with pytest.raises(TypeError):
        _kernels.KeyedUniform((1.5,), 0.5, 3)


def test_run_fill_stops_at_its_own_bound():
    # gains 1.3 grow the state past HARD_BOUND (1e12) in about 100 steps
    bound, n = _kernels.HARD_BOUND, 400
    f = np.full(n, 0.99)
    q, u, v = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    bad = _kernels.run_fill(1.3, 1.3, 1.0, 0.0, f, q, u, v)
    assert 0 <= bad < n
    assert not (abs(u[bad]) <= bound and abs(v[bad]) <= bound)
    assert np.all(np.abs(u[:bad]) <= bound) and np.all(np.abs(v[:bad]) <= bound)


@needs_gcc
def test_c_backend_is_used_when_a_compiler_is_present():
    # keeps the suite from passing on the Python fallback unnoticed
    assert _kernels.BACKEND == "c"


@pytest.fixture(scope="module")
def c_loops():
    if not HAVE_GCC:
        pytest.skip("no C compiler on PATH")
    return _kernels._load_c()


@pytest.fixture(scope="module")
def c_recur(c_loops):
    return c_loops.recur


@pytest.fixture(scope="module")
def c_format_rows(c_loops):
    return lambda n0, f, q, u, v: _rows(n0, f, q, u, v, c_loops.format_rows)


def _rows(n0, f, q, u, v, fmt=_kernels._format_rows):
    """The rows fmt writes, as bytes, into a buffer that holds any row."""
    out = bytearray(len(f) * _kernels.row_width(n0 + len(f), q))
    return bytes(out[:fmt(n0, f, q, u, v, out)])


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
limits = st.one_of(st.floats(10.5, 1e4), st.just(np.inf))


@settings(deadline=None, max_examples=300)
@given(scheme=schemes, beta=betas, n=st.integers(0, N_MAX),
       ubound=limits, vbound=limits, record=st.booleans(),
       drive=st.one_of(st.none(), st.tuples(st.integers(0, 2**32 - 1),
                                            st.integers(0, N_MAX),
                                            st.one_of(st.none(), non_finite))))
def test_c_loop_matches_the_python_reference(c_recur, scheme, beta, n, ubound,
                                             vbound, record, drive):
    # drive None is the constant input beta; else uniform draws in
    # [-|beta|, |beta|], optionally with one non-finite entry at index k
    f = None
    if drive is not None:
        seed, k, bad = drive
        f = np.random.default_rng(seed).uniform(-abs(beta), abs(beta), n)
        if bad is not None and k < n:
            f[k] = bad
    outs = {}
    for name, loop in (("py", _kernels._recur), ("c", c_recur)):
        qv = ([np.full(n, 7, dtype=np.int64), np.full(n, 7.0), np.full(n, 7.0)]
              if record else [None] * 3)
        with np.errstate(invalid="ignore"):
            result = loop(*scheme, f, beta, n, ubound, vbound, *qv)
        outs[name] = result, [a.tobytes() for a in qv if a is not None]
    (py_res, py_rec), (c_res, c_rec) = outs["py"], outs["c"]
    assert c_res == py_res
    assert type(c_res[0]) is int
    assert c_rec == py_rec


def test_c_loop_stops_on_a_non_finite_state(c_recur):
    # unbounded limits: step 0 sends u and v to inf, step 1 makes
    # inf - inf = NaN, which fails the bound test like the reference does
    f = np.array([np.inf, -np.inf, 0.0, 0.0])
    none = [None] * 3
    for loop in (_kernels._recur, c_recur):
        with np.errstate(invalid="ignore"):
            assert loop(1.0, 1.0, 1.0, 0.0, f, 0.0, 4,
                        np.inf, np.inf, *none) == (1, np.inf)


@pytest.mark.parametrize("beta, q1", [(-0.25, -1.0), (0.25, 1.0)])
def test_c_loop_keeps_the_dead_band_open(c_recur, beta, q1):
    # with gamma 1, step 1 sees s = 2*beta exactly, i.e. s = -tau or +tau,
    # which lies outside the open dead band (-tau, tau)
    for loop in (_kernels._recur, c_recur):
        q, u, v = np.empty(2, dtype=np.int64), np.empty(2), np.empty(2)
        loop(1.0, 1.0, 1.0, 0.5, None, beta, 2, 1e3, 1e3, q, u, v)
        assert q.tolist() == [0, q1]


def test_c_loop_refuses_arrays_it_could_overrun(c_recur):
    scheme = (1.01, 1.0, 0.8, 0.0)
    n = 10
    out = [np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)]

    def call(f, q, u, v, n_steps=n):
        return c_recur(*scheme, f, 0.0, n_steps, 1e3, 1e3, q, u, v)

    with pytest.raises(IndexError):
        call(np.zeros(n - 1), *[None] * 3)
    with pytest.raises(IndexError):
        call(np.zeros(n), out[0], out[1], np.empty(n - 1))
    with pytest.raises(TypeError):
        call(np.zeros(n, dtype=np.float32), *[None] * 3)
    with pytest.raises(TypeError):
        call(np.zeros(2 * n)[::2], *[None] * 3)
    with pytest.raises(TypeError):  # q is recorded as int64
        call(np.zeros(n), np.empty(n), out[1], out[2])
    read_only = np.empty(n)
    read_only.flags.writeable = False
    with pytest.raises(ValueError):
        call(np.zeros(n), out[0], read_only, out[2])
    assert call(np.zeros(n), *out) == _kernels._recur(
        *scheme, np.zeros(n), 0.0, n, 1e3, 1e3,
        np.empty(n, dtype=np.int64), np.empty(n), np.empty(n))


# doubles whose %.17g text takes every form: subnormals, signed zeros and
# infinities, NaN with either sign bit, the fixed/exponent switch at
# 1e-5 and 1e16/1e17, and the longest text -2.2250738585072014e-308
special = st.sampled_from([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    2.2250738585072009e-308, -2.2250738585072014e-308, 1e-5, 1e-4,
    9.9999999999999995e-05, 1e16, 1e17, -1e16, 9.999999999999999e16,
    1.7976931348623157e308, 0.1, 0.3,
])
doubles = st.one_of(st.floats(), special)
rows = st.integers(0, 40).flatmap(lambda k: st.tuples(
    st.lists(doubles, min_size=k, max_size=k),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=k, max_size=k),
    st.lists(doubles, min_size=k, max_size=k),
    st.lists(doubles, min_size=k, max_size=k),
))


@settings(deadline=None, max_examples=300)
@given(n0=st.integers(0, 2**62), cols=rows)
def test_c_formatter_matches_percent_formatting(c_format_rows, n0, cols):
    f, q, u, v = (np.array(c, dtype=t) for c, t in
                  zip(cols, (np.float64, np.int64, np.float64, np.float64)))
    expected = "".join("%d,%.17g,%d,%.17g,%.17g\n" % row for row in zip(
        range(n0 + 1, n0 + len(f) + 1), *(c.tolist() for c in (f, q, u, v))))
    assert _rows(n0, f, q, u, v) == expected.encode()
    assert bytes(c_format_rows(n0, f, q, u, v)) == expected.encode()


def test_c_formatter_prints_nan_without_its_sign(c_format_rows):
    nans = np.array([np.nan, -np.nan])
    assert np.signbit(nans).tolist() == [False, True]
    q = np.array([1, -1])
    out = bytes(c_format_rows(0, nans, q, nans[::-1].copy(), nans))
    assert out == b"1,nan,1,nan,nan\n2,nan,-1,nan,nan\n"


def test_c_formatter_refuses_arrays_it_could_overrun(c_format_rows):
    n = 10
    f, u, v = np.zeros(n), np.zeros(n), np.zeros(n)
    q = np.ones(n, dtype=np.int64)
    with pytest.raises(IndexError):
        c_format_rows(0, f, q, u, np.zeros(n - 1))
    with pytest.raises(IndexError):
        c_format_rows(0, f, q[:-1], u, v)
    with pytest.raises(TypeError):
        c_format_rows(0, f, q, np.zeros(2 * n)[::2], v)
    with pytest.raises(TypeError):
        c_format_rows(0, f.astype(np.float32), q, u, v)
    with pytest.raises(TypeError):
        c_format_rows(0, f, q.astype(np.float64), u, v)
    with pytest.raises(TypeError):
        c_format_rows(0, f, q.astype(np.int32), u, v)
    assert bytes(c_format_rows(0, f, q, u, v)) == _rows(0, f, q, u, v)


def _sweep_doubles():
    """About 1.1 million doubles covering every form of %.17g text."""
    rng = np.random.default_rng(2024)
    # 150 random significands in every binade, subnormals included
    exps = np.repeat(np.arange(-1074, 1024), 150)
    sig = rng.uniform(1.0, 2.0, exps.size)
    binades = np.ldexp(sig, exps)   # below 2^-1022 this rounds to a subnormal
    # powers of ten with both neighbours, and runs of 200 ulps across the
    # fixed/exponent switches (1e-5, 1e-4, 1e16, 1e17) and the ends of the
    # 128-bit fast path (1e-16, 1e17), where snprintf takes over
    tens = np.array([10.0 ** k for k in range(-20, 23)])
    edges = []
    for x in (1e-5, 1e-4, 1e-16, 1e-17, 1e-15, 1e16, 1e17, 1e18):
        up, down = x, x
        for _ in range(200):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            edges += [up, down]
    # ties: odd n / 2^p with exactly 18 significant digits, ending in 5,
    # so 17-digit rounding lands halfway between two candidates
    ties = []
    for p in range(2, 26):
        lo, hi = -(-10**17 // 5**p), min(10**18 // 5**p, 2**53)
        if lo < hi:
            n = rng.integers(lo, hi, 2000) | 1
            ties.append(n[n < hi].astype(np.float64) / 2.0**p)
    parts = [binades, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
             np.array(edges), *ties,
             rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64),
             rng.uniform(-0.2, 0.2, 50_000), rng.uniform(-300, 300, 50_000)]
    x = np.concatenate(parts)
    x = np.concatenate([x, -x])
    return x[: x.size - x.size % 3]


@pytest.mark.parametrize("backend", ["chosen", "python"])
def test_formatter_refuses_a_buffer_too_short_for_its_rows(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    f = u = v = np.full(3, -2.2250738585072014e-308)
    q = np.full(3, -1)
    want = _rows(99, f, q, u, v)
    assert len(want) == 3 * _kernels.row_width(102, q)  # the widest rows fit exactly
    out = bytearray(len(want))
    assert _kernels.format_rows(99, f, q, u, v, out) == len(want) and out == want
    with pytest.raises(IndexError):
        _kernels.format_rows(99, f, q, u, v, bytearray(len(want) - 1))


def test_formatter_is_exact_over_a_million_doubles():
    x = _sweep_doubles()
    assert x.size >= 10**6
    f, u, v = (np.ascontiguousarray(x[i::3]) for i in range(3))
    q = np.zeros(f.size, dtype=np.int64)
    want = ["%d,%.17g,0,%.17g,%.17g" % row for row in zip(
        range(1, f.size + 1), f.tolist(), u.tolist(), v.tolist())]
    n = f.size
    for cuts in ((0, n), (0, n // 2, n)):  # whole, and in two pieces
        got = b"".join(_rows(a, f[a:b], q[a:b], u[a:b], v[a:b], _kernels.format_rows)
                       for a, b in zip(cuts, cuts[1:])).split(b"\n")
        bad = [(g, w) for g, w in zip(got, want) if g.decode() != w]
        assert bad[:5] == [] and len(got) == n + 1


def _spread_points(seed, n, nd, alpha, C, special):
    """Points and deltas around the region, with one coordinate and one
    delta set to a special value, so rounding, overflow and NaN all show."""
    from sdlab.region import RegionSpec

    spec = RegionSpec(alpha, C)
    rng = np.random.default_rng(seed)
    us = rng.uniform(-1.2 * spec.u0, 1.2 * spec.u0, n)
    vs = rng.uniform(-1.2 * spec.v_extent, 1.2 * spec.v_extent, n)
    deltas = rng.uniform(0.0, 2.0, nd)
    if n:
        (us, vs)[seed % 2][seed % n] = special
    if nd > 1:
        deltas[seed % nd] = special
    return spec, us, vs, deltas


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), nd=st.integers(1, 6),
       alpha=st.floats(0.05, 0.95), C=st.floats(0.5, 30.0),
       gamma=st.floats(0.01, 3.0), lam=st.floats(1.0, 2.0) | st.just(1e308),
       special=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
       tol=st.sampled_from([0.0, 1e-9, 0.5]))
def test_c_escapes_match_the_numpy_reference(c_loops, seed, n, nd, alpha, C,
                                             gamma, lam, special, tol):
    spec, us, vs, deltas = _spread_points(seed, n, nd, alpha, C, special)
    with np.errstate(all="ignore"):
        excess = _kernels._excess(us, vs, deltas, gamma, lam, spec)
        want = np.empty(n * nd, _kernels.VIOLATION)
        count, top = _kernels._escapes(us, vs, deltas, gamma, lam, spec, tol, 7, want)
    assert count == np.count_nonzero(excess > tol)  # a NaN excess is no escape
    assert top == excess[excess > tol].max(initial=-np.inf)
    got = np.full(n * nd + 1, 3, _kernels.VIOLATION)
    assert c_loops.escapes(us, vs, deltas, gamma, lam, spec, tol, 7, None) == (count, top)
    assert c_loops.escapes(us, vs, deltas, gamma, lam, spec, tol, 7, got) == (count, top)
    assert got[:count].tobytes() == want[:count].tobytes()
    assert got[count:].tobytes() == np.full(n * nd + 1 - count, 3, _kernels.VIOLATION).tobytes()
    i, j = np.nonzero(excess > tol)
    assert np.array_equal(got["point_index"][:count], 7 + i)
    assert np.array_equal(got["delta_index"][:count], j)
    assert np.array_equal(got["excess"][:count], excess[i, j])


def test_the_screen_counts_an_interior_excess_that_rounds_above_both_ends(c_loops):
    # over deltas 2e-15 apart the exact excess is all but affine, so the
    # computed one at the middle delta can round above both computed ends;
    # with tol between them, only the screen's 2M margin keeps the middle
    # escape, on the AVX2 pass (4 copies) and the plain loop (the 5th)
    from sdlab.region import RegionSpec

    spec, gamma, lam = RegionSpec(0.5, 6.0), 0.5, 1.05
    rng = np.random.default_rng(0)
    us = rng.uniform(-spec.u0, spec.u0, 20_000)
    vs = rng.uniform(-spec.v_extent, spec.v_extent, 20_000)
    deltas = np.array([1.0, 1.0 + 1e-15, 1.0 + 2e-15])
    excess = _kernels._excess(us, vs, deltas, gamma, lam, spec)
    ends = np.maximum(excess[:, 0], excess[:, 2])
    ties = np.nonzero(excess[:, 1] > ends)[0]
    assert ties.size >= 20
    for k in ties[:20]:
        u, v = np.full(5, us[k]), np.full(5, vs[k])
        want = _kernels._escapes(u, v, deltas, gamma, lam, spec, ends[k], 0, None)
        assert want == (5, excess[k, 1])
        rows = np.empty(5, _kernels.VIOLATION)
        for out in (None, rows):
            assert c_loops.escapes(u, v, deltas, gamma, lam, spec, ends[k], 0, out) == want
        assert np.all(rows["delta_index"] == 1)


def test_the_screen_takes_the_extreme_deltas_wherever_they_lie(c_loops):
    # points that escape only at deltas other than the first two: a screen
    # that took deltas[:2] for the ends would skip them
    from sdlab.region import RegionSpec

    spec, gamma, lam, tol = RegionSpec(0.5, 6.0), 0.5, 1.2, 1e-9
    rng = np.random.default_rng(1)
    us = rng.uniform(-spec.u0, spec.u0, 4_001)
    vs = rng.uniform(-spec.v_extent, spec.v_extent, 4_001)
    for seed in range(5):
        deltas = np.random.default_rng(seed).permutation(np.linspace(0.5, 1.5, 7))
        excess = _kernels._excess(us, vs, deltas, gamma, lam, spec)
        skipped = excess[:, :2].max(axis=1) <= tol - 1e-6
        assert np.count_nonzero(excess[skipped] > tol) > 0
        want = _kernels._escapes(us, vs, deltas, gamma, lam, spec, tol, 0, None)
        assert c_loops.escapes(us, vs, deltas, gamma, lam, spec, tol, 0, None) == want
        rows = np.empty(want[0], _kernels.VIOLATION)
        assert c_loops.escapes(us, vs, deltas, gamma, lam, spec, tol, 0, rows) == want


def test_c_escapes_refuse_arrays_they_could_overrun(c_loops):
    from sdlab.region import RegionSpec

    c_escapes = c_loops.escapes
    spec = RegionSpec(0.5, 6.0)
    us, vs, deltas = np.full(4, 100.0), np.zeros(4), np.ones(3)  # all escape
    rows = np.empty(12, _kernels.VIOLATION)
    with pytest.raises(IndexError):
        c_escapes(us, vs[:-1].copy(), deltas, 0.5, 1.01, spec, 0.0, 0, None)
    with pytest.raises(TypeError):
        c_escapes(us, vs, deltas.astype(np.float32), 0.5, 1.01, spec, 0.0, 0, None)
    with pytest.raises(TypeError):
        c_escapes(np.zeros(8)[::2], vs, deltas, 0.5, 1.01, spec, 0.0, 0, None)
    with pytest.raises(TypeError):
        c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, np.empty((12, 7)))
    with pytest.raises(TypeError):
        c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, rows[::2])
    rows.flags.writeable = False
    with pytest.raises(ValueError):
        c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, rows)
    rows = np.full(13, 3, _kernels.VIOLATION)
    with pytest.raises(IndexError):  # writes the 11 that fit, then refuses
        c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, rows[:11])
    assert rows[11:].tobytes() == np.full(2, 3, _kernels.VIOLATION).tobytes()
    assert c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, None)[0] == 12
    assert c_escapes(us, vs, deltas, 0.5, 1.01, spec, 0.0, 0, rows[:12])[0] == 12
    assert rows[12].tobytes() == np.full(1, 3, _kernels.VIOLATION).tobytes()


def test_every_escape_path_gives_the_same_count_and_rows(c_loops):
    # the AVX2 (4 points a pass) and plain paths, each through its own
    # symbol, counting (rows NULL) and writing, over every n mod 4 left to
    # the plain loop, inside and around a region; each gives the unscreened
    # numpy reference's count, largest escape excess and rows
    import ctypes

    lib = ctypes.CDLL(_kernels._library_path())
    names = ["sdlab_escapes", "sdlab_escapes_c",
             "sdlab_escapes_avx2"][:2 + lib.sdlab_simd()]
    d, p, ll = ctypes.c_double, ctypes.c_void_p, ctypes.c_longlong
    for name in names:
        getattr(lib, name).argtypes = [p, p, ll, p, ll, *[d] * 7, ll, p, ll,
                                       ctypes.POINTER(d)]
        getattr(lib, name).restype = ll
    cases = 0
    for seed, special in enumerate([np.nan, np.inf, -np.inf, -0.0, 1e300] * 3):
        for n in (*range(1, 18), 64, 203):
            spec, us, vs, deltas = _spread_points(seed, n, 5, 0.3 + 0.03 * seed,
                                                  4.0 + seed, special)
            for gamma, lam, tol in ((0.4, 1.01, 1e-9), (1.3, 1.6, 0.0), (0.9, 1e308, 0.5)):
                args = (us.ctypes.data, vs.ctypes.data, n, deltas.ctypes.data, 5,
                        gamma, lam, spec.u0, spec.C, spec.delta_H, spec.delta_L, tol, 11)
                rows = np.zeros(5 * n, _kernels.VIOLATION)
                with np.errstate(all="ignore"):
                    out = {"numpy": (*_kernels._escapes(us, vs, deltas, gamma, lam, spec,
                                                        tol, 11, rows), rows.tobytes())}
                for name in names:
                    rows, top = np.zeros(5 * n, _kernels.VIOLATION), d()
                    count = getattr(lib, name)(*args, None, 0, ctypes.byref(top))
                    counted = top.value
                    assert getattr(lib, name)(*args, rows.ctypes.data, 5 * n,
                                              ctypes.byref(top)) == count
                    assert top.value == counted
                    out[name] = count, top.value, rows.tobytes()
                assert len(set(out.values())) == 1, (seed, n, gamma, out)
                cases += 0 < out["numpy"][0] < 5 * n
    assert cases > 100  # most cases have escapes and pairs that stay


def _tables():
    grid = np.array([1.0, 1.04, 1.1])
    return {
        workers: (run_fig2(SweepConfig(lambda_grid=grid, max_iters=3000,
                                       workers=workers)),
                  run_fig4(SweepConfig(lambda_grid=grid, max_iters=500,
                                       input_mode="random-uniform",
                                       workers=workers)))
        for workers in (1, 2)
    }


def test_tables_do_not_depend_on_backend_or_workers(monkeypatch):
    ran = _tables()
    assert ran[1] == ran[2]
    monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    assert _tables() == ran


def test_failed_build_falls_back_to_python(monkeypatch):
    scheme = (1.05, 1.0, 0.7, 0.4)
    f = np.random.default_rng(3).uniform(-0.6, 0.6, 300)

    def calls():
        q, u, v = np.empty(300, dtype=np.int64), np.empty(300), np.empty(300)
        bad = _kernels.run_fill(*scheme, f, q, u, v)
        return (bad, q.tobytes(), u.tobytes(), v.tobytes(),
                _kernels.probe_const(*scheme, 0.6, 300, 50.0),
                _kernels.probe_input(*scheme, f, 50.0))

    expected = calls()
    monkeypatch.setattr(_kernels, "_CC", [os.path.join(os.sep, "nonexistent", "cc")])
    monkeypatch.setattr(_kernels, "_chosen", None)
    assert calls() == expected
    assert _kernels.BACKEND == "python"
    assert _kernels._loop() is _kernels._recur


@needs_gcc
def test_a_compiler_without_int128_falls_back_to_python(monkeypatch, tmp_path):
    # _recur.c refuses to build without unsigned __int128; the failed build
    # leaves no library behind and the Python loops run, as with no compiler
    src = tmp_path / "_recur.c"
    shutil.copy(_kernels._SRC, src)
    monkeypatch.setattr(_kernels, "_SRC", str(src))
    monkeypatch.setattr(_kernels, "_CFLAGS", [*_kernels._CFLAGS, "-U__SIZEOF_INT128__"])
    with pytest.raises(subprocess.CalledProcessError) as exc:
        _kernels._library_path()
    assert b"needs unsigned __int128" in exc.value.stderr
    assert list((tmp_path / "__pycache__").iterdir()) == []
    monkeypatch.setattr(_kernels, "_chosen", None)
    assert _kernels._choose() is _kernels._PYTHON
    assert _kernels.BACKEND == "python"


@pytest.mark.parametrize("workers", [None, 1, 2, 4, 64])
def test_map_ordered_keeps_item_order(workers):
    threads = set()

    def square(x):
        threads.add(threading.get_ident())
        time.sleep(0.002 * (x % 4 == 0))  # so later items finish first
        return x * x

    assert _kernels.map_ordered(square, range(24), workers) == [x * x for x in range(24)]
    if workers == 1:
        assert threads == {threading.get_ident()}
    assert len(threads) <= (workers or _kernels.cores())
    assert _kernels.map_ordered(square, [], workers) == []


def test_a_process_pinned_to_one_cpu_starts_no_thread(monkeypatch):
    # the default worker count is the CPUs the process may run on (taskset,
    # a cpuset), not the host's
    from sdlab.certificates import thm1_certificate
    from sdlab.invariance import verify_invariance

    monkeypatch.setattr(_kernels.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: 64)
    assert _kernels.cores() == 1

    def start(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert _kernels.map_ordered(lambda x: x * x, range(24), None) == [
        x * x for x in range(24)]
    assert verify_invariance(thm1_certificate(0.5, 1.01), n_points=500).ok


def test_map_ordered_runs_items_on_the_calling_thread_too():
    threads = []

    def record(x):
        threads.append(threading.get_ident())
        time.sleep(0.002)
        return x

    assert _kernels.map_ordered(record, range(8), 2) == list(range(8))
    assert threading.get_ident() in threads
    assert len(set(threads)) == 2


def test_map_ordered_raises_the_first_failure_in_item_order():
    started = []

    def fail_on_odd(x):
        started.append(x)
        time.sleep(0.01 * (x == 1))  # so item 3 fails first in time
        if x % 2:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError) as exc:
        _kernels.map_ordered(fail_on_odd, range(40), 2)
    assert exc.value.args == (1,)
    assert len(started) < 40  # no new item starts after a failure


@pytest.mark.parametrize("workers", [0, -3, True, False, 2.0, "2"])
def test_map_ordered_refuses_a_worker_count_that_is_not_a_positive_int(workers):
    calls = []
    with pytest.raises(InvalidInputError, match="workers must be a positive integer"):
        _kernels.map_ordered(calls.append, [1, 2], workers)
    assert calls == []


@pytest.fixture
def blas_count():
    """numpy's OpenBLAS set to 2 threads for the test; returns a reader of
    its count (set to 1 and back: the setter returns the old count; a lock
    keeps two readers from seeing each other's 1).  Skips where no setter
    is found."""
    setter = _kernels._find_blas_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    lock = threading.Lock()

    def read():
        with lock:
            count = setter(1)
            setter(count)
        return count

    saved = setter(2)
    yield read
    setter(saved)


def test_blas_runs_on_one_thread_while_a_pinned_map_runs(blas_count, monkeypatch):
    # map_blocks pins its own map; any other map is pinned by its caller
    monkeypatch.setattr(_kernels, "cores", lambda: 2)
    assert blas_count() == 2
    seen = []

    def item(x):
        seen.append(blas_count())
        time.sleep(0.001)
        return x

    def block(rows, buf):
        return item(rows.start)

    def fail(rows, buf):
        seen.append(blas_count())
        raise KeyError(rows.start)

    def pinned(fn, items):
        with _kernels.one_blas_thread():
            return _kernels.map_ordered(fn, items, 2)

    assert _kernels.map_blocks(block, 6 * 64, 64, 1) == list(range(0, 384, 64))
    assert blas_count() == 2
    with pytest.raises(KeyError):
        _kernels.map_blocks(fail, 4 * 64, 64, 1)
    assert blas_count() == 2
    assert pinned(item, range(6)) == list(range(6))
    assert blas_count() == 2
    nested = pinned(lambda x: _kernels.map_blocks(block, 3 * 64, 64, 1), range(3))
    assert nested == [[0, 64, 128]] * 3
    assert blas_count() == 2
    assert seen and set(seen) == {1}
    seen.clear()
    _kernels.map_ordered(item, range(3), 2)  # a plain map: left be
    assert seen == [2] * 3
    monkeypatch.setattr(_kernels, "cores", lambda: 1)
    _kernels.map_blocks(block, 3 * 64, 64, 1)  # serial: pinned too
    assert seen == [2] * 3 + [1] * 3
    assert blas_count() == 2


def test_overlapping_maps_restore_blas_only_when_the_last_ends(blas_count, monkeypatch):
    # map A starts, map B starts, A ends, then B reads the count and ends:
    # restoring at A's end would let B's blocks run threaded BLAS, and
    # restoring what B found at B's end would leave one thread for good
    monkeypatch.setattr(_kernels, "cores", lambda: 2)
    b_started, a_done = threading.Event(), threading.Event()
    late = []

    def run_a():
        _kernels.map_blocks(lambda rows, buf: b_started.wait(10), 2 * 64, 64, 1)
        a_done.set()

    def block_b(rows, buf):
        b_started.set()
        if a_done.wait(10):
            late.append(blas_count())

    users = [threading.Thread(target=run_a),
             threading.Thread(target=_kernels.map_blocks,
                              args=(block_b, 2 * 64, 64, 1))]
    for u in users:
        u.start()
    for u in users:
        u.join(30)
        assert not u.is_alive()
    assert late == [1, 1]
    assert blas_count() == 2


def test_block_maps_at_once_lend_each_buffer_to_one_block(blas_count, monkeypatch):
    # 6 user threads each map 40 blocks on 4 workers, switching every
    # microsecond: a buffer lent twice at once, or a lost update of the
    # pin's depth, shows as a clobbered mark or a count left changed
    monkeypatch.setattr(_kernels, "cores", lambda: 4)
    clashes, counts = [], set()

    def block(rows, buf):
        buf[:] = rows.start
        counts.add(blas_count())
        time.sleep(0)
        if not (buf == rows.start).all():
            clashes.append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        users = [threading.Thread(target=_kernels.map_blocks,
                                  args=(block, 40 * 64 - 5, 64, 3))
                 for _ in range(6)]
        for u in users:
            u.start()
        for u in users:
            u.join(60)
            assert not u.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert clashes == [] and counts == {1}
    assert blas_count() == 2


def test_block_maps_hold_at_most_16_buffers_on_many_cores(monkeypatch):
    monkeypatch.setattr(_kernels, "cores", lambda: 64)
    bufs, threads = set(), set()

    def block(rows, buf):
        bufs.add(buf.base.ctypes.data)
        threads.add(threading.get_ident())
        time.sleep(0.001)

    _kernels.map_blocks(block, 100 * 64, 64, 3)
    assert 1 < len(bufs) <= 16 and 1 < len(threads) <= 16


@needs_gcc
def test_concurrent_first_use_builds_the_library_once(monkeypatch, tmp_path):
    # a copy of the source in a fresh directory forces a real build; more
    # threads than cores race to be first while switching every microsecond
    src = tmp_path / "_recur.c"
    shutil.copy(_kernels._SRC, src)
    monkeypatch.setattr(_kernels, "_SRC", str(src))
    monkeypatch.setattr(_kernels, "_chosen", None)
    builds = []
    real_run = subprocess.run

    def counting_run(cmd, *args, **kwargs):
        builds.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    scheme = (1.02, 1.0, 0.9, 0.0)
    expected = _kernels._recur(*scheme, None, 0.4, 2000,
                               _kernels.HARD_BOUND, 1e3, *[None] * 3)
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(_kernels.probe_const(*scheme, 0.4, 2000, 1e3))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
    assert len(builds) == 1 and _kernels.BACKEND == "c"
    built = sorted(p.name for p in (tmp_path / "__pycache__").iterdir())
    assert len(built) == 1 and built[0].startswith("_recur-") and built[0].endswith(".so")


@needs_gcc
def test_a_new_build_removes_the_older_libraries(monkeypatch, tmp_path):
    # two versions of the source in turn; the second build removes the
    # first one's library, and a library that is already gone is no error
    import glob

    real_glob = glob.glob
    monkeypatch.setattr(glob, "glob", lambda pattern: [
        *real_glob(pattern), str(tmp_path / "__pycache__" / "_recur-gone.so")])
    with open(_kernels._SRC) as fh:
        source = fh.read()
    src = tmp_path / "_recur.c"
    monkeypatch.setattr(_kernels, "_SRC", str(src))
    paths = []
    for version in ("", "\n/* a later version */\n"):
        src.write_text(source + version)
        paths.append(_kernels._library_path())
    assert paths[0] != paths[1]
    left = sorted(p.name for p in (tmp_path / "__pycache__").glob("_recur-*.so"))
    assert left == [os.path.basename(paths[1])]


@needs_gcc
def test_an_unwritable_package_builds_into_a_private_per_user_directory(
        monkeypatch, tmp_path):
    # the package's __pycache__ is not writable, so both versions of the
    # source build into gettempdir()/sdlab-<uid>, made private; other
    # installs share that directory, so the older library stays
    with open(_kernels._SRC) as fh:
        source = fh.read()
    src = tmp_path / "pkg" / "_recur.c"
    src.parent.mkdir()
    (tmp_path / "tmp").mkdir()
    pkg_cache = str(tmp_path / "pkg" / "__pycache__")
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kw:
                        path != pkg_cache and real_access(path, mode, **kw))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    monkeypatch.setattr(_kernels, "_SRC", str(src))
    home = tmp_path / "tmp" / f"sdlab-{os.getuid()}"
    paths = []
    for version in ("", "\n/* a later version */\n"):
        src.write_text(source + version)
        paths.append(_kernels._library_path())
    assert paths[0] != paths[1]
    assert {os.path.dirname(p) for p in paths} == {str(home)}
    assert home.stat().st_mode & 0o777 == 0o700
    assert sorted(p.name for p in home.glob("_recur-*.so")) == sorted(
        os.path.basename(p) for p in paths)
    assert os.listdir(pkg_cache) == []

    # a per-user directory owned by someone else is refused before any
    # build, and the Python loops run
    uid = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: uid)
    src.write_text(source + "\n/* not built yet */\n")
    with pytest.raises(OSError, match="belongs to another user"):
        _kernels._library_path()
    assert list((tmp_path / "tmp" / f"sdlab-{uid}").iterdir()) == []
    monkeypatch.setattr(_kernels, "_chosen", None)
    assert _kernels._choose() is _kernels._PYTHON


@needs_gcc
def test_the_c_source_compiles_without_warnings(tmp_path):
    # -Werror turns a slip such as a double * passed as the long long *
    # q_out into a failed build instead of silently wrong q values
    proc = subprocess.run([*_kernels._CC, *_kernels._CFLAGS, "-Wall", "-Wextra",
                           "-Werror", "-o", str(tmp_path / "lib.so"),
                           _kernels._SRC, "-lm"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@needs_gcc
def test_simulate_memory_grows_by_one_history_per_step():
    # the history is f, q, u, v at 8 bytes each, 32 B/step; one more
    # per-step array (a copy of q, say) would lift the slope to 40
    pytest.importorskip("resource")
    code = ("import os, resource, sys\n"
            "from sdlab.cli import main\n"
            "assert main(['simulate', '--beta', '0.3', '--input', 'random',\n"
            "             '--steps', sys.argv[1], '--out', os.devnull]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    peak = {}
    for n in (500_000, 2_000_000):
        proc = subprocess.run([sys.executable, "-c", code, str(n)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        peak[n] = int(proc.stdout) * unit
    slope = (peak[2_000_000] - peak[500_000]) / 1_500_000
    assert slope < 34, f"{slope:.1f} B/step"


def test_cold_import_neither_loads_nor_builds_the_loop():
    # numpy imports ctypes itself, so the checks are that no loop is
    # chosen, no compiler process module is loaded and no library is
    # mapped; the library already built by this session must stay unused
    code = (
        "import sys\n"
        "import sdlab.cli\n"
        "from sdlab import _kernels\n"
        "assert _kernels._chosen is None, _kernels._chosen\n"
        "assert 'subprocess' not in sys.modules\n"
        "assert not hasattr(_kernels, 'ctypes')\n"
        "import os\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        assert '_recur-' not in fh.read()\n"
    )
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_python_backend_overflows_silently(monkeypatch, capsys):
    # C never warns on overflow; the Python loop must not either
    monkeypatch.setattr(_kernels, "_chosen", _kernels._PYTHON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--beta", "0.3", "--steps", "5",
                   "--lambda1", "1.7e308", "--lambda2", "1.7e308"])
    assert rc == 4
    capsys.readouterr()


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_gcc)])
def test_probe_input_vmax_is_a_python_float(backend, monkeypatch):
    chosen = _kernels._PYTHON if backend == "python" else _kernels._load_c()
    monkeypatch.setattr(_kernels, "_chosen", chosen)
    f = np.random.default_rng(0).uniform(-0.5, 0.5, 100)
    # sweeps pass gains straight from a numpy grid
    _, vmax = _kernels.probe_input(np.float64(1.01), 1.0, 0.7, 0.0, f, 50.0)
    assert type(vmax) is float
