"""One recursion loop behind run_fill, probe_const and probe_input.

The three entry points differ only in the input (constant or array), in
whether steps are recorded, and in the divergence bounds, so their
results must agree exactly wherever those differences do not matter.
The compiled C loop must agree bit for bit with the plain-Python
reference _kernels._recur, and the tables built on it must not depend on
the backend or the worker count.  The C row formatter must write the
same bytes as the %-formatting reference _kernels._format_rows, and the
C excess loop the same values as the numpy reference _kernels._excess.
"""

import os
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import _kernels
from sdlab.cli import main
from sdlab.sweeps import SweepConfig, run_fig2, run_fig4

HAVE_GCC = shutil.which(_kernels._CC[0]) is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no C compiler on PATH")

N_MAX = 400

# lam1, lam2, gamma, kind, tau; gains up to 1.3 with |beta| up to 1.2
# make many runs diverge within N_MAX steps
schemes = st.tuples(
    st.floats(1.0, 1.3),
    st.floats(1.0, 1.3),
    st.floats(0.05, 2.0),
    st.sampled_from([_kernels.KIND_SIGN, _kernels.KIND_TRILEVEL]),
    st.floats(0.05, 0.9),
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
    q, u, v = np.empty(n), np.empty(n), np.empty(n)
    bad = _kernels.run_fill(*scheme, f, q, u, v, _kernels.HARD_BOUND)
    recorded = np.abs(v[: bad + 1 if bad >= 0 else n])

    diverged_at, vmax = _kernels.probe_input(*scheme, f, bound)
    over = np.flatnonzero(~(recorded <= bound))
    assert diverged_at == (int(over[0]) if over.size else -1)
    seen = recorded[: diverged_at + 1 if diverged_at >= 0 else n]
    assert vmax == np.max(seen)
    if seed is None:
        assert _kernels.probe_const(*scheme, beta, n, bound) == (diverged_at, vmax)


def test_run_fill_stops_at_its_own_bound():
    f = np.full(50, 0.99)
    q, u, v = np.empty(50), np.empty(50), np.empty(50)
    bad = _kernels.run_fill(1.3, 1.3, 1.0, _kernels.KIND_SIGN, 0.5, f, q, u, v, 20.0)
    assert 0 <= bad < 50
    assert not (abs(u[bad]) <= 20.0 and abs(v[bad]) <= 20.0)
    assert np.all(np.abs(u[:bad]) <= 20.0) and np.all(np.abs(v[:bad]) <= 20.0)


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
    return c_loops[0]


@pytest.fixture(scope="module")
def c_format_rows(c_loops):
    return c_loops[1]


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
        qv = [np.full(n, 7.0) for _ in range(3)] if record else [None] * 3
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
            assert loop(1.0, 1.0, 1.0, _kernels.KIND_SIGN, 0.5, f, 0.0, 4,
                        np.inf, np.inf, *none) == (1, np.inf)


@pytest.mark.parametrize("beta, q1", [(-0.25, -1.0), (0.25, 1.0)])
def test_c_loop_keeps_the_dead_band_open(c_recur, beta, q1):
    # with gamma 1, step 1 sees s = 2*beta exactly, i.e. s = -tau or +tau,
    # which lies outside the open dead band (-tau, tau)
    for loop in (_kernels._recur, c_recur):
        q, u, v = np.empty(2), np.empty(2), np.empty(2)
        loop(1.0, 1.0, 1.0, _kernels.KIND_TRILEVEL, 0.5, None, beta,
             2, 1e3, 1e3, q, u, v)
        assert q.tolist() == [0.0, q1]


def test_c_loop_refuses_arrays_it_could_overrun(c_recur):
    scheme = (1.01, 1.0, 0.8, _kernels.KIND_SIGN, 0.5)
    n = 10
    out = [np.empty(n) for _ in range(3)]

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
    read_only = np.empty(n)
    read_only.flags.writeable = False
    with pytest.raises(ValueError):
        call(np.zeros(n), out[0], read_only, out[2])
    assert call(np.zeros(n), *out) == _kernels._recur(
        *scheme, np.zeros(n), 0.0, n, 1e3, 1e3, *[np.empty(n) for _ in range(3)])


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
    assert _kernels._format_rows(n0, f, q, u, v) == expected.encode()
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
    assert bytes(c_format_rows(0, f, q, u, v)) == _kernels._format_rows(0, f, q, u, v)


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


def test_formatter_is_exact_over_a_million_doubles():
    x = _sweep_doubles()
    assert x.size >= 10**6
    f, u, v = (np.ascontiguousarray(x[i::3]) for i in range(3))
    q = np.zeros(f.size, dtype=np.int64)
    got = bytes(_kernels.format_rows(0, f, q, u, v)).split(b"\n")
    want = ("%d,%.17g,0,%.17g,%.17g" % row for row in zip(
        range(1, f.size + 1), f.tolist(), u.tolist(), v.tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g.decode() != w]
    assert bad[:5] == [] and len(got) == f.size + 1


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), nd=st.integers(1, 6),
       alpha=st.floats(0.05, 0.95), C=st.floats(0.5, 30.0),
       gamma=st.floats(0.01, 3.0), lam=st.floats(1.0, 2.0) | st.just(1e308),
       special=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]))
def test_c_excess_matches_the_numpy_reference(c_loops, seed, n, nd, alpha, C,
                                              gamma, lam, special):
    from sdlab.region import RegionSpec

    # points around the region, one coordinate and one delta set to a
    # special value, so rounding, overflow and NaN all show
    spec = RegionSpec(alpha, C)
    rng = np.random.default_rng(seed)
    us = rng.uniform(-1.2 * spec.u0, 1.2 * spec.u0, n)
    vs = rng.uniform(-1.2 * spec.v_extent, 1.2 * spec.v_extent, n)
    deltas = rng.uniform(0.0, 2.0, nd)
    if n:
        (us, vs)[seed % 2][seed % n] = special
    if nd > 1:
        deltas[seed % nd] = special
    with np.errstate(all="ignore"):
        want = _kernels._excess(us, vs, deltas, gamma, lam, spec)
    got = c_loops[2](us, vs, deltas, gamma, lam, spec)
    assert got.shape == want.shape == (n, nd)
    # NaN where numpy has NaN; elsewhere the same values (a zero's sign
    # aside, which no comparison against tol sees)
    assert np.array_equal(got, want, equal_nan=True)


def test_c_excess_refuses_arrays_it_could_overrun(c_loops):
    from sdlab.region import RegionSpec

    c_excess = c_loops[2]
    spec = RegionSpec(0.5, 6.0)
    us, vs, deltas = np.zeros(4), np.zeros(4), np.ones(3)
    with pytest.raises(IndexError):
        c_excess(us, vs[:-1].copy(), deltas, 0.5, 1.01, spec)
    with pytest.raises(TypeError):
        c_excess(us, vs, deltas.astype(np.float32), 0.5, 1.01, spec)
    with pytest.raises(TypeError):
        c_excess(np.zeros(8)[::2], vs, deltas, 0.5, 1.01, spec)
    assert c_excess(us, vs, deltas, 0.5, 1.01, spec).shape == (4, 3)


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
    scheme = (1.05, 1.0, 0.7, _kernels.KIND_TRILEVEL, 0.4)
    f = np.random.default_rng(3).uniform(-0.6, 0.6, 300)

    def calls():
        q, u, v = np.empty(300), np.empty(300), np.empty(300)
        bad = _kernels.run_fill(*scheme, f, q, u, v, 50.0)
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
    scheme = (1.02, 1.0, 0.9, _kernels.KIND_SIGN, 0.5)
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
    chosen = _kernels._PYTHON if backend == "python" else ("c", *_kernels._load_c())
    monkeypatch.setattr(_kernels, "_chosen", chosen)
    f = np.random.default_rng(0).uniform(-0.5, 0.5, 100)
    # sweeps pass gains straight from a numpy grid
    _, vmax = _kernels.probe_input(np.float64(1.01), 1.0, 0.7,
                                   _kernels.KIND_SIGN, 0.5, f, 50.0)
    assert type(vmax) is float
