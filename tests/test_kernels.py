"""One recursion loop behind run_fill, probe_const and probe_input.

The three entry points differ only in the input (constant or array), in
whether steps are recorded, and in the divergence bounds, so their
results must agree exactly wherever those differences do not matter.
The compiled C loop must agree bit for bit with the plain-Python
reference _kernels._recur, and the tables built on it must not depend on
the backend or the worker count.
"""

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import _kernels
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
def c_recur():
    if not HAVE_GCC:
        pytest.skip("no C compiler on PATH")
    return _kernels._load_c()


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
    monkeypatch.setattr(_kernels, "_chosen", ("python", _kernels._recur))
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
