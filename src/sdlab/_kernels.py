"""Hot inner loops, and the one thread map that fans them out.

Four loops run on the backend chosen the first time one is called (never
at import) and reported as BACKEND: "c", _recur.c as _load_c builds and
loads it, or "python", the reference loops below, when it cannot be built
or loaded.  They are _recur (the double-loop recursion behind run_fill,
probe_const and probe_input), _format_rows (trajectory CSV rows), _escapes
(one region step's escapes) and _valid_convolve (a reconstruction phase's
dots).  The C loops are tested against these references bit for bit, so
contraction stays off: IEEE evaluation order is part of the contract.

map_ordered runs the sweeps' rows, verify_invariance's blocks and the
reconstruction's phases; a caller whose items call BLAS runs its map
inside one_blas_thread, as map_blocks does.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import operator
import os
import sys
import tempfile
import threading

import numpy as np

from .errors import InvalidInputError
from .region import b1_eval, b2_eval, step_region

# read by perfbench/run.py metadata() to label its records; always
# False, since the backends are C and Python
HAVE_NUMBA = False

# run_fill's bound on |u| and |v|, the probes' on |u|: beyond it a state
# counts as divergence
HARD_BOUND = 1.0e12

# map_blocks' most workers and buffers (16 design blocks: 1024 rows)
_BLOCK_WORKERS = 16


class KeyedUniform:
    """np.random.default_rng(list(key)).uniform(-beta, beta, n), drawn only
    when a loop runs; len() is n, the steps it drives."""

    __slots__ = ("key", "beta", "n")

    def __init__(self, key, beta, n):
        self.key = tuple(map(operator.index, key))
        self.beta, self.n = float(beta), operator.index(n)
        # what numpy refuses; C's seeding also needs the ints >= 0
        if (min(self.key, default=-1) < 0 or self.n < 0
                or not 0.0 <= self.beta <= sys.float_info.max / 2):
            raise ValueError(f"bad stream key={key!r}, beta={beta!r}, n={n!r}")

    def __len__(self):
        return self.n

    def draw(self):
        return np.random.default_rng(list(self.key)).uniform(
            -self.beta, self.beta, self.n)


def _recur(lam1, lam2, gamma, tau, f, beta, n_steps, ubound, vbound,
           q_out, u_out, v_out):
    """The two-gain recursion from u = v = 0, behind all three entry points.

    The input is f[i] (a KeyedUniform is drawn first), or the constant
    beta when f is None.  q (int64), u, v are written per step unless
    q_out is None.  Returns (diverged_at, vmax): diverged_at is the
    0-based step at which |u| > ubound or |v| > vbound (a non-finite state
    fails the same test), -1 if all n_steps stayed bounded; vmax is the
    largest |v| seen up to and including that step.
    The arithmetic runs on Python floats, as C runs on doubles: same bits,
    no numpy overflow warnings, and a float vmax.
    """
    lam1, lam2, gamma, tau, beta = map(float, (lam1, lam2, gamma, tau, beta))
    ubound, vbound = float(ubound), float(vbound)
    trilevel = tau > 0.0  # tau 0 has an empty band: skip its test
    if isinstance(f, KeyedUniform):
        f = f.draw()
    const = f is None
    record = q_out is not None
    u = 0.0
    v = 0.0
    vmax = 0.0
    for i in range(n_steps):
        s = u + gamma * v
        if trilevel and (-tau < s < tau):
            q = 0
        elif s >= 0.0:
            q = 1
        else:
            q = -1
        w = lam1 * u + ((beta if const else f.item(i)) - q)
        v = w + lam2 * v
        u = w
        if record:
            q_out[i] = q
            u_out[i] = u
            v_out[i] = v
        av = abs(v)
        if av > vmax:
            vmax = av
        if not (av <= vbound and abs(u) <= ubound):
            return i, vmax
    return -1, vmax


_ROW = "%d,%.17g,%d,%.17g,%.17g\n"


def _format_rows(n0, f, q, u, v, out):
    """Rows n0+1 .. n0+len(f) of (n, f, q, u, v) as CSV text, written into
    the bytearray out; returns their length, IndexError if out is shorter."""
    n = range(n0 + 1, n0 + f.shape[0] + 1)
    rows = zip(n, f.tolist(), q.tolist(), u.tolist(), v.tolist())
    text = "".join(map(_ROW.__mod__, rows)).encode("ascii")
    if len(text) > len(out):
        raise IndexError(f"rows {n0 + 1}..{n0 + len(f)} overrun {len(out)} bytes")
    out[:len(text)] = text
    return len(text)


def _excess(us, vs, deltas, gamma, lam, spec):
    """Excess of (us[i], vs[i]) stepped by deltas[j], at (i, j), in numpy:
    max(|u'| - u0, B2(u') - v', v' - B1(u')), > 0 where (u', v') leaves spec."""
    u2, v2 = step_region(us[:, None], vs[:, None], deltas[None, :], gamma, lam)
    return np.maximum(np.maximum(np.abs(u2) - spec.u0, b2_eval(spec, u2) - v2),
                      v2 - b1_eval(spec, u2))


VIOLATION = np.dtype([("point_index", "i8"), ("delta_index", "i8"), ("u", "f8"),
                      ("v", "f8"), ("u_next", "f8"), ("v_next", "f8"), ("excess", "f8")])


def _escapes(us, vs, deltas, gamma, lam, spec, tol, lo, rows):
    """(count, top): how many pairs _excess puts above tol, 4,096 points at
    a time, and the largest of their excesses (-inf if none); their
    VIOLATION records, in (point, delta) order, go into rows unless None."""
    count, top = 0, -np.inf
    for a in range(0, us.shape[0], 4096):
        excess = _excess(us[a:a + 4096], vs[a:a + 4096], deltas, gamma, lam, spec)
        i, j = np.nonzero(excess > tol)  # row-major: (point, delta) order
        if rows is not None:
            u, v = us[a + i], vs[a + i]
            rows[count:count + i.size] = np.rec.fromarrays(
                (lo + a + i, j, u, v, *step_region(u, v, deltas[j], gamma, lam),
                 excess[i, j]), dtype=VIOLATION)
        count += i.size
        top = max(top, float(excess[i, j].max(initial=-np.inf)))
    return count, top


# OpenBLAS's ddot sums up to this many terms on one thread; on two threads
# a longer dot is (0.0 + first) + second, split at _first_half
_DOT_SPLIT = 10_000


def _first_half(n):
    """Terms of an n-term dot that OpenBLAS sums first on two threads."""
    return n if n <= _DOT_SPLIT else -(-n // 2)


def _valid_convolve(window, taps):
    """np.convolve(window, taps, "valid") in the bits OpenBLAS's ddot gives
    on two threads, whatever OPENBLAS_NUM_THREADS says, each piece summed
    on one thread.  Under 12 taps each output is an np.dot, as np.correlate
    sums such short kernels in its own loop, not by ddot."""
    n = taps.size
    h = _first_half(n)
    rev = np.ascontiguousarray(taps[::-1])
    with one_blas_thread():
        if n < 12:
            return np.array([np.dot(window[j:j + n], rev)
                             for j in range(window.size - n + 1)])
        first = np.correlate(window[:window.size - n + h], rev[:h], mode="valid")
        if h == n:
            return first
        return (0.0 + first) + np.correlate(window[h:], rev[h:], mode="valid")


def _correlator(values):
    """The Python backend's correlate, by _valid_convolve."""
    def correlate(start, taps, out):
        window = values[start:start + out.shape[0] + taps.shape[0] - 1]
        out[:] = _valid_convolve(window, taps[::-1])
    return correlate


# ---------------------------------------------------------------- backends

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_recur.c")
_CC = ["gcc"]
_CFLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]

# longest %.17g text of a double, as in -2.2250738585072014e-308
_NUM_WIDTH = 24

# a backend: the name BACKEND reports and loops like _recur, _escapes,
# _format_rows and correlator
_Backend = collections.namedtuple("_Backend", "name recur escapes format_rows correlator")
_PYTHON = _Backend("python", _recur, _escapes, _format_rows, _correlator)
_chosen = None
_choose_lock = threading.Lock()


def _library_path():
    """Path of the compiled _recur.c, building it there if it is missing.

    The name hashes the source, the compiler command and the platform, so
    a stale library is never loaded.  The build writes a temporary file
    and renames it into place, so a concurrent reader never sees half a
    library, then removes older ones from the package's __pycache__.
    """
    import glob
    import hashlib
    import subprocess
    import sysconfig

    with open(_SRC, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source)
    key.update("\0".join([*_CC, *_CFLAGS, sysconfig.get_platform()]).encode())
    name = f"_recur-{key.hexdigest()[:16]}.so"

    home = os.path.join(os.path.dirname(_SRC), "__pycache__")
    if os.path.exists(os.path.join(home, name)):
        return os.path.join(home, name)
    try:
        os.makedirs(home, exist_ok=True)
        writable = os.access(home, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        home = os.path.join(tempfile.gettempdir(), f"sdlab-{os.getuid()}")
        os.makedirs(home, mode=0o700, exist_ok=True)
        if os.stat(home).st_uid != os.getuid():
            raise OSError(f"{home} belongs to another user")
    path = os.path.join(home, name)
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(prefix="_recur-", suffix=".tmp", dir=home)
        os.close(fd)
        try:
            subprocess.run([*_CC, *_CFLAGS, "-o", tmp, _SRC, "-lm"],
                           check=True, capture_output=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        if writable:  # not the per-user directory, which other installs share
            for old in set(glob.glob(os.path.join(home, "_recur-*.so"))) - {path}:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(old)
    return path


def _address(a, n_steps, writable, dtype=np.float64):
    """Data address of a, once it is safe for C to touch n_steps entries."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.ndim == 1 and a.flags.c_contiguous):
        raise TypeError(f"kernel arrays must be 1-D C-contiguous {np.dtype(dtype)}")
    if a.shape[0] < n_steps:
        raise IndexError(f"array of {a.shape[0]} values for {n_steps} steps")
    if writable and not a.flags.writeable:
        raise ValueError("kernel output arrays must be writable")
    return a.ctypes.data


def _load_c():
    """The "c" backend: the loops built from _SRC, arrays checked first."""
    import ctypes

    lib = ctypes.CDLL(_library_path())
    fn = lib.sdlab_recur
    d, p, ll = ctypes.c_double, ctypes.c_void_p, ctypes.c_longlong
    fn.argtypes = [d, d, d, d, p, d, p, ll, ll, d, d, p, p, p,
                   ctypes.POINTER(d)]
    fn.restype = ll

    def c_recur(lam1, lam2, gamma, tau, f, beta, n_steps, ubound, vbound,
                q_out, u_out, v_out):
        key, n_key, fp = None, 0, None
        if isinstance(f, KeyedUniform):
            # SeedSequence's uint32 words: each int little-endian, 0 as one
            key = b"".join(k.to_bytes(4 * max(1, -(-k.bit_length() // 32)),
                                      "little") for k in f.key)
            n_key, beta = len(key) // 4, f.beta
        elif f is not None:
            fp = _address(f, n_steps, False)
        if q_out is not None:
            qp = _address(q_out, n_steps, True, np.int64)
            up, vp = (_address(a, n_steps, True) for a in (u_out, v_out))
        else:
            qp = up = vp = None
        vmax = d()
        at = fn(lam1, lam2, gamma, tau, fp, beta, key, n_key, n_steps, ubound,
                vbound, qp, up, vp, ctypes.byref(vmax))
        return at, vmax.value

    fmt = lib.sdlab_format_rows
    fmt.argtypes = [ll, p, p, p, p, ll, p, ll]
    fmt.restype = ll

    def c_format_rows(n0, f, q, u, v, out):
        count = f.shape[0]
        fp, up, vp = (_address(a, count, False) for a in (f, u, v))
        n = fmt(n0, fp, _address(q, count, False, np.int64), up, vp, count,
                (ctypes.c_char * len(out)).from_buffer(out), len(out))
        if n < 0:
            raise IndexError(f"rows {n0 + 1}..{n0 + count} overrun {len(out)} bytes")
        return n

    esc = lib.sdlab_escapes
    esc.argtypes = [p, p, ll, p, ll, *[d] * 7, ll, p, ll, ctypes.POINTER(d)]
    esc.restype = ll

    def c_escapes(us, vs, deltas, gamma, lam, spec, tol, lo, rows):
        n, nd, cap = us.shape[0], deltas.shape[0], 0 if rows is None else len(rows)
        top = d()
        count = esc(_address(us, n, False), _address(vs, n, False), n,
                    _address(deltas, nd, False), nd, gamma, lam, spec.u0, spec.C,
                    spec.delta_H, spec.delta_L, tol, lo,
                    None if rows is None else _address(rows, cap, True, VIOLATION), cap,
                    ctypes.byref(top))
        if rows is not None and count > cap:
            raise IndexError(f"{count} escapes for {cap} rows")
        return count, top.value

    cor = lib.sdlab_correlate
    cor.argtypes, cor.restype = [p, ll, p, ll, ll, ll, p, ll], None

    def c_correlator(values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        n = values.shape[0]

        def correlate(start, taps, out):
            n_taps, n_out = taps.shape[0], out.shape[0]
            if not (0 <= start <= n - n_out - n_taps + 1 and n_taps > 0
                    and out.dtype == np.float64 and out.flags.writeable):
                raise IndexError(f"{n_out} outputs of {n_taps} taps at {start} of {n}")
            taps = np.ascontiguousarray(taps, dtype=np.float64)
            cor(values.ctypes.data, start, taps.ctypes.data, n_taps,
                _first_half(n_taps), n_out, out.ctypes.data, out.strides[0] // 8)
        return correlate

    return _Backend("c", c_recur, c_escapes, c_format_rows, c_correlator)


def _choose():
    """Settle on the C loops if they build and load, else the Python ones."""
    import subprocess

    global _chosen
    with _choose_lock:
        if _chosen is None:
            try:
                _chosen = _load_c()
            except (OSError, subprocess.SubprocessError):
                _chosen = _PYTHON
    return _chosen


def _loop():
    return (_chosen or _choose()).recur


def __getattr__(name):
    # BACKEND is settled lazily, so reading it counts as first use
    if name == "BACKEND":
        return (_chosen or _choose()).name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------------ entry points

def cores():
    """CPUs this process may run on: its affinity set, where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def map_ordered(fn, items, workers):
    """[fn(x) for x in items], in item order, on up to workers threads
    (None: one per core), serially when one would do; InvalidInputError
    unless workers is None or an int >= 1.

    The calling thread takes items too, from the one queue its workers - 1
    helpers take from.  After a failure no new item starts, and the
    exception of the first failing item in item order is raised.
    """
    if workers is None:
        workers = cores()
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InvalidInputError(f"workers must be a positive integer, got {workers!r}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return list(map(fn, items))
    todo = collections.deque(enumerate(items))
    out, failed = [None] * len(items), {}

    def drain():
        while todo and not failed:
            try:
                i, x = todo.popleft()
            except IndexError:  # another thread took the last item
                return
            try:
                out[i] = fn(x)
            except BaseException as e:  # re-raised on the calling thread
                failed[i] = e

    helpers = [threading.Thread(target=drain)
               for _ in range(min(workers, len(items)) - 1)]
    for h in helpers:
        h.start()
    try:
        drain()
    finally:
        todo.clear()  # after an interrupt the helpers start no new item
        for h in helpers:
            h.join()
    if failed:
        raise failed[min(failed)]
    return out


def map_blocks(fn, n, rows, width):
    """fn(block, buf) over the row blocks [a, a + rows) that cover range(n),
    through map_ordered on one thread per core, at most _BLOCK_WORKERS,
    inside one_blas_thread.  buf is a (block rows, width) view of one
    of min(workers, blocks) buffers the calling thread allocates, lent to
    one call at a time.  Callers looping over rows in numpy pass a multiple
    of 64, so blocks start 64-row aligned for its vector loops."""
    blocks = [slice(a, min(a + rows, n)) for a in range(0, n, rows)]
    workers = min(cores(), _BLOCK_WORKERS)
    free = [np.empty((min(rows, n), width)) for _ in blocks[:workers]]

    def lend(block):  # list.pop and append are atomic: no lock needed
        buf = free.pop()
        try:
            return fn(block, buf[:block.stop - block.start])
        finally:
            free.append(buf)

    with one_blas_thread():
        return map_ordered(lend, blocks, workers)


# ------------------------------------------------------------ BLAS threads

_blas_lock = threading.Lock()
_blas_depth = _blas_saved = 0  # open blocks; the count the first replaced


@functools.cache  # looked up at the first pin, never at import
def _find_blas_setter():
    """openblas_set_num_threads_local of numpy's OpenBLAS, found through
    numpy's extension module, or None (an older one, another BLAS), with
    ctypes' default int argument and result.  Despite its name it sets the
    process-wide thread count, and it returns the old one."""
    import ctypes

    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    with contextlib.suppress(AttributeError, OSError):
        return ctypes.CDLL(umath.__file__).openblas_set_num_threads_local
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, process-wide.

    The first block to enter sets the count and the last to leave restores
    it, so blocks overlapping on several threads (two maps at once) never
    leave it changed.
    """
    global _blas_depth, _blas_saved
    setter = _find_blas_setter()
    with _blas_lock:
        if _blas_depth == 0 and setter is not None:
            _blas_saved = setter(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and setter is not None:
                setter(_blas_saved)


def run_fill(lam1, lam2, gamma, tau, f, q_out, u_out, v_out):
    """Fold the recursion over f, recording every step into q/u/v_out.

    Returns -1 on completion, or the 0-based step at which |u| or |v|
    left [0, HARD_BOUND].
    """
    return _loop()(lam1, lam2, gamma, tau, f, 0.0, f.shape[0],
                   HARD_BOUND, HARD_BOUND, q_out, u_out, v_out)[0]


def probe_const(lam1, lam2, gamma, tau, beta, n_steps, bound):
    """Run n_steps with constant input f = beta, storing nothing.

    Returns (diverged_at, vmax) with |v| checked against bound and |u|
    against HARD_BOUND.
    """
    return _loop()(lam1, lam2, gamma, tau, None, beta, n_steps,
                   HARD_BOUND, bound, None, None, None)


def probe_input(lam1, lam2, gamma, tau, f, bound):
    """Same as probe_const but driven by f, an array or a KeyedUniform."""
    return _loop()(lam1, lam2, gamma, tau, f, 0.0, len(f),
                   HARD_BOUND, bound, None, None, None)


def format_rows(n0, f, q, u, v, out):
    """Write CSV rows n0+1 .. n0+len(f) of a trajectory as ASCII into the
    bytearray out and return their length; IndexError if out is too short,
    as it never is with row_width(n0 + len(f), q) bytes a row.  f, u, v
    are float64 and q int64 arrays of one length; each row is "n,f,q,u,v"
    and a newline, with the floats in %.17g and a NaN as "nan"."""
    return (_chosen or _choose()).format_rows(n0, f, q, u, v, out)


def row_width(n, q):
    """Bytes that hold any trajectory row numbered up to n with q's values."""
    return (len(str(n)) + max(len(str(q.min(initial=0))), len(str(q.max(initial=0))))
            + 3 * _NUM_WIDTH + 5)


def correlator(values):
    """correlate(start, taps, out) over the 1-D values: writes into the
    float64 view out np.correlate(values[start:], taps, "valid")[:len(out)]
    in _valid_convolve's bits, on the C loop in the summation order of
    OpenBLAS's SkylakeX ddot without BLAS or the GIL (see _recur.c)."""
    return (_chosen or _choose()).correlator(values)


def escapes(us, vs, deltas, gamma, lam, spec, tol, lo=0, rows=None):
    """_escapes of 1-D C-contiguous float64 us, vs, deltas, the first point
    numbered lo; on the C loop IndexError if rows cannot hold them all.
    The C loop skips a point's inner deltas when its excesses at the
    smallest and largest delta bound them below tol (see _recur.c)."""
    return (_chosen or _choose()).escapes(us, vs, deltas, gamma, lam, spec,
                                          tol, lo, rows)
