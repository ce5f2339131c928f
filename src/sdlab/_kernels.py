"""Hot inner loops: the modulator recursion, the row formatter, the excess.

One loop, _recur, runs the double-loop recursion; run_fill, probe_const
and probe_input are one-call entry points that differ only in the input
(array or constant), in whether steps are recorded, and in the bounds.
A second loop, _format_rows, renders trajectory rows as CSV text for
serialize.write_trajectory_csv through format_rows, and a third, _excess,
measures one region step's escapes for invariance through excess.

The entry points run the loops on the backend chosen the first time one
of them runs (never at import) and reported as BACKEND:

    "c"      _recur.c, one library holding all three loops, compiled with
             gcc -O2 -ffp-contract=off into
             sdlab/__pycache__/_recur-<hash>.so (or a per-user directory
             under tempfile.gettempdir() when that one is not writable)
             and called through ctypes, which releases the GIL;
    "python" the plain-Python _recur and %-formatting _format_rows and
             the numpy _excess, when the library cannot be built or loaded.

The plain-Python loops are also the references the C loops are tested
against.  Contraction stays off: IEEE evaluation order is part of the
contract (bit-identical outputs across runs and backends, exact state
identities up to one rounding).

Quantizer encoding: kind 0 is the two-level sign quantizer (ties at 0 go
to +1), kind 1 is the three-level quantizer with dead band |x| < tau
mapping to 0.
"""

from __future__ import annotations

import os
import tempfile
import threading

import numpy as np

from .region import _step_region_arrays, b1_eval, b2_eval

# read by perfbench/run.py metadata() to label its records; always
# False, since the backends are C and Python
HAVE_NUMBA = False

KIND_SIGN = 0
KIND_TRILEVEL = 1

# run() guard: state magnitudes beyond this count as divergence
HARD_BOUND = 1.0e12


def _recur(lam1, lam2, gamma, kind, tau, f, beta, n_steps, ubound, vbound,
           q_out, u_out, v_out):
    """The two-gain recursion from u = v = 0, behind all three entry points.

    The input is f[i], or the constant beta when f is None.  q, u, v are
    written per step unless q_out is None.  Returns (diverged_at, vmax):
    diverged_at is the 0-based step at which |u| > ubound or |v| > vbound
    (a non-finite state fails the same test), -1 if all n_steps stayed
    bounded; vmax is the largest |v| seen up to and including that step.
    The arithmetic runs on Python floats, as C runs on doubles: same bits,
    no numpy overflow warnings, and a float vmax.
    """
    lam1, lam2, gamma, tau, beta = map(float, (lam1, lam2, gamma, tau, beta))
    ubound, vbound = float(ubound), float(vbound)
    trilevel = kind == KIND_TRILEVEL
    const = f is None
    record = q_out is not None
    u = 0.0
    v = 0.0
    vmax = 0.0
    for i in range(n_steps):
        s = u + gamma * v
        if trilevel and (-tau < s < tau):
            q = 0.0
        elif s >= 0.0:
            q = 1.0
        else:
            q = -1.0
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


def _format_rows(n0, f, q, u, v):
    """Rows n0+1 .. n0+len(f) of (n, f, q, u, v) as CSV text, in bytes."""
    n = range(n0 + 1, n0 + f.shape[0] + 1)
    rows = zip(n, f.tolist(), q.tolist(), u.tolist(), v.tolist())
    return "".join(map(_ROW.__mod__, rows)).encode("ascii")


def _excess(us, vs, deltas, gamma, lam, spec):
    """Excess of (us[i], vs[i]) stepped by deltas[j], at (i, j), in numpy:
    max(|u'| - u0, B2(u') - v', v' - B1(u')), > 0 where (u', v') leaves spec."""
    u2, v2 = _step_region_arrays(us[:, None], vs[:, None], deltas[None, :], gamma, lam)
    return np.maximum(np.maximum(np.abs(u2) - spec.u0, b2_eval(spec, u2) - v2),
                      v2 - b1_eval(spec, u2))


# ---------------------------------------------------------------- backends

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_recur.c")
_CC = ["gcc"]
_CFLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]

# longest %.17g text of a double, as in -2.2250738585072014e-308
_NUM_WIDTH = 24

# (BACKEND, then loops with the signatures of _recur, _format_rows, _excess)
_PYTHON = ("python", _recur, _format_rows, _excess)
_chosen = None
_choose_lock = threading.Lock()


def _library_path():
    """Path of the compiled _recur.c, building it there if it is missing.

    The name hashes the source, the compiler command and the platform, so
    a stale library is never loaded.  The build writes a temporary file
    and renames it into place, so a concurrent reader never sees half a
    library.
    """
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
    """_recur, _format_rows and _excess on the C loops, arrays checked first."""
    import ctypes

    lib = ctypes.CDLL(_library_path())
    fn = lib.sdlab_recur
    d, p = ctypes.c_double, ctypes.c_void_p
    fn.argtypes = [d, d, d, ctypes.c_int, d, p, d, ctypes.c_longlong, d, d,
                   p, p, p, ctypes.POINTER(d)]
    fn.restype = ctypes.c_longlong

    def c_recur(lam1, lam2, gamma, kind, tau, f, beta, n_steps, ubound,
                vbound, q_out, u_out, v_out):
        fp = None if f is None else _address(f, n_steps, False)
        if q_out is not None:
            qp, up, vp = (_address(a, n_steps, True) for a in (q_out, u_out, v_out))
        else:
            qp = up = vp = None
        vmax = d()
        at = fn(lam1, lam2, gamma, kind, tau, fp, beta, n_steps, ubound,
                vbound, qp, up, vp, ctypes.byref(vmax))
        return at, vmax.value

    fmt = lib.sdlab_format_rows
    ll = ctypes.c_longlong
    fmt.argtypes = [ll, p, p, p, p, ll, p, ll]
    fmt.restype = ll

    def c_format_rows(n0, f, q, u, v):
        count = f.shape[0]
        if count == 0:
            return b""
        fp, up, vp = (_address(a, count, False) for a in (f, u, v))
        qp = _address(q, count, False, np.int64)
        # the widest row this chunk can have, so the buffer cannot overflow
        q_width = max(len(str(q[:count].min())), len(str(q[:count].max())))
        cap = count * (len(str(n0 + count)) + q_width + 3 * _NUM_WIDTH + 5)
        buf = bytearray(cap)
        out = (ctypes.c_char * cap).from_buffer(buf)
        written = fmt(n0, fp, qp, up, vp, count, out, cap)
        del out
        if written < 0:
            raise RuntimeError(f"{count} rows overflowed {cap} bytes")
        del buf[written:]
        return buf

    exc = lib.sdlab_excess
    exc.argtypes, exc.restype = [p, p, ll, p, ll, *[d] * 6, p], None

    def c_excess(us, vs, deltas, gamma, lam, spec):
        n, nd = us.shape[0], deltas.shape[0]
        out = np.empty((n, nd))
        exc(_address(us, n, False), _address(vs, n, False), n,
            _address(deltas, nd, False), nd, gamma, lam, spec.u0, spec.C,
            spec.delta_H, spec.delta_L, out.ctypes.data)
        return out

    return c_recur, c_format_rows, c_excess


def _choose():
    """Settle on the C loops if they build and load, else the Python ones."""
    import subprocess

    global _chosen
    with _choose_lock:
        if _chosen is None:
            try:
                _chosen = ("c", *_load_c())
            except (OSError, subprocess.SubprocessError):
                _chosen = _PYTHON
    return _chosen


def _loop():
    return (_chosen or _choose())[1]


def __getattr__(name):
    # BACKEND is settled lazily, so reading it counts as first use
    if name == "BACKEND":
        return (_chosen or _choose())[0]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------------ entry points

def run_fill(lam1, lam2, gamma, kind, tau, f, q_out, u_out, v_out, bound):
    """Fold the recursion over f, recording every step into q/u/v_out.

    Returns -1 on completion, or the 0-based step at which |u| or |v|
    left [0, bound].
    """
    return _loop()(lam1, lam2, gamma, kind, tau, f, 0.0, f.shape[0],
                   bound, bound, q_out, u_out, v_out)[0]


def probe_const(lam1, lam2, gamma, kind, tau, beta, n_steps, bound):
    """Run n_steps with constant input f = beta, storing nothing.

    Returns (diverged_at, vmax) with |v| checked against bound and |u|
    against HARD_BOUND.
    """
    return _loop()(lam1, lam2, gamma, kind, tau, None, beta, n_steps,
                   HARD_BOUND, bound, None, None, None)


def probe_input(lam1, lam2, gamma, kind, tau, f, bound):
    """Same as probe_const but driven by a precomputed input array."""
    return _loop()(lam1, lam2, gamma, kind, tau, f, 0.0, f.shape[0],
                   HARD_BOUND, bound, None, None, None)


def format_rows(n0, f, q, u, v):
    """CSV rows n0+1 .. n0+len(f) of a trajectory as ASCII bytes.

    f, u, v are float64 and q int64 arrays of one length; each row is
    "n,f,q,u,v\\n" with the floats in %.17g and a NaN as "nan".  The
    result is bytes or a bytearray.
    """
    return (_chosen or _choose())[2](n0, f, q, u, v)


def excess(us, vs, deltas, gamma, lam, spec):
    """_excess of 1-D C-contiguous float64 us, vs, deltas in a RegionSpec."""
    return (_chosen or _choose())[3](us, vs, deltas, gamma, lam, spec)
