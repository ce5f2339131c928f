"""Bandlimited test signals, sampling, and quantized reconstruction.

The end-to-end accuracy story lives here: draw a random signal with
bandwidth 1/2 and sup norm just under a target beta, sample it at rate
T > 1, push the samples through a modulator, reconstruct by the kernel
sum (1/T) * sum_n q_n g(t - n/T), and measure the sup deviation on a
dense grid kept well away from the window ends.

Reconstruction windows: a run at rate T uses N = round(L*T) samples on
(0, L] with L = 4*(W + 1), and errors are measured on the central half
[L/4, 3L/4].  The margin L/4 = W + 1 exceeds the kernel half-width W,
so every evaluated point sees a fully covered kernel sum.

Screened sup error: a rate's result is max|s - rec| alone, so exact
dots run only where it can be.  With u = 2^-53, one rfft of the samples
x the phases share and, per phase, one rfft of its taps h and one irfft
(length n >= len(x), a power of two: no output wraps) give approx with
|approx - rec| <= d at every grid point, where d*T = 16u log2(n) (|x|_1
|h|_2 + |x|_2 |h|_1) (the FFTs' 2-norm error, Higham, Accuracy and
Stability of Numerical Algorithms, Thm 24.2, through the product and the
inverse) + gamma_{2J+4} |x|_inf |h|_1 (the dot's 2J + 1 roundings, the
split's add and both divisions by T, ibid. Sec. 3.1) + n^2 (1 + |x|_1 +
|h|_1) 2^-1074 (underflow), |h| the largest over the phases.  Each
subtraction from s rounds by at most u|s - .|, so a = |s - approx| is
within delta = 100 (d + 2u max a) of the exact error e (100 for safety)
and the point of max e has a >= max a - 2 delta.  The exact errors
there, by _reconstruct_polyphase's correlator and operations, give its
result bit for bit.  A rate takes that full path where its dots are
shorter than _SCREEN_TAPS (the screen's FFTs then cost more than every
dot), where a phase's window passes the samples' ends, or where max a,
delta or n |x|_1 |h|_1 (which bounds every FFT intermediate and dot
partial sum) is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InsufficientDataError, InvalidInputError, _check_array_len
from .filters import FilterSpec
from .modulator import SchemeParams, run

__all__ = [
    "BandlimitedSignal",
    "gen_signal",
    "sampling_plan",
    "sup_error",
    "perfect_sample_error",
    "error_curve",
    "order_fit",
    "first_order_quantize",
    "reconstruction_error_of",
]

# sup normalization grid: covers the longest desk-scale window (L up to
# 272 time units) at 2048 points per unit, so the off-grid excess stays
# under the 1e-3 normalization margin (max slope <= 2*pi*0.45*sup)
_NORM_SPAN = 272.0
_NORM_STEP = 1.0 / 2048.0
_EVAL_PER_INTERVAL = 16
_EVAL_ROWS = 4096   # time points per block of BandlimitedSignal.eval
_NORM_ROWS = 34 * _EVAL_ROWS  # a quarter of the normalization grid
_SCREEN_TAPS = 1500  # the AVX2 full pass's break-even, at kernel widths 7-27


@dataclass(frozen=True)
class BandlimitedSignal:
    """Finite cosine sum with frequencies below the half-bandwidth 1/2."""

    freqs: np.ndarray
    amps: np.ndarray
    phases: np.ndarray
    sup_bound: float

    def eval(self, t):
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.freqs.size == 0:
            return 0.0 if scalar else np.zeros(t.shape)
        out = np.empty(t.size)

        def block(rows, ph):  # in place in the worker's buffer
            np.multiply(t[rows, None], 2.0 * math.pi, out=ph)
            ph *= self.freqs
            ph += self.phases
            np.cos(ph, out=ph)
            np.dot(ph, self.amps, out=out[rows])

        _kernels.map_blocks(block, t.size, _EVAL_ROWS, self.freqs.size)
        return float(out[0]) if scalar else out


class _Plan(NamedTuple):
    """Sampling rate, sample count, and the covered time window."""

    T: float
    n_samples: int
    window: tuple

    def times(self) -> np.ndarray:
        # samples are taken at n/T for n = 1..N
        return np.arange(1, self.n_samples + 1) / self.T


def gen_signal(seed, n_components: int, beta: float) -> BandlimitedSignal:
    """Random cosine mix normalized to a dense-grid sup of beta*(1 - 1e-3).

    Frequencies are uniform on [0, 0.45] (a guard inside the bandwidth
    1/2), phases uniform, raw amplitudes uniform on [0.5, 1.5] before the
    global rescale.  n_components = 0 yields the zero signal.
    """
    if not (0.0 < beta < 1.0):
        raise InvalidInputError(f"beta must lie in (0, 1), got {beta!r}")
    if n_components < 0:
        raise InvalidInputError("n_components must be nonnegative")
    _check_array_len(n_components, "signal components")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.0, 0.45, n_components)
    amps = rng.uniform(0.5, 1.5, n_components)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_components)
    if n_components:
        raw = BandlimitedSignal(freqs, amps, phases, sup_bound=1.0)
        # np.arange(0.0, _NORM_SPAN, _NORM_STEP) in chunks of whole eval
        # blocks, so each point keeps its dgemv row group
        n, peak = int(_NORM_SPAN / _NORM_STEP), 0.0
        for a in range(0, n, _NORM_ROWS):
            grid = np.arange(a, min(a + _NORM_ROWS, n)) * _NORM_STEP
            peak = max(peak, float(np.max(np.abs(raw.eval(grid)))))
        amps = amps * (beta * (1.0 - 1e-3) / peak)
    return BandlimitedSignal(freqs, amps, phases, sup_bound=float(beta))


def sampling_plan(T: float, filt: FilterSpec) -> _Plan:
    """Window and sample count giving a W + 1 margin around the middle half."""
    if not (math.isfinite(T) and T > 1.0):
        raise InvalidInputError(f"oversampling rate must be finite and exceed 1, got {T!r}")
    L = 4.0 * (filt.W + 1.0)
    _check_array_len(L * T, f"samples at rate {T!r}")
    return _Plan(T=float(T), n_samples=int(round(L * T)), window=(0.0, L))


def _grid_indices(plan: _Plan):
    """Central-half grid c/(16T), c = c_lo..c_hi, as (c_lo, c_hi, step)."""
    L = plan.window[1]
    step16 = 1.0 / (_EVAL_PER_INTERVAL * plan.T)
    c_lo = math.ceil(L / 4.0 / step16)
    c_hi = math.floor(3.0 * L / 4.0 / step16)
    return c_lo, c_hi, step16


def _phases(plan: _Plan, filt: FilterSpec):
    """J and, per r < 16, the phase p = c mod 16 of grid points r, r + 16,
    ..., the sample their "valid" correlation starts at, and their count."""
    c_lo, c_hi, _ = _grid_indices(plan)
    J = math.ceil(filt.W * plan.T) + 1
    return J, [((c_lo + r) % _EVAL_PER_INTERVAL,
                (c_lo + r) // _EVAL_PER_INTERVAL - 1 - J,
                len(range(r, c_hi - c_lo + 1, _EVAL_PER_INTERVAL)))
               for r in range(_EVAL_PER_INTERVAL)]


def _taps(filt: FilterSpec, T: float, J: int, p: int) -> np.ndarray:
    k = np.arange(2 * J + 1)
    return filt.g(((k - J) * _EVAL_PER_INTERVAL + p) / (_EVAL_PER_INTERVAL * T))


def _reconstruct_polyphase(values: np.ndarray, plan: _Plan, filt: FilterSpec):
    """Fast direct-summation reconstruction on the _grid_indices grid.

    Evaluation times c/(16T) split by phase p = c mod 16; each phase is
    one convolution of the samples with that phase's 2J+1 kernel taps,
    read at m - 1 + J for the grid's sample indices m = c // 16, which
    form one range [lo, hi].  A "valid" correlation of values[lo-1-J :
    hi+J] gives exactly those outputs with the full convolve's
    full-overlap dots, hence the same bits.  Where that window reaches
    past the samples (rates below about 3, where the margin W + 1 holds
    fewer than J + 1 samples) the phase reads a full convolve's
    zero-padded edge sums instead.  The phases run through map_ordered,
    each writing its own strided slice of out.  Returns (grid,
    reconstruction).
    """
    T = plan.T
    c_lo, c_hi, step16 = _grid_indices(plan)
    grid = np.arange(c_lo, c_hi + 1) * step16
    out = np.empty(grid.size)
    J, phases = _phases(plan, filt)
    correlate = _kernels.correlator(values)

    def phase(r):
        p, start, count = phases[r]
        h = _taps(filt, T, J, p)
        sel = slice(r, None, _EVAL_PER_INTERVAL)
        if start >= 0 and start + count + 2 * J <= plan.n_samples:
            correlate(start, h[::-1], out[sel])
            out[sel] /= T
        else:
            out[sel] = np.convolve(values, h)[start + 2 * J:start + 2 * J + count] / T

    _kernels.map_ordered(phase, range(_EVAL_PER_INTERVAL), None)
    return grid, out


def _screen(values, s, plan: _Plan, filt: FilterSpec):
    """(err, taps, top, delta) of the module docstring's screen: |s - approx|,
    _phases' phase taps by row, max(err) and delta (inf where an FFT could
    overflow); None for short dots or a window past the samples."""
    from numpy import fft  # on use, not at import

    T, u = plan.T, np.finfo(float).eps / 2
    J, phases = _phases(plan, filt)
    a = min(start for _, start, _ in phases)
    b = max(start + count + 2 * J for _, start, count in phases)
    if 2 * J + 1 < _SCREEN_TAPS or a < 0 or b > plan.n_samples:
        return None
    n = 1 << (b - a - 1).bit_length()
    x = values[a:b]
    taps = np.empty((_EVAL_PER_INTERVAL, 2 * J + 1))
    err = np.empty(s.size)

    def phase(block, buf):  # buf: the worker's scratch, H then z
        r = block.start
        p, start, count = phases[r]
        h, H, z = taps[r], buf[0, :n + 2].view(complex), buf[0, n + 2:]
        h[:] = _taps(filt, T, J, p)
        with np.errstate(all="ignore"):  # overflow leaves err non-finite
            fft.irfft(np.multiply(fft.rfft(h, n, out=H), X, out=H), n, out=z)
            o = start - a + 2 * J
            np.divide(z[o:o + count], T, out=err[r::_EVAL_PER_INTERVAL])
        return float(np.sum(np.abs(h))), math.sqrt(np.dot(h, h))

    with np.errstate(all="ignore"):
        X = fft.rfft(x, n)
        norms = _kernels.map_blocks(phase, _EVAL_PER_INTERVAL, 1, 2 * n + 2)
        np.abs(np.subtract(s, err, out=err), out=err)  # in approx's buffer
        # np.sum, not np.dot: OpenBLAS would thread a dot this long
        x1, x2 = float(np.sum(np.abs(x))), math.sqrt(np.sum(x * x))
    h1, h2 = max(h for h, _ in norms), max(h for _, h in norms)
    top, m = float(np.max(err)), 2 * J + 4
    delta = 100.0 * ((16.0 * u * math.log2(n) * (x1 * h2 + x2 * h1)
                      + m * u / (1.0 - m * u) * float(np.max(np.abs(x))) * h1
                      + n * n * (1.0 + x1 + h1) * 2.0 ** -1074) / T + 2.0 * u * top)
    return err, taps, top, delta if math.isfinite(n * x1 * h1) else math.inf


def _exact_max(values, s, idx, plan, filt, taps):
    """max|s - rec| over the grid points idx and the gaps of up to 32
    between them in a phase, in _reconstruct_polyphase's operations."""
    spans = []  # (r, j0, j1): outputs j0 .. j1 - 1 of the r-th phase
    for r in np.unique(idx % _EVAL_PER_INTERVAL).tolist():
        j = idx[idx % _EVAL_PER_INTERVAL == r] // _EVAL_PER_INTERVAL
        for piece in np.split(j, np.flatnonzero(np.diff(j) > 32) + 1):
            spans.append((r, int(piece[0]), int(piece[-1]) + 1))
    phases = _phases(plan, filt)[1]
    correlate = _kernels.correlator(values)

    def exact(span):
        r, j0, j1 = span
        rec = np.empty(j1 - j0)
        correlate(phases[r][1] + j0, taps[r][::-1], rec)
        rec /= plan.T
        return np.max(np.abs(s[r::_EVAL_PER_INTERVAL][j0:j1] - rec))

    return float(max(_kernels.map_ordered(exact, spans, None)))


def sup_error(signal, params: SchemeParams, T: float, filt: FilterSpec) -> float:
    """Max reconstruction error of the quantized scheme on the central-half
    grid.  Divergence of the modulator propagates."""
    return _sup_error_detail(signal, params, T, filt)[0]


def _sup_error_detail(signal, params, T, filt):
    plan = sampling_plan(T, filt)
    traj = run(params, signal.eval(plan.times()), plan.n_samples)
    return (reconstruction_error_of(traj.q, signal, T, filt),
            float(np.max(np.abs(traj.v))))


def perfect_sample_error(signal, T: float, filt: FilterSpec) -> float:
    """Reconstruction error from exact (unquantized) samples.

    This is the floor set by spectral truncation and kernel interpolation;
    quantization-error measurements are meaningful only well above it.
    """
    samples = signal.eval(sampling_plan(T, filt).times())
    return reconstruction_error_of(samples, signal, T, filt)


def first_order_quantize(samples) -> np.ndarray:
    """Single-accumulator scheme q_n = sign(u_{n-1} + f_n): the K = 1 case."""
    f = np.ascontiguousarray(samples, dtype=np.float64)
    if f.ndim != 1 or f.size == 0 or not np.all(np.isfinite(f)):
        raise InvalidInputError("samples must be a nonempty 1-D sequence of finite values")
    q = []
    u = 0.0
    for fi in f.tolist():
        qi = 1.0 if u + fi >= 0.0 else -1.0
        u = u + fi - qi
        q.append(qi)
    return np.array(q, dtype=np.int64)


def reconstruction_error_of(q, signal, T: float, filt: FilterSpec) -> float:
    """Sup error of a sample stream q against the signal: the one place a
    reconstruction is run and measured."""
    plan = sampling_plan(T, filt)
    q = np.asarray(q, dtype=np.float64)
    if q.size != plan.n_samples:
        raise InvalidInputError(
            f"expected {plan.n_samples} samples for T={T!r}, got {q.size}"
        )
    c_lo, c_hi, step16 = _grid_indices(plan)
    s = signal.eval(np.arange(c_lo, c_hi + 1) * step16)
    screened = _screen(q, s, plan, filt)
    if screened is not None:
        err, taps, top, delta = screened
        if math.isfinite(top) and math.isfinite(delta):
            return _exact_max(q, s, np.flatnonzero(err >= top - 2.0 * delta),
                              plan, filt, taps)
    return float(np.max(np.abs(s - _reconstruct_polyphase(q, plan, filt)[1])))


def error_curve(signal, params, T_list, filt: FilterSpec):
    """Rows (T, sup_error, bound) with bound = max|v| * C_g / T^2.

    params may be a SchemeParams or a callable T -> SchemeParams so rate-
    coupled families (loop gains 1 + 1/T) fit the same sweep.
    """
    rows = []
    for T in T_list:
        p = params(T) if callable(params) else params
        err, vmax = _sup_error_detail(signal, p, float(T), filt)
        rows.append({
            "T": float(T),
            "sup_error": err,
            "bound": vmax * filt.C_g / float(T) ** 2,
        })
    return rows


def order_fit(errors) -> float:
    """Least-squares slope of log(error) against log(T).

    Accepts (T, e) pairs or mappings with keys "T" and "sup_error".
    Points with nonpositive error carry no log-log information and are
    dropped; fewer than 3 usable points raise InsufficientDataError.
    """
    pts = []
    for row in errors:
        if isinstance(row, dict):
            T, e = row["T"], row["sup_error"]
        else:
            T, e = row
        if e > 0.0 and T > 0.0:
            pts.append((float(T), float(e)))
    if len(pts) < 3:
        raise InsufficientDataError(
            f"order fit needs at least 3 usable points, got {len(pts)}"
        )
    arr = np.array(pts)
    slope = np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0]
    return float(slope)
