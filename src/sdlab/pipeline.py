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

On that default grid the reconstruction is polyphase: one convolution
per phase of the 16 evaluation points per sampling interval, taken in
"valid" mode over just the samples the grid reads, so nothing is
computed that is thrown away.  Rates below about 3 leave fewer samples
in the margin than the kernel reaches; those phases use a full
convolution, with the same outputs as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InsufficientDataError, InvalidInputError
from .filters import FilterSpec
from .modulator import SchemeParams, run

__all__ = [
    "BandlimitedSignal",
    "SamplingConfig",
    "gen_signal",
    "sampling_plan",
    "reconstruct",
    "sup_error",
    "perfect_sample_error",
    "error_curve",
    "order_fit",
    "first_order_quantize",
]

# sup normalization grid: covers the longest desk-scale window (L up to
# 272 time units) at 2048 points per unit, so the off-grid excess stays
# under the 1e-3 normalization margin (max slope <= 2*pi*0.45*sup)
_NORM_SPAN = 272.0
_NORM_STEP = 1.0 / 2048.0
_EVAL_PER_INTERVAL = 16


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
            out = np.zeros(t.shape)
        else:
            ph = 2.0 * math.pi * t[:, None] * self.freqs[None, :] + self.phases
            out = np.cos(ph) @ self.amps
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling rate, sample count, and the covered time window."""

    T: float
    n_samples: int
    window: tuple

    def __post_init__(self):
        if not (isinstance(self.T, (int, float)) and self.T > 1.0):
            raise InvalidInputError(f"oversampling rate must exceed 1, got {self.T!r}")
        if self.n_samples < 1:
            raise InvalidInputError("need at least one sample")

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
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.0, 0.45, n_components)
    amps = rng.uniform(0.5, 1.5, n_components)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_components)
    if n_components:
        raw = BandlimitedSignal(freqs, amps, phases, sup_bound=1.0)
        grid = np.arange(0.0, _NORM_SPAN, _NORM_STEP)
        peak = float(np.max(np.abs(raw.eval(grid))))
        amps = amps * (beta * (1.0 - 1e-3) / peak)
    return BandlimitedSignal(freqs, amps, phases, sup_bound=float(beta))


def sampling_plan(T: float, filt: FilterSpec) -> SamplingConfig:
    """Window and sample count giving a W + 1 margin around the middle half."""
    if not math.isfinite(T):
        raise InvalidInputError(f"oversampling rate must be finite, got {T!r}")
    L = 4.0 * (filt.W + 1.0)
    return SamplingConfig(T=float(T), n_samples=int(round(L * T)), window=(0.0, L))


def reconstruct(q, T: float, filt: FilterSpec, t):
    """Kernel reconstruction (1/T) * sum_n q_n g(t - n/T) at time(s) t.

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


def _grid_indices(plan: SamplingConfig):
    """Central-half grid c/(16T), c = c_lo..c_hi, as (c_lo, c_hi, step)."""
    L = plan.window[1]
    step16 = 1.0 / (_EVAL_PER_INTERVAL * plan.T)
    c_lo = math.ceil(L / 4.0 / step16)
    c_hi = math.floor(3.0 * L / 4.0 / step16)
    return c_lo, c_hi, step16


def _eval_grid_default(plan: SamplingConfig) -> np.ndarray:
    """Central-half grid with 16 points per sampling interval."""
    c_lo, c_hi, step16 = _grid_indices(plan)
    return np.arange(c_lo, c_hi + 1) * step16


def _reconstruct_polyphase(values: np.ndarray, plan: SamplingConfig, filt: FilterSpec):
    """Fast direct-summation reconstruction on the default central grid.

    Evaluation times c/(16T) split by phase p = c mod 16; each phase is
    one convolution of the sample array with that phase's 2J+1 kernel
    taps, read at m - 1 + J for the grid's sample indices m = c // 16.
    Those m form one range [lo, hi], so only the samples
    values[lo-1-J : hi+J] enter, and a "valid" convolve of that window
    computes exactly the hi - lo + 1 needed outputs with the same
    full-overlap dot products as a full convolve, hence the same bits.  When the window
    reaches outside the samples (rates below about 3, where the margin
    W + 1 holds fewer than J + 1 samples) the phase falls back to the
    full convolve, whose zero-padded edge sums are then read.
    Returns (grid, reconstruction) matching _eval_grid_default.
    """
    T = plan.T
    N = plan.n_samples
    c_lo, c_hi, step16 = _grid_indices(plan)
    c = np.arange(c_lo, c_hi + 1)
    grid = c * step16
    out = np.empty(c.size)
    J = math.ceil(filt.W * T) + 1
    k = np.arange(2 * J + 1)
    for p in range(_EVAL_PER_INTERVAL):
        sel = slice((p - c_lo) % _EVAL_PER_INTERVAL, None, _EVAL_PER_INTERVAL)
        m = c[sel] // _EVAL_PER_INTERVAL
        if m.size == 0:
            continue
        taps = filt.g(((k - J) * _EVAL_PER_INTERVAL + p) / (_EVAL_PER_INTERVAL * T))
        lo, hi = int(m[0]), int(m[-1])
        if lo - 1 - J >= 0 and hi + J <= N:
            out[sel] = np.convolve(values[lo - 1 - J:hi + J], taps, mode="valid") / T
        else:
            conv = np.convolve(values, taps)
            out[sel] = conv[m - 1 + J] / T
    return grid, out


def _run_reconstruction(values, signal, plan, filt, eval_grid):
    if eval_grid is None:
        grid, rec = _reconstruct_polyphase(values, plan, filt)
    else:
        grid = np.asarray(eval_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidInputError("eval_grid must be a nonempty 1-D sequence")
        rec = reconstruct(values, plan.T, filt, grid)
    return float(np.max(np.abs(signal.eval(grid) - rec)))


def sup_error(signal, params: SchemeParams, T: float, filt: FilterSpec,
              eval_grid=None) -> float:
    """Max reconstruction error of the quantized scheme on the eval grid.

    With eval_grid None the default central-half grid is used via the
    polyphase fast path; a custom grid goes through the generic summation
    and must respect the coverage margins.  Divergence of the modulator
    propagates.
    """
    err, _ = _sup_error_detail(signal, params, T, filt, eval_grid)
    return err


def _sup_error_detail(signal, params, T, filt, eval_grid):
    plan = sampling_plan(T, filt)
    samples = signal.eval(plan.times())
    traj = run(params, samples, plan.n_samples)
    vmax = float(np.max(np.abs(traj.v)))
    err = _run_reconstruction(traj.q.astype(np.float64), signal, plan, filt, eval_grid)
    return err, vmax


def perfect_sample_error(signal, T: float, filt: FilterSpec, eval_grid=None) -> float:
    """Reconstruction error from exact (unquantized) samples.

    This is the floor set by spectral truncation and kernel interpolation;
    quantization-error measurements are meaningful only well above it.
    """
    plan = sampling_plan(T, filt)
    samples = signal.eval(plan.times())
    return _run_reconstruction(samples, signal, plan, filt, eval_grid)


def first_order_quantize(samples) -> np.ndarray:
    """Single-accumulator scheme q_n = sign(u_{n-1} + f_n): the K = 1 case."""
    f = np.ascontiguousarray(samples, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise InvalidInputError("samples must be a nonempty 1-D sequence")
    q = []
    u = 0.0
    for fi in f.tolist():
        qi = 1.0 if u + fi >= 0.0 else -1.0
        u = u + fi - qi
        q.append(qi)
    return np.array(q, dtype=np.int64)


def reconstruction_error_of(q, signal, T: float, filt: FilterSpec,
                            eval_grid=None) -> float:
    """Sup error of a caller-supplied sample stream q against the signal."""
    plan = sampling_plan(T, filt)
    q = np.asarray(q, dtype=np.float64)
    if q.size != plan.n_samples:
        raise InvalidInputError(
            f"expected {plan.n_samples} samples for T={T!r}, got {q.size}"
        )
    return _run_reconstruction(q, signal, plan, filt, eval_grid)


def error_curve(signal, params, T_list, filt: FilterSpec):
    """Rows (T, sup_error, bound) with bound = max|v| * C_g / T^2.

    params may be a SchemeParams or a callable T -> SchemeParams so rate-
    coupled families (loop gains 1 + 1/T) fit the same sweep.
    """
    rows = []
    for T in T_list:
        p = params(T) if callable(params) else params
        err, vmax = _sup_error_detail(signal, p, float(T), filt, None)
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
