"""Stability-threshold and state-bound sweeps over the loop gain.

Each sweep walks a grid of gains lambda >= 1 for the one-parameter
family (second accumulator gain fixed at 1), measuring per grid point
either the largest input bound beta that keeps 10^6 iterations below a
divergence cutoff (bisection), or the largest |v_n| reached by a run.
Companion columns carry the certified values so the tables line up
theory against observation.

Determinism: every stochastic probe draws from a fresh generator keyed
by (seed, row index, probe index), so results are byte-identical for
any worker count and rows can run concurrently.  The C kernel backend
releases the GIL, so the row threads run in parallel; the pure-Python
fallback holds the GIL and the threads take turns.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .certificates import VARIANT_REMARK, max_beta_theoretical
from .errors import (
    DegenerateConfigurationError,
    DivergenceError,
    InvalidInputError,
)

__all__ = [
    "DEFAULT_SEED",
    "SweepConfig",
    "is_stable",
    "find_beta_threshold",
    "measure_vmax",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "vmax_at_theoretical",
]

DEFAULT_SEED = 1729

_INPUT_MODES = ("constant", "random-uniform")
_GAMMA_MODES = ("thm1", "gamma1")
_VMAX_PROBE_INDEX = 1_000_000  # stream slot reserved for measure_vmax draws


def _default_lambda_grid() -> np.ndarray:
    # gains 1.00(0.005)1.12, spanning past every certificate cutoff
    return np.linspace(1.0, 1.12, 25)


@dataclass(frozen=True)
class SweepConfig:
    """Grid, probe, and reproducibility settings shared by the sweeps."""

    lambda_grid: np.ndarray = field(default_factory=_default_lambda_grid)
    gamma_mode: str = "thm1"
    input_mode: str = "constant"
    max_iters: int = 1_000_000
    divergence_bound: float = 1000.0
    bisect_tol: float = 1e-3
    seed: int = DEFAULT_SEED
    variant: str = VARIANT_REMARK
    alpha_cap: float = 0.99
    workers: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidInputError("lambda_grid must be a nonempty 1-D sequence")
        if np.any(grid < 1.0) or not np.all(np.isfinite(grid)):
            raise InvalidInputError("lambda_grid entries must be finite and >= 1")
        object.__setattr__(self, "lambda_grid", grid)
        if self.gamma_mode not in _GAMMA_MODES:
            raise InvalidInputError(f"gamma_mode must be one of {_GAMMA_MODES}")
        if self.input_mode not in _INPUT_MODES:
            raise InvalidInputError(f"input_mode must be one of {_INPUT_MODES}")
        if not self.bisect_tol > 0.0:
            raise InvalidInputError("bisect_tol must be positive")
        if not self.divergence_bound > 10.0:
            raise InvalidInputError("divergence_bound must exceed 10")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be positive")
        if not (0.0 < self.alpha_cap < 1.0):
            raise InvalidInputError("alpha_cap must lie in (0, 1)")


def _probe(lam, gamma, beta, cfg, row_index, probe_index):
    """(diverged_at, vmax) for one run from the zero state."""
    if cfg.input_mode == "constant":
        return _kernels.probe_const(
            lam, 1.0, gamma, _kernels.KIND_SIGN, 0.5,
            beta, cfg.max_iters, cfg.divergence_bound,
        )
    rng = np.random.default_rng([cfg.seed, row_index, probe_index])
    f = rng.uniform(-beta, beta, cfg.max_iters)
    return _kernels.probe_input(
        lam, 1.0, gamma, _kernels.KIND_SIGN, 0.5,
        f, cfg.divergence_bound,
    )


def is_stable(lam: float, gamma: float, beta: float, cfg: SweepConfig,
              row_index: int = 0, probe_index: int = 0) -> bool:
    """True iff |v_n| stays within cfg.divergence_bound for all max_iters.

    Input is constant f = beta or i.i.d. uniform on [-beta, beta] per
    cfg.input_mode; the random stream is keyed by (seed, row_index,
    probe_index) so repeated calls are reproducible.
    """
    if not (0.0 <= beta < 1.0):
        raise InvalidInputError(f"beta must lie in [0, 1), got {beta!r}")
    if lam < 1.0 or gamma <= 0.0:
        raise InvalidInputError("need lam >= 1 and gamma > 0")
    diverged_at, _ = _probe(lam, gamma, beta, cfg, row_index, probe_index)
    return diverged_at < 0


def _resolve_gamma(lam: float, gamma_mode: str, cfg: SweepConfig):
    """Per-row quantizer coupling: certified value or the fixed 1.

    Returns (gamma, gamma_mode_label, alpha_used, beta_theoretical); the
    label records the fallback when no certificate exists at this gain.
    """
    if gamma_mode == "gamma1":
        return 1.0, "gamma1", None, None
    beta_max, alpha_star = max_beta_theoretical(
        lam, alpha_cap=cfg.alpha_cap, variant=cfg.variant
    )
    if beta_max <= 0.0 or not math.isfinite(alpha_star):
        return 1.0, "gamma1-fallback", None, None
    gamma = (1.0 - alpha_star) / (1.0 + alpha_star)
    return gamma, "thm1", alpha_star, beta_max


def find_beta_threshold(lam: float, gamma_mode: str, cfg: SweepConfig,
                        row_index: int = 0) -> float:
    """Largest input bound confirmed stable by bisection on [0, 1).

    The lower endpoint is always a probed stable beta and the upper
    endpoint a probed unstable one (or the fiat-unstable 1.0); the gap
    closes to cfg.bisect_tol and the lower endpoint is returned.
    """
    gamma, _, _, _ = _resolve_gamma(lam, gamma_mode, cfg)
    return _observed_threshold(lam, gamma, cfg, row_index)


def _observed_threshold(lam: float, gamma: float, cfg: SweepConfig,
                        row_index: int) -> float:
    """Bisect the simulated stability of one grid row at a fixed gamma."""
    # is_stable is looked up at call time so tests can stub it
    return _bisect_threshold(
        lambda beta, k: is_stable(lam, gamma, beta, cfg, row_index, k),
        cfg.bisect_tol,
    )


def _bisect_threshold(stable_probe, tol: float) -> float:
    """Bisection on a beta-monotone stability predicate.

    stable_probe(beta, probe_index) -> bool.  Exposed for tests through
    find_beta_threshold; kept separate so a stub predicate can exercise
    the bisection logic without simulations.
    """
    probe_index = 0
    if not stable_probe(0.0, probe_index):
        raise DegenerateConfigurationError(
            "unstable at beta = 0; no threshold exists for this configuration"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        probe_index += 1
        mid = 0.5 * (lo + hi)
        if stable_probe(mid, probe_index):
            lo = mid
        else:
            hi = mid
    return lo


def measure_vmax(lam: float, gamma: float, beta: float, cfg: SweepConfig,
                 row_index: int = 0) -> float:
    """Sup of |v_n| over a full probe run; raises on divergence.

    Random-input mode draws from the stream slot reserved for state-bound
    measurements so the run is independent of the bisection probes yet
    reproducible.
    """
    if not (0.0 <= beta < 1.0):
        raise InvalidInputError(f"beta must lie in [0, 1), got {beta!r}")
    diverged_at, vmax = _probe(lam, gamma, beta, cfg, row_index, _VMAX_PROBE_INDEX)
    if diverged_at >= 0:
        raise DivergenceError(
            f"|v| exceeded {cfg.divergence_bound!r} at step {diverged_at + 1}",
            step=diverged_at + 1,
        )
    return vmax


def _map_rows(cfg: SweepConfig, fn):
    """Apply fn(row_index, lam) across the grid, threaded, order-preserving."""
    items = list(enumerate(cfg.lambda_grid))
    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        return [fn(i, lam) for i, lam in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda t: fn(*t), items))


def run_fig1(lambda_grid=None, variant: str = VARIANT_REMARK,
             alpha_cap: float = 0.99, workers: int | None = None):
    """Certified-region table: rows {lambda, beta_max, alpha_star}.

    beta_max is the best certified input bound over admissible alpha;
    rows past the gain cutoff carry beta_max = 0 and a None alpha_star.
    """
    grid = _default_lambda_grid() if lambda_grid is None else \
        np.asarray(lambda_grid, dtype=np.float64)
    cfg = SweepConfig(lambda_grid=grid, variant=variant,
                      alpha_cap=alpha_cap, workers=workers)

    def one(_i, lam):
        beta_max, alpha_star = max_beta_theoretical(
            lam, alpha_cap=cfg.alpha_cap, variant=cfg.variant
        )
        return {
            "lambda": float(lam),
            "beta_max": float(beta_max),
            "alpha_star": float(alpha_star) if math.isfinite(alpha_star) else None,
        }

    return _map_rows(cfg, one)


def _threshold_row(cfg: SweepConfig, row_index: int, lam: float,
                   gamma_mode: str) -> dict:
    gamma, mode_label, alpha_used, beta_th = _resolve_gamma(lam, gamma_mode, cfg)
    if gamma_mode == "gamma1":
        # certified curve is still reported for comparison
        beta_th_info, _ = max_beta_theoretical(
            lam, alpha_cap=cfg.alpha_cap, variant=cfg.variant
        )
        beta_th = beta_th_info if beta_th_info > 0.0 else None
    return {
        "lambda": float(lam),
        "beta_theoretical": beta_th,
        "beta_observed": _observed_threshold(lam, gamma, cfg, row_index),
        "gamma_mode": mode_label,
        "alpha_used": alpha_used,
    }


def _threshold_table(cfg: SweepConfig, gamma_mode: str):
    return _map_rows(cfg, lambda i, lam: _threshold_row(cfg, i, lam, gamma_mode))


def run_fig2(cfg: SweepConfig):
    """Observed vs certified thresholds with the certificate's coupling."""
    return _threshold_table(cfg, "thm1")


def run_fig3(cfg: SweepConfig):
    """Observed thresholds with the coupling pinned at 1."""
    return _threshold_table(cfg, "gamma1")


def _vmax_bound_at(alpha: float) -> float:
    return 2.0 * (1.0 + alpha) / (1.0 - alpha) + (1.0 - alpha) / 8.0


def run_fig4(cfg: SweepConfig):
    """State-bound comparison at the observed thresholds of both modes.

    Columns: lambda, vmax_theoretical (certificate bound at the best
    alpha), vmax_empirical_thm1gamma and vmax_empirical_gamma1 (largest
    |v_n| at each mode's own observed threshold).  Cells are None where
    no certificate exists or the measurement run diverged.
    """

    def vmax_at_threshold(i, lam, gamma):
        beta = _observed_threshold(lam, gamma, cfg, i)
        try:
            return measure_vmax(lam, gamma, beta, cfg, row_index=i)
        except DivergenceError:
            return None

    def one(i, lam):
        gamma, mode_label, alpha_used, _ = _resolve_gamma(lam, "thm1", cfg)
        certified = mode_label == "thm1"
        return {
            "lambda": float(lam),
            "vmax_theoretical": _vmax_bound_at(alpha_used) if certified else None,
            "vmax_empirical_thm1gamma":
                vmax_at_threshold(i, lam, gamma) if certified else None,
            "vmax_empirical_gamma1": vmax_at_threshold(i, lam, 1.0),
        }

    return _map_rows(cfg, one)


def vmax_at_theoretical(cfg: SweepConfig):
    """Measured state bound at beta = certified beta, with the ratio.

    Rows {lambda, beta_theoretical, vmax_theoretical, vmax_measured,
    ratio}; grid points without a certificate are skipped.  A ratio
    above 1 would contradict the certificate and is worth a bug report.
    """

    def one(i, lam):
        gamma, mode_label, alpha_star, beta_max = _resolve_gamma(lam, "thm1", cfg)
        if mode_label != "thm1":
            return None
        bound = _vmax_bound_at(alpha_star)
        measured = measure_vmax(lam, gamma, beta_max, cfg, row_index=i)
        return {
            "lambda": float(lam),
            "beta_theoretical": float(beta_max),
            "vmax_theoretical": bound,
            "vmax_measured": measured,
            "ratio": measured / bound,
        }

    return [r for r in _map_rows(cfg, one) if r is not None]
