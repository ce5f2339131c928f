"""Stability-threshold and state-bound sweeps over the loop gain.

Each sweep walks the gains lambda >= 1 of one SweepConfig for the
one-parameter family (second accumulator gain fixed at 1).  Every row
starts from one certificate, Theorem 1's at the best alpha for its gain
(None past the cutoff), and sets beside it either the largest input
bound beta that keeps max_iters iterations below a divergence cutoff
(one bisection path) or the largest |v_n| reached by a run.

A probe's input is the constant beta or the uniform stream on [-beta,
beta] keyed by (seed, row index, probe index), so results are
byte-identical for any worker count and rows can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .certificates import VARIANT_REMARK, max_beta_theoretical, thm1_certificate
from .errors import (DegenerateConfigurationError, DivergenceError,
                     InvalidInputError, _check_count)

__all__ = [
    "DEFAULT_SEED",
    "SweepConfig",
    "is_stable",
    "measure_vmax",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "vmax_at_theoretical",
]

DEFAULT_SEED = 1729

_INPUT_MODES = ("constant", "random-uniform")
_VMAX_PROBE_INDEX = 1_000_000  # stream slot reserved for measure_vmax draws


def _default_lambda_grid() -> np.ndarray:
    # gains 1.00(0.005)1.12, spanning past every certificate cutoff
    return np.linspace(1.0, 1.12, 25)


@dataclass(frozen=True)
class SweepConfig:
    """Grid, probe, and reproducibility settings shared by the sweeps."""

    lambda_grid: np.ndarray = field(default_factory=_default_lambda_grid)
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
        if self.input_mode not in _INPUT_MODES:
            raise InvalidInputError(f"input_mode must be one of {_INPUT_MODES}")
        if not self.bisect_tol > 0.0:
            raise InvalidInputError("bisect_tol must be positive")
        if not self.divergence_bound > 10.0:
            raise InvalidInputError("divergence_bound must exceed 10")
        if not _check_count(self.max_iters, 1, "max_iters") <= 2**63 - 1:  # C long long
            raise InvalidInputError("max_iters must lie in [1, 2^63 - 1]")
        if not (0.0 < self.alpha_cap < 1.0):
            raise InvalidInputError("alpha_cap must lie in (0, 1)")


def _probe(lam, gamma, beta, cfg, row_index, probe_index):
    """(diverged_at, vmax) for one run from the zero state."""
    if not (0.0 <= beta < 1.0):
        raise InvalidInputError(f"beta must lie in [0, 1), got {beta!r}")
    if not (lam >= 1.0 and gamma > 0.0):  # NaN too
        raise InvalidInputError("need lam >= 1 and gamma > 0")
    scheme = (lam, 1.0, gamma, 0.0)  # tau 0: the sign quantizer
    if cfg.input_mode == "constant":
        return _kernels.probe_const(*scheme, beta, cfg.max_iters,
                                    cfg.divergence_bound)
    f = _kernels.KeyedUniform((cfg.seed, row_index, probe_index), beta,
                              cfg.max_iters)
    return _kernels.probe_input(*scheme, f, cfg.divergence_bound)


def is_stable(lam: float, gamma: float, beta: float, cfg: SweepConfig,
              row_index: int = 0, probe_index: int = 0) -> bool:
    """True iff |v_n| stays within cfg.divergence_bound for all max_iters
    steps of the probe with this row and probe index."""
    diverged_at, _ = _probe(lam, gamma, beta, cfg, row_index, probe_index)
    return diverged_at < 0


def _certified(lam: float, cfg: SweepConfig):
    """Theorem 1's certificate at the best alpha, or None past the cutoff."""
    beta_max, alpha_star = max_beta_theoretical(lam, alpha_cap=cfg.alpha_cap,
                                                variant=cfg.variant)
    if not beta_max > 0.0:
        return None
    return thm1_certificate(alpha_star, lam, cfg.variant)


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

    stable_probe(beta, probe_index) -> bool.  The lower endpoint is
    always a probed stable beta and the upper one a probed unstable beta
    (or the fiat-unstable 1.0).  The gap closes to tol, or until no
    double lies strictly between the ends, and the lower end is returned.
    """
    probe_index = 0
    if not stable_probe(0.0, probe_index):
        raise DegenerateConfigurationError(
            "unstable at beta = 0; no threshold exists for this configuration"
        )
    lo, hi, mid = 0.0, 1.0, 0.5
    while hi - lo > tol and lo < mid < hi:
        probe_index += 1
        if stable_probe(mid, probe_index):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


def measure_vmax(lam: float, gamma: float, beta: float, cfg: SweepConfig,
                 row_index: int = 0) -> float:
    """Sup of |v_n| over a full probe run, in the stream slot that no
    bisection probe uses; raises on divergence."""
    diverged_at, vmax = _probe(lam, gamma, beta, cfg, row_index, _VMAX_PROBE_INDEX)
    if diverged_at >= 0:
        raise DivergenceError(
            f"|v| exceeded {cfg.divergence_bound!r} at step {diverged_at + 1}",
            step=diverged_at + 1,
        )
    return vmax


def _map_rows(cfg: SweepConfig, fn):
    """Apply fn(row_index, lam) across the grid, threaded, order-preserving."""
    return _kernels.map_ordered(lambda t: fn(*t), enumerate(cfg.lambda_grid),
                                cfg.workers)


def run_fig1(cfg: SweepConfig):
    """Certified-region table: rows {lambda, beta_max, alpha_star}.

    beta_max is the best certified input bound over admissible alpha;
    rows past the gain cutoff carry beta_max = 0 and a None alpha_star.
    """

    def one(_i, lam):
        cert = _certified(lam, cfg)
        return {
            "lambda": float(lam),
            "beta_max": 0.0 if cert is None else cert.beta,
            "alpha_star": None if cert is None else cert.alpha,
        }

    return _map_rows(cfg, one)


def _threshold_table(cfg: SweepConfig, unit_gamma: bool):
    """fig2/fig3 rows: the certified beta beside the bisected threshold.

    The coupling is the certificate's (gamma_mode "thm1"), 1 where no
    certificate exists ("gamma1-fallback"), or 1 throughout ("gamma1").
    """

    def one(i, lam):
        cert = _certified(lam, cfg)
        thm1 = cert is not None and not unit_gamma
        gamma = cert.gamma if thm1 else 1.0
        return {
            "lambda": float(lam),
            "beta_theoretical": None if cert is None else cert.beta,
            "beta_observed": _observed_threshold(lam, gamma, cfg, i),
            "gamma_mode": "thm1" if thm1 else "gamma1" if unit_gamma
                          else "gamma1-fallback",
            "alpha_used": cert.alpha if thm1 else None,
        }

    return _map_rows(cfg, one)


def run_fig2(cfg: SweepConfig):
    """Observed vs certified thresholds with the certificate's coupling."""
    return _threshold_table(cfg, unit_gamma=False)


def run_fig3(cfg: SweepConfig):
    """Observed thresholds with the coupling pinned at 1."""
    return _threshold_table(cfg, unit_gamma=True)


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
        cert = _certified(lam, cfg)
        return {
            "lambda": float(lam),
            "vmax_theoretical": None if cert is None else cert.v_max_bound,
            "vmax_empirical_thm1gamma":
                None if cert is None else vmax_at_threshold(i, lam, cert.gamma),
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
        cert = _certified(lam, cfg)
        if cert is None:
            return None
        measured = measure_vmax(lam, cert.gamma, cert.beta, cfg, row_index=i)
        return {
            "lambda": float(lam),
            "beta_theoretical": cert.beta,
            "vmax_theoretical": cert.v_max_bound,
            "vmax_measured": measured,
            "ratio": measured / cert.v_max_bound,
        }

    return [r for r in _map_rows(cfg, one) if r is not None]
