"""Seeded Monte-Carlo falsification of region invariance.

verify_invariance samples the region of a certificate with a boundary
bias (the extremal behavior of the one-step map occurs on the boundary
arcs), applies every sampled one-step move, and reports each image point
that leaves the region.  An empty report means "not falsified"; it is
evidence, not proof.

Sampling plan over n_points, by global point index:

    40%  upper boundary arc  (u uniform on [-u0, u0], v = B1(u))
    40%  lower boundary arc  (u uniform on [-u0, u0], v = B2(u))
    10%  switching segment between P1 = (-u1, u1/gamma) and P2 = -P1
    10%  interior, by rejection from the bounding box

The error magnitudes delta always include the two extreme values
1 - beta and 1 + beta; the remaining n_deltas - 2 are uniform draws in
between (the map is affine in delta, so the extremes are the binding
probes and the interior draws are redundancy).

Determinism: the point set is split into 64 fixed logical blocks; block
b draws from its own generator seeded by (seed, b), so the result is
byte-identical for any worker count, and workers only schedule blocks.

The escapes come back as one NumPy record array with the fields
point_index, delta_index, u, v, u_next, v_next, excess (in that order),
one row per escaping (point, delta) pair, sorted by point_index and then
delta_index.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .certificates import StabilityCertificate
from .errors import InvalidInputError
from .region import RegionSpec, b1_eval, b2_eval, _step_region_arrays

__all__ = ["InvarianceReport", "verify_invariance"]

N_BLOCKS = 64
_DELTA_STREAM = 1_000_003  # sub-seed for the shared delta draws


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of one verify_invariance call.

    violations is an np.recarray with the fields point_index, delta_index,
    u, v, u_next, v_next, excess, sorted by (point_index, delta_index);
    its length is the full violation count.
    """

    n_points: int
    n_deltas: int
    seed: int
    tol: float
    lam: float
    gamma: float
    n_checked: int
    violations: np.recarray

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    @property
    def max_excess(self) -> float:
        return float(self.violations.excess.max()) if len(self.violations) else 0.0

    def to_json_dict(self) -> dict:
        names = self.violations.dtype.names
        head = [dict(zip(names, row)) for row in self.violations[:100].tolist()]
        return {
            "ok": self.ok,
            "n_points": self.n_points,
            "n_deltas": self.n_deltas,
            "n_checked": self.n_checked,
            "n_violations": len(self.violations),
            "max_excess": self.max_excess,
            "seed": self.seed,
            "tol": self.tol,
            "violations": head,
        }


def _category_bounds(n_points: int):
    """Global index boundaries of the four sampling categories."""
    n1 = (4 * n_points) // 10
    n2 = (4 * n_points) // 10
    n3 = n_points // 10
    return n1, n1 + n2, n1 + n2 + n3


def _sample_block(spec: RegionSpec, u1: float, gamma: float, rng, lo: int, hi: int, cuts):
    """Draw points for global indices [lo, hi) in index order."""
    c1, c2, c3 = cuts
    u0 = spec.u0
    vbox = spec.v_extent
    us = np.empty(hi - lo)
    vs = np.empty(hi - lo)
    pos = 0

    k = max(0, min(hi, c1) - lo)                      # upper arc
    if k:
        u = rng.uniform(-u0, u0, size=k)
        us[pos:pos + k] = u
        vs[pos:pos + k] = b1_eval(spec, u)
        pos += k
    k = max(0, min(hi, c2) - max(lo, c1))             # lower arc
    if k:
        u = rng.uniform(-u0, u0, size=k)
        us[pos:pos + k] = u
        vs[pos:pos + k] = b2_eval(spec, u)
        pos += k
    k = max(0, min(hi, c3) - max(lo, c2))             # switching segment
    if k:
        t = rng.uniform(0.0, 1.0, size=k)
        v1 = u1 / gamma
        us[pos:pos + k] = -u1 + t * (2.0 * u1)
        vs[pos:pos + k] = v1 + t * (-2.0 * v1)
        pos += k
    k = max(0, hi - max(lo, c3))                      # interior, rejection
    while k:
        m = max(2 * k, 16)
        cu = rng.uniform(-u0, u0, size=m)
        cv = rng.uniform(-vbox, vbox, size=m)
        good = (cv >= b2_eval(spec, cu)) & (cv <= b1_eval(spec, cu))
        cu, cv = cu[good][:k], cv[good][:k]
        t = cu.size
        us[pos:pos + t] = cu
        vs[pos:pos + t] = cv
        pos += t
        k -= t
    return us, vs


def _check_block(spec, u1, gamma, lam, deltas, seed, block, n_points, cuts, tol):
    lo = (block * n_points) // N_BLOCKS
    hi = ((block + 1) * n_points) // N_BLOCKS
    rng = np.random.default_rng([seed, block])
    us, vs = _sample_block(spec, u1, gamma, rng, lo, hi, cuts)

    excess = _kernels.excess(us, vs, deltas, gamma, lam, spec)
    # row-major nonzero on the (points, deltas) layout: hits come out
    # sorted by (point, delta) already; only their images are kept
    pj, di = np.nonzero(excess > tol)
    u2, v2 = _step_region_arrays(us[pj], vs[pj], deltas[di], gamma, lam)
    return np.rec.fromarrays(
        (lo + pj, di, us[pj], vs[pj], u2, v2, excess[pj, di]),
        names="point_index, delta_index, u, v, u_next, v_next, excess",
    )


def verify_invariance(
    cert: StabilityCertificate,
    n_points: int = 2000,
    n_deltas: int = 50,
    seed: int = 0,
    workers: int | None = None,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Probe whether one step can leave the certificate's region.

    Parameters
    ----------
    cert : StabilityCertificate
        Supplies the region (alpha, C), the multiplier gamma, the gain
        lambda, the input bound beta, and the segment abscissa u1.
    n_points, n_deltas : int
        Sample counts; n_deltas must be >= 2 (the two extremes are
        always included).
    seed : int
    workers : int or None
        Thread count for block scheduling; the report is identical for
        every value.
    tol : float
        Absolute containment slack.

    Returns
    -------
    InvarianceReport
        Violations are data, not errors; report.ok means none were found.
    """
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    if n_deltas < 2:
        raise InvalidInputError("n_deltas must be >= 2")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError("tol must be finite and >= 0")
    spec = cert.region
    deltas = np.empty(n_deltas)
    deltas[0] = 1.0 - cert.beta
    deltas[1] = 1.0 + cert.beta
    if n_deltas > 2:
        rng_d = np.random.default_rng([seed, _DELTA_STREAM])
        deltas[2:] = rng_d.uniform(1.0 - cert.beta, 1.0 + cert.beta, size=n_deltas - 2)

    cuts = _category_bounds(n_points)

    def check(block):
        return _check_block(spec, cert.u1, cert.gamma, cert.lam, deltas, seed,
                            block, n_points, cuts, tol)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(check, range(N_BLOCKS)))
    else:
        chunks = list(map(check, range(N_BLOCKS)))

    # blocks cover ascending point ranges, so block order is sorted order
    violations = np.concatenate(chunks).view(np.recarray)
    return InvarianceReport(n_points=n_points, n_deltas=n_deltas, seed=seed,
                            tol=tol, lam=cert.lam, gamma=cert.gamma,
                            n_checked=n_points * n_deltas, violations=violations)
