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
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .certificates import StabilityCertificate
from .errors import InvalidInputError, _check_array_len
from .region import RegionSpec, b1_eval, b2_eval

__all__ = ["InvarianceReport", "verify_invariance"]

N_BLOCKS = 64
_DELTA_STREAM = 1_000_003  # sub-seed for the shared delta draws


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of one verify_invariance call: n_violations counts every
    escape, max_excess is the largest escape excess (0.0 if none), and
    violations is an np.recarray of the first keep escapes (all for
    keep=None), fields point_index, delta_index, u, v, u_next, v_next,
    excess, sorted by (point_index, delta_index)."""

    n_points: int
    n_deltas: int
    seed: int
    tol: float
    n_checked: int
    n_violations: int
    max_excess: float
    violations: np.recarray

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_json_dict(self) -> dict:
        names = self.violations.dtype.names
        head = [dict(zip(names, row)) for row in self.violations[:100].tolist()]
        return {
            "ok": self.ok,
            "n_points": self.n_points,
            "n_deltas": self.n_deltas,
            "n_checked": self.n_checked,
            "n_violations": self.n_violations,
            "max_excess": self.max_excess,
            "seed": self.seed,
            "tol": self.tol,
            "violations": head,
        }


def _sample_block(spec: RegionSpec, u1: float, gamma: float, rng, lo: int, hi: int, cuts):
    """Draw points for global indices [lo, hi) in index order."""
    c1, c2, c3 = cuts
    u0 = spec.u0
    vbox = spec.v_extent
    us = np.empty(hi - lo)
    vs = np.empty(hi - lo)
    pos = 0

    for a, b, arc in ((0, c1, b1_eval), (c1, c2, b2_eval)):  # upper, lower arc
        k = max(0, min(hi, b) - max(lo, a))
        if k:
            u = rng.uniform(-u0, u0, size=k)
            us[pos:pos + k] = u
            vs[pos:pos + k] = arc(spec, u)
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


def _violations(check, counts, keep, workers):
    """The first keep (None: all) escapes in block order: each block with one
    of them is checked again, on up to workers threads, into its slice of
    one anonymous mapping (in malloc, a large report would raise glibc's
    trim thresholds)."""
    ends = np.cumsum(counts).tolist()
    keep = ends[-1] if keep is None else min(keep, ends[-1])
    need = [b for b, count in enumerate(counts) if count and ends[b] - count < keep]
    total = ends[need[-1]] if need else 0
    mapping = mmap.mmap(-1, max(1, total * _kernels.VIOLATION.itemsize))  # not 0 B
    rows = np.frombuffer(mapping, _kernels.VIOLATION, count=total)
    _kernels.map_ordered(lambda b: check(b, rows[ends[b] - counts[b]:ends[b]]),
                         need, workers)
    return rows[:keep].view(np.recarray)


def verify_invariance(
    cert: StabilityCertificate,
    n_points: int = 2000,
    n_deltas: int = 50,
    seed: int = 0,
    workers: int | None = None,
    tol: float = 1e-9,
    keep: int | None = None,
) -> InvarianceReport:
    """Probe whether one step can leave the certificate's region.

    Checks n_points sampled points of cert's region, each stepped by
    n_deltas >= 2 error magnitudes (the two extremes 1 -+ beta always
    among them), with the absolute slack tol.  workers (>= 1, None: one
    per core) threads run the blocks; the report is identical for every
    value.  It keeps the rows of the first keep escapes (None: all) and
    counts all of them; escapes are data, not errors.
    """
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    if n_deltas < 2:
        raise InvalidInputError("n_deltas must be >= 2")
    _check_array_len(n_points, "points")
    _check_array_len(n_deltas, "deltas")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError("tol must be finite and >= 0")
    if not (keep is None or isinstance(keep, int) and keep >= 0):
        raise InvalidInputError(f"keep must be None or an int >= 0, got {keep!r}")
    spec = cert.region
    # |u| <= u0, |v| <= v_extent, delta <= 1 + beta: a bound on every excess
    reach = cert.lam * spec.u0 + 1.0 + cert.beta
    if not math.isfinite(reach + spec.v_extent + 0.5 * reach + spec.C
                         + reach * reach / (2.0 * spec.delta_L)):
        raise InvalidInputError(f"lambda={cert.lam!r} too large: a step may overflow")
    deltas = np.empty(n_deltas)
    deltas[:2] = 1.0 - cert.beta, 1.0 + cert.beta
    if n_deltas > 2:
        rng_d = np.random.default_rng([seed, _DELTA_STREAM])
        deltas[2:] = rng_d.uniform(1.0 - cert.beta, 1.0 + cert.beta, size=n_deltas - 2)

    # global index boundaries of the sampling categories: 40/40/10/10 %
    n1 = (4 * n_points) // 10
    cuts = (n1, 2 * n1, 2 * n1 + n_points // 10)

    def check(block, rows=None):
        """(escapes, largest escape excess) of one block of points, its rows
        into rows unless None; the points are drawn again on every call."""
        lo, hi = (block * n_points) // N_BLOCKS, ((block + 1) * n_points) // N_BLOCKS
        us, vs = _sample_block(spec, cert.u1, cert.gamma,
                               np.random.default_rng([seed, block]), lo, hi, cuts)
        return _kernels.escapes(us, vs, deltas, cert.gamma, cert.lam, spec, tol, lo, rows)

    counts, tops = zip(*_kernels.map_ordered(check, range(N_BLOCKS), workers))
    n_violations = sum(counts)
    # blocks cover ascending point ranges, so block order is sorted order
    return InvarianceReport(n_points=n_points, n_deltas=n_deltas, seed=seed, tol=tol,
                            n_checked=n_points * n_deltas, n_violations=n_violations,
                            max_excess=max(tops) if n_violations else 0.0,
                            violations=_violations(check, counts, keep, workers))
