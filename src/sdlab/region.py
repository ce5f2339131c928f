"""Invariant-region geometry and the piecewise affine one-step map.

A region R(alpha, C) in the (u, v) plane is bounded above by B1 and below
by B2 = -B1(-u):

    B1(u) = -u^2/(2*dH) + u/2 + C   for u <= 0
    B1(u) = -u^2/(2*dL) + u/2 + C   for u >  0

with dL = 1 - alpha, dH = 1 + alpha.  The curves intersect at |u| = u0 =
sqrt(2*C*dH*dL), so R = {(u, v): |u| <= u0, B2(u) <= v <= B1(u)}, a convex
set that is centrally symmetric about the origin.

One modulator step acts on R as a piecewise affine map: with error
magnitude delta = |f - q| and gain lam,

    left  move (q = +1):  (u, v) -> (lam*u - delta, lam*u + v - delta)
    right move (q = -1):  (u, v) -> (lam*u + delta, lam*u + v + delta)

and the branch is decided by the sign of u + gamma*v (ties go left,
matching the sign quantizer's tie rule Q(0) = +1).  step_region is the
one copy of this map in numpy, behind the reference escape loop in
_kernels, which _recur.c follows.  The switching line u + gamma*v = 0 meets B1 at
u = -u1, so gamma = u1 / B1(-u1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidInputError, NoSolutionError

__all__ = [
    "RegionSpec",
    "b1_eval",
    "b2_eval",
    "corner_u0",
    "u1_from_gamma",
    "yilmaz_gamma_range",
    "step_region",
]


@dataclass(frozen=True)
class RegionSpec:
    """Region parameters (alpha, C) with the derived constants cached."""

    alpha: float
    C: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInputError("alpha must lie in (0, 1)")
        if not (self.C > 0.0 and math.isfinite(corner_u0(self))):
            raise InvalidInputError("C must be positive, with a finite corner "
                                    "u0 = sqrt(2 C dH dL)")

    @property
    def delta_L(self) -> float:
        return 1.0 - self.alpha

    @property
    def delta_H(self) -> float:
        return 1.0 + self.alpha

    @property
    def u0(self) -> float:
        return corner_u0(self)

    @property
    def v_extent(self) -> float:
        """max over u of B1(u), attained at u = delta_L/2."""
        return self.C + self.delta_L / 8.0


def b1_eval(spec: RegionSpec, u):
    """Upper boundary B1 at u (scalar or array)."""
    u = np.asarray(u, dtype=np.float64)
    half = np.where(u <= 0.0, spec.delta_H, spec.delta_L)
    out = -(u * u) / (2.0 * half) + 0.5 * u + spec.C
    return float(out) if out.ndim == 0 else out


def b2_eval(spec: RegionSpec, u):
    """Lower boundary B2(u) = -B1(-u)."""
    return -b1_eval(spec, -np.asarray(u, dtype=np.float64))


def corner_u0(spec: RegionSpec) -> float:
    """Abscissa of the boundary intersection: sqrt(2 C dH dL)."""
    return math.sqrt(2.0 * spec.C * spec.delta_H * spec.delta_L)


def u1_from_gamma(spec: RegionSpec, gamma: float) -> float:
    """Switching abscissa u1 of a multiplier gamma.

    Inverts gamma = u1 / (C - u1/2 - u1^2/(2*dH)): solves
    gamma*u^2/(2*dH) + (1 + gamma/2)*u - gamma*C = 0 and returns the
    positive root, provided it lies in (0, u0).
    """
    if gamma <= 0.0:
        raise InvalidInputError("gamma must be > 0")
    a = gamma / (2.0 * spec.delta_H)
    b = 1.0 + 0.5 * gamma
    c = -gamma * spec.C
    disc = b * b - 4.0 * a * c
    # c < 0 and a > 0 so disc > b^2 and the root is positive; the
    # conjugate form -2c/(b + sqrt(disc)) avoids cancellation at small gamma
    root = -2.0 * c / (b + math.sqrt(disc))
    if not (0.0 < root < spec.u0):
        raise NoSolutionError(
            f"gamma={gamma!r} has no switching abscissa inside (0, u0)"
        )
    return root


def yilmaz_gamma_range(spec: RegionSpec):
    """Admissible closed interval for gamma at this (alpha, C).

    The interval is the image of u1 in [dH, u0 - dH] under the map
    gamma = u1 / B1(-u1), increasing wherever B1(-u1) > 0:

        lo = dH / (C - dH)
        hi = (sqrt(2 C dH dL) - dH) / (C alpha + sqrt(C dH dL / 2))

    Requires C >= 2 dH / dL, otherwise the u1 interval is empty.
    """
    dH, dL = spec.delta_H, spec.delta_L
    c_min = 2.0 * dH / dL
    if spec.C < c_min * (1.0 - 1e-14):
        raise InfeasibleError(
            "lowerc", f"C={spec.C!r} is below the minimum 2(1+alpha)/(1-alpha)={c_min!r}"
        )
    lo = dH / (spec.C - dH)
    u0 = corner_u0(spec)
    hi = (u0 - dH) / (spec.C * spec.alpha + 0.5 * u0)
    if hi < lo:
        # can only happen from rounding at C = C_min where lo == hi
        hi = lo
    return (lo, hi)


def step_region(u, v, delta, gamma, lam):
    """Images (u', v') of the points (u, v): left move iff u + gamma*v >= 0.

    u, v, delta and lam are arrays or scalars that broadcast together.
    Nothing is validated: callers pass delta > 0 and lam >= 1.
    """
    w = lam * u
    sgn = np.where(u + gamma * v >= 0.0, -1.0, 1.0)
    return w + sgn * delta, w + v + sgn * delta
