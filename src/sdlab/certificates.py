"""Admissible-parameter calculators for the double-loop recursion.

A stability certificate fixes (alpha, lambda, epsilon, C, gamma, beta) so
that the region R(alpha, C) is mapped into itself by every one-step move
the modulator can make while |f_n| <= beta.  The full inequality chain:

    lambda <= 1 + alpha*(1-alpha) / (2*(1+alpha))            ("lambda2")
    2*dH*(lambda-1)/dL <= epsilon <= alpha                   ("eps2")
    2*dH/dL <= C <= epsilon^2*dL / (2*dH*(lambda-1)^2)
    gamma inside the admissible range at the chosen C        ("gamma-range")
    beta = (alpha - epsilon) / (1 + epsilon) > 0             ("beta")

with dL = 1 - alpha and dH = 1 + alpha.  The guaranteed state bound is
v_max = C + dL/8.

Two variants of beta_bound, both in circulation, differ only in the
coefficient of (lambda - 1) in epsilon: 2, "remark-derived" (the
default), or 2*sqrt(2), "eq5-literal".  Their positivity cutoffs in
lambda differ (about 1.0858 versus 1.0607 when alpha is optimized).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import InfeasibleError, InvalidInputError
from .region import RegionSpec, corner_u0, u1_from_gamma, yilmaz_gamma_range

__all__ = [
    "VARIANT_REMARK",
    "VARIANT_EQ5",
    "StabilityCertificate",
    "beta_bound",
    "feasible_alpha_interval",
    "thm1_certificate",
    "thm2_certificate",
    "max_beta_theoretical",
    "unchecked_certificate",
]

VARIANT_REMARK = "remark-derived"
VARIANT_EQ5 = "eq5-literal"

_VARIANT_COEF = {VARIANT_REMARK: 2.0, VARIANT_EQ5: 2.0 * math.sqrt(2.0)}


def _coef(variant: str) -> float:
    try:
        return _VARIANT_COEF[variant]
    except KeyError:
        raise InvalidInputError(
            f"variant must be {VARIANT_REMARK!r} or {VARIANT_EQ5!r}, got {variant!r}"
        ) from None


def _epsilon(alpha, lam, variant: str):
    """e = coef*(lambda-1)*(1+alpha)/(1-alpha), the one epsilon expression.

    Every certificate and bound evaluates e this way, in this operand
    order, so that (alpha - e)/(1 + e) reproduces beta bit for bit.
    alpha may be an array.
    """
    return _coef(variant) * (lam - 1.0) * (1.0 + alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class StabilityCertificate:
    """An admissible parameter tuple with its guaranteed state bound."""

    alpha: float
    lam: float
    epsilon: float
    C: float
    gamma: float
    gamma_lo: float
    gamma_hi: float
    beta: float
    v_max_bound: float
    u0: float
    u1: float
    variant: str

    @property
    def region(self) -> RegionSpec:
        return RegionSpec(self.alpha, self.C)

    def to_json_dict(self) -> dict:
        """The fields as a flat dict in field order, lam written as "lambda"."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}


def beta_bound(alpha: float, lam: float, variant: str = VARIANT_REMARK) -> float:
    """Safe input bound (alpha - e)/(1 + e), e = _epsilon(alpha, lam, variant).

    The value is negative when lambda is too large; callers decide whether
    that is an error.  At lambda = 1 the result is exactly alpha.
    """
    e = _epsilon(alpha, lam, variant)
    return (alpha - e) / (1.0 + e)


def feasible_alpha_interval(lam: float, variant: str = VARIANT_REMARK):
    """Open alpha interval where beta_bound(alpha, lam, variant) > 0.

    Positivity reduces to alpha**2 - (1 - c*d)*alpha + c*d < 0 with
    d = lam - 1 and c the variant coefficient, so the interval ends are
    the roots of that quadratic.  Returns None when no alpha works
    (lambda past the variant's cutoff).
    """
    lam = _real(lam, lambda x: x >= 1.0, "lambda must be >= 1")
    cd = _coef(variant) * (lam - 1.0)
    disc = (1.0 - cd) ** 2 - 4.0 * cd
    if disc <= 0.0 or cd >= 1.0:
        return None
    root = math.sqrt(disc)
    return (0.5 * (1.0 - cd - root), 0.5 * (1.0 - cd + root))


def _real(x, ok, rule: str) -> float:
    """x as a float, if it is a finite real number (not a bool) and ok(x)."""
    if (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and ok(float(x))):
        return float(x)
    raise InvalidInputError(f"{rule}, got {x!r}")


def _validate_alpha_lambda(alpha, lam):
    """(alpha, lambda) as floats, once alpha is in (0, 1) and lambda >= 1."""
    return (_real(alpha, lambda x: 0.0 < x < 1.0, "alpha must lie in (0, 1)"),
            _real(lam, lambda x: x >= 1.0, "lambda must be >= 1"))


def thm1_certificate(alpha: float, lam: float, variant: str = VARIANT_REMARK) -> StabilityCertificate:
    """Certificate with the canonical fixed multiplier and smallest region.

    This is unchecked_certificate(alpha, lam, variant=variant) behind the
    gate beta_bound > 0.

    Raises
    ------
    InfeasibleError
        With bound "lambda2" when beta_bound is not positive at
        (alpha, lam): positivity is exactly the gain-cutoff inequality
        lambda <= 1 + alpha*(1-alpha)/(coef*(1+alpha)).
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    beta = beta_bound(alpha, lam, variant)
    if not beta > 0.0:  # NaN too, when epsilon overflows
        cutoff = 1.0 + alpha * (1.0 - alpha) / (_coef(variant) * (1.0 + alpha))
        raise InfeasibleError(
            "lambda2",
            f"beta = {beta!r} <= 0 at alpha={alpha!r}, lambda={lam!r}: "
            f"positivity requires lambda <= {cutoff!r}",
        )
    return unchecked_certificate(alpha, lam, variant=variant)


def thm2_certificate(
    alpha: float,
    lam: float,
    epsilon: float,
    gamma_choice: float | None = None,
) -> StabilityCertificate:
    """Certificate from the full inequality chain with a free epsilon.

    C defaults to the geometric mean of its admissible interval (its lower
    endpoint when lambda = 1, where the upper endpoint is infinite), and
    gamma defaults to the midpoint of the admissible range at that C.

    Raises
    ------
    InfeasibleError
        Naming the first violated bound: "lambda2", "eps2" or
        "gamma-range".
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    epsilon = _real(epsilon, lambda x: x >= 0.0, "epsilon must be finite and >= 0")
    if gamma_choice is not None:
        gamma_choice = _real(gamma_choice, lambda x: x > 0.0,
                             "gamma must be finite and > 0")
    dL, dH = 1.0 - alpha, 1.0 + alpha

    lam_cut = 1.0 + alpha * dL / (2.0 * dH)
    if lam > lam_cut * (1.0 + 1e-14):
        raise InfeasibleError(
            "lambda2",
            f"lambda={lam!r} exceeds 1 + alpha(1-alpha)/(2(1+alpha)) = {lam_cut!r}",
        )

    eps_min = 2.0 * dH * (lam - 1.0) / dL
    if epsilon < eps_min * (1.0 - 1e-14) or epsilon > alpha * (1.0 + 1e-14):
        raise InfeasibleError("eps2", f"epsilon={epsilon!r} outside [{eps_min!r}, {alpha!r}]")

    c_min = 2.0 * dH / dL
    c_max = (epsilon * epsilon * dL / (2.0 * dH * (lam - 1.0) ** 2)
             if lam > 1.0 else math.inf)
    c_max = max(c_max, c_min)  # past the eps2 gate, c_max >= c_min (1 - 3e-14)
    C = c_min if math.isinf(c_max) else min(max(math.sqrt(c_min * c_max), c_min), c_max)

    spec = RegionSpec(alpha, C)
    lo, hi = yilmaz_gamma_range(spec)
    if gamma_choice is None:
        gamma = 0.5 * (lo + hi)
    else:
        slack = 1e-12 * hi
        if not (lo - slack <= gamma_choice <= hi + slack):
            raise InfeasibleError(
                "gamma-range",
                f"gamma={gamma_choice!r} outside admissible [{lo!r}, {hi!r}] at C={C!r}",
            )
        gamma = float(gamma_choice)

    u0 = corner_u0(spec)
    u1 = u1_from_gamma(spec, gamma)
    if not (dH - 1e-9 <= u1 <= u0 - dH + 1e-9):
        raise InfeasibleError(
            "gamma-range",
            f"switching abscissa u1={u1!r} outside [dH, u0-dH] = [{dH!r}, {u0 - dH!r}]",
        )

    beta = (alpha - epsilon) / (1.0 + epsilon)
    beta = max(beta, 0.0)
    if beta == 0.0:
        warnings.warn(
            "beta is 0: the certificate admits only the zero input",
            stacklevel=2,
        )
    return StabilityCertificate(
        alpha=alpha, lam=lam, epsilon=epsilon, C=C,
        gamma=gamma, gamma_lo=lo, gamma_hi=hi,
        beta=beta, v_max_bound=spec.v_extent,
        u0=u0, u1=u1, variant=VARIANT_REMARK,
    )


def max_beta_theoretical(lam: float, alpha_cap: float = 0.99, variant: str = VARIANT_REMARK):
    """Largest guaranteed input bound over alpha, and its maximizer.

    With k = coef*(lambda-1), beta(alpha) peaks at alpha* = (1-sqrt k) /
    (1+sqrt k) and is <= 0 for every alpha once k >= 1.  Of a 1e-4 grid of
    alpha in (0, alpha_cap], the best of the 8 points around alpha* (so
    the best of all) is refined by golden section.  Returns (beta_max,
    alpha_star); (0.0, nan) when no positive beta exists at this lambda.
    """
    lam = _real(lam, lambda x: x >= 1.0, "lambda must be >= 1")
    if not (0.0 < alpha_cap < 1.0):
        raise InvalidInputError(f"alpha_cap must lie in (0, 1), got {alpha_cap!r}")
    k = _coef(variant) * (lam - 1.0)
    if not k < 1.0:  # inf too, when coef*(lambda-1) overflows
        return 0.0, math.nan

    def beta_of(a):
        return beta_bound(a, lam, variant)

    n = max(2, int(round(alpha_cap / 1e-4)))
    grid = np.linspace(min(1e-4, alpha_cap), alpha_cap, n)
    j = int(np.searchsorted(grid, (1.0 - math.sqrt(k)) / (1.0 + math.sqrt(k))))
    lo = max(j - 4, 0)
    vals = beta_of(grid[lo:j + 4])
    i = lo + int(np.argmax(vals))
    if not vals[i - lo] > 0.0:
        return 0.0, math.nan

    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = beta_of(c), beta_of(d)
    while b - a > 1e-13:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = beta_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = beta_of(d)
    alpha_star = min(0.5 * (a + b), alpha_cap)
    # the maximizer may sit on the cap itself (always at lambda = 1);
    # keep whichever candidate evaluates best so the cap is hit exactly
    for cand in (float(grid[i]), alpha_cap):
        if beta_of(cand) >= beta_of(alpha_star):
            alpha_star = cand
    return float(beta_of(alpha_star)), float(alpha_star)


def unchecked_certificate(
    alpha: float,
    lam: float,
    epsilon: float | None = None,
    variant: str = VARIANT_REMARK,
) -> StabilityCertificate:
    """The canonical certificate, without the feasibility chain.

    The region is R(alpha, C = 2dH/dL), gamma is dL/dH, a negative beta
    is clamped to 0, and the state bound is the region's v_extent, C + dL/8.
    Meant for falsification experiments that apply an inadmissible lambda
    to a valid region on purpose; never a guarantee.
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    if epsilon is None:
        epsilon = _real(_epsilon(alpha, lam, variant), lambda x: x >= 0.0,
                        f"the default epsilon overflows at lambda={lam!r}; "
                        "pass a finite epsilon (--epsilon)")
    else:
        epsilon = _real(epsilon, lambda x: x >= 0.0, "epsilon must be finite and >= 0")
    dL, dH = 1.0 - alpha, 1.0 + alpha
    spec, gamma = RegionSpec(alpha, 2.0 * dH / dL), dL / dH
    return StabilityCertificate(
        alpha=alpha, lam=lam, epsilon=epsilon, C=spec.C,
        gamma=gamma, gamma_lo=gamma, gamma_hi=gamma,
        beta=max((alpha - epsilon) / (1.0 + epsilon), 0.0),
        v_max_bound=spec.v_extent, u0=corner_u0(spec), u1=spec.delta_H,
        variant=variant,
    )
