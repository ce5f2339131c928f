"""Admissible-parameter calculators for the double-loop recursion.

A stability certificate fixes (alpha, lambda, epsilon, C, gamma, beta) so
that the region R(alpha, C) is mapped into itself by every one-step move
the modulator can make while |f_n| <= beta.  The full inequality chain:

    lambda <= 1 + alpha*(1-alpha) / (2*(1+alpha))            ("lambda2")
    2*dH*(lambda-1)/dL <= epsilon <= alpha                   ("eps2")
    2*dH/dL <= C <= epsilon^2*dL / (2*dH*(lambda-1)^2)       ("C2")
    gamma inside the admissible range at the chosen C        ("gamma-range")
    beta = (alpha - epsilon) / (1 + epsilon) > 0             ("beta")

with dL = 1 - alpha and dH = 1 + alpha.  The guaranteed state bound is
v_max = C + dL/8.

Two variants of the safe-input-bound formula are carried throughout.
They differ only in the constant multiplying (lambda - 1):

    "remark-derived": beta = (alpha - e)/(1 + e),  e = 2*dH*(lambda-1)/dL
    "eq5-literal":    same shape with coefficient 2*sqrt(2) instead of 2

The remark-derived form is the default; the eq5-literal form is kept
selectable because both are in circulation.  Their positivity cutoffs in
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
    "PrintedGammaIntervalReport",
    "printed_gamma_interval_report",
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


def _json_fields(record) -> dict:
    """to_json_dict of the certificate records: the fields as a flat dict.

    Keys follow field order; lam is written as "lambda" and a (lo, hi)
    pair field x as x_lo, x_hi.
    """
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        key = "lambda" if f.name == "lam" else f.name
        if isinstance(value, tuple):
            out[key + "_lo"], out[key + "_hi"] = value
        else:
            out[key] = value
    return out


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
    def gamma_range(self):
        return (self.gamma_lo, self.gamma_hi)

    @property
    def region(self) -> RegionSpec:
        return RegionSpec(self.alpha, self.C)

    to_json_dict = _json_fields


def beta_bound(alpha: float, lam: float, variant: str = VARIANT_REMARK) -> float:
    """Safe input bound beta(alpha, lambda) for the chosen variant.

    Evaluates (alpha - e)/(1 + e) with e = coef*(lambda-1)*(1+alpha)/(1-alpha),
    where coef is 2 (remark-derived) or 2*sqrt(2) (eq5-literal).  The value
    is negative when lambda is too large; callers decide whether that is an
    error.  At lambda = 1 the result is exactly alpha.
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


def _c_interval(alpha: float, lam: float, epsilon: float):
    """(C_min, C_max): 2dH/dL and epsilon^2 dL/(2 dH (lambda-1)^2), or inf."""
    dL, dH = 1.0 - alpha, 1.0 + alpha
    if lam > 1.0:
        return 2.0 * dH / dL, epsilon * epsilon * dL / (2.0 * dH * (lam - 1.0) ** 2)
    return 2.0 * dH / dL, math.inf


def _canonical(alpha: float):
    """The smallest region R(alpha, 2dH/dL) and the fixed gamma = dL/dH.

    The region's v_extent, C + dL/8, is the certified bound on |v|.
    """
    dL, dH = 1.0 - alpha, 1.0 + alpha
    return RegionSpec(alpha, 2.0 * dH / dL), dL / dH


def _canonical_certificate(alpha: float, lam: float, epsilon: float, beta: float,
                           variant: str) -> StabilityCertificate:
    """Certificate on the canonical region C = 2dH/dL with gamma = dL/dH."""
    spec, gamma = _canonical(alpha)
    return StabilityCertificate(
        alpha=alpha, lam=lam, epsilon=epsilon, C=spec.C,
        gamma=gamma, gamma_lo=gamma, gamma_hi=gamma,
        beta=beta, v_max_bound=spec.v_extent,
        u0=corner_u0(spec), u1=spec.delta_H, variant=variant,
    )


def _check_epsilon(alpha: float, lam: float, epsilon: float) -> None:
    """Raise InfeasibleError("eps2") unless 2dH(lam-1)/dL <= epsilon <= alpha."""
    eps_min = 2.0 * (1.0 + alpha) * (lam - 1.0) / (1.0 - alpha)
    if epsilon < eps_min * (1.0 - 1e-14) or epsilon > alpha * (1.0 + 1e-14):
        raise InfeasibleError(
            "eps2", f"epsilon={epsilon!r} outside [{eps_min!r}, {alpha!r}]"
        )


def thm1_certificate(alpha: float, lam: float, variant: str = VARIANT_REMARK) -> StabilityCertificate:
    """Certificate with the canonical fixed multiplier and smallest region.

    Fixes gamma = (1-alpha)/(1+alpha), C = 2(1+alpha)/(1-alpha), and
    beta = beta_bound(alpha, lam, variant).  The state bound is
    2(1+alpha)/(1-alpha) + (1-alpha)/8.

    Raises
    ------
    InfeasibleError
        With bound "lambda2" when beta_bound is not positive at
        (alpha, lam): positivity is exactly the gain-cutoff inequality
        lambda <= 1 + alpha*(1-alpha)/(coef*(1+alpha)).
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    coef = _coef(variant)
    dL, dH = 1.0 - alpha, 1.0 + alpha
    beta = beta_bound(alpha, lam, variant)
    if beta <= 0.0:
        cutoff = 1.0 + alpha * dL / (coef * dH)
        raise InfeasibleError(
            "lambda2",
            f"beta = {beta!r} <= 0 at alpha={alpha!r}, lambda={lam!r}: "
            f"positivity requires lambda <= {cutoff!r}",
        )
    return _canonical_certificate(alpha, lam, _epsilon(alpha, lam, variant),
                                  beta, variant)


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
        Naming the first violated bound: "lambda2", "eps2", "C2", or
        "gamma-range".
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    epsilon = _real(epsilon, lambda x: x >= 0.0, "epsilon must be finite and >= 0")
    dL, dH = 1.0 - alpha, 1.0 + alpha

    lam_cut = 1.0 + alpha * dL / (2.0 * dH)
    if lam > lam_cut * (1.0 + 1e-14):
        raise InfeasibleError(
            "lambda2",
            f"lambda={lam!r} exceeds 1 + alpha(1-alpha)/(2(1+alpha)) = {lam_cut!r}",
        )

    _check_epsilon(alpha, lam, epsilon)

    c_min, c_max = _c_interval(alpha, lam, epsilon)
    if c_max < c_min * (1.0 - 1e-12):
        raise InfeasibleError("C2", f"C interval [{c_min!r}, {c_max!r}] is empty")
    c_max = max(c_max, c_min)
    C = c_min if math.isinf(c_max) else min(max(math.sqrt(c_min * c_max), c_min), c_max)

    spec = RegionSpec(alpha, C)
    lo, hi = yilmaz_gamma_range(spec)
    if gamma_choice is None:
        gamma = 0.5 * (lo + hi)
    else:
        slack = 1e-12 * max(1.0, hi)
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

    Scans beta_bound(alpha, lam, variant) on a 1e-4 grid of alpha values
    in (0, alpha_cap] (the single point alpha_cap when the cap lies below
    1e-4), then refines around the best grid point by golden
    section.  Returns (beta_max, alpha_star); (0.0, nan) when no positive
    beta exists at this lambda.
    """
    lam = _real(lam, lambda x: x >= 1.0, "lambda must be >= 1")
    if not (0.0 < alpha_cap < 1.0):
        raise InvalidInputError(f"alpha_cap must lie in (0, 1), got {alpha_cap!r}")

    def beta_of(a):
        return beta_bound(a, lam, variant)

    n = max(2, int(round(alpha_cap / 1e-4)))
    grid = np.linspace(min(1e-4, alpha_cap), alpha_cap, n)
    vals = beta_of(grid)
    i = int(np.argmax(vals))
    if vals[i] <= 0.0:
        return 0.0, math.nan

    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, n - 1)]
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
    """Assemble certificate fields without enforcing the feasibility chain.

    Uses the canonical region (C = 2dH/dL) and multiplier, and clamps a
    negative input bound to 0.  Intended for falsification experiments
    where an inadmissible lambda is applied to a valid region on purpose;
    never treat the result as a guarantee.  The default epsilon uses the
    variant's coefficient, so beta matches thm1_certificate wherever that
    is feasible.
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    epsilon = _epsilon(alpha, lam, variant) if epsilon is None else float(epsilon)
    beta = max((alpha - epsilon) / (1.0 + epsilon), 0.0)
    return _canonical_certificate(alpha, lam, epsilon, beta, variant)


@dataclass(frozen=True)
class PrintedGammaIntervalReport:
    """Numerical comparison of two forms of the admissible gamma range.

    The closed-form interval [printed_lo, printed_hi] (a function of
    alpha, lambda, epsilon alone) is compared against the C-dependent
    range evaluated across the whole admissible C interval.  Empirically
    the closed form's lower endpoint coincides with the C-dependent lower
    endpoint at C = C_max, while its upper endpoint generally exceeds
    every C-dependent upper endpoint, so containment fails; certificates
    therefore always use the C-dependent range.
    """

    alpha: float
    lam: float
    epsilon: float
    printed_lo: float
    printed_hi: float
    c_min: float
    c_max: float
    range_at_cmin: tuple
    range_at_cmax: tuple
    union_lo: float
    union_hi: float
    lo_abs_diff: float      # |printed_lo - lo(C_max)|
    lo_matches_cmax: bool   # lo_abs_diff <= tol
    contained: bool         # printed interval inside the union
    hi_excess: float        # printed_hi - union_hi

    to_json_dict = _json_fields


def printed_gamma_interval_report(
    alpha: float, lam: float, epsilon: float, tol: float = 1e-9
) -> PrintedGammaIntervalReport:
    """Record how the closed-form gamma interval relates to the C-dependent one.

    Requires lambda > 1 (the closed form divides by lambda - 1) and an
    epsilon admissible at (alpha, lambda).  No containment is asserted;
    the relationship is returned as data.
    """
    alpha, lam = _validate_alpha_lambda(alpha, lam)
    if lam <= 1.0:
        raise InvalidInputError("the closed-form interval needs lambda > 1")
    epsilon = _real(epsilon, lambda x: x >= 0.0, "epsilon must be finite and >= 0")
    _check_epsilon(alpha, lam, epsilon)
    dL, dH = 1.0 - alpha, 1.0 + alpha

    lm1 = lam - 1.0
    printed_lo = 2.0 * dH**2 * lm1**2 / (epsilon**2 * dL - 2.0 * dH**2 * lm1**2)
    printed_hi = (epsilon * dL**2 - dH * dL * lm1) / (dH**2 * lm1)

    c_min, c_max = _c_interval(alpha, lam, epsilon)
    c_max = max(c_max, c_min)
    r_cmin = yilmaz_gamma_range(RegionSpec(alpha, c_min))
    r_cmax = yilmaz_gamma_range(RegionSpec(alpha, c_max))

    # lo(C) = dH/(C - dH) falls as C grows, so the union starts at
    # lo(C_max).  With x = sqrt(C) and k = sqrt(2 dH dL), hi(C) =
    # (k x - dH)/(alpha x^2 + k x/2) rises then falls in x: its derivative
    # has the sign of -k alpha x^2 + 2 alpha dH x + k dH/2, which has one
    # positive root.  So the union ends at hi of that root, clipped to
    # [C_min, C_max].
    k = math.sqrt(2.0 * dH * dL)
    ad = alpha * dH
    x = (ad + math.sqrt(ad * ad + 0.5 * k * k * ad)) / (k * alpha)
    c_peak = min(max(x * x, c_min), c_max)
    union_lo = r_cmax[0]
    union_hi = yilmaz_gamma_range(RegionSpec(alpha, c_peak))[1]

    lo_abs_diff = abs(printed_lo - r_cmax[0])
    lo_matches = lo_abs_diff <= tol * max(1.0, abs(printed_lo))
    contained = (printed_lo >= union_lo - tol) and (printed_hi <= union_hi + tol)
    return PrintedGammaIntervalReport(
        alpha=alpha, lam=lam, epsilon=epsilon,
        printed_lo=printed_lo, printed_hi=printed_hi,
        c_min=c_min, c_max=c_max,
        range_at_cmin=r_cmin, range_at_cmax=r_cmax,
        union_lo=union_lo, union_hi=union_hi,
        lo_abs_diff=lo_abs_diff, lo_matches_cmax=lo_matches,
        contained=contained, hi_excess=printed_hi - union_hi,
    )
