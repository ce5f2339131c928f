"""Certificate algebra: gain cutoffs, unit-gain reduction, feasibility tags."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdlab.certificates import (
    VARIANT_EQ5,
    VARIANT_REMARK,
    beta_bound,
    feasible_alpha_interval,
    max_beta_theoretical,
    printed_gamma_interval_report,
    thm1_certificate,
    thm2_certificate,
    unchecked_certificate,
)
from sdlab.errors import InfeasibleError, InvalidInputError

# largest admissible gain over all alpha, per variant, in closed form
CUTOFF_REMARK = 1.0 + (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
CUTOFF_EQ5 = 1.0 + (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))

ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@pytest.mark.parametrize("variant", [VARIANT_REMARK, VARIANT_EQ5])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_unit_gain_reduces_to_the_classical_certificate(variant, alpha):
    cert = thm1_certificate(alpha, 1.0, variant)
    dL, dH = 1.0 - alpha, 1.0 + alpha
    assert abs(cert.beta - alpha) <= 1e-12
    assert cert.epsilon == 0.0
    assert cert.C == pytest.approx(2.0 * dH / dL, rel=1e-15)
    assert cert.gamma == pytest.approx(dL / dH, rel=1e-15)
    assert cert.gamma_hi - cert.gamma_lo <= 1e-12


def test_golden_certificate_alpha_half_unit_gain():
    cert = thm1_certificate(0.5, 1.0)
    assert cert.beta == 0.5
    assert cert.C == 6.0
    assert cert.gamma == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert cert.v_max_bound == 6.0625
    assert cert.u0 == 3.0
    assert cert.u1 == 1.5


def test_beta_bound_agrees_with_the_closed_form():
    # e = coef (lam-1) dH/dL, beta = (alpha - e)/(1 + e)
    e = 2.0 * 0.01 * 1.5 / 0.5
    want = (0.5 - e) / (1.0 + e)
    assert beta_bound(0.5, 1.01, VARIANT_REMARK) == pytest.approx(want, rel=1e-14)
    e = 2.0 * math.sqrt(2.0) * 0.01 * 1.5 / 0.5
    want = (0.5 - e) / (1.0 + e)
    got = beta_bound(0.5, 1.01, VARIANT_EQ5)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.38268, abs=5e-6)


def test_beta_bound_regressions():
    assert beta_bound(0.5, 1.01, VARIANT_REMARK) == pytest.approx(
        0.4150943396226414, rel=1e-15)
    assert beta_bound(0.5, 1.01, VARIANT_EQ5) == pytest.approx(
        0.3826760469242761, rel=1e-15)


@pytest.mark.parametrize("variant,cutoff", [
    (VARIANT_REMARK, CUTOFF_REMARK),
    (VARIANT_EQ5, CUTOFF_EQ5),
])
def test_no_alpha_is_feasible_past_the_variant_cutoff(variant, cutoff):
    beta_max, alpha_star = max_beta_theoretical(cutoff + 1e-6, variant=variant)
    assert beta_max == 0.0
    assert math.isnan(alpha_star)
    assert feasible_alpha_interval(cutoff + 1e-6, variant) is None
    beta_max, alpha_star = max_beta_theoretical(cutoff - 1e-4, variant=variant)
    assert beta_max > 0.0
    assert 0.0 < alpha_star < 1.0


def test_fixed_alpha_gain_cutoff_is_sharp():
    # at alpha = 1/2 the positivity edge is 1 + (1/2)(1/2)/(2(3/2)) = 13/12
    cut = 1.0 + 0.5 * 0.5 / (2.0 * 1.5)
    cert = thm1_certificate(0.5, cut - 1e-9)
    assert cert.beta > 0.0
    with pytest.raises(InfeasibleError) as exc:
        thm1_certificate(0.5, cut + 1e-9)
    assert exc.value.bound == "lambda2"
    assert repr(cut)[:12] in str(exc.value)


def test_max_beta_hits_the_alpha_cap_exactly_at_unit_gain():
    assert max_beta_theoretical(1.0) == (0.99, 0.99)
    assert max_beta_theoretical(1.0, alpha_cap=0.5) == (0.5, 0.5)


@pytest.mark.parametrize("cap", [1e-9, 5e-5])
def test_max_beta_keeps_alpha_under_a_cap_below_the_grid_step(cap):
    beta_max, alpha_star = max_beta_theoretical(1.0, alpha_cap=cap)
    assert 0.0 < alpha_star <= cap
    assert beta_max == beta_bound(alpha_star, 1.0, VARIANT_REMARK)


def test_max_beta_regression_and_monotone_decay():
    beta_max, alpha_star = max_beta_theoretical(1.01)
    assert beta_max == pytest.approx(0.535104722043692, rel=1e-12)
    assert alpha_star == pytest.approx(0.7522013143304804, rel=1e-9)
    grid = [1.0, 1.01, 1.03, 1.05, 1.08, 1.0857, 1.09]
    vals = [max_beta_theoretical(l)[0] for l in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


@given(lam=st.floats(min_value=1.0, max_value=CUTOFF_REMARK - 1e-6))
def test_feasible_alpha_interval_brackets_positive_beta(lam):
    iv = feasible_alpha_interval(lam)
    assert iv is not None
    lo, hi = iv
    assert 0.0 <= lo < hi <= 1.0
    mid = 0.5 * (lo + hi)
    assert beta_bound(mid, lam) > 0.0
    if lo > 0.0:
        assert beta_bound(lo * 0.5, lam) <= 0.0
    assert beta_bound(min(hi * 1.01, 0.9999), lam) <= 0.0 or hi > 0.999


def test_thm2_reduces_to_thm1_at_unit_gain():
    a = thm1_certificate(0.5, 1.0)
    b = thm2_certificate(0.5, 1.0, 0.0)
    for name in ("alpha", "lam", "epsilon", "C", "gamma", "beta",
                 "v_max_bound", "u0", "u1"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12)


def test_thm2_fields_satisfy_the_inequality_chain():
    alpha, lam, eps = 0.5, 1.01, 0.2
    cert = thm2_certificate(alpha, lam, eps)
    dL, dH = 1.0 - alpha, 1.0 + alpha
    assert 2.0 * dH * (lam - 1.0) / dL <= eps <= alpha
    c_min = 2.0 * dH / dL
    c_max = eps * eps * dL / (2.0 * dH * (lam - 1.0) ** 2)
    assert c_min <= cert.C <= c_max
    assert cert.gamma_lo <= cert.gamma <= cert.gamma_hi
    assert cert.v_max_bound == pytest.approx(cert.C + dL / 8.0, rel=1e-15)
    assert cert.u0 == pytest.approx(math.sqrt(2.0 * cert.C * dH * dL), rel=1e-15)
    assert cert.beta == pytest.approx((alpha - eps) / (1.0 + eps), rel=1e-14)


def test_thm2_infeasibility_tags():
    with pytest.raises(InfeasibleError) as exc:
        thm2_certificate(0.5, 1.09, 0.3)
    assert exc.value.bound == "lambda2"
    with pytest.raises(InfeasibleError) as exc:
        thm2_certificate(0.5, 1.01, 0.6)       # above alpha
    assert exc.value.bound == "eps2"
    with pytest.raises(InfeasibleError) as exc:
        thm2_certificate(0.5, 1.01, 0.01)      # below 2 dH (lam-1)/dL
    assert exc.value.bound == "eps2"
    with pytest.raises(InfeasibleError) as exc:
        thm2_certificate(0.5, 1.01, 0.2, gamma_choice=0.9)
    assert exc.value.bound == "gamma-range"


def test_thm2_honors_an_admissible_gamma_choice():
    base = thm2_certificate(0.5, 1.01, 0.2)
    pick = 0.5 * (base.gamma_lo + base.gamma)
    cert = thm2_certificate(0.5, 1.01, 0.2, gamma_choice=pick)
    assert cert.gamma == pick


def test_unchecked_certificate_clamps_beta_and_skips_gates():
    cert = unchecked_certificate(0.5, 1.2)
    assert cert.beta == 0.0
    assert cert.C == 6.0
    assert cert.lam == 1.2
    with pytest.raises(InfeasibleError):
        thm1_certificate(0.5, 1.2)


@pytest.mark.parametrize("variant", [VARIANT_REMARK, VARIANT_EQ5])
def test_epsilon_reproduces_beta_for_both_variants(variant):
    checked = 0
    for alpha in np.linspace(0.05, 0.95, 19):
        for lam in np.linspace(1.0, 1.1, 21):
            alpha, lam = float(alpha), float(lam)
            try:
                cert = thm1_certificate(alpha, lam, variant)
            except InfeasibleError:
                continue
            eps = cert.epsilon
            assert (alpha - eps) / (1.0 + eps) == pytest.approx(cert.beta, rel=1e-12)
            loose = unchecked_certificate(alpha, lam, variant=variant)
            assert loose.epsilon == eps
            assert loose.beta == pytest.approx(cert.beta, rel=1e-12)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("variant", [VARIANT_REMARK, VARIANT_EQ5])
def test_epsilon_reproduces_beta_bit_for_bit(variant):
    # one epsilon expression everywhere: no last-bit drift between beta
    # and (alpha - epsilon)/(1 + epsilon), also for the 2*sqrt(2) coefficient
    checked = 0
    for alpha in np.linspace(0.05, 0.95, 19):
        for lam in np.linspace(1.0, 1.1, 21):
            alpha, lam = float(alpha), float(lam)
            loose = unchecked_certificate(alpha, lam, variant=variant)
            assert loose.beta == max(beta_bound(alpha, lam, variant), 0.0)
            try:
                cert = thm1_certificate(alpha, lam, variant)
            except InfeasibleError:
                continue
            eps = cert.epsilon
            assert (alpha - eps) / (1.0 + eps) == cert.beta
            assert loose.epsilon == eps and loose.beta == cert.beta
            if variant == VARIANT_REMARK:
                # the factor 2 is exact, so the earlier operand order agrees
                assert eps == 2.0 * (1.0 + alpha) * (lam - 1.0) / (1.0 - alpha)
            checked += 1
    assert checked > 100


def test_input_validation():
    with pytest.raises(InvalidInputError):
        thm1_certificate(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        thm1_certificate(0.5, 0.99)
    with pytest.raises(InvalidInputError):
        thm1_certificate(0.5, 1.0, variant="other")
    with pytest.raises(InvalidInputError):
        thm2_certificate(0.5, 1.0, math.nan)
    with pytest.raises(InvalidInputError):
        max_beta_theoretical(1.0, alpha_cap=1.0)


@pytest.mark.parametrize("to", [np.float32, np.float64])
def test_numpy_scalars_give_the_results_of_their_float_values(to):
    alpha, lam, eps = to(0.5), to(1.01), to(0.2)
    a, lm, e = float(alpha), float(lam), float(eps)
    pairs = [
        (thm1_certificate(alpha, lam), thm1_certificate(a, lm)),
        (thm2_certificate(alpha, lam, eps), thm2_certificate(a, lm, e)),
        (unchecked_certificate(alpha, lam, eps), unchecked_certificate(a, lm, e)),
        (printed_gamma_interval_report(alpha, lam, eps),
         printed_gamma_interval_report(a, lm, e)),
        (feasible_alpha_interval(lam), feasible_alpha_interval(lm)),
        (max_beta_theoretical(lam), max_beta_theoretical(lm)),
    ]
    for got, want in pairs:
        # repr also tells a numpy scalar field from a float one
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("bad", [True, "1.01", math.nan, np.float32("nan")])
def test_bools_strings_and_nan_are_rejected(bad):
    calls = [
        lambda: thm1_certificate(0.5, bad),
        lambda: thm1_certificate(bad, 1.01),
        lambda: thm2_certificate(0.5, 1.01, bad),
        lambda: unchecked_certificate(0.5, bad),
        lambda: printed_gamma_interval_report(0.5, 1.01, bad),
        lambda: feasible_alpha_interval(bad),
        lambda: max_beta_theoretical(bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError):
            call()


def test_report_c_max_is_the_c_max_thm2_certifies():
    # epsilon**2 and epsilon*epsilon differ in the last bit here
    alpha, lam, eps = 0.23377786731220526, 1.000884940394962, 0.13760730385293787
    dL, dH = 1.0 - alpha, 1.0 + alpha
    c_max = eps * eps * dL / (2.0 * dH * (lam - 1.0) ** 2)
    assert c_max != eps**2 * dL / (2.0 * dH * (lam - 1.0) ** 2)
    rep = printed_gamma_interval_report(alpha, lam, eps)
    assert rep.c_max == c_max == 7508.3179245763195
    # thm2 takes the geometric mean of the same [C_min, C_max]
    assert thm2_certificate(alpha, lam, eps).C == math.sqrt(rep.c_min * c_max)


def test_printed_gamma_interval_report_flags_the_defect():
    # the two printed endpoints do not bound the true union of ranges;
    # the report quantifies the mismatch instead of hiding it
    rep = printed_gamma_interval_report(0.5, 1.01, 0.2)
    assert rep.c_min <= rep.c_max
    assert rep.union_lo <= rep.union_hi
    assert isinstance(rep.contained, bool)
    assert rep.lo_abs_diff >= 0.0


@pytest.mark.parametrize("alpha,lam,eps", [
    (0.3, 1.0001, 0.25),   # a 4,097-point grid misses this peak by 1.3e-7
    (0.5, 1.01, 0.2),
    (0.8, 1.001, 0.5),
    (0.1, 1.0001, 0.05),
    (0.5, 1.01, 0.0601),   # C interval narrower than the peak's distance
])
def test_gamma_union_ends_are_exact(alpha, lam, eps):
    rep = printed_gamma_interval_report(alpha, lam, eps)
    dH, dL = 1.0 + alpha, 1.0 - alpha
    cs = np.exp(np.linspace(math.log(rep.c_min), math.log(rep.c_max), 65537))
    u0s = np.sqrt(2.0 * cs * dH * dL)
    his = (u0s - dH) / (cs * alpha + 0.5 * u0s)
    # near the flat peak the grid and the closed form round differently,
    # by at most a few ulps; a missed peak is off by far more
    assert rep.union_hi >= his.max() - 4.0 * np.spacing(his.max())
    assert rep.union_lo == rep.range_at_cmax[0]


def test_report_json_keys_flatten_the_fields():
    rep = printed_gamma_interval_report(0.5, 1.01, 0.2)
    assert list(rep.to_json_dict()) == [
        "alpha", "lambda", "epsilon", "printed_lo", "printed_hi", "c_min",
        "c_max", "range_at_cmin_lo", "range_at_cmin_hi", "range_at_cmax_lo",
        "range_at_cmax_hi", "union_lo", "union_hi", "lo_abs_diff",
        "lo_matches_cmax", "contained", "hi_excess"]
    assert rep.to_json_dict()["range_at_cmax_hi"] == rep.range_at_cmax[1]
    cert = thm1_certificate(0.5, 1.01)
    assert list(cert.to_json_dict()) == [
        "alpha", "lambda", "epsilon", "C", "gamma", "gamma_lo", "gamma_hi",
        "beta", "v_max_bound", "u0", "u1", "variant"]


@given(
    alpha=st.floats(min_value=0.05, max_value=0.95),
    lam=st.floats(min_value=1.0, max_value=1.05),
)
def test_certificate_fields_are_finite_when_feasible(alpha, lam):
    try:
        cert = thm1_certificate(alpha, lam)
    except InfeasibleError:
        return
    for name in ("alpha", "lam", "epsilon", "C", "gamma", "gamma_lo",
                 "gamma_hi", "beta", "v_max_bound", "u0", "u1"):
        assert math.isfinite(getattr(cert, name))
    assert cert.beta > 0.0
