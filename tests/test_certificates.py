"""Certificate algebra: gain cutoffs, unit-gain reduction, feasibility tags."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdlab.certificates import (
    VARIANT_EQ5,
    VARIANT_REMARK,
    beta_bound,
    feasible_alpha_interval,
    max_beta_theoretical,
    thm1_certificate,
    thm2_certificate,
    unchecked_certificate,
)
from sdlab.errors import InfeasibleError, InvalidInputError
from sdlab.region import RegionSpec, yilmaz_gamma_range

# largest admissible gain over all alpha, per variant, in closed form
CUTOFF_REMARK = 1.0 + (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
CUTOFF_EQ5 = 1.0 + (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))

_COEF = {VARIANT_REMARK: 2.0, VARIANT_EQ5: 2.0 * math.sqrt(2.0)}

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


def _scanned_max_beta(lam, alpha_cap, variant):
    """max_beta_theoretical as it was before the closed form: the best of
    all 1e-4 grid points, then the same golden-section refinement."""
    n = max(2, int(round(alpha_cap / 1e-4)))
    grid = np.linspace(min(1e-4, alpha_cap), alpha_cap, n)
    vals = beta_bound(grid, lam, variant)
    i = int(np.argmax(vals))
    if not vals[i] > 0.0:
        return 0.0, math.nan
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = beta_bound(c, lam, variant), beta_bound(d, lam, variant)
    while b - a > 1e-13:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = beta_bound(c, lam, variant)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = beta_bound(d, lam, variant)
    alpha_star = min(0.5 * (a + b), alpha_cap)
    for cand in (float(grid[i]), alpha_cap):
        if beta_bound(cand, lam, variant) >= beta_bound(alpha_star, lam, variant):
            alpha_star = cand
    return float(beta_bound(alpha_star, lam, variant)), float(alpha_star)


@settings(max_examples=300, deadline=None)
@given(log_gap=st.floats(-9.0, 0.0), cap=st.sampled_from([0.99, 0.5, 0.9999, 5e-5]),
       variant=st.sampled_from([VARIANT_REMARK, VARIANT_EQ5]))
@example(log_gap=-math.inf, cap=0.99, variant=VARIANT_REMARK)
@example(log_gap=math.log10(CUTOFF_EQ5 - 1.0), cap=0.99, variant=VARIANT_EQ5)
def test_closed_form_start_matches_the_full_grid_scan(log_gap, cap, variant):
    lam = 1.0 + 10.0 ** log_gap
    got = max_beta_theoretical(lam, alpha_cap=cap, variant=variant)
    want = _scanned_max_beta(lam, cap, variant)
    assert got[0] == want[0]
    assert got[1] == want[1] or math.isnan(got[1]) and math.isnan(want[1])


@pytest.mark.parametrize("lam", [1e307, 1e308, 1.7976931348623157e308])
@pytest.mark.parametrize("variant", [VARIANT_REMARK, VARIANT_EQ5])
def test_max_beta_past_epsilon_overflow_is_infeasible(lam, variant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta_max, alpha_star = max_beta_theoretical(lam, variant=variant)
    assert beta_max == 0.0 and math.isnan(alpha_star)


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


def test_thm2_gamma_just_past_a_tiny_range_is_out_of_range():
    # near lambda = 1 the admissible gamma range ends at about 6e-8, so an
    # absolute slack of 1e-12 let this gamma through to a u1 search with no
    # root; the slack is relative to the range's end
    with pytest.raises(InfeasibleError) as exc:
        thm2_certificate(0.7581921665332395, 1.0000000000000004,
                         0.19454975408439365, gamma_choice=5.810646268650321e-08)
    assert exc.value.bound == "gamma-range"


def test_thm2_past_the_epsilon_gate_never_finds_an_empty_c_interval():
    # epsilon >= eps_min (1 - 1e-14) gives c_max >= c_min (1 - 3e-14) after
    # rounding, so the smallest epsilon the gate passes gets C = c_min
    for alpha in (1e-6, 0.1, 0.5, 0.9):
        dL, dH = 1.0 - alpha, 1.0 + alpha
        cut = 1.0 + alpha * dL / (2.0 * dH)
        for lam in (float(np.nextafter(1.0, 2.0)), 1.0 + (cut - 1.0) * 1e-6,
                    0.5 * (1.0 + cut), cut):
            eps_min = 2.0 * dH * (lam - 1.0) / dL
            eps = eps_min * (1.0 - 1e-14)
            while eps < eps_min * (1.0 - 1e-14):
                eps = float(np.nextafter(eps, 2.0))
            assert thm2_certificate(alpha, lam, eps).C == 2.0 * dH / dL


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
def test_an_overflowing_epsilon_is_rejected_not_certified(variant):
    # the default epsilon is inf at lambda = 1e308, so beta would be NaN
    with pytest.raises(InfeasibleError):
        thm1_certificate(0.5, 1e308, variant)
    with pytest.raises(InvalidInputError, match="default epsilon overflows"):
        unchecked_certificate(0.5, 1e308, variant=variant)
    for bad in (math.inf, math.nan, -0.1):
        with pytest.raises(InvalidInputError, match="epsilon must be finite"):
            unchecked_certificate(0.5, 1.2, epsilon=bad, variant=variant)
    assert unchecked_certificate(0.5, 1e308, epsilon=0.2, variant=variant).beta == 0.25


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


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       lam=st.one_of(st.floats(1.0, 1.2), st.floats(1e307, 1.7e308)),
       variant=st.sampled_from([VARIANT_REMARK, VARIANT_EQ5]))
@example(alpha=0.5, lam=1.0, variant=VARIANT_EQ5)
@example(alpha=0.5, lam=1e308, variant=VARIANT_REMARK)
def test_thm1_is_the_unchecked_certificate_behind_the_beta_gate(alpha, lam, variant):
    cutoff = 1.0 + alpha * (1.0 - alpha) / (_COEF[variant] * (1.0 + alpha))
    try:
        cert = thm1_certificate(alpha, lam, variant)
    except InfeasibleError as e:
        # past the cutoff, and where epsilon overflows to inf
        assert e.bound == "lambda2"
        assert lam > cutoff * (1.0 - 1e-12)
        return
    assert lam < cutoff * (1.0 + 1e-12) and lam < 1e307
    # repr tells every field apart bit for bit (0.0 from -0.0 too)
    assert repr(cert) == repr(unchecked_certificate(alpha, lam, variant=variant))


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
        lambda: feasible_alpha_interval(bad),
        lambda: max_beta_theoretical(bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError):
            call()


def _printed_gamma_interval(alpha, lam, eps):
    """The paper's closed-form gamma interval, printed as a function of
    alpha, lambda and epsilon alone (lambda > 1)."""
    dL, dH, lm1 = 1.0 - alpha, 1.0 + alpha, lam - 1.0
    return (2.0 * dH**2 * lm1**2 / (eps**2 * dL - 2.0 * dH**2 * lm1**2),
            (eps * dL**2 - dH * dL * lm1) / (dH**2 * lm1))


def _gamma_ranges_over_c(alpha, lam, eps):
    """C_min, C_max and the C-dependent gamma ranges on a log grid of
    [C_min, C_max]."""
    dL, dH = 1.0 - alpha, 1.0 + alpha
    c_min = 2.0 * dH / dL
    c_max = eps * eps * dL / (2.0 * dH * (lam - 1.0) ** 2)
    cs = np.exp(np.linspace(math.log(c_min), math.log(c_max), 65537))
    los, his = np.array([yilmaz_gamma_range(RegionSpec(alpha, float(c)))
                         for c in cs]).T
    return c_min, c_max, los, his


def test_printed_gamma_interval_report_flags_the_defect():
    # the two printed endpoints do not bound the true union of ranges:
    # the lower end is the range's lower end at C_max, the upper end
    # lies above every C-dependent upper end
    c_min, c_max, los, his = _gamma_ranges_over_c(0.5, 1.01, 0.2)
    assert c_min <= c_max
    assert los.min() <= his.max()
    printed_lo, printed_hi = _printed_gamma_interval(0.5, 1.01, 0.2)
    assert los.min() == los[-1] == pytest.approx(printed_lo, rel=1e-12)
    assert printed_hi > his.max()


@pytest.mark.parametrize("alpha,lam,eps", [
    (0.3, 1.0001, 0.25),
    (0.5, 1.01, 0.2),
    (0.8, 1.001, 0.5),
    (0.1, 1.0001, 0.05),
    (0.5, 1.01, 0.0601),   # printed_hi is above the union by only 9e-4
    # epsilon**2 and epsilon*epsilon differ in the last bit of C_max here
    (0.23377786731220526, 1.000884940394962, 0.13760730385293787),
])
def test_gamma_union_ends_are_exact(alpha, lam, eps):
    # The union over C in [C_min, C_max] of the C-dependent gamma ranges
    # starts exactly at the printed lower end, lo(C_max), but the printed
    # upper end lies above every C-dependent upper end: the printed
    # interval is not contained in the union, so certificates use the
    # C-dependent range.
    c_min, c_max, los, his = _gamma_ranges_over_c(alpha, lam, eps)
    printed_lo, printed_hi = _printed_gamma_interval(alpha, lam, eps)
    assert los.min() == los[-1] == pytest.approx(printed_lo, rel=1e-12)
    assert printed_hi > his.max()
    # thm2 takes the geometric mean of the same [C_min, C_max]
    assert thm2_certificate(alpha, lam, eps).C == math.sqrt(c_min * c_max)


def test_certificate_json_keys_follow_the_fields():
    cert = thm1_certificate(0.5, 1.01)
    assert list(cert.to_json_dict()) == [
        "alpha", "lambda", "epsilon", "C", "gamma", "gamma_lo", "gamma_hi",
        "beta", "v_max_bound", "u0", "u1", "variant"]
    assert cert.to_json_dict()["lambda"] == cert.lam


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
