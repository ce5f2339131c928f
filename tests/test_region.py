"""Region geometry: boundary symmetry, corners, multiplier inversion, the step map."""

import math

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from sdlab.errors import InfeasibleError, InvalidInputError, NoSolutionError
from sdlab.region import (
    RegionSpec,
    b1_eval,
    b2_eval,
    corner_u0,
    step_region,
    u1_from_gamma,
    yilmaz_gamma_range,
)

alphas = st.floats(min_value=0.05, max_value=0.95)


def gamma_of(spec, u1):
    """The multiplier of switching abscissa u1: u1 / B1(-u1)."""
    return u1 / (spec.C - u1 / 2.0 - u1 * u1 / (2.0 * spec.delta_H))


def spec_for(alpha, c_scale=1.0):
    # C >= 2 dH/dL keeps every derived quantity well defined
    c_min = 2.0 * (1.0 + alpha) / (1.0 - alpha)
    return RegionSpec(alpha=alpha, C=c_min * c_scale)


@given(alpha=alphas, c_scale=st.floats(min_value=1.0, max_value=5.0),
       u=st.floats(min_value=-20, max_value=20))
def test_lower_boundary_is_reflected_upper_boundary(alpha, c_scale, u):
    spec = spec_for(alpha, c_scale)
    assert b2_eval(spec, u) == -b1_eval(spec, -u)


def test_boundary_values_at_named_points():
    spec = RegionSpec(alpha=0.5, C=6.0)
    assert b1_eval(spec, 0.0) == 6.0
    assert b2_eval(spec, 0.0) == -6.0
    # vertex of the u > 0 branch sits at u = dL/2
    assert spec.v_extent == pytest.approx(6.0 + 0.5 / 8.0, abs=0)
    got = b1_eval(spec, spec.delta_L / 2.0)
    assert got == pytest.approx(spec.v_extent, rel=1e-15)


@given(alpha=alphas, c_scale=st.floats(min_value=1.0, max_value=5.0))
def test_boundaries_meet_exactly_at_the_corners(alpha, c_scale):
    spec = spec_for(alpha, c_scale)
    u0 = corner_u0(spec)
    # u0^2 = 2 C dH dL makes B1 and B2 agree at +-u0
    for s in (-1.0, 1.0):
        gap = b1_eval(spec, s * u0) - b2_eval(spec, s * u0)
        assert abs(gap) < 1e-12 * (1.0 + spec.C)


def test_vectorized_boundary_matches_scalar():
    spec = RegionSpec(alpha=0.3, C=5.0)
    u = np.linspace(-3, 3, 11)
    vec = b1_eval(spec, u)
    assert vec.shape == (11,)
    for i, ui in enumerate(u):
        assert vec[i] == b1_eval(spec, float(ui))


@given(alpha=alphas, c_scale=st.floats(min_value=1.0, max_value=5.0),
       frac=st.floats(min_value=1e-3, max_value=0.999))
def test_multiplier_roundtrip_through_u1(alpha, c_scale, frac):
    spec = spec_for(alpha, c_scale)
    u1 = frac * spec.u0
    gamma = gamma_of(spec, u1)
    assume(gamma > 0.0)  # B1(-u1) <= 0 near the corner for large C
    back = u1_from_gamma(spec, gamma)
    assert back == pytest.approx(u1, rel=1e-9)


def test_multiplier_input_contracts():
    spec = RegionSpec(alpha=0.5, C=6.0)
    with pytest.raises(InvalidInputError):
        u1_from_gamma(spec, 0.0)
    with pytest.raises(InvalidInputError):
        u1_from_gamma(spec, -1.0)
    with pytest.raises(NoSolutionError):
        u1_from_gamma(spec, 1e9)


def test_gamma_range_golden_cases():
    # alpha = 1/2, C = 6 is the minimal C: the interval is the point 1/3
    spec = RegionSpec(alpha=0.5, C=6.0)
    lo, hi = yilmaz_gamma_range(spec)
    assert lo == pytest.approx(1.5 / 4.5, abs=1e-15)
    assert hi == lo
    # widening C opens the interval: lo = dH/(C - dH), hi from the corner
    spec = RegionSpec(alpha=0.5, C=8.0)
    lo, hi = yilmaz_gamma_range(spec)
    u0 = math.sqrt(12.0)
    assert lo == pytest.approx(1.5 / 6.5, abs=1e-15)
    assert hi == pytest.approx((u0 - 1.5) / (4.0 + 0.5 * u0), rel=1e-15)
    assert lo < hi


@given(alpha=alphas)
def test_gamma_range_collapses_at_minimal_c(alpha):
    spec = spec_for(alpha, 1.0)
    lo, hi = yilmaz_gamma_range(spec)
    want = spec.delta_L / spec.delta_H
    assert lo == pytest.approx(want, rel=1e-12)
    assert hi - lo <= 1e-12 * want


def test_gamma_range_rejects_small_c():
    with pytest.raises(InfeasibleError) as exc:
        yilmaz_gamma_range(RegionSpec(alpha=0.5, C=5.0))
    assert exc.value.bound == "lowerc"


@given(alpha=alphas, c_scale=st.floats(min_value=1.0, max_value=5.0),
       frac=st.floats(min_value=1e-3, max_value=0.999))
def test_gamma_range_contains_every_interior_multiplier(alpha, c_scale, frac):
    spec = spec_for(alpha, c_scale)
    dH = spec.delta_H
    u1 = dH + frac * (spec.u0 - 2.0 * dH)
    assume(dH < u1 < spec.u0 - dH)
    gamma = gamma_of(spec, u1)
    assume(gamma > 0.0)
    lo, hi = yilmaz_gamma_range(spec)
    assert lo - 1e-12 <= gamma <= hi + 1e-12


def test_one_step_maps_are_the_documented_affine_forms():
    # u + gamma v is 0.25 - 0.15 > 0 at gamma = 0.1 and < 0 at gamma = 1
    u, v = np.array([0.25]), np.array([-1.5])
    a = step_region(u, v, 0.75, 0.1, 1.02)
    assert (a[0][0], a[1][0]) == (1.02 * 0.25 - 0.75, 1.02 * 0.25 + (-1.5) - 0.75)
    b = step_region(u, v, 0.75, 1.0, 1.02)
    assert (b[0][0], b[1][0]) == (1.02 * 0.25 + 0.75, 1.02 * 0.25 + (-1.5) + 0.75)


@given(
    u=st.floats(min_value=-3, max_value=3),
    v=st.floats(min_value=-5, max_value=5),
    lam=st.floats(min_value=1.0, max_value=1.05),
    delta=st.floats(min_value=0.5, max_value=1.5),
)
def test_gain_folds_into_a_state_dependent_offset(u, v, lam, delta):
    # the gain-lam move equals the gain-1 move at a shifted offset; p and
    # -p take opposite branches unless p is on the switching line
    gamma = 0.5
    us, vs = np.array([u, -u]), np.array([v, -v])
    left = us + gamma * vs >= 0.0
    shifted = np.where(left, delta - (lam - 1.0) * us, delta + (lam - 1.0) * us)
    au, av = step_region(us, vs, delta, gamma, lam)
    bu, bv = step_region(us, vs, shifted, gamma, 1.0)
    den_u = max(1.0, abs(lam * u) + delta)
    den_v = max(1.0, abs(lam * u) + abs(v) + delta)
    assert np.max(np.abs(au - bu)) / den_u < 1e-15
    assert np.max(np.abs(av - bv)) / den_v < 1e-15


def test_step_region_branches_on_the_switching_line():
    delta, gamma = 0.8, 0.5
    # right of the line, left of it, and on it: the tie goes left, as Q(0) = +1
    u, v = np.array([1.0, -1.0, 1.0]), np.array([0.0, 0.0, -2.0])
    got_u, got_v = step_region(u, v, delta, gamma, 1.0)
    assert got_u.tolist() == [1.0 - delta, -1.0 + delta, 1.0 - delta]
    assert got_v.tolist() == [1.0 - delta, -1.0 + delta, -1.0 - delta]


def test_region_spec_validation():
    with pytest.raises(InvalidInputError):
        RegionSpec(alpha=0.0, C=6.0)
    with pytest.raises(InvalidInputError):
        RegionSpec(alpha=1.0, C=6.0)
    with pytest.raises(InvalidInputError):
        RegionSpec(alpha=0.5, C=0.0)
    with pytest.raises(InvalidInputError):
        RegionSpec(alpha=0.5, C=math.inf)
