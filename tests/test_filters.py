"""Reconstruction kernel designs: mass, tails, derivative norms, tapers.

The fast fixture (loose tail tolerance) exercises plumbing; accuracy
claims use the default design whose tail bound is certified under 1e-8.
"""

import contextlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sdlab import _kernels, filters
from sdlab.errors import InvalidInputError, ResourceError
from sdlab.filters import design_filter, taper_profiles


def test_known_taper_profiles():
    profiles = taper_profiles()
    assert set(profiles) == {"bump", "raised-cosine-squared"}
    for phi in profiles.values():
        # taper runs from 1 (passband edge) to 0 (stop edge)
        assert phi(np.array([0.0]))[0] == pytest.approx(1.0)
        assert phi(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_default_design_unit_mass_and_center_value(filt_default):
    t, g = filt_default.t_tab, filt_default.g_tab
    # one-sided table of an even kernel: total mass is twice the half-line
    full = 2.0 * np.trapezoid(g, t)
    assert full == pytest.approx(1.0, abs=5e-7)
    # flat passband of half-width 1 plus a symmetric taper to T0 = 2
    assert filt_default.g(0.0) == pytest.approx(3.0, abs=1e-6)


def test_tail_bound_meets_tolerance(filt_default):
    assert filt_default.tail_bound <= filt_default.trunc_tol
    assert filt_default.W >= 2.0


def test_norm_chain(filt_default):
    f = filt_default
    assert 1.0 <= f.g_l1 < 2.0            # unit mass forces at least 1
    assert f.g1_l1 > 0.0 and f.g2_l1 > 0.0
    assert f.C_g == f.g2_l1 + 2.0 * f.g1_l1 + f.g_l1
    lo, hi = 100.0, 104.0                 # frozen window for the default design
    assert lo < f.C_g < hi


def test_kernel_is_even_and_vanishes_outside_support(filt_fast):
    g = filt_fast.g
    pts = np.array([0.3, 1.7, 5.2, filt_fast.W - 0.1])
    assert np.allclose(g(pts), g(-pts), rtol=0, atol=0)
    assert g(filt_fast.W + 0.5) == 0.0
    assert np.all(g(np.array([-1e9, filt_fast.W + 1e-9])) == 0.0)


def test_kernel_interpolates_its_own_table(filt_fast):
    idx = np.arange(0, filt_fast.t_tab.size, 37)
    got = filt_fast.g(filt_fast.t_tab[idx])
    assert np.array_equal(got, filt_fast.g_tab[idx])


def test_tabulated_derivative_matches_finite_differences(filt_fast):
    t = np.array([0.5, 1.25, 3.0])
    h = 1e-5
    num = (filt_fast.g(t + h) - filt_fast.g(t - h)) / (2.0 * h)
    spl = filt_fast._spl_g.derivative()(t)
    assert np.allclose(num, spl, atol=1e-4)


def test_frequency_response_shape(filt_fast):
    # the spectrum's taper on [1, T0], at s = (omega - 1)/(T0 - 1)
    phi = taper_profiles()[filt_fast.rolloff]
    edges = phi(np.array([0.0, 1.0]))
    assert edges[0] == 1.0
    assert edges[1] == pytest.approx(0.0, abs=1e-15)
    taper = phi(np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(taper) <= 0.0) and 0.0 < taper[50] < 1.0


def test_slow_taper_cannot_reach_tight_tolerance():
    with pytest.raises(ResourceError) as exc:
        design_filter(trunc_tol=1e-8, rolloff="raised-cosine-squared")
    assert "best achievable" in str(exc.value)


def test_slow_taper_succeeds_at_loose_tolerance():
    filt = design_filter(trunc_tol=1e-4, rolloff="raised-cosine-squared")
    assert filt.tail_bound <= 1e-4
    assert filt.C_g > 0.0


def test_design_validation():
    with pytest.raises(InvalidInputError):
        design_filter(T0=1.0)
    with pytest.raises(InvalidInputError):
        design_filter(trunc_tol=0.0)
    with pytest.raises(InvalidInputError):
        design_filter(rolloff="brick")


def test_wider_transition_band_shrinks_the_support(filt_default):
    wide = design_filter(T0=3.0)
    # more transition room means faster time decay, so a shorter table;
    # the price is extra bandwidth, visible as a larger curvature norm
    assert wide.W < filt_default.W
    assert wide.C_g > filt_default.C_g
    assert wide.g(0.0) == pytest.approx(4.0, abs=1e-6)


def _inverse_transforms_oracle(T0, phi, t):
    """All three transforms over every row, cos and sin per 1024-row chunk:
    the layout the design ran before its 64-row blocks."""
    n_om = int(round(T0 * 4096)) + 1
    om = np.linspace(0.0, T0, n_om)
    gh = np.where(om <= 1.0, 1.0, phi((om - 1.0) / (T0 - 1.0)))
    wts = np.full(n_om, om[1] - om[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    w0 = gh * wts
    w1 = om * w0
    w2 = om * w1
    g = np.empty(t.size)
    g1 = np.empty(t.size)
    g2 = np.empty(t.size)
    for a in range(0, t.size, 1024):
        tt = t[a:a + 1024, None] * om[None, :]
        c = np.cos(2.0 * math.pi * tt)
        s = np.sin(2.0 * math.pi * tt)
        g[a:a + 1024] = 2.0 * (c @ w0)
        g1[a:a + 1024] = -4.0 * math.pi * (s @ w1)
        g2[a:a + 1024] = -2.0 * (2.0 * math.pi) ** 2 * (c @ w2)
    return g, g1, g2


def _design_oracle(T0=2.0, trunc_tol=1e-8, rolloff="bump", dt=1.0 / 64.0):
    """The design loop over full three-transform tables, then truncated."""
    phi = taper_profiles()[rolloff]
    for w_cap in (64.0, 256.0):
        t = np.arange(int(round(w_cap / dt)) + 1) * dt
        g, g1, g2 = _inverse_transforms_oracle(T0, phi, t)
        a = np.abs(g)
        seg = 0.5 * dt * (a[:-1] + a[1:])
        tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        two_units = max(int(round(2.0 / dt)), 1)
        total = 2.0 * tail + 2.0 * float(np.max(a[-two_units:])) * w_cap
        i_min = int(round(2.0 / dt))
        ok = np.nonzero(total[i_min:] <= trunc_tol)[0]
        if ok.size:
            i = i_min + int(ok[0])
            t, g, g1, g2 = t[: i + 1], g[: i + 1], g1[: i + 1], g2[: i + 1]
            norms = (2.0 * filters._l1_by_sign_splits(t, g),
                     2.0 * filters._l1_by_sign_splits(t, g1, anti_of=g),
                     2.0 * filters._l1_by_sign_splits(t, g2, anti_of=g1))
            return t, g, g1, g2, float(t[-1]), float(total[i]), norms
    raise AssertionError("oracle found no admissible cap")


@pytest.mark.parametrize("kwargs", [
    {},
    {"trunc_tol": 1e-3},
    {"T0": 1.5},                  # 3447 kept rows: four chunks of sine
    {"dt": 1.0 / 32.0},           # the spacing is a module constant
    {"rolloff": "raised-cosine-squared", "trunc_tol": 1e-3},
    {"T0": 2.5, "trunc_tol": 1e-6},   # the 1-row tail is a threaded dot
    {"T0": 1.5, "trunc_tol": 1e-10},  # the 256 cap: 5387 kept rows
    {"T0": 2.0001},               # an omega step that is no power of two
])
def test_design_is_bit_identical_to_three_transform_tables(kwargs, monkeypatch):
    if "dt" in kwargs:
        monkeypatch.setattr(filters, "_DT", kwargs["dt"])
    f = design_filter(**{k: v for k, v in kwargs.items() if k != "dt"})
    assert f.dt == kwargs.get("dt", 1.0 / 64.0)
    # above T0 = 2.25 OpenBLAS threads each cap's 1-row product (4097 rows
    # = 64 * 64 + 1); the design sums it on one thread, in map_blocks
    tail_threads = kwargs.get("T0", 2.0) > 2.25
    with _kernels.one_blas_thread() if tail_threads else contextlib.nullcontext():
        t, g, g1, g2, W, tail_bound, norms = _design_oracle(**kwargs)
    for got, want in ((f.t_tab, t), (f.g_tab, g), (f.g1_tab, g1), (f.g2_tab, g2)):
        assert got.tobytes() == want.tobytes()
    assert (f.W, f.tail_bound) == (W, tail_bound)
    assert (f.g_l1, f.g1_l1, f.g2_l1) == norms


def test_design_does_not_depend_on_the_blas_thread_count():
    # at T0 = 2.5 each cap's 1-row tail is a product OpenBLAS would thread
    code = ("import hashlib\n"
            "from sdlab.filters import design_filter\n"
            "f = design_filter(T0=2.5, trunc_tol=1e-6)\n"
            "tabs = (f.t_tab, f.g_tab, f.g1_tab, f.g2_tab)\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in tabs)).hexdigest())\n"
            "print(repr((f.W, f.tail_bound, f.g_l1, f.g1_l1, f.g2_l1)))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_unreachable_tolerance_keeps_its_message():
    with pytest.raises(ResourceError) as exc:
        design_filter(trunc_tol=1e-12)
    assert str(exc.value) == (
        "tail bound 1e-12 unreachable within half-width 256.0 (best achievable "
        "6.584177647539491e-12); the 'bump' taper decays too slowly"
    )


def _design_peak_bytes():
    tracemalloc.start()
    try:
        design_filter()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_design_holds_one_phase_matrix_at_a_time(monkeypatch):
    # one 64-row block of phases over the omega grid is 4 MiB; the design
    # may hold one per worker (at most 16) plus small tables, never a
    # second copy; one 1024-row chunk of the whole grid is 64 MiB, and the
    # design never holds two, on any host
    block_bytes, chunk_bytes = 64 * 8193 * 8, 1024 * 8193 * 8
    design_filter(trunc_tol=1e-4)  # imports and first-use set-up
    assert _design_peak_bytes() <= 2 * chunk_bytes
    for cores in (1, 4, 64):
        monkeypatch.setattr(filters._kernels, "cores", lambda: cores)
        peak = _design_peak_bytes()
        assert peak <= min(cores, 16) * block_bytes + 2**21, cores
        assert peak <= 2 * chunk_bytes, cores


def _counting(trig, fed):
    def counted(x, out):
        fed.append(x.size)
        return trig(x, out=out)
    return counted


def test_default_design_takes_a_quarter_fewer_trig_values(monkeypatch):
    # row 2s repeats row s's even columns, so the design copies them
    # instead of taking trig: 35.90 M values instead of 47.72 M; a reuse
    # that silently turned off would feed all 47.72 M again
    fed = []
    transforms = filters._transforms
    monkeypatch.setattr(filters, "_transforms", lambda t, om, trig, weights:
                        transforms(t, om, _counting(trig, fed), weights))
    design_filter()
    assert sum(fed) <= 36.0e6


def test_transforms_take_every_trig_value_when_omega_does_not_double():
    # om[2j] == 2 * om[j] fails at the last node, so no row may copy
    t = np.arange(4097) * filters._DT
    om = np.linspace(0.0, 2.0, 8193)
    om[-1] = np.nextafter(om[-1], 3.0)
    w = np.random.default_rng(5).normal(size=om.size)
    fed = []
    got, = filters._transforms(t, om, _counting(np.cos, fed), (w,))
    assert sum(fed) == t.size * om.size
    want = np.concatenate([np.cos(2.0 * math.pi * (t[a:a + 1024, None] * om)) @ w
                           for a in range(0, t.size, 1024)])
    assert got.tobytes() == want.tobytes()
