"""One recursion loop behind run_fill, probe_const and probe_input.

The three entry points differ only in the input (constant or array), in
whether steps are recorded, and in the divergence bounds, so their
results must agree exactly wherever those differences do not matter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import _kernels

N_MAX = 400

# lam1, lam2, gamma, kind, tau; gains up to 1.3 with |beta| up to 1.2
# make many runs diverge within N_MAX steps
schemes = st.tuples(
    st.floats(1.0, 1.3),
    st.floats(1.0, 1.3),
    st.floats(0.05, 2.0),
    st.sampled_from([_kernels.KIND_SIGN, _kernels.KIND_TRILEVEL]),
    st.floats(0.05, 0.9),
)
betas = st.floats(-1.2, 1.2)
bounds = st.floats(10.5, 1e4)


@settings(deadline=None)
@given(scheme=schemes, beta=betas, n=st.integers(0, N_MAX), bound=bounds)
def test_constant_probe_equals_the_array_probe(scheme, beta, n, bound):
    assert (_kernels.probe_const(*scheme, beta, n, bound)
            == _kernels.probe_input(*scheme, np.full(n, beta), bound))


@settings(deadline=None)
@given(scheme=schemes, beta=betas, n=st.integers(1, N_MAX), bound=bounds,
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_probe_matches_the_recorded_run(scheme, beta, n, bound, seed):
    # seed None drives the run with the constant beta, else with uniform draws
    if seed is None:
        f = np.full(n, beta)
    else:
        f = np.random.default_rng(seed).uniform(-abs(beta), abs(beta), n)
    q, u, v = np.empty(n), np.empty(n), np.empty(n)
    bad = _kernels.run_fill(*scheme, f, q, u, v, _kernels.HARD_BOUND)
    recorded = np.abs(v[: bad + 1 if bad >= 0 else n])

    diverged_at, vmax = _kernels.probe_input(*scheme, f, bound)
    over = np.flatnonzero(~(recorded <= bound))
    assert diverged_at == (int(over[0]) if over.size else -1)
    seen = recorded[: diverged_at + 1 if diverged_at >= 0 else n]
    assert vmax == np.max(seen)
    if seed is None:
        assert _kernels.probe_const(*scheme, beta, n, bound) == (diverged_at, vmax)


def test_run_fill_stops_at_its_own_bound():
    f = np.full(50, 0.99)
    q, u, v = np.empty(50), np.empty(50), np.empty(50)
    bad = _kernels.run_fill(1.3, 1.3, 1.0, _kernels.KIND_SIGN, 0.5, f, q, u, v, 20.0)
    assert 0 <= bad < 50
    assert not (abs(u[bad]) <= 20.0 and abs(v[bad]) <= 20.0)
    assert np.all(np.abs(u[:bad]) <= 20.0) and np.all(np.abs(v[:bad]) <= 20.0)
