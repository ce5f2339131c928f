"""Hot inner loops for the modulator recursions.

One loop, _recur, runs the double-loop recursion; run_fill, probe_const
and probe_input are one-call entry points that differ only in the input
(array or constant), in whether steps are recorded, and in the bounds.
first_order_fill is the single-loop recursion of the reconstruction
pipeline.

The loops are compiled with numba (nogil, so they run outside the GIL)
when it is importable, and otherwise run as plain Python that holds the
GIL.  fastmath stays off: IEEE evaluation order is part of the contract
(bit-identical trajectories across runs, exact state identities up to
one rounding).

Quantizer encoding: kind 0 is the two-level sign quantizer (ties at 0 go
to +1), kind 1 is the three-level quantizer with dead band |x| < tau
mapping to 0.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def deco(fn):
            return fn

        return deco


KIND_SIGN = 0
KIND_TRILEVEL = 1

# run() guard: state magnitudes beyond this count as divergence
HARD_BOUND = 1.0e12


# empty stand-in for an absent array argument (no input, no record);
# numba cannot compile None in its place
_NONE = np.empty(0)


@njit(cache=True, nogil=True)
def _recur(lam1, lam2, gamma, kind, tau, f, beta, n_steps, ubound, vbound,
           q_out, u_out, v_out):
    """The two-gain recursion from u = v = 0, behind all three entry points.

    The input is f[i], or the constant beta when f is empty.  q, u, v are
    written per step unless q_out is empty.  Returns (diverged_at, vmax):
    diverged_at is the 0-based step at which |u| > ubound or |v| > vbound
    (a non-finite state fails the same test), -1 if all n_steps stayed
    bounded; vmax is the largest |v| seen up to and including that step.
    """
    trilevel = kind == KIND_TRILEVEL
    const = f.shape[0] == 0
    record = q_out.shape[0] > 0
    u = 0.0
    v = 0.0
    vmax = 0.0
    for i in range(n_steps):
        s = u + gamma * v
        if trilevel and (-tau < s < tau):
            q = 0.0
        elif s >= 0.0:
            q = 1.0
        else:
            q = -1.0
        w = lam1 * u + ((beta if const else f[i]) - q)
        v = w + lam2 * v
        u = w
        if record:
            q_out[i] = q
            u_out[i] = u
            v_out[i] = v
        av = abs(v)
        if av > vmax:
            vmax = av
        if not (av <= vbound and abs(u) <= ubound):
            return i, vmax
    return -1, vmax


def run_fill(lam1, lam2, gamma, kind, tau, f, q_out, u_out, v_out, bound):
    """Fold the recursion over f, recording every step into q/u/v_out.

    Returns -1 on completion, or the 0-based step at which |u| or |v|
    left [0, bound].
    """
    return _recur(lam1, lam2, gamma, kind, tau, f, 0.0, f.shape[0],
                  bound, bound, q_out, u_out, v_out)[0]


def probe_const(lam1, lam2, gamma, kind, tau, beta, n_steps, bound):
    """Run n_steps with constant input f = beta, storing nothing.

    Returns (diverged_at, vmax) with |v| checked against bound and |u|
    against HARD_BOUND.
    """
    return _recur(lam1, lam2, gamma, kind, tau, _NONE, beta, n_steps,
                  HARD_BOUND, bound, _NONE, _NONE, _NONE)


def probe_input(lam1, lam2, gamma, kind, tau, f, bound):
    """Same as probe_const but driven by a precomputed input array."""
    return _recur(lam1, lam2, gamma, kind, tau, f, 0.0, f.shape[0],
                  HARD_BOUND, bound, _NONE, _NONE, _NONE)


@njit(cache=True, nogil=True)
def first_order_fill(f, q_out, u_out):
    """Single-loop recursion q = Q(u + f), u' = u + f - q from u = 0."""
    u = 0.0
    for i in range(f.shape[0]):
        s = u + f[i]
        q = 1.0 if s >= 0.0 else -1.0
        u = u + f[i] - q
        q_out[i] = q
        u_out[i] = u
    return -1


def warm_up():
    """Trigger compilation of all kernels on tiny inputs."""
    z = np.zeros(2)
    run_fill(1.0, 1.0, 1.0, KIND_SIGN, 0.5, z, z.copy(), z.copy(), z.copy(), HARD_BOUND)
    probe_const(1.0, 1.0, 1.0, KIND_SIGN, 0.5, 0.0, 2, 1000.0)
    probe_input(1.0, 1.0, 1.0, KIND_SIGN, 0.5, z, 1000.0)
    first_order_fill(z, z.copy(), z.copy())
