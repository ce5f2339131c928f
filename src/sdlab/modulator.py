"""Two-integrator feedback quantizers and their exact algebraic checks.

The state machine implemented here is the double-loop recursion

    q_n = Q(u_{n-1} + gamma * v_{n-1})
    u_n = lambda1 * u_{n-1} + f_n - q_n
    v_n = lambda1 * u_{n-1} + lambda2 * v_{n-1} + f_n - q_n

driven from the zero state.  run folds it over a whole input in one call
to the recursion kernel in _kernels; there is no one-step entry point.
lambda1 = lambda2 = 1 gives the standard double-loop modulator; gains
above 1 amplify the state at each step to break periodic output.  Two
exact identities tie the pieces together and are exposed for
verification:

    u_n = v_n - lambda2 * v_{n-1}                                (n >= 1)
    f_n - q_n = v_n - (lambda1 + lambda2) v_{n-1}
                + lambda1 lambda2 v_{n-2}                        (n >= 2)

Both hold to rounding for every trajectory this module produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (DivergenceError, InsufficientDataError, InvalidInputError,
                     ResourceError, _check_array_len)

__all__ = [
    "SchemeParams",
    "Trajectory",
    "run",
    "residual_identity",
]


@dataclass(frozen=True)
class SchemeParams:
    """Gains, feedback multiplier and quantizer of the double-loop recursion.

    lambda1 and lambda2 must be >= 1 (the one-parameter family is the
    restriction lambda2 = 1); gamma must be positive.  The quantizer is
    its dead band: it maps |x| < deadband to 0 and otherwise x >= 0 to +1
    and x < 0 to -1, so deadband = 0 is the two-level sign quantizer and
    a positive band the trilevel one, with ties at +-deadband resolved
    away from 0.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    gamma: float = 1.0
    deadband: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "gamma", "deadband"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        if self.lambda1 < 1.0 or self.lambda2 < 1.0:
            raise InvalidInputError("lambda1 and lambda2 must be >= 1")
        if self.gamma <= 0.0:
            raise InvalidInputError("gamma must be > 0")
        if self.deadband < 0.0:
            raise InvalidInputError("deadband must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Step-indexed history of one run.

    Arrays hold steps 1..n_steps; the implicit step-0 state is (0, 0).
    """

    params: SchemeParams
    f: np.ndarray
    q: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.f.shape[0])

    def v_with_origin(self) -> np.ndarray:
        """v_0..v_N as one array (v_0 = 0)."""
        return np.concatenate(([0.0], self.v))


def _as_input_array(input, n_steps: int) -> np.ndarray:
    if np.isscalar(input):
        return np.full(n_steps, float(input))
    if hasattr(input, "__len__") or isinstance(input, np.ndarray):
        arr = np.asarray(input, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < n_steps:
            raise InvalidInputError(
                f"input must yield {n_steps} values, got shape {arr.shape}"
            )
        return np.ascontiguousarray(arr[:n_steps])
    # generic iterable
    try:
        arr = np.fromiter(input, dtype=np.float64, count=n_steps)
    except ValueError as exc:
        raise InvalidInputError(f"input must yield {n_steps} values") from exc
    return arr


def run(params: SchemeParams, input, n_steps: int) -> Trajectory:
    """Run the recursion over the input from the zero state, recording history.

    A scalar input is broadcast; any other must yield n_steps values.
    DivergenceError carries the 1-based step, the last finite state and the
    partial trajectory up to the failing step; ResourceError means the
    n_steps-long history cannot be allocated or indexed.
    """
    if n_steps < 0:
        raise InvalidInputError("n_steps must be >= 0")
    _check_array_len(n_steps, "steps")
    try:
        f = _as_input_array(input, n_steps)
        q = np.empty(n_steps, dtype=np.int64)
        u = np.empty(n_steps)
        v = np.empty(n_steps)
    except MemoryError:
        raise ResourceError(f"cannot allocate the history of {n_steps} steps") from None
    if f.size and not np.all(np.isfinite(f)):
        raise InvalidInputError("input values must be finite")
    bad = _kernels.run_fill(params.lambda1, params.lambda2, params.gamma,
                            params.deadband, f, q, u, v)
    if bad >= 0:
        part = Trajectory(params, *(a[: bad + 1].copy() for a in (f, q, u, v)))
        iu, iv = (u[bad], v[bad])
        if not (math.isfinite(iu) and math.isfinite(iv)):
            iu, iv = (u[bad - 1], v[bad - 1]) if bad > 0 else (0.0, 0.0)
        raise DivergenceError(
            f"state diverged at step {bad + 1}",
            step=bad + 1, u=iu, v=iv, trajectory=part,
        )
    return Trajectory(params=params, f=f, q=q, u=u, v=v)


def residual_identity(traj: Trajectory) -> float:
    """Largest residual over n >= 2 of the identity for f_n - q_n in the
    module docstring, which is 0 in exact arithmetic.

    Raises
    ------
    InsufficientDataError
        If the trajectory has fewer than 3 steps.
    """
    if traj.n_steps < 3:
        raise InsufficientDataError("residual check needs at least 3 steps")
    l1, l2 = traj.params.lambda1, traj.params.lambda2
    vf = traj.v_with_origin()               # v_0 .. v_N
    vn = vf[2:]                             # v_n for n = 2..N
    vm1 = vf[1:-1]
    vm2 = vf[:-2]
    lhs = traj.f[1:] - traj.q[1:]
    res = lhs - (vn - (l1 + l2) * vm1 + (l1 * l2) * vm2)
    return float(np.max(np.abs(res)))
