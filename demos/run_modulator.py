#!/usr/bin/env python3
"""Drive the double-loop quantizer and check its exact algebra.

Shows the zero-input cycle, a random-input run with the residual of the
elimination identity, the trilevel variant, and what divergence reports
look like when the gains are absurd.
"""
import numpy as np

from sdlab import (
    DivergenceError,
    SchemeParams,
    residual_identity,
    run,
)

print("== zero input, unit gains ==")
tr = run(SchemeParams(), 0.0, 8)
print("q:", tr.q.tolist())
print("u:", tr.u.tolist())
print("v:", tr.v.tolist())
print("the state rides a period-4 cycle, sup|v| =", np.max(np.abs(tr.v)))

print()
print("== random input below beta = 0.5 ==")
rng = np.random.default_rng(7)
f = rng.uniform(-0.5, 0.5, 5000)
tr = run(SchemeParams(gamma=1.0), f, f.size)
print("sup|u| = %.4f  sup|v| = %.4f" % (np.max(np.abs(tr.u)), np.max(np.abs(tr.v))))
print("elimination-identity residual over the whole run: %.2e" % residual_identity(tr))

print()
print("== higher gains still satisfy the identity ==")
tr = run(SchemeParams(lambda1=1.04, lambda2=1.02), f, f.size)
print("gains (1.04, 1.02): sup|v| = %.3f, residual %.2e"
      % (np.max(np.abs(tr.v)), residual_identity(tr)))

print()
print("== trilevel quantizer ==")
tr = run(SchemeParams(deadband=0.5), 0.02, 40)
print("small constant input emits levels:", sorted(set(tr.q.tolist())))

print()
print("== divergence reporting ==")
try:
    run(SchemeParams(lambda1=1.5, lambda2=1.5), 0.0, 10**4)
except DivergenceError as e:
    print("gains (1.5, 1.5) blow up:", e)
    print("partial history kept:", e.trajectory.n_steps, "steps")
