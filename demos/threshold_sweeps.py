#!/usr/bin/env python3
"""Sweep the loop gain: certified versus observed stability thresholds.

Reproduces the four standard tables at a reduced iteration budget so the
whole script runs in seconds.  The full-budget versions are one CLI call
each (sdlab sweep fig1 .. fig4).
"""
import io

import numpy as np

from sdlab import (
    SweepConfig,
    csv_text,
    run_fig1,
    run_fig2,
    run_fig4,
    vmax_at_theoretical,
)

print("== fig1: best certified input bound per gain ==")
rows = run_fig1(SweepConfig(lambda_grid=np.linspace(1.0, 1.09, 10)))
for r in rows:
    star = "%.4f" % r["alpha_star"] if r["beta_max"] else "  -   "
    print("  lambda=%.3f  beta_max=%.4f  alpha*=%s" % (r["lambda"], r["beta_max"], star))
print("the bound hits zero just past lambda = 1.0858")

cfg = SweepConfig(lambda_grid=np.linspace(1.0, 1.05, 6), max_iters=10**5)

print()
print("== fig2: certified threshold vs bisection measurement ==")
for r in run_fig2(cfg):
    print("  lambda=%.2f  certified=%.4f  observed=%.4f  (%s)"
          % (r["lambda"], r["beta_theoretical"], r["beta_observed"], r["gamma_mode"]))

print()
print("== fig4: state peaks, measured at the observed threshold ==")
for r in run_fig4(cfg):
    def fmt(x):
        return "%.2f" % x if x is not None else "-"
    print("  lambda=%.2f  certified<=%s  measured(thm1 gamma)=%s  measured(gamma=1)=%s"
          % (r["lambda"], fmt(r["vmax_theoretical"]),
             fmt(r["vmax_empirical_thm1gamma"]), fmt(r["vmax_empirical_gamma1"])))

print()
print("== state peaks at the certified input bound stay under the bound ==")
for r in vmax_at_theoretical(cfg):
    print("  lambda=%.2f  measured/certified = %.3f" % (r["lambda"], r["ratio"]))

print()
print("== tables are byte-stable ==")
a = csv_text(run_fig2(cfg))
b = csv_text(run_fig2(SweepConfig(lambda_grid=np.linspace(1.0, 1.05, 6),
                                  max_iters=10**5, workers=4)))
print("serial rerun == 4-worker rerun:", a == b)
buf = io.StringIO()
buf.write(a)
print("fig2 CSV is %d bytes" % len(buf.getvalue()))
