"""Fit the anneal-time trend of the inverse temperature.

Each anneal time gets its own dataset: a small chip is simulated with a beta
that grows logarithmically in the anneal time while the other parameters stay
put, every dataset is fitted independently, and the chip means are regressed
against ln(t).
"""

import numpy as np

from qasa import QubitParams, SweepDesign, field_grid, fit_chip, fit_log_trend, simulate_chip, sweep_point
from qasa.topology import ChimeraSpec

spec = ChimeraSpec(grid=1)
times_us = [1.0, 5.0, 25.0, 125.0]
slope = 5.2 / np.log(125.0)  # beta climbs from 10.5 to 15.7 over the range

points = []
for t in times_us:
    beta_t = 10.5 + slope * np.log(t)
    truth = {q: QubitParams(beta_t, 0.0025, 0.0367, 0.0176) for q in spec.operational}
    design = SweepDesign(fields=field_grid(), samples_per_field=100_000, seed=int(t))
    results, _ = fit_chip(simulate_chip(truth, design))
    pt = sweep_point(t, results)
    points.append(pt)
    print(f"t={t:6.1f} us: chip-mean beta {pt.means['beta']:7.3f}"
          f" (true {beta_t:7.3f}), gamma {pt.means['gamma']:.4f}")

trend = fit_log_trend(points, "beta")
print(f"\nbeta(t) = {trend.c0:.3f} + {trend.c1:.3f} * ln(t)"
      f"   [planted: 10.500 + {slope:.3f} * ln(t)]")
print(f"residual rms {trend.residual_rms:.4f}")

flat = fit_log_trend(points, "gamma")
print(f"gamma trend slope {flat.c1:+.5f} (expected ~0: gamma does not follow anneal time)")
