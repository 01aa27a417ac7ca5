"""Walk through the single-qubit workflow on one synthetic qubit.

Simulates a sweep of input fields for a representative qubit, estimates the
empirical effective-field curve with confidence intervals, and recovers the
four model parameters by maximum likelihood.
"""

import numpy as np

from qasa import (
    QubitParams,
    SweepDesign,
    effective_field,
    empirical_estimates,
    field_grid,
    fit_qubit,
    sample_counts,
)
from qasa.simulator import RawCounts

# a realistic qubit: slope ~11, slight bias, visible noise and saturation
truth = QubitParams(beta=11.18, b=0.0046, eta=0.0514, gamma=0.0196)

design = SweepDesign(fields=field_grid(), samples_per_field=500_000, seed=7)
counts = RawCounts(
    h=np.array(design.fields),
    samples=np.full(len(design.fields), design.samples_per_field, dtype=np.int64),
    counts=([305], [sample_counts(truth, design, 305)]),  # (ids, rows)
)

print("empirical effective-field curve (every 10th field):")
print(f"{'h':>7} {'mean':>9} {'h_eff':>8} {'ci_low':>8} {'ci_high':>8}")
for e in empirical_estimates(counts, 305)[::10]:
    print(f"{e.h:7.3f} {e.mean:9.5f} {e.h_eff:8.4f} {e.ci_low:8.4f} {e.ci_high:8.4f}")

result = fit_qubit(counts, 305)
print("\nrecovered parameters:")
for name in ("beta", "b", "eta", "gamma"):
    print(f"  {name:>5} = {getattr(result.params, name):9.5f}"
          f"   (truth {getattr(truth, name):9.5f})")
print(f"  converged={result.converged}")

# the gamma term flattens the curve at large |h| relative to the classical line
h = np.array([0.5, 0.8, 1.0])
classical = QubitParams(beta=truth.beta, b=0, eta=0, gamma=0)
print("\nsaturation at large h (model vs classical beta*h):")
for hv, he, hc in zip(h, effective_field(h, truth), effective_field(h, classical)):
    print(f"  h={hv:.1f}: h_eff={he:7.3f}  classical={hc:7.3f}")
