"""Survey a small synthetic chip end to end.

Builds a 2x2-cell chip whose horizontal qubits have slightly higher beta and
gamma than the vertical ones, simulates the full sweep, fits every qubit,
and shows how the orientation split surfaces the asymmetry.
"""

from qasa import SweepDesign, build_report, field_grid, fit_chip, simulate_chip, summarize
from qasa.presets import preset_truth
from qasa.topology import ChimeraSpec

spec = ChimeraSpec(grid=2)
truth = preset_truth("hv-split", spec)

design = SweepDesign(fields=field_grid(), samples_per_field=200_000, seed=1)
counts = simulate_chip(truth, design)
results, _ = fit_chip(counts)
print(f"fitted {len(results)} qubits")

for name in ("beta", "b", "eta", "gamma"):
    s = summarize(results, name)
    print(f"{name:>5}: median {s.median:8.4f}  mean {s.mean:8.4f}  std {s.std:.4f}"
          f"  outliers {list(s.outlier_ids)}")

print("\norientation split (the planted asymmetry):")
splits = build_report(results, spec)["orientation_splits"]
for name in ("beta", "gamma"):
    h_med, v_med = (splits[name][side]["median"] for side in ("horizontal", "vertical"))
    print(f"{name:>5}: horizontal median {h_med:8.4f}"
          f"  vertical median {v_med:8.4f}"
          f"  diff {h_med - v_med:+.4f}")
