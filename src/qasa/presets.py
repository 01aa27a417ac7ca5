"""Built-in ground-truth presets for synthetic chips.

``median`` puts the chip-wide median parameters on every qubit; ``hv-split``
applies the orientation-resolved medians, giving horizontal qubits slightly
higher beta and gamma than vertical ones.
"""

from __future__ import annotations

from .model import QubitParams
from .topology import ChimeraSpec, sites

MEDIAN = QubitParams(beta=10.54, b=0.0025, eta=0.0367, gamma=0.0176)
HV_HORIZONTAL = QubitParams(beta=10.76, b=0.0025, eta=0.0367, gamma=0.0187)
HV_VERTICAL = QubitParams(beta=10.37, b=0.0025, eta=0.0367, gamma=0.0165)

PRESETS = ("median", "hv-split")


def preset_truth(name: str, spec: ChimeraSpec) -> dict:
    """Ground truth for every operational qubit of the chip."""
    if name == "median":
        return {q: MEDIAN for q in spec.operational}
    if name == "hv-split":
        ids = sorted(spec.operational)
        vertical = sites(ids, spec)[3].tolist()
        return {q: HV_VERTICAL if v else HV_HORIZONTAL for q, v in zip(ids, vertical)}
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESETS}")
