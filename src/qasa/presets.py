"""Built-in ground-truth presets for synthetic chips.

``median`` puts the chip-wide median parameters on every qubit; ``hv-split``
applies the orientation-resolved medians, giving horizontal qubits slightly
higher beta and gamma than vertical ones.
"""

from __future__ import annotations

import numpy as np

from .model import QubitParams
from .topology import ChimeraSpec, sites

MEDIAN = QubitParams(beta=10.54, b=0.0025, eta=0.0367, gamma=0.0176)
HV_HORIZONTAL = QubitParams(beta=10.76, b=0.0025, eta=0.0367, gamma=0.0187)
HV_VERTICAL = QubitParams(beta=10.37, b=0.0025, eta=0.0367, gamma=0.0165)

# each preset's (horizontal, vertical) parameters
PRESETS = {"median": (MEDIAN, MEDIAN), "hv-split": (HV_HORIZONTAL, HV_VERTICAL)}


def preset_truth(name: str, spec: ChimeraSpec):
    """Ground truth for every operational qubit of the chip, as the table
    (ids, theta): the ids ascending, and theta (Q, 4) the (beta, b, eta,
    gamma) of each id's orientation."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {tuple(PRESETS)}")
    ids = sorted(spec.operational)
    rows = np.array([p.astuple() for p in PRESETS[name]])
    return ids, rows[sites(ids, spec)[3].astype(np.intp)]
