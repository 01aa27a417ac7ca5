"""Single-qubit assessment toolkit for quantum annealers.

Simulates annealer output statistics from a four-parameter effective qubit
model, recovers those parameters per qubit by maximum likelihood, and
aggregates the results into chip-level analyses.
"""

__version__ = "0.9.0"

from .model import (
    ParameterError,
    QubitParams,
    density_matrix_expectation,
    effective_field,
    spin_expectation,
)
from .simulator import RawCounts, SweepDesign, field_grid, simulate_chip
from .estimator import (
    FLAGS,
    ChipFit,
    EffectiveFieldEstimate,
    empirical_estimates,
    fit_chip,
)
from .topology import ChimeraSpec, sites
from .analysis import (
    AnnealSweepPoint,
    DistributionSummary,
    TrendFit,
    build_report,
    fit_log_trend,
    summarize,
    sweep_point,
)
from .data_io import read_params, read_raw, write_params, write_raw, write_report
from .presets import preset_truth
