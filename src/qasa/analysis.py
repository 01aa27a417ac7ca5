"""Chip-level aggregation of fitted qubit parameters.

Distribution summaries with medians and outliers, horizontal/vertical
orientation splits, and trend fits of chip means against the logarithm of
anneal time.  `build_report` gathers the summaries, the splits, the sites
of the fitted qubits and one heatmap per parameter into one document; it
names each fitted qubit, and no other slot of the chip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import ChipFit
from .topology import ChimeraSpec, sites

PARAMETERS = ("beta", "b", "eta", "gamma")

SCHEMA_VERSION = 2

# histogram bins of every distribution summary
BINS = 50


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class DistributionSummary:
    parameter: str
    count: int
    mean: float
    median: float
    std: float
    bin_edges: tuple
    bin_counts: tuple
    outlier_ids: tuple

    def to_dict(self):
        # lists, not tuples, so the report equals its JSON read back
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


@dataclass(frozen=True)
class AnnealSweepPoint:
    anneal_time_us: float
    means: dict
    stds: dict

    def __post_init__(self):
        if not (0 < self.anneal_time_us < math.inf):
            raise AnalysisError(f"anneal time must be positive and finite, got {self.anneal_time_us}")


@dataclass(frozen=True)
class TrendFit:
    """value ~ c0 + c1 * ln(t), t in microseconds."""

    c0: float
    c1: float
    residual_rms: float


def _column(parameter):
    if parameter not in PARAMETERS:
        raise AnalysisError(f"unknown parameter {parameter!r}, expected one of {PARAMETERS}")
    return PARAMETERS.index(parameter)


def _summary(parameter, ids, vals):
    q1, q3 = np.percentile(vals, [25, 75])
    iqr = q3 - q1
    outliers = ids[(vals < q1 - 3.0 * iqr) | (vals > q3 + 3.0 * iqr)]
    counts, edges = np.histogram(vals, bins=BINS)
    return DistributionSummary(
        parameter=parameter,
        count=vals.size,
        mean=float(vals.mean()),
        median=float(np.median(vals)),
        std=float(vals.std()),
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(counts.tolist()),
        outlier_ids=tuple(outliers.tolist()),
    )


def summarize(fit: ChipFit, parameter: str) -> DistributionSummary:
    """Distribution summary of one parameter over a fitted chip.

    Median uses the midpoint rule for even counts; outliers lie beyond
    3*IQR from the quartiles.
    """
    if not len(fit):
        raise AnalysisError("no fit results to summarize")
    return _summary(parameter, fit.ids, fit.theta[:, _column(parameter)])


def sweep_point(anneal_time_us: float, fit: ChipFit) -> AnnealSweepPoint:
    """Chip-mean and -std of every parameter for one labeled dataset."""
    if not len(fit):
        raise AnalysisError("no fitted qubits")
    columns = dict(zip(PARAMETERS, fit.theta.T))
    means = {p: float(v.mean()) for p, v in columns.items()}
    stds = {p: float(v.std()) for p, v in columns.items()}
    return AnnealSweepPoint(float(anneal_time_us), means, stds)


def fit_log_trend(points, parameter: str) -> TrendFit:
    """Least-squares fit of the chip mean against ln(anneal time)."""
    times = np.array([pt.anneal_time_us for pt in points])
    if np.unique(times).size < 2:
        raise AnalysisError("trend fit needs >= 2 distinct anneal times")
    y = np.array([pt.means[parameter] for pt in points])
    c1, c0 = np.polyfit(np.log(times), y, 1)
    resid = y - (c0 + c1 * np.log(times))
    return TrendFit(c0=float(c0), c1=float(c1), residual_rms=float(np.sqrt(np.mean(resid**2))))


def build_report(fit: ChipFit, spec: ChimeraSpec) -> dict:
    """Full analysis document: summaries, H/V splits, the chip, the sites
    of the fitted qubits as one columnar table, and per parameter a heatmap
    of ``{id, value}`` records, both in ascending id order.  Only fitted
    qubits are listed; a plotter draws the chip's other slots from
    ``chip``.  A split side with no fitted qubit is null."""
    report = {"schema_version": SCHEMA_VERSION, "chip": f"chimera:{spec.grid}", "n_qubits": len(fit)}
    report["summaries"] = {p: summarize(fit, p).to_dict() for p in PARAMETERS}
    unknown = set(fit.ids.tolist()) - spec.operational
    if unknown:
        raise AnalysisError(f"fitted ids not on chip: {sorted(unknown)[:10]}")
    row, col, k, vertical = sites(fit.ids, spec)
    report["orientation_splits"] = {
        p: {name: _summary(p, fit.ids[side], fit.theta[side, j]).to_dict() if side.any() else None
            for name, side in (("horizontal", ~vertical), ("vertical", vertical))}
        for j, p in enumerate(PARAMETERS)}
    ids = fit.ids.tolist()
    report["sites"] = {"id": ids, "row": row.tolist(), "col": col.tolist(), "k": k.tolist(),
                       "orientation": ["vertical" if v else "horizontal" for v in vertical.tolist()]}
    report["heatmaps"] = {p: [{"id": q, "value": v} for q, v in zip(ids, fit.theta[:, j].tolist())]
                          for j, p in enumerate(PARAMETERS)}
    return report
