"""Chip-level aggregation of fitted qubit parameters.

Distribution summaries with medians and outliers, horizontal/vertical
orientation splits, spatial heatmap records, and trend fits of chip means
against the logarithm of anneal time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import ChimeraSpec, heatmap_grid, orientation_groups

PARAMETERS = ("beta", "b", "eta", "gamma")

SCHEMA_VERSION = 1


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
        return {
            "parameter": self.parameter,
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "std": self.std,
            "bin_edges": list(self.bin_edges),
            "bin_counts": list(self.bin_counts),
            "outlier_ids": list(self.outlier_ids),
        }


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


def _param_values(results, parameter):
    if parameter not in PARAMETERS:
        raise AnalysisError(f"unknown parameter {parameter!r}, expected one of {PARAMETERS}")
    ids = sorted(results)
    return ids, np.array([getattr(results[q].params, parameter) for q in ids])


def summarize(results: dict, parameter: str, bins: int = 50) -> DistributionSummary:
    """Distribution summary of one parameter over a fitted chip.

    Median uses the midpoint rule for even counts; outliers lie beyond
    3*IQR from the quartiles.
    """
    if not results:
        raise AnalysisError("no fit results to summarize")
    ids, vals = _param_values(results, parameter)
    q1, q3 = np.percentile(vals, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - 3.0 * iqr, q3 + 3.0 * iqr
    outliers = [q for q, v in zip(ids, vals) if v < lo or v > hi]
    counts, edges = np.histogram(vals, bins=bins)
    return DistributionSummary(
        parameter=parameter,
        count=vals.size,
        mean=float(vals.mean()),
        median=float(np.median(vals)),
        std=float(vals.std()),
        bin_edges=tuple(edges.tolist()),
        bin_counts=tuple(int(c) for c in counts),
        outlier_ids=tuple(outliers),
    )


def orientation_split(results: dict, spec: ChimeraSpec, parameter: str, bins: int = 50):
    """(horizontal, vertical) summaries of one parameter."""
    unknown = set(results) - spec.operational
    if unknown:
        raise AnalysisError(f"fitted ids not on chip: {sorted(unknown)[:10]}")
    horizontal, vertical = orientation_groups(spec)
    h_res = {q: results[q] for q in horizontal if q in results}
    v_res = {q: results[q] for q in vertical if q in results}
    return summarize(h_res, parameter, bins), summarize(v_res, parameter, bins)


def spatial_report(results: dict, spec: ChimeraSpec, parameter: str):
    """Heatmap records of one parameter over the chip layout."""
    if parameter not in PARAMETERS:
        raise AnalysisError(f"unknown parameter {parameter!r}")
    values = {q: getattr(r.params, parameter) for q, r in results.items()}
    return heatmap_grid(values, spec)


def sweep_point(anneal_time_us: float, results: dict) -> AnnealSweepPoint:
    """Chip-mean and -std of every parameter for one labeled dataset."""
    means, stds = {}, {}
    for name in PARAMETERS:
        _, vals = _param_values(results, name)
        means[name] = float(vals.mean())
        stds[name] = float(vals.std())
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


def build_report(results: dict, spec: ChimeraSpec, bins: int = 50) -> dict:
    """Full analysis document: summaries, H/V splits, and heatmap records."""
    report = {"schema_version": SCHEMA_VERSION, "n_qubits": len(results)}
    report["summaries"] = {p: summarize(results, p, bins).to_dict() for p in PARAMETERS}
    splits = {}
    for p in PARAMETERS:
        h_sum, v_sum = orientation_split(results, spec, p, bins)
        splits[p] = {"horizontal": h_sum.to_dict(), "vertical": v_sum.to_dict()}
    report["orientation_splits"] = splits
    report["heatmaps"] = {p: spatial_report(results, spec, p) for p in PARAMETERS}
    return report
