from unittest import mock

import numpy as np
import pytest

from qasa import QubitParams, build_report, fit_log_trend, summarize, sweep_point
from qasa import analysis
from qasa.analysis import PARAMETERS, AnalysisError, AnnealSweepPoint
from qasa.estimator import ChipFit
from qasa.topology import ChimeraSpec, sites


def fake_params(beta=10.54, b=0.0025, eta=0.0367, gamma=0.0176):
    return QubitParams(beta, b, eta, gamma).astuple()


def fake_fit(params):
    """ChipFit of {qubit id: (beta, b, eta, gamma)}: converged, likelihood
    0, 81 fields of 1000 samples, no flags."""
    n = len(params)
    return ChipFit(list(params), list(params.values()), np.zeros(n), np.ones(n),
                   np.full(n, 81), np.full(n, 81 * 1000), np.zeros(n))


def is_horizontal(q, spec):
    return not sites([q], spec)[3][0]


def split(fit, spec, parameter):
    """The (horizontal, vertical) summaries of one parameter in the report,
    as dicts; a side with no fitted qubit is None."""
    sides = build_report(fit, spec)["orientation_splits"][parameter]
    return sides["horizontal"], sides["vertical"]


class TestSummarize:
    def test_degenerate_chip(self):
        results = fake_fit({q: fake_params() for q in range(2032)})
        s = summarize(results, "beta")
        assert s.median == 10.54
        assert s.std == pytest.approx(0.0, abs=1e-12)
        assert s.count == 2032
        assert sum(s.bin_counts) == 2032

    def test_midpoint_median(self):
        results = {q: fake_params(beta=v) for q, v in enumerate([1.0, 2.0, 3.0])}
        assert summarize(fake_fit(results), "beta").median == 2.0
        results[3] = fake_params(beta=4.0)
        assert summarize(fake_fit(results), "beta").median == 2.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(10.5, 0.5, 100)
        a = summarize(fake_fit({q: fake_params(beta=v) for q, v in enumerate(vals)}), "beta")
        b = summarize(fake_fit({99 - q: fake_params(beta=v) for q, v in enumerate(vals)}), "beta")
        assert a.median == b.median
        assert a.mean == b.mean

    def test_monte_carlo_eta_median(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(20):
            vals = np.abs(rng.normal(0.0367, 0.01, 2032))
            results = fake_fit({q: fake_params(eta=v) for q, v in enumerate(vals)})
            hits += int(abs(summarize(results, "eta").median - 0.0367) <= 0.002)
        assert hits >= 19

    def test_outliers_beyond_3_iqr(self):
        vals = list(np.linspace(10, 11, 40)) + [50.0]
        results = fake_fit({q: fake_params(beta=v) for q, v in enumerate(vals)})
        assert summarize(results, "beta").outlier_ids == (40,)

    def test_empty_and_unknown(self):
        with pytest.raises(AnalysisError):
            summarize(fake_fit({}), "beta")
        with pytest.raises(AnalysisError):
            summarize(fake_fit({0: fake_params()}), "delta")


class TestOrientationSplit:
    def test_identical_params(self):
        spec = ChimeraSpec(grid=2)
        results = fake_fit({q: fake_params() for q in spec.operational})
        h_sum, v_sum = split(results, spec, "gamma")
        assert h_sum["median"] == v_sum["median"] == 0.0176
        assert h_sum["count"] == v_sum["count"] == 16

    def test_split_recovery(self):
        spec = ChimeraSpec(grid=4)
        rng = np.random.default_rng(2)
        results = {}
        for q in spec.operational:
            target = 0.0187 if is_horizontal(q, spec) else 0.0165
            results[q] = fake_params(gamma=max(target + rng.normal(0, 0.002), 0.0))
        h_sum, v_sum = split(fake_fit(results), spec, "gamma")
        assert abs(h_sum["median"] - 0.0187) <= 0.001
        assert abs(v_sum["median"] - 0.0165) <= 0.001

    def test_empty_side_is_none(self):
        spec = ChimeraSpec(grid=1)
        results = fake_fit({q: fake_params(beta=10.0 + q) for q in (0, 1, 2, 3)})
        h_sum, v_sum = split(results, spec, "beta")
        assert h_sum is None
        assert v_sum["count"] == 4
        assert v_sum["median"] == summarize(results, "beta").median == 11.5
        assert v_sum == summarize(results, "beta").to_dict()

    def test_id_not_on_chip(self):
        spec = ChimeraSpec(grid=1)
        with pytest.raises(AnalysisError):
            split(fake_fit({99: fake_params()}), spec, "beta")


class TestTrendFit:
    def test_exact_interpolation(self):
        times = [1.0, 5.0, 25.0, 125.0]
        points = [
            AnnealSweepPoint(t, {"beta": 10.5 + 1.2 * np.log(t)}, {"beta": 0.0}) for t in times
        ]
        fit = fit_log_trend(points, "beta")
        assert fit.c1 == pytest.approx(1.2, abs=1e-10)
        assert fit.c0 == pytest.approx(10.5, abs=1e-10)
        assert fit.residual_rms <= 1e-10

    def test_two_point_slope(self):
        points = [
            AnnealSweepPoint(1.0, {"beta": 10.5}, {"beta": 0.0}),
            AnnealSweepPoint(125.0, {"beta": 15.7}, {"beta": 0.0}),
        ]
        fit = fit_log_trend(points, "beta")
        assert fit.c1 == pytest.approx(5.2 / np.log(125.0), abs=1e-12)

    def test_flat_parameter(self):
        rng = np.random.default_rng(3)
        points = [
            AnnealSweepPoint(t, {"b": 0.0025 + rng.normal(0, 1e-5)}, {"b": 0.0})
            for t in (1.0, 5.0, 25.0, 125.0)
        ]
        fit = fit_log_trend(points, "b")
        assert abs(fit.c1) <= 1e-4

    def test_scale_equivariance(self):
        points = [
            AnnealSweepPoint(t, {"beta": 10.5 + 1.2 * np.log(t) + 0.01 * (-1) ** i}, {"beta": 0.0})
            for i, t in enumerate((1.0, 5.0, 25.0, 125.0))
        ]
        scaled = [
            AnnealSweepPoint(pt.anneal_time_us, {"beta": 7.0 * pt.means["beta"]}, pt.stds)
            for pt in points
        ]
        a = fit_log_trend(points, "beta")
        b = fit_log_trend(scaled, "beta")
        assert b.c0 == pytest.approx(7.0 * a.c0, rel=1e-12)
        assert b.c1 == pytest.approx(7.0 * a.c1, rel=1e-12)

    def test_needs_two_times(self):
        points = [AnnealSweepPoint(1.0, {"beta": 10.5}, {"beta": 0.0})] * 2
        with pytest.raises(AnalysisError):
            fit_log_trend(points, "beta")
        with pytest.raises(AnalysisError):
            AnnealSweepPoint(0.0, {}, {})


class TestReport:
    def test_full_report_shape(self):
        spec = ChimeraSpec(grid=2)
        results = fake_fit({q: fake_params() for q in spec.operational})
        report = build_report(results, spec)
        assert report["schema_version"] == 2
        assert report["chip"] == "chimera:2"
        assert set(report["summaries"]) == {"beta", "b", "eta", "gamma"}
        assert set(report["orientation_splits"]["gamma"]) == {"horizontal", "vertical"}
        assert len(report["heatmaps"]["beta"]) == 32

    def test_sites_are_one_table_of_the_fitted_ids(self):
        spec = ChimeraSpec(grid=3)
        results = fake_fit({q: fake_params(beta=10.0 + q / 8) for q in (70, 3, 12, 45, 4)})
        row, col, k, vertical = sites(results.ids, spec)
        assert build_report(results, spec)["sites"] == {
            "id": [3, 4, 12, 45, 70],
            "row": row.tolist(),
            "col": col.tolist(),
            "k": k.tolist(),
            "orientation": ["vertical" if v else "horizontal" for v in vertical],
        }

    def test_heatmaps_list_the_fitted_values(self):
        rng = np.random.default_rng(4)
        spec = ChimeraSpec(grid=4)
        ids = rng.choice(spec.capacity, 40, replace=False)
        results = fake_fit({int(q): fake_params(*rng.uniform([1, -0.1, 0, 0], [60, 0.1, 0.1, 0.1])) for q in ids})
        heatmaps = build_report(results, spec)["heatmaps"]
        assert list(heatmaps) == list(PARAMETERS)
        for j, p in enumerate(PARAMETERS):
            assert [r["id"] for r in heatmaps[p]] == sorted(ids.tolist())
            assert all(set(r) == {"id", "value"} for r in heatmaps[p])
            assert np.array_equal([r["value"] for r in heatmaps[p]], results.theta[:, j])

    def test_single_qubit(self):
        report = build_report(fake_fit({0: fake_params(beta=12.0)}), ChimeraSpec(grid=1))
        assert report["heatmaps"]["beta"] == [{"id": 0, "value": 12.0}]
        assert report["sites"] == {"id": [0], "row": [0], "col": [0], "k": [0], "orientation": ["vertical"]}

    def test_striped_truth_visible(self):
        spec = ChimeraSpec(grid=2)
        results = fake_fit({
            q: fake_params(gamma=0.03 if is_horizontal(q, spec) else 0.01)
            for q in spec.operational
        })
        report = build_report(results, spec)
        orientation = dict(zip(report["sites"]["id"], report["sites"]["orientation"]))
        horiz = [r["value"] for r in report["heatmaps"]["gamma"] if orientation[r["id"]] == "horizontal"]
        vert = [r["value"] for r in report["heatmaps"]["gamma"] if orientation[r["id"]] == "vertical"]
        assert len(horiz) == len(vert) == 16
        assert min(horiz) > max(vert)

    def test_dead_slots_are_not_listed(self):
        operational = frozenset(range(32)) - {3, 7}
        spec = ChimeraSpec(grid=2, operational=operational)
        report = build_report(fake_fit({q: fake_params() for q in operational}), spec)
        assert report["sites"]["id"] == sorted(operational)
        for p in PARAMETERS:
            assert [r["id"] for r in report["heatmaps"][p]] == sorted(operational)

    def test_sites_are_decoded_once(self):
        spec = ChimeraSpec(grid=2, operational=frozenset(range(32)) - {5})
        rng = np.random.default_rng(9)
        results = fake_fit({q: fake_params(*rng.uniform([1, -0.1, 0, 0], [60, 0.1, 0.1, 0.1]))
                            for q in spec.operational})
        with mock.patch.object(analysis, "sites", wraps=sites) as decode:
            report = build_report(results, spec)
        assert decode.call_count == 1
        # each side is the summary of a fit of that side's qubits alone
        vertical = sites(results.ids, spec)[3]
        for p in PARAMETERS:
            sides = {name: fake_fit({q: results.theta[i] for i, q in enumerate(results.ids.tolist()) if side[i]})
                     for name, side in (("horizontal", ~vertical), ("vertical", vertical))}
            assert report["orientation_splits"][p] == {name: summarize(fit, p).to_dict()
                                                       for name, fit in sides.items()}

    def test_ids_off_the_chip_are_refused(self):
        with pytest.raises(AnalysisError, match=r"fitted ids not on chip: \[99\]"):
            build_report(fake_fit({0: fake_params(), 99: fake_params()}), ChimeraSpec(grid=1))

    def test_sweep_point_rejects_an_empty_fit(self):
        with pytest.raises(AnalysisError, match="no fitted qubits"):
            sweep_point(5.0, fake_fit({}))

    def test_sweep_point_aggregates(self):
        results = fake_fit({q: fake_params(beta=10.0 + q) for q in range(3)})
        pt = sweep_point(5.0, results)
        assert pt.means["beta"] == pytest.approx(11.0)
        assert pt.stds["beta"] == pytest.approx(np.std([10.0, 11.0, 12.0]))
