import dataclasses
import inspect
import sys
import threading
from contextlib import ExitStack
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasa import (
    QubitParams,
    SweepDesign,
    effective_field,
    empirical_estimates,
    field_grid,
    fit_chip,
    simulate_chip,
)
from qasa import estimator, model
from qasa.estimator import EffectiveFieldEstimate, FitError, clamp_limit
from qasa.model import _R_EPS, _mixture
from qasa.presets import MEDIAN
from qasa.simulator import RawCounts

FIG1_PARAMS = QubitParams(beta=11.18, b=0.0046, eta=0.0514, gamma=0.0196)


def synth_counts(p, m, seed, qubit=0, fields=None):
    """The counts of a chip of one qubit, id `qubit`, of parameters p."""
    d = SweepDesign(fields=fields or field_grid(), samples_per_field=m, seed=seed)
    return simulate_chip(([qubit], [p.astuple()]), d)


def one_column(counts, q):
    """Qubit q's column of counts, as a sweep of its own."""
    return RawCounts(counts.h, counts.samples, ([q], [counts.counts[q]]))


def likelihood(counts, theta):
    """The weighted log-likelihood that `fit_chip` maximizes, of row i of
    theta (Q, 4) against qubit i of counts."""
    means, weights = _means_and_weights(counts)
    theta = np.asarray(theta, dtype=float).reshape(-1, 4)
    return estimator._objective(counts.h, theta, np.ascontiguousarray(means), weights)[0]


def flagged(fit, i, name):
    return fit.flags[i] >> estimator.FLAGS.index(name) & 1


def row(fit, i):
    """Row i of every column of fit but ids, as bytes, to compare bit for bit."""
    return [getattr(fit, f.name)[i].tobytes() for f in dataclasses.fields(fit) if f.name != "ids"]


class TestEmpiricalEstimates:
    def test_balanced_counts(self):
        counts = RawCounts(
            h=np.array([0.0]), samples=np.array([1000]), counts={0: np.array([500])}
        )
        (e,) = empirical_estimates(counts, 0)
        assert e.mean == 0.0
        assert e.h_eff == 0.0
        assert e.ci_low == pytest.approx(-e.ci_high)

    def test_all_aligned_is_clamped(self):
        m = 10**6
        counts = RawCounts(h=np.array([1.0]), samples=np.array([m]), counts={0: np.array([0])})
        (e,) = empirical_estimates(counts, 0)
        assert np.isfinite(e.h_eff)
        assert e.h_eff == pytest.approx(np.arctanh(1.0 - 1.0 / m))
        assert e.ci_low <= e.h_eff <= e.ci_high

    def test_mean_formula_exact(self):
        counts = RawCounts(h=np.array([0.2]), samples=np.array([400]), counts={0: np.array([75])})
        (e,) = empirical_estimates(counts, 0)
        assert e.mean == (400 - 2 * 75) / 400

    def test_unknown_qubit(self):
        counts = RawCounts(h=np.array([0.0]), samples=np.array([10]), counts={0: np.array([5])})
        with pytest.raises(FitError):
            empirical_estimates(counts, 1)

    def test_coverage_monte_carlo(self):
        # nominal 0.9973 CI on h_eff; empirical coverage over replicates
        m = 100_000
        true_he = 1.0
        p_minus = 1.0 / (1.0 + np.exp(2.0 * true_he))
        rng = np.random.default_rng(5)
        minus = rng.binomial(m, p_minus, size=2000)
        covered = 0
        for k in minus:
            counts = RawCounts(
                h=np.array([0.1]), samples=np.array([m]), counts={0: np.array([k])}
            )
            (e,) = empirical_estimates(counts, 0, confidence=0.9973)
            covered += int(e.ci_low <= true_he <= e.ci_high)
        assert 0.99 <= covered / 2000 <= 1.0


    @staticmethod
    def per_field(counts, qubit, confidence):
        """The reference: each estimate from scalar numpy calls, field by
        field."""
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        m = counts.samples.astype(float)
        mean = (m - 2.0 * counts.counts[qubit]) / m
        lim = clamp_limit(m)
        half = z * np.sqrt((1.0 - mean**2) / m)
        out = []
        for i in range(counts.h.size):
            lo, mid, hi = (
                np.arctanh(np.clip(v, -lim[i], lim[i]))
                for v in (mean[i] - half[i], mean[i], mean[i] + half[i])
            )
            out.append(EffectiveFieldEstimate(
                h=float(counts.h[i]), mean=float(mean[i]), h_eff=float(mid),
                ci_low=float(lo), ci_high=float(hi), samples=int(counts.samples[i]),
            ))
        return out

    @pytest.mark.parametrize("confidence", [0.5, 0.9973, 0.999999])
    def test_matches_the_per_field_loop_bit_for_bit(self, confidence):
        rng = np.random.default_rng(21)
        fields = field_grid()
        samples = rng.choice([1, 2, 3, 100, 10**5, 5 * 10**6, 2**40], size=len(fields))
        interior = rng.integers(0, samples + 1, size=(6, len(fields)))
        columns = {0: np.zeros(len(fields)), 1: samples, 2: samples // 2, 3: samples - 1,
                   **{4 + j: c for j, c in enumerate(interior)}}
        # saturated ends and an interior, as in a sweep whose outer fields saturate
        h = np.array(fields)
        columns[10] = np.where(h < -0.5, samples, np.where(h > 0.5, 0, samples // 3))
        counts = RawCounts(h=h, samples=samples, counts=columns)
        for q in counts.qubit_ids:
            got = empirical_estimates(counts, q, confidence)
            want = self.per_field(counts, q, confidence)
            # repr is exact for floats and tells -0.0 from 0.0
            assert [repr(dataclasses.astuple(e)) for e in got] == [repr(dataclasses.astuple(e)) for e in want]
            assert all(type(a) is type(b) for e, w in zip(got, want)
                       for a, b in zip(dataclasses.astuple(e), dataclasses.astuple(w)))


class TestLogLikelihood:
    """The likelihood as the fitter evaluates it, `_objective`'s first output."""

    def test_zero_at_origin(self):
        p = QubitParams(10.0, 0, 0.03, 0.02)
        ll = estimator._objective(np.array([0.0]), np.array([p.astuple()]), np.zeros((1, 1)), np.ones(1))[0]
        assert ll[0] == 0.0

    def test_stationary_at_matched_mean(self):
        p = QubitParams(8.0, 0.002, 0.04, 0.015)
        h = np.array([0.3])
        m = np.tanh(effective_field(h, p))
        # dL/dh_eff = m - tanh(h_eff) = 0 at the matched model
        he = effective_field(h, p)
        assert m[0] - np.tanh(he[0]) == pytest.approx(0.0, abs=1e-15)

    def test_dominance_over_truth(self):
        counts = synth_counts(FIG1_PARAMS, 100_000, seed=9)
        fit, _ = fit_chip(counts)
        assert likelihood(counts, fit.theta) >= likelihood(counts, FIG1_PARAMS.astuple())

    def test_empty_data(self):
        with pytest.raises(FitError):
            fit_chip(RawCounts(np.array([]), np.array([]), ([0], np.empty((1, 0)))))


class TestGradient:
    def test_matches_finite_differences(self):
        """The score `_objective` gives the fitter is the gradient of the
        likelihood it gives."""
        rng = np.random.default_rng(42)
        h = np.array(field_grid())
        weights = np.full(h.size, 1.0 / h.size)
        eps = 1e-6
        for _ in range(100):
            p = QubitParams(
                rng.uniform(1, 20),
                rng.uniform(-0.05, 0.05),
                rng.uniform(0.001, 0.1),
                rng.uniform(0.001, 0.05),
            )
            m = np.clip(
                np.tanh(effective_field(h, p)) + rng.normal(0, 0.001, h.size),
                -0.999999,
                0.999999,
            )
            def ll(theta):
                return estimator._objective(h, np.array([theta]), m[:, None], weights)[0][0]

            grad = estimator._objective(h, np.array([p.astuple()]), m[:, None], weights)[1][0]
            fd = np.empty(4)
            for i in range(4):
                up = list(p.astuple())
                dn = list(p.astuple())
                up[i] += eps
                dn[i] -= eps
                fd[i] = (ll(up) - ll(dn)) / (2 * eps)
            # relative to the gradient norm; tiny components are pure FD
            # roundoff at step 1e-6
            assert np.max(np.abs(grad - fd)) / max(np.linalg.norm(fd), 1e-12) <= 1e-5


class TestFitQubit:
    """One qubit's fit: `fit_chip` on a chip of that qubit alone."""

    def test_recovers_fig1_qubit(self):
        counts = synth_counts(FIG1_PARAMS, 5_000_000, seed=1, qubit=305)
        fit, _ = fit_chip(counts)
        beta, b, eta, gamma = fit.theta[0]
        assert fit.converged[0] == 1
        assert abs(beta - 11.18) / 11.18 <= 0.02
        assert abs(b - 0.0046) <= 0.002
        assert abs(eta - 0.0514) <= 0.005
        assert abs(gamma - 0.0196) <= 0.003

    def test_recovers_classical_qubit(self):
        counts = synth_counts(QubitParams(10.0, 0, 0, 0), 10**6, seed=2)
        beta, b, eta, gamma = fit_chip(counts)[0].theta[0]
        assert 9.8 <= beta <= 10.2
        assert abs(b) <= 0.01
        assert eta <= 0.01
        assert gamma <= 0.01

    def test_box_corner_is_flagged(self):
        counts = synth_counts(QubitParams(100.0, 0, 0, 0), 10**6, seed=3)
        fit, _ = fit_chip(counts)
        assert fit.converged[0] == 1
        assert fit.theta[0, 0] >= 99.0
        assert flagged(fit, 0, "at_bound")

    def test_zero_eta_qubit_is_not_flagged(self):
        # a fit near eta's zero floor is ordinary: only a box edge is flagged
        counts = synth_counts(QubitParams(10.0, 0, 0, 0.02), 10**6, seed=4)
        fit, _ = fit_chip(counts)
        assert fit.theta[0, 2] < 0.005
        assert fit.flags.tolist() == [0]

    def test_start_from_one_repeated_central_field(self):
        # the start's line fit near h = 0 sees a single field, twice
        h = (-1.0, -0.8, -0.6, -0.4, 0.1, 0.5, 0.7, 0.9, 1.0)
        c = synth_counts(QubitParams(3.0, 0.01, 0.03, 0.02), 100_000, seed=10, fields=h)
        at = list(h).index(0.1)
        counts = RawCounts(
            h=np.insert(c.h, at, 0.1),
            samples=np.insert(c.samples, at, c.samples[at]),
            counts={0: np.insert(c.counts[0], at, c.counts[0][at])},
        )
        fit, _ = fit_chip(counts)
        assert fit.converged[0] == 1
        assert abs(fit.theta[0, 0] - 3.0) / 3.0 <= 0.1

    def test_insufficient_fields_rejected(self):
        counts = synth_counts(FIG1_PARAMS, 1000, seed=5, fields=(-0.5, 0.0, 0.5))
        with pytest.raises(FitError):
            fit_chip(counts)
        one_sided = synth_counts(
            FIG1_PARAMS, 1000, seed=5, fields=tuple(np.linspace(0.1, 1.0, 10))
        )
        with pytest.raises(FitError):
            fit_chip(one_sided)

    def test_sign_equivariance(self):
        counts = synth_counts(FIG1_PARAMS, 10**6, seed=6)
        mirrored = RawCounts(
            h=-counts.h[::-1],
            samples=counts.samples[::-1],
            counts={0: counts.samples[::-1] - counts.counts[0][::-1]},
        )
        r = QubitParams(*fit_chip(counts)[0].theta[0])
        rm = QubitParams(*fit_chip(mirrored)[0].theta[0])
        assert rm.b == pytest.approx(-r.b, abs=5e-4)
        assert rm.beta == pytest.approx(r.beta, rel=1e-3)
        assert rm.eta == pytest.approx(r.eta, abs=5e-4)
        assert rm.gamma == pytest.approx(r.gamma, abs=5e-4)

    def test_error_shrinks_with_samples(self):
        medians = []
        for m in (10**4, 10**5, 10**6):
            errs = []
            for seed in range(20):
                counts = synth_counts(FIG1_PARAMS, m, seed=seed)
                beta = fit_chip(counts)[0].theta[0, 0]
                errs.append(abs(beta - 11.18) / 11.18)
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


def _mixed_chip(n, seed):
    rng = np.random.default_rng(seed)
    truth = {
        q: QubitParams(
            rng.uniform(5, 20), rng.uniform(-0.02, 0.02), rng.uniform(0, 0.06), rng.uniform(0, 0.03)
        )
        for q in range(n)
    }
    d = SweepDesign(fields=field_grid(), samples_per_field=100_000, seed=seed)
    return simulate_chip(truth, d)


MIXED_CHIP = _mixed_chip(12, 3)


def _means_and_weights(counts):
    """The field-major spin means (F, Q) and field weights of counts, as
    `fit_chip` gives them to `_objective`."""
    m = counts.samples.astype(float)
    return ((m - 2.0 * counts.table) / m).T, m / m.sum()


class TestLikelihoodMaximum:
    @pytest.fixture(scope="class")
    def stress_set(self):
        """36 chips of 50 qubits spread over the whole box, a fifth of
        their eta and a fifth of their gamma at zero, each fitted: 6 seeds
        x 26, 41 and 81 fields x 1e5 and 5e6 shots.  Each is (key, counts,
        truth theta, fit)."""
        chips = []
        for seed in range(100, 106):
            rng = np.random.default_rng(seed)
            for n_fields in (26, 41, 81):
                for shots in (100_000, 5_000_000):
                    theta = np.column_stack([rng.uniform(1.0, 60.0, 50), rng.uniform(-0.1, 0.1, 50),
                                             rng.uniform(0.0, 0.1, 50), rng.uniform(0.0, 0.1, 50)])
                    theta[rng.random(50) < 0.2, 2] = 0.0
                    theta[rng.random(50) < 0.2, 3] = 0.0
                    design = SweepDesign(np.linspace(-1, 1, n_fields), shots, seed=1000 * seed + n_fields)
                    counts = simulate_chip((list(range(50)), theta), design)
                    chips.append(((seed, n_fields, shots), counts, theta, fit_chip(counts)[0]))
        return chips

    def test_no_fit_ends_below_the_truth(self, stress_set):
        # the local maxima once seen on such chips: 0 of 1800 when this
        # set was committed
        below = []
        for key, counts, truth, fit in stress_set:
            truth_ll = estimator._objective(counts.h, truth, *_means_and_weights(counts))[0]
            below += [(key, q) for q in np.flatnonzero(fit.log_likelihood < truth_ll - 1e-12)]
        assert below == []

    @pytest.mark.xfail(strict=True, reason="a fit near gamma's zero floor can be stopped short by "
                                           "the rule that a fine step must shrink the decrement")
    def test_fits_at_the_gamma_floor_are_maxima(self, stress_set):
        # each qubit fitted to gamma < 1e-5 is fitted again from its own
        # fit with gamma raised to 1e-3; 1 of 339 rose, by 3.65e-10 (seed
        # 105, 26 fields, 5e6 shots, qubit 42, gamma 2.2e-8 -> 1.3e-4)
        rises = []
        for key, counts, _, fit in stress_set:
            low = np.flatnonzero(fit.theta[:, 3] < 1e-5)
            if not low.size:
                continue
            start = fit.theta[low]
            start[:, 3] = 1e-3
            some = RawCounts(counts.h, counts.samples, (low.tolist(), counts.table[low]))
            with mock.patch.object(estimator, "_initial_guess", lambda h, means, lim: start.copy()):
                again, _ = fit_chip(some)
            rise = again.log_likelihood - fit.log_likelihood[low]
            rises += [(key, q, r) for q, r in zip(low.tolist(), rise.tolist()) if r > 1e-12]
        assert rises == []

    @pytest.mark.xfail(strict=True, reason="from the start's corrected bias sign, this fit ends at the "
                                           "beta box edge below the truth's likelihood")
    def test_a_start_of_the_right_bias_sign_reaches_the_maximum(self, stress_set):
        # arctanh(m) ~ beta*(h + b) makes the start's intercept beta*b, yet
        # `_initial_guess` takes b0 = -intercept/beta0; on the benchmark chip
        # corr(b0, fitted b) is -1.000.  From +intercept/beta0 (the box in b
        # is symmetric, so that is today's start with b0 negated) this qubit
        # (truth beta 50.9, eta 0.0146, gamma 0) ended at beta = 100, 8.1e-6
        # below the truth's L, where today's start ends at beta 44.9, 8.2e-7
        # above it
        (counts, truth), = [(c, t) for key, c, t, _ in stress_set if key == (103, 26, 100_000)]
        initial_guess = estimator._initial_guess

        def corrected(h, means, lim):
            start = initial_guess(h, means, lim)
            start[:, 1] *= -1.0
            return start

        qubit = one_column(counts, 39)
        with mock.patch.object(estimator, "_initial_guess", corrected):
            fit, _ = fit_chip(qubit)
        assert fit.log_likelihood[0] >= likelihood(qubit, truth[39])[0] - 1e-12

    def test_low_noise_fits_reach_the_maximum(self):
        # eta and gamma both near their zero floor, where the likelihood is
        # nearly flat in them; no fit may end below the truth's likelihood
        rng = np.random.default_rng(64)
        truth = {
            q: QubitParams(
                10.54 * np.exp(rng.normal(0, 0.06)),
                0.0025 + rng.normal(0, 0.004),
                *rng.uniform(0.001, 0.01, 2),
            )
            for q in range(64)
        }
        d = SweepDesign(fields=field_grid(), samples_per_field=5_000_000, seed=64)
        counts = simulate_chip(truth, d)
        results, failures = fit_chip(counts)
        assert not failures
        assert results.ids.tolist() == list(truth)
        assert (results.converged == 1).all()
        ll = results.log_likelihood
        assert _same_bits(ll, likelihood(counts, results.theta))
        assert (ll >= likelihood(counts, [p.astuple() for p in truth.values()])).all()

    def test_fine_steps_must_shrink_the_decrement(self):
        # hard qubits at 1e3 shots: a fine step that does not shrink the
        # Newton decrement is refused, so these fits settle; judged by
        # their gain alone, such steps keep being taken, and each of these
        # fits runs to the iteration cap unconverged
        truth = {
            18: QubitParams(2.8103349891116247, 0.07177119175391938, 0.0, 0.595517430954158),
            19: QubitParams(100.22587511607281, 0.25068342629454626, 0.5251289476766946, 0.029933358620998482),
            71: QubitParams(19.233263223128468, 0.2745332499310588, 0.1134271936011625, 0.3113589174765179),
            98: QubitParams(78.6052897628585, 0.21909088056954645, 0.42516827408703056, 0.2632330423159546),
        }
        fit, _ = fit_chip(simulate_chip(truth, SweepDesign(field_grid(), 1000, seed=304208576)))
        assert fit.ids.tolist() == [18, 19, 71, 98]
        assert fit.converged.tolist() == [1, 1, 1, 1]


def _body_chip(seed, n=256):
    """(counts, truth theta) of n qubits drawn as the benchmark draws its
    chimera:16 body: around the paper's medians, with its horizontal and
    vertical split and eta at least 0.015, at 81 fields of 5e6 shots."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    sign = np.where(ids % 8 >= 4, 1.0, -1.0)
    theta = np.column_stack([
        MEDIAN.beta * np.exp(rng.normal(0.0, 0.06, n)) * (1.0 + 0.0185 * sign),
        MEDIAN.b + rng.normal(0.0, 0.004, n),
        np.maximum(MEDIAN.eta * np.exp(rng.normal(0.0, 0.25, n)), 0.015),
        MEDIAN.gamma * np.exp(rng.normal(0.0, 0.25, n)) * (1.0 + 0.0625 * sign),
    ])
    return simulate_chip((ids.tolist(), theta), SweepDesign(field_grid(), 5_000_000, seed=seed)), theta


def _wide_chip(seed, n=256):
    """(counts, truth theta) of n qubits drawn across the inside of the
    fit's box at 81 fields of 5e6 shots: beta log-uniform on [1, 60], b
    uniform on [-0.1, 0.1], and eta and gamma uniform on [0.001, 0.1],
    off their zero floor, so that the truth is a start inside the box."""
    rng = np.random.default_rng(seed)
    theta = np.column_stack([
        np.exp(rng.uniform(0.0, np.log(60.0), n)),
        rng.uniform(-0.1, 0.1, n),
        rng.uniform(0.001, 0.1, n),
        rng.uniform(0.001, 0.1, n),
    ])
    return simulate_chip((list(range(n)), theta), SweepDesign(field_grid(), 5_000_000, seed=seed)), theta


class TestStartPoint:
    """One block of 256 qubits fitted from the data start and from the
    truth; the seed was fixed before either was looked at.  This set is
    drawn as the benchmark draws its chip's body."""

    # the fit's work, free of the machine's speed: 1330 qubit evaluations
    # (5.2 per qubit) when this bound was set, plus 5%
    MAX_ROWS = 1396

    @staticmethod
    def chip():
        return _body_chip(2201)

    @pytest.fixture(scope="class")
    def fits(self, request):
        counts, truth = request.cls.chip()
        rows = []
        objective = estimator._objective

        def counting(h, theta, means, weights):
            rows.append(len(theta))
            return objective(h, theta, means, weights)

        with mock.patch.object(estimator, "_objective", counting):
            fit, _ = fit_chip(counts)
        with mock.patch.object(estimator, "_initial_guess", lambda h, means, lim: truth.copy()):
            from_truth, _ = fit_chip(counts)
        return counts, fit, from_truth, rows

    def test_fit_does_not_depend_on_the_start(self, fits):
        counts, fit, from_truth, _ = fits
        assert fit.converged.all() and from_truth.converged.all()
        info = estimator._objective(counts.h, fit.theta, *_means_and_weights(counts))[2]
        se = np.sqrt(np.diagonal(np.linalg.inv(info), axis1=1, axis2=2) / fit.total_samples[:, None])
        # the largest was 2.5e-6 SE on the body set and 2.4e-6 SE on the
        # wide set when this bound was set
        assert (np.abs(from_truth.theta - fit.theta) <= 1e-3 * se).all()

    def test_evaluation_count(self, fits):
        rows = fits[3]
        assert rows[0] == 256
        assert sum(rows) <= self.MAX_ROWS


class TestStartPointWide(TestStartPoint):
    """The same checks on 256 qubits drawn across the box, where the data
    start is poorer: the evaluation count a better start must lower."""

    # 2639 qubit evaluations (10.3 per qubit) when this bound was set, plus 5%
    MAX_ROWS = 2770

    @staticmethod
    def chip():
        return _wide_chip(2402)


class TestFitChip:
    def test_round_trip_small_chip(self):
        truth = {q: QubitParams(10.54, 0.0025, 0.0367, 0.0176) for q in range(8)}
        d = SweepDesign(fields=field_grid(), samples_per_field=100_000, seed=1)
        from qasa import simulate_chip

        counts = simulate_chip(truth, d)
        results, failures = fit_chip(counts)
        assert not failures
        assert len(results) == 8
        assert np.all(results.converged == 1)

    def test_empty_input(self):
        # the fields are checked before the qubits, and no qubits is an error
        counts = RawCounts(h=np.array([0.0]), samples=np.array([10]), counts={})
        with pytest.raises(FitError, match=r"^need >= 8 distinct fields .*, got 1 in \[0\.0, 0\.0\]$"):
            fit_chip(counts)
        h = np.linspace(-1, 1, 9)
        counts = RawCounts(h=h, samples=np.full(9, 10), counts={})
        with pytest.raises(FitError, match=r"^no qubits to fit$"):
            fit_chip(counts)

    def test_no_fields_fails_every_qubit(self):
        # one error for the whole sweep, not one per qubit
        counts = RawCounts(h=np.array([]), samples=np.array([]), counts={0: [], 4: []})
        with pytest.raises(FitError) as chip:
            fit_chip(counts)
        with pytest.raises(FitError) as qubit:
            fit_chip(one_column(counts, 4))
        assert str(chip.value) == str(qubit.value) == \
            "need >= 8 distinct fields spanning h < 0 and h > 0, got 0"

    def test_fields_past_the_kernel_range_are_refused(self):
        # MAX_ABS_FIELD keeps the fitter well inside the range where the
        # kernel's gradient is finite; at the bound itself a fit still works
        edge = estimator.MAX_ABS_FIELD
        past = float(np.nextafter(edge, np.inf))
        at = synth_counts(FIG1_PARAMS, 100_000, seed=9, fields=(-edge, *field_grid(), edge))
        fit, _ = fit_chip(at)
        assert fit.converged[0] == 1 and np.isfinite(fit.log_likelihood[0])
        assert abs(fit.theta[0, 0] - FIG1_PARAMS.beta) / FIG1_PARAMS.beta < 0.05
        for fields, named in (((-edge, *field_grid(), past), past), ((-past, *field_grid(), edge), -past),
                              ((-1e200, *field_grid()), -1e200)):
            counts = synth_counts(FIG1_PARAMS, 100_000, seed=9, fields=fields)
            with pytest.raises(FitError) as exc:
                fit_chip(counts)
            assert str(exc.value) == (f"field {named!r} is outside [-1e+100, 1e+100], "
                                      f"where the model cannot be evaluated")

    def test_identical_counts_identical_results(self):
        base = synth_counts(FIG1_PARAMS, 100_000, seed=7)
        counts = RawCounts(
            h=base.h, samples=base.samples, counts={0: base.counts[0], 1: base.counts[0]}
        )
        results, _ = fit_chip(counts)
        assert row(results, 0) == row(results, 1)

    def test_worker_count_invariance(self):
        truth = {q: QubitParams(10.54, 0.0025, 0.0367, 0.0176) for q in range(4)}
        d = SweepDesign(fields=field_grid(), samples_per_field=50_000, seed=2)
        from qasa import simulate_chip

        counts = simulate_chip(truth, d)
        serial, _ = fit_chip(counts, workers=1)
        parallel, _ = fit_chip(counts, workers=4)
        assert serial.ids.tolist() == parallel.ids.tolist()
        assert np.array_equal(serial.theta, parallel.theta)

    def test_one_column_fit_is_its_row_of_the_chip_fit(self):
        counts = MIXED_CHIP
        chip, _ = fit_chip(counts)
        for q in (0, 5, 11):
            one, _ = fit_chip(one_column(counts, q))
            assert isinstance(one, estimator.ChipFit) and one.ids.tolist() == [q]
            assert row(one, 0) == row(chip, q)

    @settings(max_examples=25, deadline=None)
    @given(
        st.permutations(range(12)),
        st.lists(st.integers(1, 12), min_size=1, max_size=12),
        st.integers(1, 5),
    )
    def test_partition_and_order_invariance(self, order, sizes, block):
        # relabel the qubits in a new order, cut them into consecutive parts
        # of the drawn sizes and fit each part in batches of `block` qubits;
        # every fit must equal the whole-chip fit bit for bit
        reference, _ = fit_chip(MIXED_CHIP)
        parts, pos = [], 0
        for size in sizes:
            if pos < len(order):
                parts.append(order[pos:pos + size])
                pos += size
        if pos < len(order):
            parts.append(order[pos:])
        with mock.patch.object(estimator, "_BLOCK", block):
            for part in parts:
                counts = RawCounts(
                    MIXED_CHIP.h, MIXED_CHIP.samples,
                    {new: MIXED_CHIP.counts[old] for new, old in enumerate(part)},
                )
                results, failures = fit_chip(counts)
                assert not failures
                assert results.ids.tolist() == list(range(len(part)))
                for new, old in enumerate(part):
                    assert row(results, new) == row(reference, old)

    def test_failures_are_aggregated(self):
        good = synth_counts(FIG1_PARAMS, 10_000, seed=8)
        few = RawCounts(
            h=np.array([-0.5, 0.5]),
            samples=np.array([100, 100]),
            counts={1: np.array([90, 10])},
        )
        counts = RawCounts(
            h=good.h,
            samples=good.samples,
            counts={0: good.counts[0]},
        )
        results, failures = fit_chip(counts)
        assert results.ids.tolist() == [0] and not failures
        with pytest.raises(FitError) as chip:
            fit_chip(few)
        with pytest.raises(FitError) as qubit:
            fit_chip(one_column(few, 1))
        assert str(chip.value) == str(qubit.value) == \
            "need >= 8 distinct fields spanning h < 0 and h > 0, got 2 in [-0.5, 0.5]"


class TestThreadedParts:
    """MIXED_CHIP in blocks of 2 qubits, so in up to six parts."""

    @pytest.fixture(autouse=True)
    def small_blocks(self):
        with mock.patch.object(estimator, "_BLOCK", 2):
            yield

    def fit_on(self, cpus):
        threads = []
        fit_block = estimator._fit_block

        def recording(*args):
            # the thread itself: a finished thread's ident may be reused
            threads.append(threading.current_thread())
            return fit_block(*args)

        with mock.patch.object(estimator, "_cpus", lambda: cpus), \
                mock.patch.object(estimator, "_fit_block", recording):
            fit, _ = fit_chip(MIXED_CHIP)
        return fit, set(threads)

    def test_cpu_count_invariance(self):
        one, threads = self.fit_on(1)
        assert threads == {threading.current_thread()}
        # six parts, more threads than this machine may have cores, made
        # to switch often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fits = {cpus: self.fit_on(cpus) for cpus in (2, 3, 6)}
        finally:
            sys.setswitchinterval(interval)
        for cpus, (fit, threads) in fits.items():
            assert len(threads) == cpus and threading.current_thread() in threads
            for column in dataclasses.fields(fit):
                assert _same_bits(getattr(fit, column.name), getattr(one, column.name)), (cpus, column.name)

    @pytest.mark.parametrize("qubit", [0, 11], ids=["first part", "last part"])
    def test_an_error_in_one_part_is_raised_after_every_thread_is_joined(self, qubit):
        m = MIXED_CHIP.samples.astype(float)
        column = (m - 2.0 * MIXED_CHIP.table[qubit]) / m
        error = FloatingPointError("in one part")
        fit_block = estimator._fit_block

        def failing(h, weights, means, lim):
            if (means == column[:, None]).all(axis=0).any():
                raise error
            return fit_block(h, weights, means, lim)

        before = threading.active_count()
        with mock.patch.object(estimator, "_cpus", lambda: 3), \
                mock.patch.object(estimator, "_fit_block", failing), pytest.raises(FloatingPointError) as raised:
            fit_chip(MIXED_CHIP)
        assert raised.value is error
        assert threading.active_count() == before

    def test_public_calls_stay_on_the_calling_thread(self):
        # a tracer that wraps every public function, as the benchmark's
        # does, keeps one stack of open spans, which a call from another
        # thread would interleave
        public = {obj for mod in (estimator, model) for name, obj in vars(mod).items()
                  if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__}
        calls = []

        def recorder(fn):
            def recording(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return recording

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(estimator, "_cpus", lambda: 2))
            for name, ns in list(sys.modules.items()):
                if name == "qasa" or name.startswith("qasa."):
                    for attr, obj in list(vars(ns).items()):
                        if inspect.isfunction(obj) and obj in public:
                            stack.enter_context(mock.patch.object(ns, attr, recorder(obj)))
            fit, _ = estimator.fit_chip(MIXED_CHIP)
        assert len(fit) == 12
        names = {name for name, _ in calls}
        assert {"fit_chip", "clamp_limit"} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}


def _mixture_reference(h, theta, grad=False):
    """The mixture kernel written expression for expression, a fresh array
    per operation and every r < _R_EPS limit taken by np.where.  `_mixture`
    must give the same bits."""
    h = np.asarray(h, dtype=float)
    beta, b, eta, gamma = theta
    x = gamma * h
    T, om, op = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    dT = np.zeros((4,) + x.shape)
    for s in (+1.0, -1.0):
        c = h + b + s * eta
        r = np.sqrt(x * x + c * c) if grad else np.hypot(x, c)
        tiny = r < _R_EPS
        safe_r = np.where(tiny, 1.0, r)
        f = np.tanh(beta * safe_r)
        if not grad:
            T += np.where(tiny, c * beta / 2.0, c * f / (2.0 * safe_r))
            continue
        g = 1.0 / safe_r
        ir = g * 0.5
        e = np.exp(beta * safe_r * -2.0)
        eps = 2.0 * e / (1.0 + e)
        far = np.abs(c) + safe_r
        near = x * x / far
        rm, rp = np.where(c > 0, near, far), np.where(c < 0, near, far)
        om += np.where(tiny, 0.5 - c * beta / 2.0, (rm + c * eps) * ir)
        op += np.where(tiny, 0.5 + c * beta / 2.0, (rp - c * eps) * ir)
        sech2 = (2.0 - eps) * eps
        q = g * ir
        d_dc = np.where(tiny, beta / 2.0, (f * (x * x) * g + sech2 * beta * (c * c)) * q)
        B = np.where(tiny, 0.0, sech2 * beta * ir - f * q)
        dT[0] += np.where(tiny, c / 2.0, c * sech2 * 0.5)
        dT[1] += d_dc
        dT[2] += d_dc if s > 0 else -d_dc
        dT[3] += c * g * x * h * B
    return (om, op, dT) if grad else T


def _mixture_hypot_pow(h, theta):
    """(om, op, dT) with r by np.hypot, r**3 by np.power and a division by
    each of 2r, 2r**2 and 2r**3: the same model as `_mixture`'s gradient
    branch, rounded differently."""
    h = np.asarray(h, dtype=float)
    beta, b, eta, gamma = theta
    x = gamma * h
    om, op, dT = np.zeros(x.shape), np.zeros(x.shape), np.zeros((4,) + x.shape)
    for s in (+1.0, -1.0):
        c = h + b + s * eta
        r = np.hypot(x, c)
        tiny = r < _R_EPS
        safe_r = np.where(tiny, 1.0, r)
        f = np.tanh(beta * safe_r)
        e = np.exp(-2.0 * beta * safe_r)
        eps = 2.0 * e / (1.0 + e)
        with np.errstate(invalid="ignore", divide="ignore"):
            rm = np.where(c > 0, x * x / (safe_r + c), r - c)
            rp = np.where(c < 0, x * x / (safe_r - c), r + c)
        om += np.where(tiny, 0.5 - c * beta / 2.0, (rm + c * eps) / (2.0 * safe_r))
        op += np.where(tiny, 0.5 + c * beta / 2.0, (rp - c * eps) / (2.0 * safe_r))
        sech2 = eps * (2.0 - eps)
        d_dc = np.where(
            tiny,
            beta / 2.0,
            f * x * x / (2.0 * np.power(safe_r, 3)) + beta * sech2 * c * c / (2.0 * safe_r**2),
        )
        B = np.where(tiny, 0.0, beta * sech2 / (2.0 * safe_r) - f / (2.0 * safe_r**2))
        dT[0] += np.where(tiny, c / 2.0, c * sech2 / 2.0)
        dT[1] += d_dc
        dT[2] += s * d_dc
        dT[3] += (c * x * h / safe_r) * B
    return om, op, dT


def _rowsum_reference(x):
    """The fitter's earlier fixed-order sum over the last axis, by pairwise
    halving with a concatenation at every step; `_fieldsum` must add the
    same pairs in the same order."""
    while x.shape[-1] > 1:
        n = x.shape[-1] // 2
        x = np.concatenate([x[..., :n] + x[..., n:2 * n], x[..., 2 * n:]], axis=-1)
    return x[..., 0]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestFieldMajorEvaluation:
    def test_fieldsum_matches_the_concatenating_sum(self):
        rng = np.random.default_rng(21)
        order_matters = False
        for n in range(1, 131):
            for lead in ((), (3,), (2, 5), (15, 4)):
                # wide dynamic range, so that a different order rounds differently
                x = rng.standard_normal(lead + (n,)) * 10.0 ** rng.uniform(-8, 8, lead + (n,))
                ref = _rowsum_reference(x)
                assert _same_bits(estimator._fieldsum(np.moveaxis(x, -1, 0).copy()), ref)
                if len(lead) == 2:
                    # a strided view, as `_objective` hands over its buffer
                    buf = np.ascontiguousarray(np.moveaxis(x, -1, 1))
                    assert _same_bits(estimator._fieldsum(buf.swapaxes(0, 1)), ref)
                order_matters |= not _same_bits(np.cumsum(x, axis=-1)[..., -1], ref)
        assert order_matters

    def _thetas(self):
        rng = np.random.default_rng(5)
        random = np.column_stack([
            rng.uniform(0.1, 100, 40), rng.uniform(-0.2, 0.2, 40),
            rng.uniform(0, 0.5, 40), rng.uniform(0, 0.5, 40),
        ])
        special = np.array([
            [10.0, 0.125, 0.0625, 0.0],    # gamma = 0: r = 0 at h = -b -+ eta
            [100.0, 0.125, 0.0625, 0.0],
            [100.0, 0.0, 0.0, 0.0],        # saturated, r = 0 at h = 0
            [100.0, 0.0025, 0.0367, 0.0176],
            [100.0, -0.2, 0.5, 0.5],
        ])
        return np.vstack([special, random])

    def test_mixture_layouts_are_transposes(self):
        theta = self._thetas()
        h = np.union1d(field_grid(), [-0.1875, -0.0625])  # h = -b -+ eta above
        qm = _mixture(h, theta.T[:, :, None], grad=True)
        fm = _mixture(h[:, None], theta.T[:, None, :], grad=True)
        for a, b in zip(qm[:2], fm[:2]):  # om, op
            assert _same_bits(a.T, b)
        assert _same_bits(qm[2].swapaxes(1, 2), fm[2])
        t_only = _mixture(h[:, None], theta.T[:, None, :])
        assert _same_bits(_mixture(h, theta.T[:, :, None]).T, t_only)

    @pytest.mark.parametrize("grad", [True, False])
    def test_mixture_matches_the_reference_bit_for_bit(self, grad):
        # the last row has c = 0 but gamma*h != 0 at h = 0.125, where
        # (gamma*h)^2/r rounds away from r, so only r + |c| is right for
        # either half
        theta = np.vstack([self._thetas(), [3.0, -0.0625, 0.0625, 0.2]])
        # r = 0 at h = -b -+ eta of the gamma = 0 rows and at h = 0 of the
        # saturated one, and fields far outside [-1, 1]
        h = np.union1d(field_grid(), [-0.1875, -0.0625, -1e5, -1e3, 1e3])
        for hh, th in ((h, theta.T[:, :, None]), (h[:, None], theta.T[:, None, :])):
            got, ref = _mixture(hh, th, grad), _mixture_reference(hh, th, grad)
            if not grad:
                got, ref = (got,), (ref,)
            for a, b in zip(got, ref, strict=True):
                assert _same_bits(a, b)

    def test_mixture_is_within_rounding_of_hypot_and_pow(self):
        # The gradient takes r = sqrt(x*x + c*c), which lies within ~2.5 ulp
        # of hypot(x, c), and multiplies by 1/(2r) where `_mixture_hypot_pow`
        # divides; each rounds an output by a few ulp.  eps = 2e/(1 + e)
        # carries r's rounding with a gain of 2*beta*r, below ~20 wherever
        # eps is not negligible beside the near and far terms, hence 1e-14
        # (~90 ulp) relative on om and op, with a floor at the smallest
        # normal double.  dT's components cancel near r = 0 (B there is a
        # difference of terms ~beta/r), so each is bounded by 1e-13 of its
        # largest magnitude over the fields, per qubit; d/deta, the
        # difference of the two signs' d_dc, cancels wherever eta is small,
        # so its scale is that of d/db, their sum.
        theta = np.vstack([self._thetas(), [3.0, -0.0625, 0.0625, 0.2]])
        h = np.union1d(field_grid(), [-0.1875, -0.0625, -1e5, -1e3, 1e3])
        om, op, dT = _mixture(h[:, None], theta.T[:, None, :], grad=True)
        ref_om, ref_op, ref_dT = _mixture_hypot_pow(h[:, None], theta.T[:, None, :])
        for got, ref in ((om, ref_om), (op, ref_op)):
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref) + np.finfo(float).tiny)
        scale = np.abs(ref_dT).max(axis=1, keepdims=True)
        scale[2] = scale[1]
        assert np.all(np.abs(dT - ref_dT) <= 1e-13 * scale)

    def test_chip_fit_with_the_reference_kernel_is_the_same(self):
        fit, _ = fit_chip(MIXED_CHIP)
        with mock.patch.object(estimator, "_mixture", _mixture_reference):
            ref, _ = fit_chip(MIXED_CHIP)
        for name in ("theta", "log_likelihood", "converged"):
            assert _same_bits(getattr(fit, name), getattr(ref, name)), name

    def test_objective_matches_the_qubit_major_products(self):
        theta = self._thetas()
        counts = MIXED_CHIP
        h, m = counts.h, counts.samples.astype(float)
        w = m / m.sum()
        means = (m - 2.0 * counts.table[np.arange(len(theta)) % 12]) / m  # (Q, F)
        ll, score, info = estimator._objective(h, theta, np.ascontiguousarray(means.T), w)
        # the same terms laid out qubit-major, summed by the reference
        om, op, dT = _mixture(h, theta.T[:, :, None], grad=True)
        om, op = np.maximum(om, 1e-300), np.maximum(op, 1e-300)
        dT = dT.swapaxes(0, 1)  # (Q, 4, F)
        lo, hi = (1.0 - means) / 2.0, (1.0 + means) / 2.0
        ref_ll = _rowsum_reference(w * (hi * np.log(op) + lo * np.log(om) - np.log((om + op) / 2.0)))
        ref_score = _rowsum_reference(dT * (w * (hi / op - lo / om))[:, None, :])
        ref_info = _rowsum_reference(
            dT[:, :, None, :] * dT[:, None, :, :] * (w / (om * op))[:, None, None, :])
        assert _same_bits(ll, ref_ll)
        assert _same_bits(score, ref_score)
        assert _same_bits(info, ref_info)
        assert _same_bits(info, info.transpose(0, 2, 1))

    def test_converged_qubits_are_not_evaluated_again(self):
        rows = []
        objective = estimator._objective

        def counting(h, theta, means, weights):
            rows.append(len(theta))
            return objective(h, theta, means, weights)

        with mock.patch.object(estimator, "_objective", counting):
            fit_chip(MIXED_CHIP)
        # the start is evaluated for every qubit, then each trial only for
        # the qubits still stepping
        assert rows[0] == 12
        assert all(a >= b for a, b in zip(rows, rows[1:]))
        assert rows[-1] < 12


class TestChipFit:
    def test_chip_fit_sets_every_flag_in_order(self):
        d = SweepDesign(fields=field_grid(-1.5, 1.5, 0.025), samples_per_field=10**6, seed=3)
        fit, _ = fit_chip(simulate_chip({0: QubitParams(100.0, 0, 0, 0)}, d))
        assert fit.flags.tolist() == [1]
        assert estimator.FLAGS == ("at_bound",)
        assert [flagged(fit, 0, name) for name in estimator.FLAGS] == [1]

    def test_columns_are_read_only_copies(self):
        ids = np.array([4, 1])
        fit = estimator.ChipFit(ids, np.ones((2, 4)), [0.0, 1.0], [1, 1], [8, 8], [80, 80], [0, 0])
        ids[0] = 7
        assert fit.ids.tolist() == [1, 4]
        assert fit.log_likelihood.tolist() == [1.0, 0.0]  # each row moves with its id
        for name in ("ids", "theta", "log_likelihood", "converged", "n_points", "total_samples", "flags"):
            column = getattr(fit, name)
            assert column.shape[0] == 2 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(AttributeError):
            fit.theta = np.zeros((2, 4))
        with pytest.raises(ValueError):
            estimator.ChipFit([1, 1], np.ones((2, 4)), np.zeros(2), [1, 1], [8, 8], [80, 80], [0, 0])

    def test_a_column_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match=r"^fit column log_likelihood has \(3,\) rows, expected 2$"):
            estimator.ChipFit([1, 4], np.ones((2, 4)), np.zeros(3), [1, 1], [8, 8], [80, 80], [0, 0])
        with pytest.raises(ValueError, match=r"^fit column theta has \(1,\) rows, expected 2$"):
            estimator.ChipFit([1, 4], np.ones(4), np.zeros(2), [1, 1], [8, 8], [80, 80], [0, 0])
