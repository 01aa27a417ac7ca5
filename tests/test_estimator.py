import dataclasses
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
    fit_qubit,
    log_likelihood,
    sample_counts,
    simulate_chip,
)
from qasa import estimator
from qasa.estimator import EffectiveFieldEstimate, FitError, clamp_limit, log_likelihood_grad
from qasa.model import _R_EPS, _mixture
from qasa.simulator import RawCounts

FIG1_PARAMS = QubitParams(beta=11.18, b=0.0046, eta=0.0514, gamma=0.0196)


def synth_counts(p, m, seed, qubit=0, fields=None):
    d = SweepDesign(fields=fields or field_grid(), samples_per_field=m, seed=seed)
    c = sample_counts(p, d, qubit)
    return RawCounts(
        h=np.array(d.fields),
        samples=np.full(len(d.fields), m, dtype=np.int64),
        counts={qubit: c},
    )


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
        for i in range(counts.n_fields()):
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
    def test_zero_at_origin(self):
        p = QubitParams(10.0, 0, 0.03, 0.02)
        assert log_likelihood(p, [0.0], [0.0]) == 0.0

    def test_stationary_at_matched_mean(self):
        p = QubitParams(8.0, 0.002, 0.04, 0.015)
        h = np.array([0.3])
        m = np.tanh(effective_field(h, p))
        # dL/dh_eff = m - tanh(h_eff) = 0 at the matched model
        he = effective_field(h, p)
        assert m[0] - np.tanh(he[0]) == pytest.approx(0.0, abs=1e-15)

    def test_dominance_over_truth(self):
        counts = synth_counts(FIG1_PARAMS, 100_000, seed=9)
        r = fit_qubit(counts, 0)
        m = (counts.samples - 2.0 * counts.counts[0]) / counts.samples
        assert log_likelihood(r.params, counts.h, m) >= log_likelihood(FIG1_PARAMS, counts.h, m)

    def test_empty_data(self):
        with pytest.raises(FitError):
            log_likelihood(FIG1_PARAMS, [], [])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = np.array(field_grid())
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
            grad = log_likelihood_grad(p, h, m)
            fd = np.empty(4)
            for i in range(4):
                up = list(p.astuple())
                dn = list(p.astuple())
                up[i] += eps
                dn[i] -= eps
                fd[i] = (
                    log_likelihood(QubitParams(*up), h, m)
                    - log_likelihood(QubitParams(*dn), h, m)
                ) / (2 * eps)
            # relative to the gradient norm; tiny components are pure FD
            # roundoff at step 1e-6
            assert np.max(np.abs(grad - fd)) / max(np.linalg.norm(fd), 1e-12) <= 1e-5


class TestFitQubit:
    def test_recovers_fig1_qubit(self):
        counts = synth_counts(FIG1_PARAMS, 5_000_000, seed=1, qubit=305)
        r = fit_qubit(counts, 305)
        assert r.converged
        assert abs(r.params.beta - 11.18) / 11.18 <= 0.02
        assert abs(r.params.b - 0.0046) <= 0.002
        assert abs(r.params.eta - 0.0514) <= 0.005
        assert abs(r.params.gamma - 0.0196) <= 0.003

    def test_recovers_classical_qubit(self):
        counts = synth_counts(QubitParams(10.0, 0, 0, 0), 10**6, seed=2)
        r = fit_qubit(counts, 0)
        assert 9.8 <= r.params.beta <= 10.2
        assert abs(r.params.b) <= 0.01
        assert r.params.eta <= 0.01
        assert r.params.gamma <= 0.01

    def test_box_corner_is_flagged(self):
        counts = synth_counts(QubitParams(100.0, 0, 0, 0), 10**6, seed=3)
        r = fit_qubit(counts, 0)
        assert r.converged
        assert r.params.beta >= 99.0
        assert "at_bound" in r.flags

    def test_low_eta_flag(self):
        counts = synth_counts(QubitParams(10.0, 0, 0, 0.02), 10**6, seed=4)
        r = fit_qubit(counts, 0)
        assert "low_eta" in r.flags

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
        r = fit_qubit(counts, 0)
        assert r.converged
        assert abs(r.params.beta - 3.0) / 3.0 <= 0.1

    def test_insufficient_fields_rejected(self):
        counts = synth_counts(FIG1_PARAMS, 1000, seed=5, fields=(-0.5, 0.0, 0.5))
        with pytest.raises(FitError):
            fit_qubit(counts, 0)
        one_sided = synth_counts(
            FIG1_PARAMS, 1000, seed=5, fields=tuple(np.linspace(0.1, 1.0, 10))
        )
        with pytest.raises(FitError):
            fit_qubit(one_sided, 0)

    def test_sign_equivariance(self):
        counts = synth_counts(FIG1_PARAMS, 10**6, seed=6)
        mirrored = RawCounts(
            h=-counts.h[::-1],
            samples=counts.samples[::-1],
            counts={0: counts.samples[::-1] - counts.counts[0][::-1]},
        )
        r = fit_qubit(counts, 0)
        rm = fit_qubit(mirrored, 0)
        assert rm.params.b == pytest.approx(-r.params.b, abs=5e-4)
        assert rm.params.beta == pytest.approx(r.params.beta, rel=1e-3)
        assert rm.params.eta == pytest.approx(r.params.eta, abs=5e-4)
        assert rm.params.gamma == pytest.approx(r.params.gamma, abs=5e-4)

    def test_error_shrinks_with_samples(self):
        medians = []
        for m in (10**4, 10**5, 10**6):
            errs = []
            for seed in range(20):
                counts = synth_counts(FIG1_PARAMS, m, seed=seed)
                r = fit_qubit(counts, 0)
                errs.append(abs(r.params.beta - 11.18) / 11.18)
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


class TestLikelihoodMaximum:
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
        w = counts.samples / counts.samples.sum()
        for q, p in truth.items():
            m = (counts.samples - 2.0 * counts.counts[q]) / counts.samples
            r = results[q]
            assert r.converged
            assert r.log_likelihood == log_likelihood(r.params, counts.h, m, w)
            assert r.log_likelihood >= log_likelihood(p, counts.h, m, w)

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


class TestFitChip:
    def test_round_trip_small_chip(self):
        truth = {q: QubitParams(10.54, 0.0025, 0.0367, 0.0176) for q in range(8)}
        d = SweepDesign(fields=field_grid(), samples_per_field=100_000, seed=1)
        from qasa import simulate_chip

        counts = simulate_chip(truth, d)
        results, failures = fit_chip(counts)
        assert not failures
        assert len(results) == 8
        assert all(r.converged for r in results.values())

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
            fit_qubit(counts, 4)
        assert str(chip.value) == str(qubit.value) == \
            "need >= 8 distinct fields spanning h < 0 and h > 0, got 0"

    def test_fields_past_the_kernel_range_are_refused(self):
        # the kernel overflows near |h| = 1e103, which RuntimeWarning-as-error
        # turns into a failure; at the bound itself a fit still works
        edge = estimator.MAX_ABS_FIELD
        past = float(np.nextafter(edge, np.inf))
        at = synth_counts(FIG1_PARAMS, 100_000, seed=9, fields=(-edge, *field_grid(), edge))
        fit, _ = fit_chip(at)
        assert fit[0].converged and np.isfinite(fit[0].log_likelihood)
        assert abs(fit[0].params.beta - FIG1_PARAMS.beta) / FIG1_PARAMS.beta < 0.05
        for fields, named in (((-edge, *field_grid(), past), past), ((-past, *field_grid(), edge), -past),
                              ((-1e200, *field_grid()), -1e200)):
            counts = synth_counts(FIG1_PARAMS, 100_000, seed=9, fields=fields)
            with pytest.raises(FitError) as exc:
                fit_chip(counts)
            assert str(exc.value) == (f"field {named!r} is outside [-1e+100, 1e+100], "
                                      f"where the model cannot be evaluated")

    def test_fields_outside_unit_flag(self):
        wide = synth_counts(FIG1_PARAMS, 100_000, seed=9, fields=tuple(np.linspace(-2, 2, 17)))
        assert "fields_outside_unit" in fit_qubit(wide, 0).flags
        assert "fields_outside_unit" not in fit_qubit(MIXED_CHIP, 0).flags

    def test_identical_counts_identical_results(self):
        base = synth_counts(FIG1_PARAMS, 100_000, seed=7)
        counts = RawCounts(
            h=base.h, samples=base.samples, counts={0: base.counts[0], 1: base.counts[0]}
        )
        results, _ = fit_chip(counts)
        assert results[0].params == results[1].params
        assert results[0].log_likelihood == results[1].log_likelihood

    def test_worker_count_invariance(self):
        truth = {q: QubitParams(10.54, 0.0025, 0.0367, 0.0176) for q in range(4)}
        d = SweepDesign(fields=field_grid(), samples_per_field=50_000, seed=2)
        from qasa import simulate_chip

        counts = simulate_chip(truth, d)
        serial, _ = fit_chip(counts, workers=1)
        parallel, _ = fit_chip(counts, workers=4)
        for q in serial:
            assert serial[q].params == parallel[q].params

    def test_fit_qubit_is_chip_fit_of_one_column(self):
        counts = MIXED_CHIP
        chip, _ = fit_chip(counts)
        for q in (0, 5, 11):
            assert fit_qubit(counts, q) == chip[q]

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
                for new, old in enumerate(part):
                    assert results[new] == reference[old]

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
        assert 0 in results and not failures
        with pytest.raises(FitError) as chip:
            fit_chip(few)
        with pytest.raises(FitError) as qubit:
            fit_qubit(few, 1)
        assert str(chip.value) == str(qubit.value) == \
            "need >= 8 distinct fields spanning h < 0 and h > 0, got 2 in [-0.5, 0.5]"


def _mixture_reference(h, theta, grad=False):
    """The mixture kernel as it was written before it reused its buffers,
    expression for expression: a fresh array per operation and every
    r < _R_EPS limit taken by np.where.  `_mixture` must give the same
    bits."""
    h = np.asarray(h, dtype=float)
    beta, b, eta, gamma = theta
    x = gamma * h
    T, om, op = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    dT = np.zeros((4,) + x.shape)
    for s in (+1.0, -1.0):
        c = h + b + s * eta
        r = np.hypot(x, c)
        tiny = r < _R_EPS
        safe_r = np.where(tiny, 1.0, r)
        f = np.tanh(beta * safe_r)
        if not grad:
            T += np.where(tiny, c * beta / 2.0, c * f / (2.0 * safe_r))
            continue
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
            f * x * x / (2.0 * safe_r**3) + beta * sech2 * c * c / (2.0 * safe_r**2),
        )
        B = np.where(tiny, 0.0, beta * sech2 / (2.0 * safe_r) - f / (2.0 * safe_r**2))
        dT[0] += np.where(tiny, c / 2.0, c * sech2 / 2.0)
        dT[1] += d_dc
        dT[2] += s * d_dc
        dT[3] += (c * x * h / safe_r) * B
    return (om, op, dT) if grad else T


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
    def make_fit(self, ids=(9, 2, 5)):
        n = len(ids)
        return estimator.ChipFit(
            ids,
            [(10.0 + q, q / 1000, 0.03, 0.02) for q in ids],
            [-0.5 - q for q in ids],
            [1, -1, 0][:n],
            np.full(n, 81),
            np.full(n, 81_000),
            [7, 0, 2][:n],
        )

    def test_rows_read_as_fit_results(self):
        fit = self.make_fit()
        assert fit.ids.tolist() == [2, 5, 9] == list(fit)
        assert len(fit) == 3
        assert fit[9] == estimator.FitResult(
            QubitParams(19.0, 0.009, 0.03, 0.02), -9.5, True, 81, 81_000,
            ("low_eta", "at_bound", "fields_outside_unit"),
        )
        assert fit[2].converged is None and fit[2].flags == ()
        assert fit[5].converged is False and fit[5].flags == ("at_bound",)
        assert 5 in fit and 3 not in fit
        with pytest.raises(KeyError):
            fit[3]
        assert self.make_fit(ids=()) == {}

    def test_chip_fit_sets_every_flag_in_order(self):
        d = SweepDesign(fields=field_grid(-1.5, 1.5, 0.025), samples_per_field=10**6, seed=3)
        fit, _ = fit_chip(simulate_chip({0: QubitParams(100.0, 0, 0, 0)}, d))
        assert fit.flags.tolist() == [7]
        assert fit[0].flags == estimator.FLAGS == ("low_eta", "at_bound", "fields_outside_unit")

    def test_columns_are_read_only_copies(self):
        ids = np.array([4, 1])
        fit = estimator.ChipFit(ids, np.ones((2, 4)), np.zeros(2), [1, 1], [8, 8], [80, 80], [0, 0])
        ids[0] = 7
        assert fit.ids.tolist() == [1, 4]
        for name in ("ids", "theta", "log_likelihood", "converged", "n_points", "total_samples", "flags"):
            column = getattr(fit, name)
            assert column.shape[0] == 2 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(AttributeError):
            fit.theta = np.zeros((2, 4))
        with pytest.raises(ValueError):
            estimator.ChipFit([1, 1], np.ones((2, 4)), np.zeros(2), [1, 1], [8, 8], [80, 80], [0, 0])

    def test_pipeline_builds_no_fit_result(self, tmp_path):
        from qasa import build_report, read_params, sweep_point, write_params, write_report
        from qasa.topology import ChimeraSpec

        def refuse(*args, **kwargs):
            raise AssertionError("a FitResult was built")

        spec = ChimeraSpec(grid=2, operational=frozenset(MIXED_CHIP.counts))
        with mock.patch.object(estimator, "FitResult", refuse):
            fit, failures = fit_chip(MIXED_CHIP)
            write_params(fit, spec, tmp_path / "params.csv")
            back = read_params(tmp_path / "params.csv")
            write_report(build_report(back, spec), tmp_path / "report.json")
            sweep_point(1.0, back)
        assert not failures and len(back) == 12
        assert back[11].params == fit[11].params
