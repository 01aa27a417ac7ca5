import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasa import QubitParams, SweepDesign, default_sweep, field_grid, sample_counts, simulate_chip
from qasa.simulator import MAX_FIELDS, CoverageError, DesignError, RawCounts
from qasa.topology import ChimeraSpec


def make_design(m, seed=0, fields=None):
    return SweepDesign(fields=fields or field_grid(), samples_per_field=m, seed=seed)


class TestSweepDesign:
    def test_default_sweep(self):
        d = default_sweep()
        assert len(d.fields) == 81
        assert d.fields[0] == -1.0
        assert d.fields[40] == 0.0
        assert d.fields[80] == 1.0
        assert d.samples_per_field == 5_000_000
        assert d.seed == 0

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(DesignError):
            SweepDesign(fields=(), samples_per_field=10)
        with pytest.raises(DesignError):
            SweepDesign(fields=(0.5, 0.5), samples_per_field=10)
        with pytest.raises(DesignError):
            SweepDesign(fields=(0.5, -0.5), samples_per_field=10)
        with pytest.raises(DesignError):
            SweepDesign(fields=(0.0, 0.5), samples_per_field=0)

    def test_coarse_grid(self):
        assert field_grid(h_step=0.5) == (-1.0, -0.5, 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"h_step": 0.0}, "h_step must be positive and finite, got 0.0"),
        ({"h_step": -0.5}, "h_step must be positive and finite, got -0.5"),
        ({"h_step": float("nan")}, "h_step must be positive and finite, got nan"),
        ({"h_step": float("inf")}, "h_step must be positive and finite, got inf"),
        ({"h_min": float("-inf")}, "h_min must be finite, got -inf"),
        ({"h_max": float("nan")}, "h_max must be finite, got nan"),
    ])
    def test_grid_rejects_non_finite_bounds_and_bad_steps(self, kwargs, message):
        with pytest.raises(DesignError) as exc:
            field_grid(**kwargs)
        assert str(exc.value) == message

    def test_grid_length_is_capped(self):
        # counted before anything is allocated, so a tiny step fails at once
        assert len(field_grid(0.0, MAX_FIELDS - 1.0, 1.0)) == MAX_FIELDS
        for kwargs, count in (({"h_min": 0.0, "h_max": float(MAX_FIELDS), "h_step": 1.0}, "100001"),
                              ({"h_step": 1e-12}, "2e+12"),
                              ({"h_min": -1e308, "h_max": 1e308, "h_step": 1e-300}, "inf")):
            with pytest.raises(DesignError) as exc:
                field_grid(**kwargs)
            assert str(exc.value) == f"field grid of {count} fields is longer than {MAX_FIELDS}"


class TestSampleCounts:
    def test_stream_layout_is_pinned(self):
        # one Philox stream per (seed, qubit id), fields drawn in order; a
        # change of stream layout changes these numbers and must edit them
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = SweepDesign(fields=(-0.5, -0.1, 0.0, 0.1, 0.5), samples_per_field=10_000, seed=7)
        assert np.array_equal(sample_counts(p, d, 3), [9999, 8568, 4858, 1235, 0])

    def test_determinism(self):
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = make_design(10_000, seed=7)
        assert np.array_equal(sample_counts(p, d, 3), sample_counts(p, d, 3))

    def test_seed_and_stream_sensitivity(self):
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = make_design(10_000, seed=7)
        assert not np.array_equal(sample_counts(p, d, 3), sample_counts(p, d, 4))
        assert not np.array_equal(
            sample_counts(p, d, 3), sample_counts(p, make_design(10_000, seed=8), 3)
        )

    def test_counts_within_bounds(self):
        p = QubitParams(10.0, 0, 0, 0)
        d = make_design(1000, seed=1)
        c = sample_counts(p, d, 0)
        assert np.all(c >= 0) and np.all(c <= 1000)

    def test_fair_coin_at_origin(self):
        p = QubitParams(10.0, 0, 0, 0)
        m = 1_000_000
        d = SweepDesign(fields=(0.0,), samples_per_field=m, seed=2)
        c = sample_counts(p, d, 0)[0]
        assert abs(c / m - 0.5) <= 3.0 / (2.0 * np.sqrt(m))

    def test_binomial_concentration(self):
        # empirical mean within 3 sigma of tanh(10h) for >= 99% of cells
        p = QubitParams(10.0, 0, 0, 0)
        m = 100_000
        hits = total = 0
        for seed in range(5):
            d = make_design(m, seed=seed)
            c = sample_counts(p, d, 0)
            mean = 1.0 - 2.0 * c / m
            target = np.tanh(10.0 * np.array(d.fields))
            sigma = np.sqrt(np.maximum(1.0 - target**2, 1e-30) / m)
            hits += int(np.sum(np.abs(mean - target) <= 3.0 * sigma))
            total += len(d.fields)
        assert hits / total >= 0.99

    def test_error_shrinks_with_samples(self):
        p = QubitParams(5.0, 0, 0, 0)
        devs = []
        for m in (10**3, 10**5, 10**7):
            d = SweepDesign(fields=(0.1,), samples_per_field=m, seed=11)
            c = sample_counts(p, d, 0)[0]
            p_minus = (1.0 - np.tanh(0.5)) / 2.0
            devs.append(abs(c / m - p_minus) * np.sqrt(m))
        # scaled deviation stays O(1) across four orders of magnitude in M
        assert max(devs) < 3.0


class TestSimulateChip:
    def test_shape_contract(self):
        spec = ChimeraSpec(grid=2)
        truth = {q: QubitParams(10.0, 0, 0, 0) for q in spec.operational}
        counts = simulate_chip(truth, make_design(1000), operational=spec.operational)
        assert counts.n_fields() == 81
        assert len(counts.qubit_ids) == 32

    def test_coverage_error(self):
        spec = ChimeraSpec(grid=2)
        truth = {q: QubitParams(10.0, 0, 0, 0) for q in list(sorted(spec.operational))[:-3]}
        with pytest.raises(CoverageError) as exc:
            simulate_chip(truth, make_design(100), operational=spec.operational)
        assert len(exc.value.missing) == 3

    def test_determinism_and_stream_independence(self):
        truth = {q: QubitParams(10.0, 0, 0, 0) for q in range(8)}
        d = make_design(10_000, seed=3)
        a = simulate_chip(truth, d)
        b = simulate_chip(truth, d)
        for q in range(8):
            assert np.array_equal(a.counts[q], b.counts[q])
        # identical params but distinct ids must give distinct count vectors
        vectors = {tuple(a.counts[q]) for q in range(8)}
        assert len(vectors) == 8

    def test_raw_counts_validation(self):
        with pytest.raises(ValueError):
            RawCounts(h=np.array([0.0]), samples=np.array([10]), counts={0: np.array([11])})
        with pytest.raises(ValueError):
            RawCounts(h=np.array([0.0]), samples=np.array([10]), counts={0: np.array([1, 2])})
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                RawCounts(h=np.array([0.0, bad]), samples=np.array([10, 10]), counts={})

    @pytest.mark.parametrize("samples, message", [
        ([100], r"samples has shape \(1,\), h has \(9,\)"),
        ([100] * 10, r"samples has shape \(10,\), h has \(9,\)"),
        ([100] * 8 + [0], "samples must be >= 1 per field, got 0"),
        ([100] * 8 + [-1], "samples must be >= 1 per field, got -1"),
    ])
    def test_raw_counts_need_one_sample_count_per_field(self, samples, message):
        # a short samples array once passed, and fit_chip then weighted
        # every field 1.0 and counted 100 samples in all
        with pytest.raises(ValueError, match=message):
            RawCounts(h=np.linspace(-1, 1, 9), samples=samples, counts={0: np.full(9, 50)})

    def test_raw_counts_errors_name_the_qubit(self):
        h, samples = np.array([0.0, 0.5]), np.array([10, 20])
        with pytest.raises(ValueError, match="qubit 7 outside"):
            RawCounts(h=h, samples=samples, counts={3: [10, 20], 7: [0, 21], 1: [-1, 0]})
        with pytest.raises(ValueError, match="qubit 1 has wrong length"):
            RawCounts(h=h, samples=samples, counts={3: [10, 20], 1: [0]})

    def test_raw_counts_are_read_only(self):
        h, samples = np.array([0.0, 0.5]), np.array([10, 20])
        given = {7: np.array([1, 2]), 3: np.array([3, 4])}
        counts = RawCounts(h=h, samples=samples, counts=given)
        with pytest.raises(TypeError):
            counts.counts[5] = np.array([1, 1])
        with pytest.raises(ValueError):
            counts.counts[3][0] = -1
        for a in (counts.h, counts.samples):
            with pytest.raises(ValueError):
                a[0] = 1
        assert counts.qubit_ids == [3, 7]
        assert counts.counts[7].tolist() == [1, 2]
        # the caller's arrays stay writable and are not aliased
        for a in (h, samples, *given.values()):
            a[0] = 0
        assert counts.counts[7].tolist() == [1, 2] and counts.samples.tolist() == [10, 20]

    def test_matches_per_qubit_sampling(self):
        # the chip's one batched kernel call draws what sample_counts draws
        rng = np.random.default_rng(12)
        truth = {
            q: QubitParams(rng.uniform(1, 100), rng.uniform(-0.2, 0.2), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            for q in range(16)
        }
        d = make_design(100_000, seed=5)
        chip = simulate_chip(truth, d)
        for q, p in truth.items():
            assert np.array_equal(chip.counts[q], sample_counts(p, d, q))


# qubit ids spread over 64 bits, including pairs that share their low 32 bits
SPLIT_IDS = (0, 1, 5, 7, 31, 2047, 2**31, 5 + 2**32, 7 + 2**32, 2**40, 2**63 - 1, 2**64 - 1)
_split_rng = np.random.default_rng(21)
SPLIT_TRUTH = {
    q: QubitParams(
        _split_rng.uniform(1, 60), _split_rng.uniform(-0.1, 0.1),
        _split_rng.uniform(0, 0.1), _split_rng.uniform(0, 0.1),
    )
    for q in SPLIT_IDS
}
SPLIT_DESIGN = SweepDesign(fields=field_grid(h_step=0.1), samples_per_field=50_000, seed=13)
SPLIT_CHIP = simulate_chip(SPLIT_TRUTH, SPLIT_DESIGN)


class TestStreamLayout:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SPLIT_IDS), min_size=1, max_size=len(SPLIT_IDS), unique=True))
    def test_any_subset_in_any_order_draws_the_same_columns(self, ids):
        truth = {q: SPLIT_TRUTH[q] for q in ids}
        part = simulate_chip(truth, SPLIT_DESIGN, operational=ids)
        assert part.qubit_ids == sorted(ids)
        for q in ids:
            assert np.array_equal(part.counts[q], SPLIT_CHIP.counts[q])
            assert np.array_equal(part.counts[q], sample_counts(SPLIT_TRUTH[q], SPLIT_DESIGN, q))

    def test_ids_equal_in_low_32_bits_draw_different_columns(self):
        # the key holds all 64 bits of the id: ids equal in their low 32 bits
        # get their own streams, and ids near 2**64 are not rounded together
        p = QubitParams(10.0, 0, 0, 0)
        d = make_design(10_000, seed=3)
        ids = (5, 5 + 2**32, 2**64 - 2, 2**64 - 1)
        chip = simulate_chip({q: p for q in ids}, d)
        assert len({tuple(chip.counts[q]) for q in ids}) == len(ids)
