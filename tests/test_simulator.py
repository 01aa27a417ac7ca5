import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasa import QubitParams, SweepDesign, field_grid, read_raw, simulate_chip, write_raw
from qasa.model import _theta
from qasa.presets import HV_HORIZONTAL, HV_VERTICAL, MEDIAN, preset_truth
from qasa.simulator import MAX_FIELDS, CoverageError, DesignError, RawCounts, _p_minus
from qasa.topology import ChimeraSpec, sites


def make_design(m, seed=0, fields=None):
    return SweepDesign(fields=fields or field_grid(), samples_per_field=m, seed=seed)


def draw_one(p, design, q):
    """Qubit q's tallies, drawn as a chip of that one qubit."""
    return simulate_chip(([q], [p.astuple()]), design).table[0]


class TestSweepDesign:
    def test_default_field_grid(self):
        fields = field_grid()
        assert len(fields) == 81
        assert fields[0] == -1.0
        assert fields[40] == 0.0
        assert fields[80] == 1.0

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
    """The tallies of one qubit, drawn by `draw_one`."""

    def test_stream_layout_is_pinned(self):
        # one Philox stream per (seed, qubit id), fields drawn in order; a
        # change of stream layout changes these numbers and must edit them
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = SweepDesign(fields=(-0.5, -0.1, 0.0, 0.1, 0.5), samples_per_field=10_000, seed=7)
        assert np.array_equal(draw_one(p, d, 3), [9999, 8568, 4858, 1235, 0])

    def test_determinism(self):
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = make_design(10_000, seed=7)
        assert np.array_equal(draw_one(p, d, 3), draw_one(p, d, 3))

    def test_seed_and_stream_sensitivity(self):
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = make_design(10_000, seed=7)
        assert not np.array_equal(draw_one(p, d, 3), draw_one(p, d, 4))
        assert not np.array_equal(
            draw_one(p, d, 3), draw_one(p, make_design(10_000, seed=8), 3)
        )

    def test_counts_within_bounds(self):
        p = QubitParams(10.0, 0, 0, 0)
        d = make_design(1000, seed=1)
        c = draw_one(p, d, 0)
        assert np.all(c >= 0) and np.all(c <= 1000)

    def test_fair_coin_at_origin(self):
        p = QubitParams(10.0, 0, 0, 0)
        m = 1_000_000
        d = SweepDesign(fields=(0.0,), samples_per_field=m, seed=2)
        c = draw_one(p, d, 0)[0]
        assert abs(c / m - 0.5) <= 3.0 / (2.0 * np.sqrt(m))

    def test_binomial_concentration(self):
        # empirical mean within 3 sigma of tanh(10h) for >= 99% of cells
        p = QubitParams(10.0, 0, 0, 0)
        m = 100_000
        hits = total = 0
        for seed in range(5):
            d = make_design(m, seed=seed)
            c = draw_one(p, d, 0)
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
            c = draw_one(p, d, 0)[0]
            p_minus = (1.0 - np.tanh(0.5)) / 2.0
            devs.append(abs(c / m - p_minus) * np.sqrt(m))
        # scaled deviation stays O(1) across four orders of magnitude in M
        assert max(devs) < 3.0


class TestSimulateChip:
    def test_shape_contract(self):
        spec = ChimeraSpec(grid=2)
        truth = {q: QubitParams(10.0, 0, 0, 0) for q in spec.operational}
        counts = simulate_chip(truth, make_design(1000), operational=spec.operational)
        assert counts.h.size == 81
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

    @pytest.mark.parametrize("q", [-1, 2**64, 2**64 + 1, -(2**63)])
    def test_ids_outside_64_bits_are_refused(self, q):
        # an id is its stream's 64-bit key: 2**64 + 1 once drew id 1's column
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = make_design(1000, seed=3)
        message = rf"qubit id {q} outside \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=message):
            simulate_chip(([1, q], np.array([p.astuple()] * 2)), d)
        with pytest.raises(ValueError, match=message):
            draw_one(p, d, q)
        with pytest.raises(ValueError, match=message):
            RawCounts(np.array([0.0, 0.5]), np.array([10, 20]), ([1, q], [[1, 2], [3, 4]]))

    def test_equality_is_identity(self):
        # the generated == would compare the array fields inside a tuple
        # and raise on their ambiguous truth value
        a = RawCounts(np.array([0.0, 0.5]), np.array([10, 20]), {3: [1, 2]})
        b = RawCounts(np.array([0.0, 0.5]), np.array([10, 20]), {3: [1, 2]})
        assert (a == b) is False and (a == a) is True and (a != b) is True

    def test_matches_per_qubit_sampling(self):
        # the chip's one batched kernel call draws what each qubit draws alone
        rng = np.random.default_rng(12)
        truth = {
            q: QubitParams(rng.uniform(1, 100), rng.uniform(-0.2, 0.2), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            for q in range(16)
        }
        d = make_design(100_000, seed=5)
        chip = simulate_chip(truth, d)
        for q, p in truth.items():
            assert np.array_equal(chip.counts[q], draw_one(p, d, q))


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
            assert np.array_equal(part.counts[q], draw_one(SPLIT_TRUTH[q], SPLIT_DESIGN, q))

    def test_ids_equal_in_low_32_bits_draw_different_columns(self):
        # the key holds all 64 bits of the id: ids equal in their low 32 bits
        # get their own streams, and ids near 2**64 are not rounded together
        p = QubitParams(10.0, 0, 0, 0)
        d = make_design(10_000, seed=3)
        ids = (5, 5 + 2**32, 2**64 - 2, 2**64 - 1)
        chip = simulate_chip({q: p for q in ids}, d)
        assert len({tuple(chip.counts[q]) for q in ids}) == len(ids)


M64 = 2**64 - 1


def fresh_stream(seed, q, n, p_minus):
    """The tallies a new bit generator keyed (seed, q) draws."""
    key = np.array([seed & M64, q & M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).binomial(n, p_minus)


def p_minus_of(p, design):
    return _p_minus(_theta(p), design)[0]


REKEY_PARAMS = (
    QubitParams(10.54, 0.0025, 0.0367, 0.0176),
    QubitParams(60.0, -0.1, 0.0, 0.1),
    QubitParams(1.0, 0.1, 0.1, 0.0),
)
# any 64-bit ids, joined with a run of ids equal in their low 32 bits
REKEY_IDS = st.builds(
    lambda any_ids, low, highs: sorted(set(any_ids) | {high << 32 | low for high in highs}),
    st.lists(st.integers(0, M64), max_size=6),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)


class TestRekeyedStream:
    # one bit generator is re-keyed per qubit; each column must be what a
    # bit generator built for that qubit alone draws

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2**63, M64), ids=REKEY_IDS, n=st.sampled_from((50, 10_000, 5_000_000)),
           data=st.data())
    def test_columns_equal_a_fresh_bit_generator(self, seed, ids, n, data):
        d = SweepDesign(fields=field_grid(h_step=0.25), samples_per_field=n, seed=seed)
        truth = {q: data.draw(st.sampled_from(REKEY_PARAMS)) for q in ids}
        chip = simulate_chip(truth, d)
        for q, p in truth.items():
            expected = fresh_stream(seed, q, n, p_minus_of(p, d))
            assert np.array_equal(chip.counts[q], expected)
            assert np.array_equal(draw_one(p, d, q), expected)

    @pytest.mark.parametrize("n", [50, 5_000_000])  # binomial by inversion, then by BTPE
    @pytest.mark.parametrize("h", [-0.05, 0.05])  # p_minus above and below 1/2
    def test_identical_qubits_on_one_field(self, n, h):
        # every qubit draws with the same (n, p), so numpy's binomial set-up
        # cache carries over from one re-key to the next
        p = QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        d = SweepDesign(fields=(h,), samples_per_field=n, seed=2**63 + 9)
        ids = range(64)
        chip = simulate_chip({q: p for q in ids}, d)
        pm = p_minus_of(p, d)
        for q in ids:
            assert np.array_equal(chip.counts[q], fresh_stream(d.seed, q, n, pm))
        assert len({int(chip.counts[q][0]) for q in ids}) > 1


class TestParameterTable:
    # truth reaches the simulator as (ids, theta), and RawCounts holds one table

    def test_mapping_and_table_truth_draw_the_same_counts(self):
        ids = sorted(SPLIT_TRUTH)
        theta = np.array([SPLIT_TRUTH[q].astuple() for q in ids])
        for operational in (None, SPLIT_IDS[3:], SPLIT_IDS[::-2]):
            a = simulate_chip(SPLIT_TRUTH, SPLIT_DESIGN, operational)
            # rows in any order: a row goes with its id
            b = simulate_chip((ids[::-1], theta[::-1]), SPLIT_DESIGN, operational)
            assert a.qubit_ids == b.qubit_ids == sorted(operational or SPLIT_IDS)
            assert all(type(q) is int for q in b.qubit_ids)
            for name in ("h", "samples", "table"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(b.counts[2**64 - 1], SPLIT_CHIP.counts[2**64 - 1])

    def test_table_truth_is_checked(self):
        d = make_design(100)
        with pytest.raises(CoverageError):
            simulate_chip(([0, 1], np.full((2, 4), 0.5)), d, operational=[0, 2])
        with pytest.raises(ValueError, match="beta must be positive"):
            simulate_chip(([0, 1], [[10.0, 0, 0, 0], [-1.0, 0, 0, 0]]), d)
        with pytest.raises(ValueError, match=r"truth theta has shape \(4, 2\)"):
            simulate_chip(([0, 1], np.ones((4, 2))), d)

    def test_table_counts(self):
        h, samples = np.array([0.0, 0.5]), np.array([10, 20])
        rows = np.asfortranarray([[1, 2], [3, 4], [5, 6]])
        counts = RawCounts(h, samples, (np.array([7, 3, 9], dtype=np.uint64), rows))
        assert counts.qubit_ids == [3, 7, 9] and all(type(q) is int for q in counts.qubit_ids)
        assert counts.table.tolist() == [[3, 4], [1, 2], [5, 6]]
        assert counts.table.flags.c_contiguous and not counts.table.flags.writeable
        assert np.shares_memory(counts.counts[9], counts.table)
        mapped = RawCounts(h, samples, {q: rows[i] for i, q in enumerate((7, 3, 9))})
        assert np.array_equal(mapped.table, counts.table)
        rows[0, 0] = 0  # the caller's table is copied
        assert counts.counts[7].tolist() == [1, 2]
        # an already sorted C-order table is copied too
        rows = np.array([[1, 2], [3, 4]])
        counts = RawCounts(h, samples, ([3, 7], rows))
        rows[0, 0] = 0
        assert counts.counts[3].tolist() == [1, 2] and rows.flags.writeable

    def test_read_raw_table_is_c_contiguous(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_raw(SPLIT_CHIP, path)
        back = read_raw(path)
        assert back.table.flags.c_contiguous and not back.table.flags.writeable
        assert np.array_equal(back.table, SPLIT_CHIP.table) and back.qubit_ids == list(SPLIT_IDS)

    @pytest.mark.parametrize("ids, rows", [
        ([3, 3], [[1, 2], [3, 4]]),  # a duplicate id
        ([3, 7], [[1, 2]]),  # fewer rows than ids
        ([3], [[1, 2], [3, 4]]),  # more rows than ids
        ([3, 7], np.zeros((2, 3), dtype=int)),  # rows longer than h
        ([3, 7], np.zeros(4, dtype=int)),  # one flat row
        ([3, 7], np.zeros((2, 2, 1), dtype=int)),
    ])
    def test_table_counts_rejected(self, ids, rows):
        with pytest.raises(ValueError):
            RawCounts(np.array([0.0, 0.5]), np.array([10, 20]), (ids, rows))


class TestPresets:
    def test_preset_rows_follow_orientation(self):
        spec = ChimeraSpec(grid=2, operational=[13, 0, 4, 31, 9])
        ids, theta = preset_truth("hv-split", spec)
        assert ids == [0, 4, 9, 13, 31]
        vertical = sites(ids, spec)[3]
        assert theta.tolist() == [list((HV_VERTICAL if v else HV_HORIZONTAL).astuple()) for v in vertical]
        ids, theta = preset_truth("median", spec)
        assert theta.tolist() == [list(MEDIAN.astuple())] * 5
        assert preset_truth("median", ChimeraSpec(grid=1, operational=[]))[1].shape == (0, 4)
        with pytest.raises(ValueError, match="unknown preset 'flat'"):
            preset_truth("flat", spec)
