import csv
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qasa import (
    QubitParams,
    SweepDesign,
    build_report,
    field_grid,
    fit_chip,
    read_params,
    read_raw,
    simulate_chip,
    write_params,
    write_raw,
    write_report,
)
from qasa.data_io import (
    PARAMS_HEADER,
    FormatError,
    _decimal_rows,
    _parse_params,
    _parse_rows,
    _read_param_rows,
    _read_rows,
    format_field,
    raw_to_bytes,
)
from qasa.estimator import ChipFit
from qasa.simulator import RawCounts
from qasa.topology import ChimeraSpec


def random_counts(rng, n_fields=None, n_qubits=None, degenerate=False):
    n_fields = n_fields or rng.integers(8, 30)
    n_qubits = n_qubits or rng.integers(1, 6)
    h = np.sort(rng.choice(np.round(np.arange(-1, 1.025, 0.025), 3), n_fields, replace=False))
    samples = rng.integers(1, 10**6, n_fields)
    ids = sorted(rng.choice(2048, n_qubits, replace=False).tolist())
    counts = {}
    for q in ids:
        c = rng.integers(0, samples + 1)
        if degenerate:
            c[0] = 0
            c[-1] = samples[-1]
        counts[q] = c
    return RawCounts(h=h, samples=samples, counts=counts)


@st.composite
def raw_files(draw):
    """(ids, text) of a well-formed raw CSV whose cells use spellings that
    int() and float() take and loadtxt should too: duplicate h, -0 and 0,
    space padding, a leading +, blank lines and CRLF."""
    ids = draw(st.lists(st.integers(0, 2047), min_size=1, max_size=4, unique=True))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    h_cells = st.sampled_from(["0", "-0", "0.0", "-0.0", "0.5", "+0.5", ".5", "-0.025", "1e-3", "-1"])
    pads = st.sampled_from(["", " "])
    lines = ["h,samples," + ",".join(f"spin_{q}" for q in ids)]
    for _ in range(draw(st.integers(1, 6))):
        samples = draw(st.integers(1, 10**12))
        numbers = [samples, *(draw(st.integers(0, samples)) for _ in ids)]
        cells = [draw(h_cells), *(draw(st.sampled_from(["", "+"])) + str(v) for v in numbers)]
        lines += [""] * draw(st.integers(0, 1))
        lines.append(",".join(draw(pads) + cell + draw(pads) for cell in cells))
    return ids, newline.join(lines) + newline


def _float_cells(values):
    """Spellings of a float that float() and loadtxt both take."""
    return values.flatmap(lambda v: st.sampled_from(
        [repr(v), f"{v:.17e}", (" " + repr(v) + " ")] + (["+" + repr(v)] if repr(v)[0] != "-" else [])))


@st.composite
def params_files(draw, in_domain=True):
    """(header, text) of a well-formed params table: a 5-, 9- or 13-column
    header or one with an extra column, ids with leading zeros, floats in
    several spellings, non-finite log-likelihoods, signed and padded
    counts, every converged cell, blank lines and CRLF.  Unless
    `in_domain`, one parameter cell holds any float, NaN and infinities
    included."""
    header = draw(st.sampled_from([
        PARAMS_HEADER[:5], PARAMS_HEADER[:9], PARAMS_HEADER, PARAMS_HEADER[:5] + ["note"],
    ]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ids = draw(st.lists(st.integers(0, 10**17), min_size=1, max_size=5, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    nonneg = st.floats(0.0, 1.0) | st.just(-0.0)
    cells = {
        "beta": _float_cells(st.floats(1e-300, 1e300)),
        "b": _float_cells(finite),
        "eta": _float_cells(nonneg),
        "gamma": _float_cells(nonneg),
        "log_likelihood": _float_cells(finite) | st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN"]),
        "n_points": st.integers(-(2**63) + 1, 2**63 - 1).map(str) | st.sampled_from(["+81", " 81 "]),
        "total_samples": st.integers(0, 2**63 - 1).map(str),
        "converged": st.sampled_from(["true", "false", ""]),
        "row": st.just("3"), "col": st.just("0"), "k": st.just("7"),
        "orientation": st.sampled_from(["vertical", "horizontal"]),
        "note": st.sampled_from(["", "x", "a b", "é"]),
    }
    wild = None if in_domain else (draw(st.sampled_from(ids)), draw(st.sampled_from(PARAMS_HEADER[1:5])))
    anywhere = _float_cells(st.floats() | st.sampled_from([np.inf, -np.inf, np.nan]))
    lines = [",".join(header)]
    for q in ids:
        lines += [""] * draw(st.integers(0, 1))
        q_cell = "0" * draw(st.integers(0, 18 - len(str(q)))) + str(q)
        lines.append(",".join([q_cell] + [draw(anywhere if (q, name) == wild else cells[name]) for name in header[1:]]))
    return header, newline.join(lines) + newline


class TestFormatField:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0"), (-1.0, "-1"), (0.025, "0.025"), (0.5, "0.5"), (-0.975, "-0.975")],
    )
    def test_canonical(self, value, expected):
        assert format_field(value) == expected

    def test_grid_round_trips(self):
        for h in np.arange(-1, 1.025, 0.025):
            h = round(h, 12)
            assert float(format_field(h)) == h


class TestRawRoundTrip:
    def test_single_row(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("h,samples,spin_0\n0.0,100,50\n")
        counts = read_raw(path)
        assert counts.qubit_ids == [0]
        assert counts.samples[0] == 100
        assert (100 - 2 * counts.counts[0][0]) / 100 == 0.0

    def test_duplicate_h_rows_are_summed(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("h,samples,spin_3\n0.5,10000,400\n0.5,10000,420\n")
        counts = read_raw(path)
        assert counts.n_fields() == 1
        assert counts.samples[0] == 20000
        assert counts.counts[3][0] == 820

    def test_column_order_insensitive(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("h,samples,spin_5,spin_2\n0.0,10,4,6\n")
        counts = read_raw(path)
        assert counts.qubit_ids == [2, 5]
        assert counts.counts[2][0] == 6
        assert counts.counts[5][0] == 4

    def test_write_then_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(20):
            counts = random_counts(rng, degenerate=(i % 3 == 0))
            path = tmp_path / f"c{i}.csv"
            write_raw(counts, path)
            again = read_raw(path)
            assert raw_to_bytes(again) == path.read_bytes()

    def test_writes_are_byte_stable(self, tmp_path):
        counts = random_counts(np.random.default_rng(1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_raw(counts, a)
        write_raw(counts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_read_in_field_order(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("h,samples,spin_0\n0.5,10,1\n-0.5,20,2\n0.25,30,3\n")
        counts = read_raw(path)
        assert counts.h.tolist() == [-0.5, 0.25, 0.5]
        assert counts.samples.tolist() == [20, 30, 10] and counts.counts[0].tolist() == [2, 3, 1]

    def test_duplicate_zero_keeps_first_sign(self, tmp_path):
        # -0 and 0 are one field; the merged row keeps the sign read first
        for first, second in (("-0", "0"), ("0", "-0")):
            path = tmp_path / "raw.csv"
            path.write_text(f"h,samples,spin_1\n0.5,10,1\n0.5,10,1\n{first},10,2\n{second},5,3\n")
            counts = read_raw(path)
            assert raw_to_bytes(counts).decode() == f"h,samples,spin_1\n{first},15,5\n0.5,20,2\n"

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("h,samples,spin_9,spin_0\n")
        counts = read_raw(path)
        assert counts.n_fields() == 0
        assert counts.qubit_ids == [0, 9]
        write_raw(counts, path)
        assert path.read_text() == "h,samples,spin_0,spin_9\n"
        assert raw_to_bytes(read_raw(path)) == path.read_bytes()

    def test_empty_qubit_set(self, tmp_path):
        counts = RawCounts(h=np.array([0.0]), samples=np.array([10]), counts={})
        path = tmp_path / "empty.csv"
        write_raw(counts, path)
        assert path.read_text() == "h,samples\n0,10\n"


def per_cell_raw_bytes(counts):
    """The reference raw CSV rendering: str() on every cell."""
    lines = ["h,samples" + "".join(f",spin_{q}" for q in counts.qubit_ids)]
    table = np.column_stack([counts.samples, *(counts.counts[q] for q in counts.qubit_ids)])
    for h, row in zip(counts.h, table.tolist()):
        lines.append(format_field(h) + "," + ",".join(map(str, row)))
    return ("\n".join(lines) + "\n").encode()


# cells at each change of digit count and at the ends of 32 and 64 bits
EDGE_CELLS = [0, 9, 10, 99, 100, 2**32 - 1, 2**32, 2**63 - 1]


class TestBulkRawRendering:
    """raw_to_bytes renders the count table from decimal digit planes; it
    must give the bytes str() gives each cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(0, 6), st.integers(0, 5)).flatmap(
        lambda shape: hnp.arrays(np.int64, (shape[0], 1 + shape[1]),
                                 elements=st.sampled_from(EDGE_CELLS) | st.integers(0, 2**63 - 1))))
    def test_rows_match_str(self, table):
        # a samples column and zero or more spin columns
        assert _decimal_rows(table) == [(",".join(map(str, row)) + "\n").encode()
                                        for row in table.tolist()]

    def test_chip_sized_table_matches_per_cell_rendering(self):
        rng = np.random.default_rng(15)
        n_fields, n_qubits = 81, 2032  # chimera:16 at the paper's sweep
        samples = 10 ** rng.integers(0, 19, size=n_fields)
        samples[:3] = [1, 2**32, 2**63 - 1]
        table = rng.integers(0, samples, size=(n_qubits, n_fields), endpoint=True)
        table[:len(EDGE_CELLS)] = np.array(EDGE_CELLS)[:, None]  # clipped below to the samples
        table[-2], table[-1] = samples, samples - 1
        counts = RawCounts(h=np.array(field_grid()), samples=samples,
                           counts=dict(enumerate(np.minimum(table, samples))))
        assert raw_to_bytes(counts) == per_cell_raw_bytes(counts)
        m5e6 = RawCounts(h=np.array(field_grid()), samples=np.full(n_fields, 5_000_000),
                         counts=dict(enumerate(rng.integers(0, 5_000_001, size=(n_qubits, n_fields)))))
        assert raw_to_bytes(m5e6) == per_cell_raw_bytes(m5e6)


class TestRawParsers:
    """read_raw parses the data rows in one np.loadtxt call and falls back
    to the row-by-row reader when that fails; both must read alike."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw_files())
    def test_table_parse_matches_row_reader(self, tmp_path, case):
        ids, text = case
        # a new file per example: truncating one is slow on some filesystems
        fd, path = tempfile.mkstemp(suffix=".csv", dir=tmp_path)
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode())
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            parsed = _parse_rows(fh, len(ids) + 2)
        assert parsed is not None
        (h, table), (h_rows, table_rows) = parsed, _read_rows(path, ids, len(ids) + 2)
        assert np.array_equal(h, h_rows) and np.array_equal(np.signbit(h), np.signbit(h_rows))
        assert table.dtype == table_rows.dtype and np.array_equal(table, table_rows)

    @pytest.mark.parametrize(
        "row,expected",
        [
            ("0.5,20,1_0", (0.5, 20, 10)),
            ("1_0,20,3", (10.0, 20, 3)),
            ("0.5,20,٣", (0.5, 20, 3)),
            ("0.5,2٠,3", (0.5, 20, 3)),
            ('0.5,20,"3"', (0.5, 20, 3)),
            ('"0.5","20",3', (0.5, 20, 3)),
        ],
    )
    def test_cells_only_the_row_reader_takes(self, tmp_path, row, expected):
        path = tmp_path / "raw.csv"
        path.write_text(f"h,samples,spin_4\n{row}\n")
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            assert _parse_rows(fh, 3) is None
        counts = read_raw(path)
        assert (counts.h[0], counts.samples[0], counts.counts[4][0]) == expected

    @pytest.mark.parametrize("name", ["spin_1_0", "spin_ 3", "spin_٣٤", "spin_+3", "spin_-1", "spin_3 "])
    def test_rejects_non_decimal_qubit_ids(self, tmp_path, name):
        path = tmp_path / "raw.csv"
        path.write_text(f"h,samples,{name}\n0.5,10,3\n")
        with pytest.raises(FormatError, match=re.escape(f":1: bad qubit id in column name {name!r}")):
            read_raw(path)


class TestRawErrors:
    @pytest.mark.parametrize(
        "body,line",
        [
            ("x,samples,spin_0\n", 1),
            ("h,samples,qubit_0\n", 1),
            ("h,samples,spin_0\n0.0,100,101\n", 2),
            ("h,samples,spin_0\n0.0,100,-1\n", 2),
            ("h,samples,spin_0\n0.0,abc,5\n", 2),
            ("h,samples,spin_0\nxyz,100,5\n", 2),
            ("h,samples,spin_0\n0.0,100\n", 2),
            ("h,samples,spin_0\n0.0,100,5\n0.1,100,nope\n", 3),
            ('h,samples,spin_0\n0.0,100,5\n0.1,100,"1,0"\n', 3),
            ("h,samples,spin_0\n0.0,100,5\nnan,100,5\n", 3),
            ("h,samples,spin_0\ninf,100,5\n", 2),
            ("h,samples,spin_0\n0.5,5000000000000000000,0\n0.5,5000000000000000000,0\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(FormatError) as exc:
            read_raw(path)
        assert f":{line}:" in str(exc.value)

    @pytest.mark.parametrize(
        "cells,message",
        [
            ("101,x", "count 101 outside [0, 100] for qubit 3"),
            ("x,101", "non-integer count 'x' for qubit 3"),
        ],
    )
    def test_first_bad_count_in_column_order_is_named(self, tmp_path, cells, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"h,samples,spin_3,spin_7\n0.0,100,5,6\n0.1,100,{cells}\n")
        with pytest.raises(FormatError) as exc:
            read_raw(path)
        assert str(exc.value) == f"{path}:3: {message}"


class TestParamsTable:
    def make_results(self, converged=(1, 1, 1)):
        ids = [0, 5, 17]
        return ChipFit(
            ids,
            [QubitParams(10.5 + 0.01 * q, 0.002, 0.036, 0.017).astuple() for q in ids],
            np.full(3, -1.25),
            converged,
            np.full(3, 81),
            np.full(3, 81 * 1000),
            np.zeros(3),
        )

    def test_round_trip(self, tmp_path):
        spec = ChimeraSpec(grid=2)
        path = tmp_path / "params.csv"
        results = self.make_results()
        write_params(results, spec, path)
        again = read_params(path)
        assert sorted(again) == [0, 5, 17]
        for q in again:
            assert again[q].params == results[q].params
            assert again[q].log_likelihood == results[q].log_likelihood
            assert again[q].converged

    def test_chip_fit_round_trips_column_by_column(self, tmp_path):
        truth = {q: QubitParams(10.54 + 0.1 * q, 0.0025, 0.0367, 0.0176) for q in (3, 8, 12, 30)}
        d = SweepDesign(fields=field_grid(), samples_per_field=100_000, seed=11)
        fit, failures = fit_chip(simulate_chip(truth, d))
        assert not failures and not fit.flags.any()  # the table holds no flags
        path = tmp_path / "params.csv"
        write_params(fit, ChimeraSpec(grid=2), path)
        again = read_params(path)
        for name in ("ids", "theta", "log_likelihood", "converged", "n_points", "total_samples", "flags"):
            a, b = getattr(fit, name), getattr(again, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_header_prefix_and_layout_columns(self, tmp_path):
        spec = ChimeraSpec(grid=2)
        path = tmp_path / "params.csv"
        write_params(self.make_results(), spec, path)
        header, first = path.read_text().splitlines()[:2]
        assert header.startswith("qubit_id,beta,b,eta,gamma")
        assert first.split(",")[0] == "0"
        assert first.split(",")[-1] in ("vertical", "horizontal")

    def test_reads_plain_truth_table(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("qubit_id,beta,b,eta,gamma\n0,10.54,0.0025,0.0367,0.0176\n")
        results = read_params(path)
        assert results[0].params == QubitParams(10.54, 0.0025, 0.0367, 0.0176)
        assert results[0].converged is None

    def test_converged_round_trips_unknown(self, tmp_path):
        spec = ChimeraSpec(grid=2)
        path = tmp_path / "params.csv"
        results = self.make_results(converged=(1, -1, 0))
        write_params(results, spec, path)
        assert path.read_text().splitlines()[2].split(",")[8] == ""
        again = read_params(path)
        assert [again[q].converged for q in (0, 5, 17)] == [True, None, False]

    def test_rejects_unknown_converged_cell(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text(
            "qubit_id,beta,b,eta,gamma,log_likelihood,n_points,total_samples,converged\n"
            "0,10,0,0.1,0,-1.0,81,81000,true\n"
            "1,10,0,0.1,0,-1.0,81,81000,yes\n"
        )
        with pytest.raises(FormatError) as exc:
            read_params(path)
        assert ":3:" in str(exc.value)

    def test_rejects_converged_cell_with_a_nul(self, tmp_path):
        # numpy drops a trailing NUL from a string, csv keeps it
        path = tmp_path / "params.csv"
        path.write_text("qubit_id,beta,b,eta,gamma,converged\n0,10,0,0.1,0,true\n1,10,0,0.1,0,true\0\n")
        with pytest.raises(FormatError, match=re.escape(":3: converged must be true, false or empty, got 'true\\x00'")):
            read_params(path)

    @pytest.mark.parametrize(
        "header,row",
        [
            ("qubit_id,beta,b,eta,gamma", "1,10,0.0,0.03"),
            ("qubit_id,beta,b,eta,gamma", "1,10,0.0,0.03,0.01,7"),
            ("qubit_id,beta,b,eta,gamma,log_likelihood", "1,10,0.0,0.03,0.01,abc"),
            ("qubit_id,beta,b,eta,gamma,n_points", "1,10,0.0,0.03,0.01,8x"),
            ("qubit_id,beta,b,eta,gamma,total_samples", "1,10,0.0,0.03,0.01,1.5"),
            ("qubit_id,beta,b,eta,gamma,n_points", "1,10,0.0,0.03,0.01,9223372036854775808"),
            ("qubit_id,beta,b,eta,gamma,n_points", "1,10,0.0,0.03,0.01,-9223372036854775808"),
            ("qubit_id,beta,b,eta,gamma", "9223372036854775808,10,0.0,0.03,0.01"),
            # loadtxt would split the quoted cell into the two cells csv counts as one
            ("qubit_id,beta,b,eta,gamma,note,other", '1,10,0.0,0.03,0.01,"a,b"'),
        ],
    )
    def test_rejects_short_rows_and_bad_cells(self, tmp_path, header, row):
        path = tmp_path / "params.csv"
        first = "0,10,0,0.1,0" + ",1" * (header.count(",") - 4)
        path.write_text(f"{header}\n{first}\n{row}\n")
        with pytest.raises(FormatError) as exc:
            read_params(path)
        assert ":3:" in str(exc.value)

    @pytest.mark.parametrize("cell", ["1_0", " 3", "3 ", "٣٤", "+3", "-1", "3\0"])
    def test_rejects_non_decimal_qubit_ids(self, tmp_path, cell):
        path = tmp_path / "params.csv"
        path.write_text(f"qubit_id,beta,b,eta,gamma\n0,10,0,0.1,0\n{cell},10,0,0.1,0\n")
        with pytest.raises(FormatError, match=re.escape(f":3: bad qubit id {cell!r}")):
            read_params(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("qubit_id,beta,b,eta,gamma\n\n0,10,0,0.1,0\n0,11,0,0.1,0\n")
        with pytest.raises(FormatError) as exc:
            read_params(path)
        assert ":4:" in str(exc.value)

    def test_rejects_bad_header_and_duplicates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("qubit,beta,b,eta,gamma\n0,10,0,0,0\n")
        with pytest.raises(FormatError):
            read_params(path)
        path.write_text("qubit_id,beta,b,eta,gamma\n0,10,0,0.1,0\n0,11,0,0.1,0\n")
        with pytest.raises(FormatError) as exc:
            read_params(path)
        assert ":3:" in str(exc.value)
        # a row dict would read beta from the last of the two columns
        path.write_text("qubit_id,beta,b,eta,gamma,beta\n0,10,0.0,0.03,0.02,55\n")
        with pytest.raises(FormatError) as exc:
            read_params(path)
        assert str(exc.value) == f"{path}:1: duplicate column beta"


class TestParamsParsers:
    """read_params parses the data rows in one np.loadtxt call and falls
    back to the row-by-row reader when that fails; both must read alike."""

    @staticmethod
    def _both(tmp_path, case):
        """What _parse_params makes of a table, and the file it was written to."""
        header, text = case
        fd, path = tempfile.mkstemp(suffix=".csv", dir=tmp_path)
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode())
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            return _parse_params(fh.read(), header), path

    @staticmethod
    def _assert_same(parsed, rows):
        flags = np.zeros(len(parsed[0]), dtype=np.uint8)
        table, by_row = ChipFit(*parsed, flags), ChipFit(*rows, flags)
        for name in ("ids", "theta", "log_likelihood", "converged", "n_points", "total_samples"):
            a, b = getattr(table, name), getattr(by_row, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params_files())
    def test_table_parse_matches_row_reader(self, tmp_path, case):
        parsed, path = self._both(tmp_path, case)
        assert parsed is not None
        self._assert_same(parsed, _read_param_rows(path, case[0]))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params_files(in_domain=False))
    def test_table_checks_refuse_what_the_row_reader_refuses(self, tmp_path, case):
        parsed, path = self._both(tmp_path, case)
        try:
            rows = _read_param_rows(path, case[0])
        except FormatError:
            assert parsed is None
        else:
            assert parsed is not None
            self._assert_same(parsed, rows)

    @pytest.mark.parametrize(
        "header,row,expected",
        [
            (PARAMS_HEADER[:5], "0,1_0,0,0.1,0", (0, 10.0, -1, 0, float("nan"))),
            (PARAMS_HEADER[:5], '0,"10",0,0.1,0', (0, 10.0, -1, 0, float("nan"))),
            (PARAMS_HEADER[:5], "0000000000000000000005,10,0,0.1,0", (5, 10.0, -1, 0, float("nan"))),
            (PARAMS_HEADER[:9], "0,10,0,0.1,0,,,,", (0, 10.0, -1, 0, float("nan"))),
            (PARAMS_HEADER[:9], "0,10,0,0.1,0,-1.5,٣,8,true", (0, 10.0, 1, 3, -1.5)),
            (PARAMS_HEADER[:5] + ["note"], '0,10,0,0.1,0,"a,b"', (0, 10.0, -1, 0, float("nan"))),
        ],
    )
    def test_cells_only_the_row_reader_takes(self, tmp_path, header, row, expected):
        path = tmp_path / "params.csv"
        path.write_text(f"{','.join(header)}\n{row}\n")
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            assert _parse_params(fh.read(), header) is None
        fit = read_params(path)
        q = fit.ids[0]
        got = (q, fit.theta[0, 0], fit.converged[0], fit.n_points[0], fit.log_likelihood[0])
        assert got[:4] == expected[:4]
        assert got[4] == expected[4] or (np.isnan(got[4]) and np.isnan(expected[4]))


class TestReportFile:
    def test_stable_bytes(self, tmp_path):
        report = {"schema_version": 1, "summaries": {"beta": {"median": 10.54}}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a)
        write_report(dict(reversed(list(report.items()))), b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["schema_version"] == 1

    def test_chip_report_reads_back_equal(self, tmp_path):
        ids = [q for q in range(32) if q != 5]  # a missing qubit gives null heatmap values
        theta = [QubitParams(10.0 + 0.1 * q, 0.002, 0.03 + 0.001 * q, 0.017).astuple() for q in ids]
        n = len(ids)
        fit = ChipFit(ids, theta, np.full(n, -1.25), np.ones(n), np.full(n, 81), np.full(n, 81_000), np.zeros(n))
        report = build_report(fit, ChimeraSpec(grid=2))
        path = tmp_path / "report.json"
        write_report(report, path)
        text = path.read_text()
        assert json.loads(text) == report
        assert text.endswith("}\n") and text.count("\n") == 1  # one line, one newline
