"""CSV and JSON exchange formats.

Raw counts travel as plain CSV with header ``h,samples,spin_<id>,...`` where
each spin column tallies -1 outcomes.  Fitted parameters go to a table whose
first five columns (qubit_id, beta, b, eta, gamma) form a stable prefix;
diagnostics and layout columns follow.  Writers are canonical: fixed field
formatting, columns sorted by qubit id, newline-terminated rows, so equal
inputs give byte-identical files on any platform.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections import Counter

import numpy as np

from .estimator import ChipFit
from .model import ParameterError, _check_param_table, _check_params
from .simulator import RawCounts
from .topology import ChimeraSpec, sites

PARAMS_HEADER = [
    "qubit_id", "beta", "b", "eta", "gamma",
    "log_likelihood", "n_points", "total_samples", "converged",
    "row", "col", "k", "orientation",
]


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def format_field(h: float) -> str:
    """Canonical rendering of an input-field value: 6 significant digits,
    positional notation, trailing zeros trimmed."""
    s = np.format_float_positional(float(h), precision=6, unique=False, fractional=False, trim="-")
    return s if s else "0"


def _fail(path, line_no, msg):
    raise FormatError(f"{path}:{line_no}: {msg}")


def _csv_rows(path, fh):
    """(line number, cells) of each row of the CSV file `fh`, the header
    first; a row csv cannot read, such as one with a cell past csv's
    field-size limit, raises FormatError with its line."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            yield line_no, row
    except csv.Error as exc:
        _fail(path, line_no + 1, exc)


def _qubit_id(text: str) -> int:
    """A qubit id cell: ASCII decimal digits only, where int() alone would
    also take '1_0', ' 3', '+3' and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad qubit id {text!r}")
    return int(text)


def read_raw(path) -> RawCounts:
    """Read a raw-counts CSV; duplicate-h rows are merged by summation.

    The data rows are parsed in one `np.loadtxt` call and checked as a whole
    table.  Every cell loadtxt reads, int() and float() read to the same
    value (save cells past int()'s 4300-digit or csv's field-size limit,
    which the row reader refuses), so a file loadtxt refuses, or that fails
    a check, is read again row by row: that reader takes what loadtxt
    refuses (``1_0``, quoted cells, non-ASCII digits) and names the first
    bad cell.
    """
    with open(path, newline="") as fh:
        try:
            _, header = next(_csv_rows(path, fh))
        except StopIteration:
            _fail(path, 1, "empty file")
        if header[:2] != ["h", "samples"]:
            _fail(path, 1, f"header must start with 'h,samples', got {header[:2]}")
        ids = []
        for j, name in enumerate(header[2:], start=2):
            if not name.startswith("spin_"):
                _fail(path, 1, f"column {j + 1} must be named spin_<id>, got {name!r}")
            try:
                ids.append(_qubit_id(name[5:]))
            except ValueError:
                _fail(path, 1, f"bad qubit id in column name {name!r}")
        if len(set(ids)) != len(ids):
            _fail(path, 1, "duplicate spin columns")
        # a valid header holds no quoted line break, so fh is now at line 2
        parsed = _parse_rows(fh, len(header))
    h, table = parsed or _read_rows(path, ids, len(header))

    # duplicate-h rows are summed; return_index makes the sort stable, so a
    # merged h keeps the sign of its first row where -0 and 0 meet
    h, first, row_of = np.unique(h, return_index=True, return_inverse=True)
    if h.size == row_of.size:  # no h repeats: the rows in h's order
        merged = table[first]
    else:
        merged = np.zeros((h.size, table.shape[1]), dtype=np.int64)
        np.add.at(merged, row_of, table)
    return RawCounts(h=h, samples=merged[:, 0], counts=(ids, merged[:, 1:].T))


def _parse_rows(fh, n_cells):
    """h and the (rows, samples + counts) int64 table of the data rows left
    in `fh`, or None if a cell does not parse or a check fails."""
    row = np.dtype([("h", float), ("cells", np.int64, (n_cells - 1,))])
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no data rows, and an older numpy
            # warns where it reads '3.0' as an int
            warnings.simplefilter("error")
            data = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    h, table = data["h"], data["cells"]
    samples = table[:, 0]
    if not (np.isfinite(h).all() and (samples > 0).all() and (table >= 0).all()
            and (table <= samples[:, None]).all()):
        return None
    # bounds every int64 sum, as no count exceeds its samples
    if sum(samples.tolist()) > np.iinfo(np.int64).max:
        return None
    return h, table


def _data_rows(path, n_cells):
    """(line number, cells) of each data row of the CSV file at `path`:
    the header and blank rows are skipped, and a row of other than
    `n_cells` cells raises FormatError with its line."""
    with open(path, newline="") as fh:
        reader = _csv_rows(path, fh)
        next(reader)
        for line_no, row in reader:
            if not row:
                continue
            if len(row) != n_cells:
                _fail(path, line_no, f"expected {n_cells} cells, got {len(row)}")
            yield line_no, row


def _read_rows(path, ids, n_cells):
    """The data rows read one at a time with int() and float(); the first
    bad cell raises FormatError with its line."""
    hs, rows = [], []  # rows: [samples, count per spin column]
    total = 0  # bounds every int64 sum, as no count exceeds its samples
    for line_no, row in _data_rows(path, n_cells):
        try:
            h = float(row[0])
            samples = int(row[1])
        except ValueError:
            _fail(path, line_no, f"non-numeric h or samples: {row[:2]}")
        if not math.isfinite(h):
            _fail(path, line_no, f"non-finite h {row[0]!r}")
        if samples <= 0:
            _fail(path, line_no, f"samples must be positive, got {samples}")
        total += samples
        if total > np.iinfo(np.int64).max:
            _fail(path, line_no, f"samples add up to {total}, past the int64 range")
        cells = [samples]
        for q, cell in zip(ids, row[2:]):
            try:
                c = int(cell)
            except ValueError:
                _fail(path, line_no, f"non-integer count {cell!r} for qubit {q}")
            if not (0 <= c <= samples):
                _fail(path, line_no, f"count {c} outside [0, {samples}] for qubit {q}")
            cells.append(c)
        hs.append(h)
        rows.append(cells)
    return np.array(hs, dtype=float), np.array(rows, dtype=np.int64).reshape(len(rows), n_cells - 1)


def _decimal_rows(table: np.ndarray) -> list:
    """Each row of a non-negative int64 table as the bytes
    ``",".join(map(str, row)) + "\n"`` gives, rendered in bulk.

    The table is split into decimal digit planes, one slot per digit of its
    widest cell and one for the separator after each cell; one boolean
    selection then keeps each cell's significant digits, its last digit
    always, so 0 renders as "0".  str() on each of a chip's ~10**5 cells
    cost more than this whole rendering.
    """
    n_rows, n_cols = table.shape
    width = len(str(int(table.max()))) if table.size else 1
    text = np.empty((n_rows, n_cols, width + 1), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    rest = table.copy()  # C order, as is every buffer below
    digit = np.empty_like(rest)
    for j in range(width - 1, -1, -1):  # the units digit first
        keep[..., j] = rest > 0  # a digit is significant while a higher one is left
        np.divmod(rest, 10, out=(rest, digit))
        np.add(digit, ord("0"), out=text[..., j], casting="unsafe")
    keep[..., width - 1] = True
    keep[..., width] = True
    text[..., width] = ord(",")
    text[:, -1, width] = ord("\n")
    body = text[keep].tobytes()
    ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
    return [body[start:end] for start, end in zip([0] + ends, ends)]


def raw_to_bytes(counts: RawCounts) -> bytes:
    """Canonical raw CSV rendering (also used for determinism checks).

    The (fields x columns) integer table is rendered in bulk by
    `_decimal_rows`, to the bytes str() gives each cell; only the field
    cell is formatted per row."""
    header = "h,samples" + "".join(f",spin_{q}" for q in counts.qubit_ids) + "\n"
    table = np.vstack([counts.samples, counts.table]).T
    rows = _decimal_rows(table)
    return b"".join([header.encode(), *(f"{format_field(h)},".encode() + row
                                        for h, row in zip(counts.h.tolist(), rows))])


def write_raw(counts: RawCounts, path):
    """Write a raw-counts CSV in canonical form."""
    with open(path, "wb") as fh:
        fh.write(raw_to_bytes(counts))


# converged is unknown (code -1) for tables without the column, e.g. truth files
_CONVERGED_CELL = {1: "true", 0: "false", -1: ""}
_CONVERGED_CODE = {cell: code for code, cell in _CONVERGED_CELL.items()}


def write_params(fit: ChipFit, spec: ChimeraSpec, path):
    """Write the fitted-parameter table, one row per qubit, sorted by id."""
    rows = zip(
        fit.ids.tolist(), fit.theta.tolist(), fit.log_likelihood.tolist(), fit.n_points.tolist(),
        fit.total_samples.tolist(), fit.converged.tolist(),
        *(a.tolist() for a in sites(fit.ids, spec)),
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(PARAMS_HEADER) + "\n")
        for q, theta, ll, n_points, total, converged, row, col, k, vertical in rows:
            cells = [
                str(q), *map(repr, theta), repr(ll), str(n_points), str(total),
                _CONVERGED_CELL[converged], str(row), str(col), str(k),
                "vertical" if vertical else "horizontal",
            ]
            fh.write(",".join(cells) + "\n")


def read_params(path) -> ChipFit:
    """Read a parameter table back into a ChipFit.

    Only the qubit_id..gamma prefix is required; missing diagnostic columns
    get neutral defaults, so plain four-parameter truth tables also load.  A
    missing or empty ``converged`` cell reads as unknown.  The table holds
    no flags, so every row's flags read empty.

    As in `read_raw`, the data rows are parsed in one `np.loadtxt` call and
    checked as a whole table, and a file that loadtxt refuses, or that
    fails a check, is read again row by row, which names the first bad
    cell.  On a table both take, both give the same columns (save cells
    past csv's field-size limit, which only the row reader refuses).
    """
    with open(path, newline="") as fh:
        _, header = next(_csv_rows(path, fh), (1, None))
        required = PARAMS_HEADER[:5]
        if header is None or header[: len(required)] != required:
            _fail(path, 1, f"header must start with {','.join(required)}")
        # a row dict would keep only the last cell of a repeated name
        repeated = sorted(c for c, n in Counter(header).items() if n > 1)
        if repeated:
            _fail(path, 1, f"duplicate column {', '.join(repeated)}")
        parsed = _parse_params(fh.read(), header)
    ids, theta, ll, converged, n_points, total_samples = parsed or _read_param_rows(path, header)
    return ChipFit(ids, theta, ll, converged, n_points, total_samples, np.zeros(len(ids), dtype=np.uint8))


# loadtxt's type for each column read_params reads; the id as bytes, in
# which only ASCII digits are digits
_PARAM_TYPES = {
    "qubit_id": "S19", "beta": float, "b": float, "eta": float, "gamma": float,
    "log_likelihood": float, "n_points": np.int64, "total_samples": np.int64,
    "converged": "S6",  # one byte past the longest valid cell
}


def _parse_params(text, header):
    """The columns (ids, theta, log_likelihood, converged, n_points,
    total_samples) of the data rows in `text`, or None if a cell does not
    parse or a check fails."""
    # loadtxt reads a quoted cell with its quotes, and its commas as
    # delimiters; a NUL ends a numpy string
    if '"' in text or "\0" in text:
        return None
    # a column read_params ignores is read as one character, so that
    # loadtxt still counts every row's cells
    row = np.dtype([(f"c{j}", _PARAM_TYPES.get(name, "U1")) for j, name in enumerate(header)])
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no data rows, and where it reads
            # '3.0' as an int
            warnings.simplefilter("error")
            data = np.loadtxt(io.StringIO(text), dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    col = {name: data[f"c{j}"] for j, name in enumerate(header)}
    n = data.size
    ids = col["qubit_id"]
    # a cell that fills the field may have been cut short; 18 digits fit an int64
    if not (np.char.isdigit(ids).all() and (np.char.str_len(ids) < 19).all()):
        return None
    ids = ids.astype(np.int64)
    theta = np.column_stack([col[k] for k in PARAMS_HEADER[1:5]])
    try:
        _check_param_table(theta)
    except ParameterError:
        return None
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        return None
    n_points, total_samples = (col.get(k, np.zeros(n, dtype=np.int64)) for k in PARAMS_HEADER[6:8])
    # the row reader refuses -2**63, whose magnitude is past the int64 range
    if (np.minimum(n_points, total_samples) == np.iinfo(np.int64).min).any():
        return None
    cells = col.get("converged", np.zeros(n, dtype="S6"))
    converged = np.full(n, 2, dtype=np.int8)  # 2 marks a cell of no code
    for cell, code in _CONVERGED_CODE.items():
        converged[cells == cell.encode()] = code
    if (converged == 2).any():
        return None
    return ids, theta, col.get("log_likelihood", np.full(n, np.nan)), converged, n_points, total_samples


def _read_param_rows(path, header):
    """The columns of the data rows read one at a time; the first bad cell
    raises FormatError with its line."""
    rows, seen = [], set()
    for line_no, cells in _data_rows(path, len(header)):
        row = dict(zip(header, cells))
        try:
            q = _qubit_id(row["qubit_id"])
            if q > np.iinfo(np.int64).max:
                raise ValueError(f"qubit id {q} past the int64 range")
            theta = [float(row["beta"]), float(row["b"]), float(row["eta"]), float(row["gamma"])]
            _check_params(*theta)
            log_likelihood = float(row.get("log_likelihood") or "nan")
            n_points = int(row.get("n_points") or 0)
            total_samples = int(row.get("total_samples") or 0)
            if max(abs(n_points), abs(total_samples)) > np.iinfo(np.int64).max:
                raise ValueError("n_points or total_samples past the int64 range")
        except ValueError as exc:
            _fail(path, line_no, str(exc))
        if q in seen:
            _fail(path, line_no, f"duplicate qubit id {q}")
        seen.add(q)
        converged = row.get("converged") or ""
        if converged not in _CONVERGED_CODE:
            _fail(path, line_no, f"converged must be true, false or empty, got {converged!r}")
        rows.append((q, theta, log_likelihood, _CONVERGED_CODE[converged], n_points, total_samples))
    return zip(*rows) if rows else ([],) * 6


def write_report(report: dict, path):
    """Write an analysis report as one line of compact JSON with sorted keys;
    with no indent, json uses its C encoder."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
