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
from .model import _check_params
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
        reader = csv.reader(fh)
        try:
            header = next(reader)
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
    h, _, row_of = np.unique(h, return_index=True, return_inverse=True)
    merged = np.zeros((h.size, table.shape[1]), dtype=np.int64)
    np.add.at(merged, row_of, table)
    return RawCounts(h=h, samples=merged[:, 0], counts=dict(zip(ids, merged[:, 1:].T)))


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


def _read_rows(path, ids, n_cells):
    """The data rows read one at a time with int() and float(); the first
    bad cell raises FormatError with its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        hs, rows = [], []  # rows: [samples, count per spin column]
        total = 0  # bounds every int64 sum, as no count exceeds its samples
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cells:
                _fail(path, line_no, f"expected {n_cells} cells, got {len(row)}")
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
            try:
                cells = [samples, *map(int, row[2:])]
                bad = min(cells) < 0 or max(cells) > samples
            except ValueError:
                bad = True
            if bad:
                for q, cell in zip(ids, row[2:]):  # name the first bad cell
                    try:
                        c = int(cell)
                    except ValueError:
                        _fail(path, line_no, f"non-integer count {cell!r} for qubit {q}")
                    if not (0 <= c <= samples):
                        _fail(path, line_no, f"count {c} outside [0, {samples}] for qubit {q}")
            hs.append(h)
            rows.append(cells)
    return np.array(hs, dtype=float), np.array(rows, dtype=np.int64).reshape(len(rows), n_cells - 1)


def raw_to_bytes(counts: RawCounts) -> bytes:
    """Canonical raw CSV rendering (also used for determinism checks)."""
    buf = io.StringIO()
    ids = counts.qubit_ids
    buf.write("h,samples" + "".join(f",spin_{q}" for q in ids) + "\n")
    table = np.column_stack([counts.samples, *(counts.counts[q] for q in ids)])
    for h, row in zip(counts.h, table.tolist()):
        buf.write(format_field(h) + "," + ",".join(map(str, row)) + "\n")
    return buf.getvalue().encode()


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
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = PARAMS_HEADER[:5]
        if header is None or header[: len(required)] != required:
            _fail(path, 1, f"header must start with {','.join(required)}")
        # a row dict would keep only the last cell of a repeated name
        repeated = sorted(c for c, n in Counter(header).items() if n > 1)
        if repeated:
            _fail(path, 1, f"duplicate column {', '.join(repeated)}")
        rows, seen = [], set()
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                _fail(path, line_no, f"expected {len(header)} cells, got {len(cells)}")
            row = dict(zip(header, cells))
            try:
                q = _qubit_id(row["qubit_id"])
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
    ids, theta, ll, converged, n_points, total_samples = zip(*rows) if rows else ([],) * 6
    return ChipFit(ids, theta, ll, converged, n_points, total_samples, np.zeros(len(ids), dtype=np.uint8))


def write_report(report: dict, path):
    """Write an analysis report as one line of compact JSON with sorted keys;
    with no indent, json uses its C encoder."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
