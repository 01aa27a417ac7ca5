"""Synthetic chip output generator.

Stands in for annealing hardware: given ground-truth parameters per qubit and
a sweep design, produces per-(qubit, field) tallies of -1 outcomes.  Since
shots at a fixed field are i.i.d. two-outcome draws, each tally is a single
binomial variate, which keeps M = 5e6 samples per field cheap.

Randomness is counter-based (Philox): each qubit draws from one stream keyed
by (seed, qubit id), its fields in order.  A qubit's column therefore does not
depend on which other qubits are simulated with it, or in what order.  One
call re-keys a single bit generator per qubit instead of building one per
qubit: building a Philox cost nearly as much as drawing its qubit's fields.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .model import QubitParams, _check_param_table, _mixture, _theta


class DesignError(ValueError):
    pass


# Longest field grid `field_grid` builds; the paper's sweep has 81 fields.
MAX_FIELDS = 100_000


class CoverageError(ValueError):
    """Ground truth does not cover every operational qubit."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"truth missing {len(self.missing)} operational qubits: "
                         f"{self.missing[:10]}{'...' if len(self.missing) > 10 else ''}")


@dataclass(frozen=True)
class SweepDesign:
    """An ordered grid of input fields plus sampling settings."""

    fields: tuple
    samples_per_field: int
    seed: int = 0

    def __post_init__(self):
        fields = tuple(float(h) for h in self.fields)
        object.__setattr__(self, "fields", fields)
        if not fields:
            raise DesignError("field grid is empty")
        if any(b <= a for a, b in zip(fields, fields[1:])):
            raise DesignError("fields must be strictly increasing")
        if self.samples_per_field < 1:
            raise DesignError(f"samples_per_field must be >= 1, got {self.samples_per_field}")
        # the bound `read_raw` puts on a file's samples, so that every sum
        # of counts fits an int64
        total = int(self.samples_per_field) * len(fields)
        if total > np.iinfo(np.int64).max:
            raise DesignError(f"{self.samples_per_field} samples at each of {len(fields)} fields "
                              f"add up to {total}, past the int64 range")


def field_grid(h_min=-1.0, h_max=1.0, h_step=0.025):
    """Uniform inclusive grid, rounded to suppress accumulation error."""
    for name, value in (("h_min", h_min), ("h_max", h_max)):
        if not math.isfinite(value):
            raise DesignError(f"{name} must be finite, got {value!r}")
    if not (0 < h_step < math.inf):
        raise DesignError(f"h_step must be positive and finite, got {h_step!r}")
    # counted before anything is allocated; the ratio may overflow to inf
    span = (h_max - h_min) / h_step
    n = round(span) + 1 if span < MAX_FIELDS else span + 1
    if n > MAX_FIELDS:
        raise DesignError(f"field grid of {n:.6g} fields is longer than {MAX_FIELDS}")
    return tuple(round(h_min + i * h_step, 12) for i in range(n))


def default_sweep() -> SweepDesign:
    """The standard sweep: 81 fields in [-1, 1] at step 0.025, M = 5e6."""
    return SweepDesign(fields=field_grid(), samples_per_field=5_000_000, seed=0)


@dataclass(frozen=True)
class RawCounts:
    """Per-field -1 tallies for a set of qubits; read-only once built.

    h and samples are 1-d arrays over fields.  counts is given as the table
    (ids, rows), one row of -1 counts aligned with h per qubit id, or as a
    Mapping of id to row, a form kept for the benchmark harness until it
    passes the table.  Either is stored as `table`, one read-only,
    C-contiguous (qubit, field) int64 array whose rows are in ascending id
    order, so a run of consecutive ids is a slice of it; ids are Python
    ints, as the simulator's 64-bit ids do not fit an int64.  counts then
    maps each id to its row, a read-only view of `table`.  h and samples
    are read-only copies too, so a row can only be set by building a new
    RawCounts, which checks it.  Every field has at least one sample, and
    no id appears twice.
    """

    h: np.ndarray
    samples: np.ndarray
    counts: Mapping = field(default_factory=dict)

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if not np.all(np.isfinite(h)):
            raise ValueError("non-finite input field in h")
        samples = np.array(self.samples, dtype=np.int64)
        if samples.shape != h.shape:
            raise ValueError(f"samples has shape {samples.shape}, h has {h.shape}")
        if np.any(samples < 1):
            raise ValueError(f"samples must be >= 1 per field, got {samples.min()}")
        counts = self.counts
        if isinstance(counts, Mapping):
            wrong = [q for q, c in counts.items() if np.shape(c) != h.shape]
            if wrong:
                raise ValueError(f"count row for qubit {wrong[0]} has wrong length")
            counts = list(counts), list(counts.values()) or np.empty((0, h.size))
        ids, rows = counts
        ids = [operator.index(q) for q in ids]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate qubit id in counts")
        table = np.array(rows, dtype=np.int64, order="C")
        if table.shape != (len(ids), h.size):
            raise ValueError(f"count table has shape {table.shape}, expected {(len(ids), h.size)}")
        outside = np.any((table < 0) | (table > samples), axis=1)
        if outside.any():
            raise ValueError(f"counts for qubit {ids[outside.argmax()]} outside [0, samples]")
        if ids != sorted(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids, table = [ids[i] for i in order], table[order]
        for a in (h, samples, table):
            a.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "counts", MappingProxyType(dict(zip(ids, table))))
        object.__setattr__(self, "table", table)

    @property
    def qubit_ids(self):
        return list(self.counts)

    def n_fields(self) -> int:
        return self.h.size


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _draw(p_minus, design: SweepDesign, ids) -> np.ndarray:
    """One binomial -1 tally per field of each row of `p_minus`, drawn in
    field order from the stream of its qubit id in `ids`; the tallies are
    a (qubit, field) int64 table, one row per id.

    The stream of id q is that of a new ``Philox(key=[seed, q])``, both
    taken mod 2**64 so the key holds all 64 bits of each.  One bit generator
    is re-keyed per qubit rather than built per qubit: its state is set to
    exactly a new Philox's (counter 0, that key, an empty buffer and no
    cached 32-bit half), which gives the same bits.  Building a keyed Philox
    took about 22 us on a 2-CPU x86 VM, near the 28 us of drawing 81 fields
    at 5e6 samples; setting the state took about 1 us.  The Generator's
    binomial set-up cache carries over from qubit to qubit; it depends only
    on (n, p), not on the stream.
    """
    bitgen = np.random.Philox(0)  # a fixed seed draws no OS entropy; every qubit re-keys it
    rng = np.random.Generator(bitgen)
    seed = int(design.seed) & _MASK64
    table = np.empty(np.shape(p_minus), dtype=np.int64)
    for q, pm, row in zip(ids, p_minus, table):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, int(q) & _MASK64]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        row[:] = rng.binomial(design.samples_per_field, pm)
    return table


def _p_minus(theta, design: SweepDesign):
    # p_minus straight from the spin mean; bypasses arctanh, which would
    # overflow where tanh saturates to 1 in floating point
    return (1.0 - _mixture(np.array(design.fields), theta)) / 2.0


def sample_counts(p: QubitParams, design: SweepDesign, stream_key: int) -> np.ndarray:
    """Draw the -1 tally for every field of the design, one binomial each,
    from the stream of qubit id `stream_key`."""
    return _draw(_p_minus(_theta(p), design), design, [stream_key])[0]


def simulate_chip(truth, design: SweepDesign, operational=None) -> RawCounts:
    """Sample a whole chip.

    truth is the parameter table (ids, theta): qubit ids, Python or numpy
    ints, and theta (Q, 4), each row the (beta, b, eta, gamma) of its id,
    as `preset_truth` gives and `read_params`' ids and theta columns hold.
    A Mapping of id to QubitParams is taken too, for the benchmark harness,
    until it passes the table.  If `operational` (an id iterable) is given,
    truth must cover it, and only its ids are drawn; other truth rows are
    ignored.  Every qubit's spin means come from one kernel call; each
    qubit then draws its fields in order from its own (seed, qubit id)
    stream, so its row does not depend on which other qubits are simulated
    with it.
    """
    if isinstance(truth, Mapping):
        truth = sorted(truth), np.array([truth[q].astuple() for q in sorted(truth)]).reshape(-1, 4)
    ids, theta = truth[0], np.asarray(truth[1], dtype=float)
    if theta.shape != (len(ids), 4):
        raise ValueError(f"truth theta has shape {theta.shape}, expected {(len(ids), 4)}")
    _check_param_table(theta)
    if operational is not None:
        keep = set(operational)
        missing = keep.difference(ids)
        if missing:
            raise CoverageError(missing)
        rows = [i for i, q in enumerate(ids) if q in keep]
        ids, theta = [ids[i] for i in rows], theta[rows]
    # qubit-major: (4, Q, 1) parameters against (F,) fields give (Q, F)
    p_minus = _p_minus(theta.T[:, :, None], design)
    samples = np.full(len(design.fields), design.samples_per_field, dtype=np.int64)
    return RawCounts(np.array(design.fields), samples, (ids, _draw(p_minus, design, ids)))
