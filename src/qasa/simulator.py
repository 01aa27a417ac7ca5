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
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .model import QubitParams, _mixture, _theta


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

    h and samples are 1-d arrays over fields; counts maps qubit id to an
    array of -1 counts aligned with h, in ascending id order.  Each column
    is a row of one (qubit, field) int64 table, stored in that order, so a
    run of consecutive ids is a slice of it.  The table, h and samples are
    read-only copies, and counts is a read-only mapping, so a column can
    only be set by building a new RawCounts, which checks it.  Every field
    has at least one sample.
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
        ids = list(self.counts)
        wrong = [q for q, c in self.counts.items() if np.shape(c) != h.shape]
        if wrong:
            raise ValueError(f"count column for qubit {wrong[0]} has wrong length")
        table = np.array(list(self.counts.values()), dtype=np.int64).reshape(len(ids), h.size)
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
        object.__setattr__(self, "_table", table)

    @property
    def qubit_ids(self):
        return list(self.counts)

    def n_fields(self) -> int:
        return self.h.size


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _draw(p_minus, design: SweepDesign, ids) -> list:
    """One binomial -1 tally per field of each row of `p_minus`, drawn in
    field order from the stream of its qubit id in `ids`.

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
    columns = []
    for q, pm in zip(ids, p_minus):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, int(q) & _MASK64]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        columns.append(rng.binomial(design.samples_per_field, pm).astype(np.int64, copy=False))
    return columns


def _p_minus(theta, design: SweepDesign):
    # p_minus straight from the spin mean; bypasses arctanh, which would
    # overflow where tanh saturates to 1 in floating point
    return (1.0 - _mixture(np.array(design.fields), theta)) / 2.0


def sample_counts(p: QubitParams, design: SweepDesign, stream_key: int) -> np.ndarray:
    """Draw the -1 tally for every field of the design, one binomial each,
    from the stream of qubit id `stream_key`."""
    return _draw(_p_minus(_theta(p), design), design, [stream_key])[0]


def simulate_chip(truth: dict, design: SweepDesign, operational=None) -> RawCounts:
    """Sample a whole chip.

    truth maps qubit id -> QubitParams.  If `operational` (an id iterable) is
    given, truth must cover it exactly; extra truth entries are ignored.
    Every qubit's spin means come from one kernel call; each qubit then draws
    its fields in order from its own (seed, qubit id) stream, so its column
    does not depend on which other qubits are simulated with it.
    """
    if operational is None:
        ids = sorted(truth)
    else:
        ids = sorted(operational)
        missing = set(ids) - set(truth)
        if missing:
            raise CoverageError(missing)
    n = len(design.fields)
    samples = np.full(n, design.samples_per_field, dtype=np.int64)
    theta = np.array([truth[q].astuple() for q in ids]).reshape(-1, 4)
    # qubit-major: (4, Q, 1) parameters against (F,) fields give (Q, F)
    p_minus = _p_minus(theta.T[:, :, None], design)
    counts = dict(zip(ids, _draw(p_minus, design, ids)))
    return RawCounts(h=np.array(design.fields), samples=samples, counts=counts)
