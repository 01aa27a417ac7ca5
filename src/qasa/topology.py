"""Chimera graph bookkeeping.

A Chimera chip is an n x n grid of unit cells with 8 qubits each, 4 oriented
vertically and 4 horizontally.  Linear qubit ids follow
id = 8*(n*row + col) + k with k in [0, 8); k < 4 is vertical and k >= 4
horizontal.  `sites` decodes a whole array of ids at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class ChimeraSpec:
    """Chip geometry plus the set of qubits actually usable on the device."""

    grid: int
    operational: frozenset = None

    def __post_init__(self):
        if self.grid < 1:
            raise TopologyError(f"grid side must be >= 1, got {self.grid}")
        cap = self.capacity
        if self.operational is None:
            object.__setattr__(self, "operational", frozenset(range(cap)))
        else:
            object.__setattr__(self, "operational", frozenset(self.operational))
            bad = [q for q in self.operational if not (0 <= q < cap)]
            if bad:
                raise TopologyError(f"qubit ids out of range [0, {cap}): {sorted(bad)[:10]}")

    @property
    def capacity(self) -> int:
        return 8 * self.grid * self.grid


def sites(ids, spec: ChimeraSpec):
    """Decode linear qubit ids into (row, col, k, vertical) arrays, one
    entry per id: the cell coordinates, the index within the cell and
    whether the qubit is vertical."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    bad = (ids < 0) | (ids >= spec.capacity)
    if bad.any():
        raise TopologyError(f"qubit ids outside [0, {spec.capacity}): {ids[bad][:10].tolist()}")
    cell, k = np.divmod(ids, 8)
    row, col = np.divmod(cell, spec.grid)
    return row, col, k, k < 4


def _chip_grid(text: str) -> int:
    """The grid side n of a chip spec string ``chimera:<n>``, checked by
    `ChimeraSpec` without building the chip's 8n^2 ids."""
    kind, sep, arg = text.partition(":")
    if kind != "chimera" or not sep:
        raise TopologyError(f"unsupported chip spec {text!r}, expected chimera:<n>")
    try:
        n = int(arg)
    except ValueError:
        raise TopologyError(f"bad grid size in chip spec {text!r}") from None
    return ChimeraSpec(grid=n, operational=()).grid

