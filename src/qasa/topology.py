"""Chimera graph bookkeeping.

A Chimera chip is an n x n grid of unit cells with 8 qubits each, 4 oriented
vertically and 4 horizontally.  Linear qubit ids follow
id = 8*(n*row + col) + k with k in [0, 8).  Which half of k maps to which
orientation varies between devices, so the convention is a flag.
"""

from __future__ import annotations

from dataclasses import dataclass


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class ChimeraSpec:
    """Chip geometry plus the set of qubits actually usable on the device."""

    grid: int
    operational: frozenset = None
    vertical_low_k: bool = True  # k in {0..3} vertical when True

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


@dataclass(frozen=True)
class QubitSite:
    id: int
    row: int
    col: int
    k: int
    orientation: str  # "vertical" | "horizontal"


def site_of(qubit_id: int, spec: ChimeraSpec) -> QubitSite:
    """Decode a linear qubit id into cell coordinates and orientation."""
    if not (0 <= qubit_id < spec.capacity):
        raise TopologyError(f"qubit id {qubit_id} outside [0, {spec.capacity})")
    cell, k = divmod(qubit_id, 8)
    row, col = divmod(cell, spec.grid)
    vertical = (k < 4) == spec.vertical_low_k
    return QubitSite(qubit_id, row, col, k, "vertical" if vertical else "horizontal")


def orientation_groups(spec: ChimeraSpec):
    """Partition operational ids into (horizontal, vertical) sorted lists."""
    horizontal, vertical = [], []
    for q in sorted(spec.operational):
        if site_of(q, spec).orientation == "horizontal":
            horizontal.append(q)
        else:
            vertical.append(q)
    return horizontal, vertical


def heatmap_grid(values: dict, spec: ChimeraSpec):
    """Plot-ready per-qubit records for a chip heatmap.

    Returns one dict per qubit slot of the full chip, with ``value`` None for
    operational qubits absent from `values` and ``present`` False for
    non-operational slots.  Ids in `values` must be operational.
    """
    unknown = set(values) - spec.operational
    if unknown:
        raise TopologyError(f"ids not operational on this chip: {sorted(unknown)[:10]}")
    records = []
    for q in range(spec.capacity):
        site = site_of(q, spec)
        records.append(
            {
                "id": q,
                "row": site.row,
                "col": site.col,
                "k": site.k,
                "orientation": site.orientation,
                "present": q in spec.operational,
                "value": values.get(q),
            }
        )
    return records


def parse_chip(text: str) -> ChimeraSpec:
    """Parse a chip spec string of the form ``chimera:<n>``."""
    kind, sep, arg = text.partition(":")
    if kind != "chimera" or not sep:
        raise TopologyError(f"unsupported chip spec {text!r}, expected chimera:<n>")
    try:
        n = int(arg)
    except ValueError:
        raise TopologyError(f"bad grid size in chip spec {text!r}") from None
    return ChimeraSpec(grid=n)
