import numpy as np
import pytest

from qasa.topology import (
    ChimeraSpec,
    TopologyError,
    _chip_grid,
    sites,
)


def _site(qubit_id, spec):
    """(row, col, k, orientation) of one id, through the array decoder."""
    row, col, k, vertical = (a.item() for a in sites([qubit_id], spec))
    return row, col, k, "vertical" if vertical else "horizontal"


def _groups(spec):
    """(horizontal, vertical) sorted lists of the operational ids."""
    ids = np.array(sorted(spec.operational), dtype=np.int64)
    vertical = sites(ids, spec)[3]
    return ids[~vertical].tolist(), ids[vertical].tolist()


class TestSiteOf:
    def test_origin(self):
        assert _site(0, ChimeraSpec(grid=16)) == (0, 0, 0, "vertical")

    def test_mid_chip(self):
        assert _site(305, ChimeraSpec(grid=16)) == (2, 6, 1, "vertical")

    def test_last_site(self):
        assert _site(2047, ChimeraSpec(grid=16)) == (15, 15, 7, "horizontal")

    def test_out_of_range(self):
        with pytest.raises(TopologyError):
            _site(2048, ChimeraSpec(grid=16))
        with pytest.raises(TopologyError):
            _site(-1, ChimeraSpec(grid=16))

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_bijection(self, n):
        spec = ChimeraSpec(grid=n)
        row, col, k, _ = sites(np.arange(spec.capacity), spec)
        assert np.array_equal(8 * (n * row + col) + k, np.arange(spec.capacity))
        assert len(set(zip(row.tolist(), col.tolist(), k.tolist()))) == spec.capacity

    def test_array_decode_matches_the_formula(self):
        spec = ChimeraSpec(grid=3)
        ids = [71, 0, 12, 12, 35]
        row, col, k, vertical = sites(ids, spec)
        for i, q in enumerate(ids):
            cell, kk = divmod(q, 8)
            assert (row[i], col[i], k[i]) == (cell // 3, cell % 3, kk)
            assert vertical[i] == (kk < 4)
        assert vertical.dtype == bool

    def test_empty_and_bad_ids(self):
        assert all(a.size == 0 for a in sites([], ChimeraSpec(grid=2)))
        with pytest.raises(TopologyError, match=r"outside \[0, 32\): \[32, -3\]"):
            sites([0, 32, 5, -3], ChimeraSpec(grid=2))


class TestOrientationGroups:
    def test_full_c16(self):
        horizontal, vertical = _groups(ChimeraSpec(grid=16))
        assert len(horizontal) == 1024
        assert len(vertical) == 1024

    def test_partial_yield(self):
        operational = frozenset(range(2048)) - frozenset(range(100, 116))
        horizontal, vertical = _groups(ChimeraSpec(grid=16, operational=operational))
        assert len(horizontal) + len(vertical) == 2032
        assert set(horizontal) | set(vertical) == operational
        assert not set(horizontal) & set(vertical)

    def test_small_chip(self):
        horizontal, vertical = _groups(ChimeraSpec(grid=2))
        assert len(horizontal) == 16
        assert len(vertical) == 16


class TestParseChip:
    @pytest.mark.parametrize("text", ["pegasus:4", "chimera", "chimera:x", "chimera:"])
    def test_invalid(self, text):
        with pytest.raises(TopologyError):
            _chip_grid(text)
