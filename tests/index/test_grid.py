"""Unit tests for the uniform segment grid."""

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.index.grid import SegmentGrid
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def brute_candidates(store, index, radius):
    """Ground truth: segments whose boxes overlap the expanded query box."""
    lo = np.minimum(store.starts[index], store.ends[index]) - radius
    hi = np.maximum(store.starts[index], store.ends[index]) + radius
    out = []
    for j in range(len(store)):
        jlo = np.minimum(store.starts[j], store.ends[j])
        jhi = np.maximum(store.starts[j], store.ends[j])
        if np.all(jlo <= hi) and np.all(lo <= jhi):
            out.append(j)
    return out


class TestConstruction:
    def test_zero_cell_size_raises(self, random_segments):
        with pytest.raises(IndexError_):
            SegmentGrid(random_segments, cell_size=0.0)

    def test_empty_store(self):
        grid = SegmentGrid(SegmentSet.empty(), cell_size=1.0)
        assert grid.n_cells == 0

    def test_oversize_segments_tracked(self):
        segments = [
            Segment([0.0, 0.0], [1.0, 0.0], seg_id=0),
            Segment([0.0, 0.0], [1e7, 1e7], seg_id=1),
        ]
        grid = SegmentGrid(
            SegmentSet.from_segments(segments), cell_size=1.0,
            max_cells_per_segment=64,
        )
        assert grid.n_oversize == 1


class TestCandidates:
    @pytest.mark.parametrize("radius", [0.5, 3.0, 25.0])
    def test_superset_of_box_overlaps(self, random_segments, radius):
        grid = SegmentGrid(random_segments, cell_size=radius)
        for i in range(0, len(random_segments), 5):
            found = set(grid.candidates_near(i, radius).tolist())
            expected = set(brute_candidates(random_segments, i, radius))
            assert expected <= found

    def test_includes_self(self, random_segments):
        grid = SegmentGrid(random_segments, cell_size=5.0)
        for i in [0, 17, 39]:
            assert i in grid.candidates_near(i, 1.0)

    def test_far_segments_pruned(self):
        near = [Segment([k * 1.0, 0.0], [k * 1.0 + 1, 0.0], seg_id=k) for k in range(4)]
        far = [Segment([1e5, 1e5], [1e5 + 1, 1e5], seg_id=4)]
        store = SegmentSet.from_segments(near + far)
        grid = SegmentGrid(store, cell_size=2.0)
        candidates = grid.candidates_near(0, 2.0).tolist()
        assert 4 not in candidates

    def test_out_of_range_index_raises(self, random_segments):
        grid = SegmentGrid(random_segments, cell_size=1.0)
        with pytest.raises(IndexError_):
            grid.candidates_near(len(random_segments), 1.0)

    @staticmethod
    def assert_every_query_sees_everything(grid, segments, radius):
        n = len(segments)
        queries = np.arange(n)
        query_pos, found = grid.candidates_near_many(queries, radius)
        assert np.array_equal(query_pos, np.repeat(queries, n))
        assert np.array_equal(found, np.tile(queries, n))

    @staticmethod
    def with_long_segment(segments):
        """*segments* (inside [0, 100]^2) plus one diagonal across
        [-50, 150]^2, whose box is oversize at any cell size used here."""
        return SegmentSet(
            np.vstack([segments.starts, [[-50.0, -50.0]]]),
            np.vstack([segments.ends, [[150.0, 150.0]]]),
        )

    def test_window_query_over_whole_domain(self, random_segments):
        # Radius 100 stretches every window over the whole domain.  The
        # random segments' windows (<= 31^2 cells) are rasterised; the
        # long segment's (41^2 > 16 * 64 cells) scans the cell keys.
        segments = self.with_long_segment(random_segments)
        grid = SegmentGrid(segments, cell_size=10.0, max_cells_per_segment=64)
        assert grid.n_oversize == 1
        self.assert_every_query_sees_everything(grid, segments, 100.0)

    def test_window_larger_than_domain_uses_key_scan(self, random_segments):
        # Gigantic windows send every query down the key scan.
        segments = self.with_long_segment(random_segments)
        grid = SegmentGrid(segments, cell_size=0.5)
        assert grid.n_oversize >= 1
        self.assert_every_query_sees_everything(grid, segments, 1e7)

    def test_many_equals_one_query_at_a_time(self, random_segments):
        grid = SegmentGrid(random_segments, cell_size=2.0)
        queries = np.array([5, 0, 5, 39, 17])
        query_pos, found = grid.candidates_near_many(queries, 4.0)
        for qpos, index in enumerate(queries):
            assert np.array_equal(
                found[query_pos == qpos], grid.candidates_near(index, 4.0)
            )
