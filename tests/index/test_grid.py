"""Unit tests for the endpoint grid: its candidates are exactly the
segments with an endpoint pair within the radius (CI re-runs this file
on the numpy fallback of the endpoint-pair kernel)."""

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.index import grid as grid_module
from repro.index.grid import SegmentGrid
from repro.model.segmentset import SegmentSet


def endpoint_pairs_brute(store, indices, registered, radius):
    """Ground truth: ``(query_pos, candidate)`` over the *registered*
    segments with one of four endpoint pairs within *radius* of
    ``indices[q]``, squared distances summed in ``np.einsum`` order."""
    ends = np.stack([store.starts, store.ends], axis=1)
    gaps = ends[:, None, :, None] - ends[None, :, None, :]
    gaps = gaps.reshape(-1, store.dim)
    near = np.einsum("ij,ij->i", gaps, gaps) <= radius * radius
    near = near.reshape(len(store), len(store), 4).any(axis=2)
    registered = np.asarray(sorted(registered), dtype=np.int64)
    query_pos, candidate = [], []
    for q, i in enumerate(indices):
        mates = registered[near[i, registered]]
        query_pos += [q] * mates.size
        candidate += mates.tolist()
    return np.array(query_pos, dtype=np.int64), np.array(candidate, dtype=np.int64)


def assert_exact(grid, store, indices, registered):
    got = grid.candidates_near_many(np.asarray(indices))
    want = endpoint_pairs_brute(store, indices, registered, grid.radius)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def lattice_store(n, seed, step=0.5, zero_length=0.3):
    """Half-lattice endpoints, so endpoint gaps land on the radius, with
    some zero-length segments."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(-12, 12, (n, 2)) * step
    ends = rng.integers(-12, 12, (n, 2)) * step
    points = rng.random(n) < zero_length
    ends[points] = starts[points]
    return SegmentSet(starts, ends)


class TestConstruction:
    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_bad_radius_raises(self, random_segments, radius):
        with pytest.raises(IndexError_):
            SegmentGrid(random_segments, radius)

    def test_empty_store(self):
        grid = SegmentGrid(SegmentSet.empty(), 1.0)
        assert grid.n_cells == 0
        query_pos, candidate = grid.candidates_near_many(np.array([], int))
        assert query_pos.size == 0 and candidate.size == 0

    def test_two_cells_per_segment_however_long(self):
        store = SegmentSet(
            np.array([[0.0, 0.0], [5.0, 5.0]]),
            np.array([[1e7, 1e7], [5.0, 5.0]]),
        )
        grid = SegmentGrid(store, 1.0)
        assert grid.n_cells == 3  # a long segment, and a point
        assert grid.cell_size == 1.0
        assert SegmentGrid(store, 1e-12).cell_size == 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_endpoint_raises(self, bad):
        store = SegmentSet(np.array([[0.0, bad]]), np.array([[1.0, 0.0]]))
        with pytest.raises(IndexError_):
            SegmentGrid(store, 1.0)


class TestCandidates:
    @pytest.mark.parametrize("radius", [0.5, 3.0, 25.0])
    def test_equal_to_four_endpoint_brute_force(self, random_segments, radius):
        grid = SegmentGrid(random_segments, radius)
        indices = np.arange(len(random_segments))
        assert_exact(grid, random_segments, indices, indices)

    def test_includes_self(self, random_segments):
        grid = SegmentGrid(random_segments, 1.0)
        query_pos, found = grid.candidates_near_many(np.array([0, 17, 39]))
        for q, index in enumerate([0, 17, 39]):
            assert index in found[query_pos == q]

    def test_far_segments_pruned(self):
        starts = np.array([[k * 1.0, 0.0] for k in range(4)] + [[1e5, 1e5]])
        store = SegmentSet(starts, starts + np.array([1.0, 0.0]))
        grid = SegmentGrid(store, 2.0)
        query_pos, found = grid.candidates_near_many(np.arange(5))
        assert found[query_pos == 0].tolist() == [0, 1, 2, 3]
        assert found[query_pos == 4].tolist() == [4]

    def test_out_of_range_index_raises(self, random_segments):
        grid = SegmentGrid(random_segments, 1.0)
        with pytest.raises(IndexError_):
            grid.candidates_near_many(np.array([len(random_segments)]))
        with pytest.raises(IndexError_):
            grid.insert(-1)

    def test_window_query_over_whole_domain(self, random_segments):
        # A radius past the domain's diagonal: every query sees every
        # segment, from windows of about one cell per axis.
        n = len(random_segments)
        grid = SegmentGrid(random_segments, 200.0)
        query_pos, found = grid.candidates_near_many(np.arange(n))
        assert np.array_equal(query_pos, np.repeat(np.arange(n), n))
        assert np.array_equal(found, np.tile(np.arange(n), n))

    def test_many_equals_one_query_at_a_time(self, random_segments):
        grid = SegmentGrid(random_segments, 4.0)
        queries = np.array([5, 0, 5, 39, 17])
        query_pos, found = grid.candidates_near_many(queries)
        for q, index in enumerate(queries):
            alone = grid.candidates_near_many(np.array([index]))[1]
            assert np.array_equal(found[query_pos == q], alone)
        assert_exact(grid, random_segments, queries, range(40))

    @pytest.mark.parametrize("seed", range(4))
    def test_lattice_and_zero_length_segments(self, seed):
        store = lattice_store(80, seed)
        for radius in (1e-150, 0.5, 1.0, 1.5 * (1 + 1e-6)):
            grid = SegmentGrid(store, radius)
            indices = np.arange(len(store))
            assert_exact(grid, store, indices, indices)

    def test_interleaved_insert_and_remove(self):
        store = lattice_store(120, seed=9)
        grid = SegmentGrid(store, 1.0)
        registered = set(range(len(store)))
        rng = np.random.default_rng(5)
        for step in range(400):
            index = int(rng.integers(0, len(store)))
            if index in registered:
                grid.remove(index)
                registered.discard(index)
            else:
                grid.insert(index)
                registered.add(index)
            if step % 25 == 0:
                assert_exact(grid, store, sorted(registered), registered)
        for index in registered:
            grid.remove(index)
        assert grid.n_cells == 0

    @pytest.mark.parametrize("radius", [1e-6, 1e-4, 3e-4])
    def test_coordinates_near_1e12_with_a_tiny_radius(self, radius):
        # ulp(1e12) is ~1.2e-4: at 1e-6, x ± r rounds back to x; at
        # 1e-4, cell coordinates pass 2^53 while x ± r still moves.
        rng = np.random.default_rng(13)
        step = 0.7 * radius
        starts = 1e12 + rng.integers(0, 6, (60, 2)) * step
        ends = starts + rng.integers(-3, 4, (60, 2)) * step
        store = SegmentSet(starts, ends)
        grid = SegmentGrid(store, radius)
        indices = np.arange(len(store))
        assert_exact(grid, store, indices, indices)

    def test_window_reaches_every_gap_the_float_test_admits(self):
        # |1.0 - (-1e-20)| rounds to 1.0, so the test admits this pair
        # at radius 1.0, yet fl(1.0 - 1.0) = 0.0 starts the window one
        # cell above -1e-20: the window must reach a little past r.
        store = SegmentSet(
            np.array([[1.0, 0.0], [-1e-20, 0.0]]),
            np.array([[1.0, 0.0], [-1e-20, 0.0]]),
        )
        grid = SegmentGrid(store, 1.0)
        assert_exact(grid, store, [0, 1], [0, 1])
        assert grid.candidates_near_many(np.array([0]))[1].tolist() == [0, 1]

    def test_small_blocks_same_answer(self, random_segments, monkeypatch):
        grid = SegmentGrid(random_segments, 6.0)
        indices = np.arange(len(random_segments))
        whole = grid.candidates_near_many(indices)
        monkeypatch.setattr(grid_module, "DEFAULT_PAIR_BLOCK", 3)
        blocked = grid.candidates_near_many(indices)
        assert np.array_equal(whole[0], blocked[0])
        assert np.array_equal(whole[1], blocked[1])
