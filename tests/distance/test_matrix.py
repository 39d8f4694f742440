"""Unit tests for pairwise distance matrices."""

import math

import numpy as np
import pytest

from repro import kernels
from repro.distance.matrix import pairwise_distance_matrix
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def row_loop_matrix(segments, distance, indices):
    """The reference: one ``member_to_all`` row per member of
    ``segments.subset(indices)``.  With ascending *indices* the subset's
    positional ids order like the stored ids, so Lemma 2's tie-break
    picks the same roles as on the stored segments."""
    subset = segments.subset(indices)
    matrix = np.zeros((len(subset), len(subset)))
    for i in range(len(subset)):
        matrix[i, :] = distance.member_to_all(i, subset)
    return matrix


def tie_store():
    """Lattice segments with many equal lengths (the tie-break matters),
    duplicates and a degenerate point."""
    r = 2 * math.sqrt(2)
    raw = [
        ([0, 0], [4, 0]), ([1, 3], [1, 7]), ([5, -2], [5 + r, -2 + r]),
        ([0, 1], [4, 1]), ([0, 0], [4, 0]), ([2, 2], [2, 2]),
        ([3, 0], [3, 4]), ([-1, 5], [3, 5]), ([6, 6], [2, 6]),
    ]
    return SegmentSet.from_segments([
        Segment(start, end, traj_id=k % 3, seg_id=k)
        for k, (start, end) in enumerate(raw)
    ])


class TestPairwiseMatrix:
    def test_shape_symmetry_zero_diagonal(self, random_segments):
        matrix = pairwise_distance_matrix(random_segments)
        n = len(random_segments)
        assert matrix.shape == (n, n)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matches_scalar_distance(self, random_segments):
        d = SegmentDistance()
        matrix = pairwise_distance_matrix(random_segments, d)
        for i, j in [(0, 1), (5, 20), (13, 39)]:
            expected = d(random_segments.segment(i), random_segments.segment(j))
            assert matrix[i, j] == pytest.approx(expected, abs=1e-9)

    def test_subset_selection(self, random_segments):
        indices = [3, 8, 15]
        matrix = pairwise_distance_matrix(random_segments, indices=indices)
        assert matrix.shape == (3, 3)
        d = SegmentDistance()
        expected = d(random_segments.segment(3), random_segments.segment(8))
        assert matrix[0, 1] == pytest.approx(expected, abs=1e-9)

    def test_empty_subset(self, random_segments):
        matrix = pairwise_distance_matrix(random_segments, indices=[])
        assert matrix.shape == (0, 0)

    def test_empty_store(self):
        matrix = pairwise_distance_matrix(SegmentSet.empty())
        assert matrix.shape == (0, 0)

    def test_all_entries_non_negative(self, random_segments):
        matrix = pairwise_distance_matrix(random_segments)
        assert np.all(matrix >= 0.0)


@pytest.mark.parametrize("directed", [True, False])
class TestAgainstRowLoop:
    """Each pair is evaluated once and mirrored: bitwise the matrix the
    per-member row loop builds, on either backend."""

    @pytest.mark.parametrize("store_name", ["random", "ties"])
    def test_full_store_bitwise(self, pair_backend, directed, store_name,
                                random_segments):
        store = random_segments if store_name == "random" else tie_store()
        distance = SegmentDistance(w_theta=0.5, directed=directed)
        expected = row_loop_matrix(store, distance, np.arange(len(store)))
        with kernels.use_backend(pair_backend):
            matrix = pairwise_distance_matrix(store, distance)
        assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(matrix, matrix.T)

    def test_ascending_subset_bitwise(self, pair_backend, directed,
                                      random_segments):
        distance = SegmentDistance(directed=directed)
        indices = np.array([1, 4, 5, 9, 17, 22, 23, 31, 38])
        expected = row_loop_matrix(random_segments, distance, indices)
        with kernels.use_backend(pair_backend):
            matrix = pairwise_distance_matrix(
                random_segments, distance, indices=indices
            )
        assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))


class TestStoredIds:
    def test_entry_is_the_stored_pair_distance(self):
        """Entry ``[a, b]`` is ``dist(indices[a], indices[b])`` on the
        stored segments, whatever the order of *indices*."""
        store = tie_store()
        distance = SegmentDistance()
        ascending = pairwise_distance_matrix(store, distance)
        order = np.array([2, 0, 8, 1, 5, 4, 7, 3, 6])
        permuted = pairwise_distance_matrix(store, distance, indices=order)
        assert np.array_equal(permuted, ascending[np.ix_(order, order)])
        for a, b in [(0, 1), (0, 3), (1, 2), (5, 6)]:
            assert permuted[a, b] == pytest.approx(
                distance(store.segment(order[a]), store.segment(order[b])),
                abs=1e-9,
            )

    def test_out_of_range_index_raises(self, random_segments):
        with pytest.raises(IndexError):
            pairwise_distance_matrix(random_segments, indices=[0, 40])
