"""Vectorized kernels must agree with the scalar reference exactly
(to float tolerance) on every pairing, including degenerate ones."""

import numpy as np
import pytest

from repro.distance.components import component_distances
from repro.distance.vectorized import component_distances_pairs
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def assert_agreement(store, directed=True, atol=1e-9):
    n = len(store)
    for qi in range(n):
        query = store.segment(qi)
        comps = component_distances_pairs(
            store, np.full(n, qi), np.arange(n), directed=directed
        )
        for j in range(n):
            expected = component_distances(query, store.segment(j), directed=directed)
            assert comps.perpendicular[j] == pytest.approx(
                expected.perpendicular, abs=atol
            ), (qi, j)
            assert comps.parallel[j] == pytest.approx(expected.parallel, abs=atol), (
                qi, j,
            )
            assert comps.angle[j] == pytest.approx(expected.angle, abs=atol), (qi, j)


class TestAgreementWithScalar:
    def test_random_segments_directed(self, random_segments):
        assert_agreement(random_segments, directed=True)

    def test_random_segments_undirected(self, random_segments):
        assert_agreement(random_segments, directed=False)

    def test_equal_length_ties(self):
        # All four segments have length 1 -> every pair is a tie and
        # must be ordered by seg_id identically in both code paths.
        store = SegmentSet.from_segments(
            [
                Segment([0.0, 0.0], [1.0, 0.0], seg_id=0),
                Segment([0.0, 1.0], [1.0, 1.0], seg_id=1),
                Segment([0.5, 2.0], [1.5, 2.0], seg_id=2),
                Segment([0.0, 3.0], [0.0, 4.0], seg_id=3),
            ]
        )
        assert_agreement(store)

    def test_degenerate_segments_mixed_in(self):
        store = SegmentSet.from_segments(
            [
                Segment([0.0, 0.0], [10.0, 0.0], seg_id=0),
                Segment([3.0, 3.0], [3.0, 3.0], seg_id=1),  # point
                Segment([5.0, 5.0], [5.0, 5.0], seg_id=2),  # point
                Segment([0.0, 1.0], [8.0, 1.0], seg_id=3),
            ]
        )
        assert_agreement(store)

    def test_three_dimensional_segments(self):
        rng = np.random.default_rng(9)
        store = SegmentSet.from_segments(
            [
                Segment(rng.uniform(0, 10, 3), rng.uniform(0, 10, 3), seg_id=i)
                for i in range(12)
            ]
        )
        assert_agreement(store)


class TestProperties:
    def test_self_distance_is_zero(self, random_segments):
        distance = SegmentDistance()
        for qi in [0, 13, 39]:
            comps = component_distances_pairs(random_segments, [qi], [qi])
            assert comps.weighted_sum()[0] == pytest.approx(0.0, abs=1e-12)
            assert distance.member_to_all(qi, random_segments)[qi] == 0.0

    def test_all_distances_non_negative(self, random_segments):
        distance = SegmentDistance()
        for qi in range(0, len(random_segments), 7):
            assert np.all(distance.member_to_all(qi, random_segments) >= 0.0)

    def test_empty_store(self):
        empty = SegmentSet.empty()
        none = np.empty(0, dtype=np.int64)
        comps = component_distances_pairs(empty, none, none)
        assert comps.perpendicular.shape == (0,)
        assert SegmentDistance().pairs(empty, none, none).shape == (0,)
        with pytest.raises(IndexError):
            SegmentDistance().member_to_all(0, empty)

    @pytest.mark.parametrize("index", [-1, 40])
    def test_member_index_out_of_range_raises(self, random_segments, index):
        # The compiled pair kernel does not bounds-check its indices.
        with pytest.raises(IndexError):
            SegmentDistance().member_to_all(index, random_segments)

    def test_weighted_sum_applies_weights(self, random_segments):
        n = len(random_segments)
        comps = component_distances_pairs(
            random_segments, np.full(n, 4), np.arange(n)
        )
        combined = SegmentDistance(
            w_perp=2.0, w_par=0.5, w_theta=3.0
        ).member_to_all(4, random_segments)
        expected = (
            2.0 * comps.perpendicular + 0.5 * comps.parallel + 3.0 * comps.angle
        )
        assert np.allclose(combined, expected)
