"""Unit tests for QMeasure (Formula 11)."""

import itertools
import math

import numpy as np
import pytest

from repro.cluster.dbscan import cluster_segments
from repro.distance.weighted import SegmentDistance
from repro.model.cluster import NOISE, Cluster
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.quality.qmeasure import (
    cluster_sse,
    noise_penalty,
    quality_measure,
)


@pytest.fixture
def pair_store():
    """Two parallel segments at d_perp 2 apart; dist = 2 exactly."""
    return SegmentSet.from_segments(
        [
            Segment([0.0, 0.0], [10.0, 0.0], traj_id=0, seg_id=0),
            Segment([0.0, 2.0], [10.0, 2.0], traj_id=1, seg_id=1),
        ]
    )


class TestClusterSSE:
    def test_hand_computed_pair(self, pair_store):
        cluster = Cluster(0, [0, 1], pair_store)
        # sum over ordered pairs of dist^2 = 2 * (2^2) = 8; / (2*|C|=4) -> 2
        assert cluster_sse(cluster) == pytest.approx(2.0)

    def test_singleton_cluster_is_zero(self, pair_store):
        assert cluster_sse(Cluster(0, [0], pair_store)) == 0.0

    def test_tighter_cluster_has_smaller_sse(self):
        def make(dy):
            store = SegmentSet.from_segments(
                [
                    Segment([0.0, k * dy], [10.0, k * dy], traj_id=k, seg_id=k)
                    for k in range(4)
                ]
            )
            return cluster_sse(Cluster(0, [0, 1, 2, 3], store))

        assert make(0.5) < make(2.0)


class TestMemberOrder:
    """Lemma 2 breaks equal-length ties by segment id: the SSE must use
    the stored ids, not positions in ``member_indices``."""

    @pytest.fixture
    def equal_lengths(self):
        r = 2 * math.sqrt(2)
        return SegmentSet(
            np.array([[0.0, 0.0], [1.0, 3.0], [5.0, -2.0]]),
            np.array([[4.0, 0.0], [1.0, 7.0], [5.0 + r, -2.0 + r]]),
        )

    def test_every_member_order_gives_the_stored_id_value(self, equal_lengths):
        store = equal_lengths
        assert np.unique(store.lengths).size == 1  # all three tie
        distance = SegmentDistance()
        scalar = sum(
            distance(store.segment(i), store.segment(j)) ** 2
            for i in range(3) for j in range(3)
        ) / 6.0
        values = {
            cluster_sse(Cluster(0, list(order), store))
            for order in itertools.permutations(range(3))
        }
        assert len(values) == 1
        assert values.pop() == pytest.approx(scalar, rel=1e-12)


class TestNoisePenalty:
    def test_no_noise_is_zero(self, pair_store):
        labels = np.array([0, 0])
        assert noise_penalty(pair_store, labels) == 0.0

    def test_hand_computed(self, pair_store):
        labels = np.array([NOISE, NOISE])
        # Same arithmetic as the SSE of the pair.
        assert noise_penalty(pair_store, labels) == pytest.approx(2.0)

    def test_single_noise_segment_is_zero(self, pair_store):
        labels = np.array([0, NOISE])
        assert noise_penalty(pair_store, labels) == 0.0

    def test_noise_index_beyond_the_store_raises(self, pair_store):
        # Checked before any index reaches the compiled pair kernel.
        with pytest.raises(IndexError):
            noise_penalty(pair_store, np.array([NOISE, NOISE, NOISE]))


class TestQualityMeasure:
    def test_sum_of_parts(self, pair_store):
        cluster = Cluster(0, [0, 1], pair_store)
        labels = np.array([0, 0])
        breakdown = quality_measure([cluster], pair_store, labels)
        assert breakdown.qmeasure == breakdown.total_sse + breakdown.noise_penalty
        assert breakdown.total_sse == pytest.approx(2.0)
        assert breakdown.noise_penalty == 0.0

    def test_good_eps_beats_tiny_eps(self, parallel_band_segments):
        """With a sensible eps the band clusters cleanly; with a tiny
        eps everything is noise and the penalty dominates (the Figure
        17/20 shape: QMeasure dips near the optimum)."""
        distance = SegmentDistance()

        def measure(eps):
            clusters, labels = cluster_segments(
                parallel_band_segments, eps=eps, min_lns=3
            )
            return quality_measure(
                clusters, parallel_band_segments, labels, distance
            ).qmeasure

        assert measure(1.5) < measure(0.01)

    def test_custom_distance_respected(self, pair_store):
        cluster = Cluster(0, [0, 1], pair_store)
        labels = np.array([0, 0])
        doubled = quality_measure(
            [cluster], pair_store, labels, SegmentDistance(w_perp=2.0)
        )
        # Distance doubles -> squared distances quadruple.
        assert doubled.total_sse == pytest.approx(8.0)
