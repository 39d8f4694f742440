"""Unit tests for the Figure-12 line-segment DBSCAN."""

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN, cluster_segments
from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def band(n, y0=0.0, dy=0.5, traj_offset=0, seg_offset=0, x0=0.0):
    """n parallel unit-direction segments stacked dy apart, one per
    trajectory."""
    return [
        Segment([x0, y0 + k * dy], [x0 + 10.0, y0 + k * dy],
                traj_id=traj_offset + k, seg_id=seg_offset + k)
        for k in range(n)
    ]


class TestParameterValidation:
    def test_negative_eps_raises(self):
        with pytest.raises(ClusteringError):
            LineSegmentDBSCAN(eps=-1.0, min_lns=3)

    def test_non_positive_min_lns_raises(self):
        with pytest.raises(ClusteringError):
            LineSegmentDBSCAN(eps=1.0, min_lns=0)

    def test_empty_input(self):
        clusters, labels = LineSegmentDBSCAN(1.0, 3).fit(SegmentSet.empty())
        assert clusters == [] and labels.size == 0


class TestCoreBehaviour:
    def test_single_band_forms_one_cluster(self):
        store = SegmentSet.from_segments(band(6))
        clusters, labels = cluster_segments(store, eps=2.0, min_lns=3)
        assert len(clusters) == 1
        assert np.all(labels == 0)
        assert len(clusters[0]) == 6

    def test_two_separated_bands_form_two_clusters(self):
        segments = band(5) + band(5, y0=100.0, traj_offset=10, seg_offset=5)
        store = SegmentSet.from_segments(segments)
        clusters, labels = cluster_segments(store, eps=2.0, min_lns=3)
        assert len(clusters) == 2
        assert set(labels[:5].tolist()) == {0}
        assert set(labels[5:].tolist()) == {1}

    def test_isolated_segments_are_noise(self, parallel_band_segments):
        clusters, labels = cluster_segments(
            parallel_band_segments, eps=1.5, min_lns=3
        )
        assert labels[6] == NOISE and labels[7] == NOISE
        assert len(clusters) == 1

    def test_eps_zero_everything_noise(self, parallel_band_segments):
        clusters, labels = cluster_segments(
            parallel_band_segments, eps=0.0, min_lns=2
        )
        # Every segment only neighbors itself; min_lns=2 is unreachable.
        assert clusters == []
        assert np.all(labels == NOISE)

    def test_min_lns_one_makes_every_segment_its_own_cluster_seed(self):
        # With min_lns=1 every segment is core; disconnected segments
        # become singleton clusters (cardinality threshold 1 keeps them).
        segments = [
            Segment([0.0, 0.0], [1.0, 0.0], traj_id=0, seg_id=0),
            Segment([100.0, 0.0], [101.0, 0.0], traj_id=1, seg_id=1),
        ]
        store = SegmentSet.from_segments(segments)
        clusters, labels = cluster_segments(store, eps=1.0, min_lns=1)
        assert len(clusters) == 2

    def test_opposite_direction_band_does_not_merge_when_directed(self):
        forward = band(4)
        backward = [
            Segment([10.0, 2.0 + 0.5 * k], [0.0, 2.0 + 0.5 * k],
                    traj_id=20 + k, seg_id=4 + k)
            for k in range(4)
        ]
        store = SegmentSet.from_segments(forward + backward)
        clusters, labels = cluster_segments(store, eps=2.5, min_lns=3)
        # Directed angle distance charges ||Lj|| = 10 for antiparallel
        # pairs, far above eps: the bands stay separate.
        forward_labels = set(labels[:4].tolist())
        backward_labels = set(labels[4:].tolist())
        assert forward_labels.isdisjoint(backward_labels)


class TestTrajectoryCardinalityFilter:
    def test_single_trajectory_cluster_removed(self):
        # A dense band whose segments all come from ONE trajectory.
        segments = [
            Segment([0.0, 0.5 * k], [10.0, 0.5 * k], traj_id=0, seg_id=k)
            for k in range(6)
        ]
        store = SegmentSet.from_segments(segments)
        clusters, labels = cluster_segments(store, eps=2.0, min_lns=3)
        assert clusters == []
        assert np.all(labels == NOISE)

    def test_custom_threshold(self):
        # 6 segments from 2 trajectories: removed at threshold 3,
        # kept at threshold 2.
        segments = [
            Segment([0.0, 0.5 * k], [10.0, 0.5 * k], traj_id=k % 2, seg_id=k)
            for k in range(6)
        ]
        store = SegmentSet.from_segments(segments)
        removed, _ = cluster_segments(store, eps=2.0, min_lns=3)
        assert removed == []
        kept, labels = cluster_segments(
            store, eps=2.0, min_lns=3, cardinality_threshold=2
        )
        assert len(kept) == 1
        assert np.all(labels == 0)

    def test_labels_renumbered_densely(self):
        # Cluster 0 (single-trajectory) is filtered; the surviving
        # cluster must be renumbered to 0 in both outputs.
        solo = [
            Segment([0.0, 0.5 * k], [10.0, 0.5 * k], traj_id=0, seg_id=k)
            for k in range(5)
        ]
        multi = band(5, y0=100.0, traj_offset=10, seg_offset=5)
        store = SegmentSet.from_segments(solo + multi)
        clusters, labels = cluster_segments(store, eps=2.0, min_lns=3)
        assert len(clusters) == 1
        assert clusters[0].cluster_id == 0
        assert set(labels[5:].tolist()) == {0}
        assert np.all(labels[:5] == NOISE)


class TestWeightedExtension:
    def test_weights_can_reach_min_lns_with_fewer_segments(self):
        # Two heavy segments (weight 3 each) == 6 >= min_lns, although
        # the unweighted count 2 < 4.
        segments = [
            Segment([0.0, 0.0], [10.0, 0.0], traj_id=0, seg_id=0, weight=3.0),
            Segment([0.0, 0.5], [10.0, 0.5], traj_id=1, seg_id=1, weight=3.0),
        ]
        store = SegmentSet.from_segments(segments)
        unweighted, _ = cluster_segments(
            store, eps=2.0, min_lns=4, cardinality_threshold=2
        )
        assert unweighted == []
        weighted, labels = cluster_segments(
            store, eps=2.0, min_lns=4, cardinality_threshold=2, use_weights=True
        )
        assert len(weighted) == 1
        assert np.all(labels == 0)

    def test_uniform_weights_match_unweighted(self, parallel_band_segments):
        plain, labels_plain = cluster_segments(
            parallel_band_segments, eps=1.5, min_lns=3
        )
        weighted, labels_weighted = cluster_segments(
            parallel_band_segments, eps=1.5, min_lns=3, use_weights=True
        )
        assert np.array_equal(labels_plain, labels_weighted)


class TestConsistencyInvariants:
    def test_labels_and_clusters_agree(self, random_segments):
        clusters, labels = cluster_segments(random_segments, eps=15.0, min_lns=3)
        for cluster in clusters:
            assert np.all(labels[cluster.member_indices] == cluster.cluster_id)
        clustered = set()
        for cluster in clusters:
            clustered.update(cluster.member_indices.tolist())
        for idx in np.nonzero(labels >= 0)[0]:
            assert int(idx) in clustered

    def test_every_cluster_has_a_core_segment(self, random_segments):
        eps, min_lns = 15.0, 3
        algo = LineSegmentDBSCAN(eps, min_lns)
        clusters, labels = algo.fit(random_segments)
        from repro.cluster.neighborhood import BruteForceNeighborhood

        engine = BruteForceNeighborhood(random_segments, eps)
        for cluster in clusters:
            core_found = any(
                engine.neighbors_of(int(i)).size >= min_lns
                for i in cluster.member_indices
            )
            assert core_found

    def test_batch_and_brute_give_same_clustering(self, random_segments):
        from repro.cluster.neighborhood import BruteForceNeighborhood

        _, labels_brute = LineSegmentDBSCAN(eps=12.0, min_lns=3).fit(
            random_segments,
            engine=BruteForceNeighborhood(random_segments, 12.0),
        )
        _, labels_batch = cluster_segments(random_segments, eps=12.0, min_lns=3)
        assert np.array_equal(labels_brute, labels_batch)
