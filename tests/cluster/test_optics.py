"""Unit tests for segment-OPTICS (Appendix D)."""

import math

import numpy as np
import pytest

from repro.cluster.dbscan import cluster_segments
from repro.cluster.optics import LineSegmentOPTICS
from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def two_bands():
    segments = []
    for k in range(5):
        segments.append(
            Segment([0.0, 0.5 * k], [10.0, 0.5 * k], traj_id=k, seg_id=k)
        )
    for k in range(5):
        segments.append(
            Segment([0.0, 200.0 + 0.5 * k], [10.0, 200.0 + 0.5 * k],
                    traj_id=10 + k, seg_id=5 + k)
        )
    return SegmentSet.from_segments(segments)


class TestValidation:
    def test_negative_eps_raises(self):
        with pytest.raises(ClusteringError):
            LineSegmentOPTICS(eps=-1.0, min_lns=3)

    def test_min_lns_below_one_raises(self):
        with pytest.raises(ClusteringError):
            LineSegmentOPTICS(eps=1.0, min_lns=0)

    @pytest.mark.parametrize("min_lns,valid", [
        (math.inf, True), (2.5, False),
    ])
    def test_infinite_or_fractional_min_lns(self, min_lns, valid):
        """+inf is DBSCAN's all-noise (no core distance, no finite
        reachability); a fractional MinLns is refused, not truncated."""
        store = two_bands()
        if not valid:
            with pytest.raises(ClusteringError, match="2.5"):
                LineSegmentOPTICS(eps=3.0, min_lns=min_lns)
            return
        result = LineSegmentOPTICS(eps=3.0, min_lns=min_lns).fit(store)
        assert np.isinf(result.core_distance).all()
        assert np.isinf(result.reachability).all()
        _, dbscan_labels = cluster_segments(
            store, eps=3.0, min_lns=min_lns, cardinality_threshold=0
        )
        assert (dbscan_labels == NOISE).all()
        assert (result.extract_dbscan(3.0) == NOISE).all()


class TestOrderingAndReachability:
    def test_ordering_is_a_permutation(self, random_segments):
        result = LineSegmentOPTICS(eps=20.0, min_lns=3).fit(random_segments)
        assert sorted(result.ordering.tolist()) == list(range(len(random_segments)))

    def test_first_point_has_undefined_reachability(self):
        store = two_bands()
        result = LineSegmentOPTICS(eps=3.0, min_lns=3).fit(store)
        first = result.ordering[0]
        assert math.isinf(result.reachability[first])

    def test_core_distances_bounded_by_eps(self, random_segments):
        eps = 20.0
        result = LineSegmentOPTICS(eps=eps, min_lns=3).fit(random_segments)
        finite = result.core_distance[np.isfinite(result.core_distance)]
        assert np.all(finite <= eps + 1e-9)

    def test_band_gap_appears_in_reachability_plot(self):
        store = two_bands()
        result = LineSegmentOPTICS(eps=5.0, min_lns=3).fit(store)
        plot = result.reachability_in_order()
        # Crossing from one band to the other is impossible within eps:
        # the second band starts a fresh (infinite-reachability) group.
        assert np.sum(np.isinf(plot)) >= 2

    def test_reachability_at_least_core_distance_of_predecessor(self):
        store = two_bands()
        result = LineSegmentOPTICS(eps=5.0, min_lns=2).fit(store)
        finite_mask = np.isfinite(result.reachability)
        assert np.all(result.reachability[finite_mask] >= 0.0)


class TestExtractDBSCAN:
    def test_extraction_matches_dbscan_cluster_count(self):
        store = two_bands()
        optics = LineSegmentOPTICS(eps=5.0, min_lns=3).fit(store)
        labels_optics = optics.extract_dbscan(eps_prime=3.0)
        clusters, labels_dbscan = cluster_segments(
            store, eps=3.0, min_lns=3, cardinality_threshold=0
        )
        n_optics = len(set(labels_optics[labels_optics >= 0].tolist()))
        assert n_optics == len(clusters) == 2

    def test_extraction_labels_shape(self, random_segments):
        optics = LineSegmentOPTICS(eps=20.0, min_lns=3).fit(random_segments)
        labels = optics.extract_dbscan(10.0)
        assert labels.shape == (len(random_segments),)
