"""Hypothesis property tests for the clustering invariants
(Definitions 4-10 realised)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.dbscan import LineSegmentDBSCAN, cluster_segments
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.model.cluster import NOISE
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet

coordinate = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


@st.composite
def segment_store(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    segments = []
    for i in range(n):
        vals = [draw(coordinate) for _ in range(4)]
        segments.append(
            Segment(vals[0:2], vals[2:4], seg_id=i, traj_id=i % 4)
        )
    return SegmentSet.from_segments(segments)


clustering_params = st.tuples(
    st.floats(min_value=0.5, max_value=60.0),
    st.integers(min_value=1, max_value=5),
)


class TestDBSCANInvariants:
    @given(segment_store(), clustering_params)
    @settings(max_examples=60, deadline=None)
    def test_labels_partition_the_input(self, store, params):
        eps, min_lns = params
        clusters, labels = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=0
        )
        assert labels.shape == (len(store),)
        # Every segment is either noise or belongs to exactly one cluster.
        assert np.all((labels == NOISE) | (labels >= 0))
        member_union = set()
        for cluster in clusters:
            members = set(cluster.member_indices.tolist())
            assert member_union.isdisjoint(members)
            member_union |= members
        assert member_union == set(np.nonzero(labels >= 0)[0].tolist())

    @given(segment_store(), clustering_params)
    @settings(max_examples=40, deadline=None)
    def test_every_cluster_contains_a_core_segment(self, store, params):
        eps, min_lns = params
        clusters, _ = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=0
        )
        engine = BruteForceNeighborhood(store, eps)
        for cluster in clusters:
            assert any(
                engine.neighbors_of(int(i)).size >= min_lns
                for i in cluster.member_indices
            )

    @given(segment_store(), clustering_params)
    @settings(max_examples=40, deadline=None)
    def test_maximality(self, store, params):
        """Definition 9 (2): everything within eps of a core member of a
        cluster belongs to some cluster (never noise)."""
        eps, min_lns = params
        clusters, labels = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=0
        )
        engine = BruteForceNeighborhood(store, eps)
        for cluster in clusters:
            for i in cluster.member_indices:
                neighbors = engine.neighbors_of(int(i))
                if neighbors.size >= min_lns:  # i is core
                    assert np.all(labels[neighbors] >= 0)

    @given(segment_store(), clustering_params)
    @settings(max_examples=40, deadline=None)
    def test_noise_segments_are_never_core(self, store, params):
        eps, min_lns = params
        _, labels = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=0
        )
        engine = BruteForceNeighborhood(store, eps)
        for i in np.nonzero(labels == NOISE)[0]:
            assert engine.neighbors_of(int(i)).size < min_lns

    @given(segment_store(), clustering_params)
    @settings(max_examples=30, deadline=None)
    def test_cardinality_filter_only_removes(self, store, params):
        eps, min_lns = params
        unfiltered, _ = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=0
        )
        filtered, _ = cluster_segments(
            store, eps=eps, min_lns=min_lns, cardinality_threshold=3
        )
        assert len(filtered) <= len(unfiltered)
        for cluster in filtered:
            assert cluster.trajectory_cardinality() >= 3

    @given(segment_store(), clustering_params)
    @settings(max_examples=25, deadline=None)
    def test_batch_engine_equivalent(self, store, params):
        eps, min_lns = params
        _, labels_brute = LineSegmentDBSCAN(eps, min_lns).fit(
            store, engine=BruteForceNeighborhood(store, eps)
        )
        _, labels_batch = cluster_segments(store, eps=eps, min_lns=min_lns)
        assert np.array_equal(labels_brute, labels_batch)
