"""Regression: DBSCAN output on its default ε-graph is bit-identical
to a fit over the brute-force oracle on the synthetic benchmark
datasets.

The batched engine evaluates each segment pair once and mirrors it;
the oracle evaluates both directions independently.  Because both
share one distance kernel (whose pair arithmetic is exactly
symmetric), the Figure 12 algorithm must walk the identical
neighborhoods in the identical order — same labels, same cluster
count, same membership — not merely an equally-good clustering.
"""

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.datasets.synthetic import (
    add_noise_trajectories,
    generate_common_subtrajectory_set,
    generate_corridor_set,
)
from repro.partition.approximate import partition_all


def _segments(trajectories):
    segments, _ = partition_all(trajectories)
    return segments


@pytest.fixture(scope="module")
def corridor_segments():
    return _segments(generate_corridor_set(n_trajectories=12, seed=5))


@pytest.fixture(scope="module")
def two_corridor_segments():
    return _segments(
        generate_common_subtrajectory_set(trajectories_per_corridor=8, seed=11)
    )


@pytest.fixture(scope="module")
def noisy_segments():
    clean = generate_corridor_set(n_trajectories=12, seed=7)
    return _segments(
        add_noise_trajectories(clean, noise_fraction=0.25, seed=8)
    )


def _fit_both_engines(segments, **kwargs):
    dbscan = LineSegmentDBSCAN(**kwargs)
    oracle = BruteForceNeighborhood(segments, dbscan.eps, dbscan.distance)
    return {
        "brute": dbscan.fit(segments, engine=oracle),
        "batch": dbscan.fit(segments),
    }


def _assert_identical(outcomes):
    ref_clusters, ref_labels = outcomes["brute"]
    clusters, labels = outcomes["batch"]
    assert np.array_equal(ref_labels, labels), (
        "labels diverge between the oracle and the ε-graph"
    )
    assert len(clusters) == len(ref_clusters)
    for ours, theirs in zip(clusters, ref_clusters):
        assert ours.cluster_id == theirs.cluster_id
        assert np.array_equal(ours.member_indices, theirs.member_indices)


class TestLabelRegression:
    @pytest.mark.parametrize("eps,min_lns", [(6.0, 4), (10.0, 6)])
    def test_corridor(self, corridor_segments, eps, min_lns):
        _assert_identical(
            _fit_both_engines(corridor_segments, eps=eps, min_lns=min_lns)
        )

    def test_two_corridors(self, two_corridor_segments):
        outcomes = _fit_both_engines(
            two_corridor_segments, eps=8.0, min_lns=5
        )
        _assert_identical(outcomes)
        clusters, _ = outcomes["batch"]
        assert len(clusters) >= 2  # one cluster per corridor survives

    def test_noisy_corridor(self, noisy_segments):
        _assert_identical(_fit_both_engines(noisy_segments, eps=7.0, min_lns=5))

    def test_weighted_cardinality(self, corridor_segments):
        _assert_identical(
            _fit_both_engines(
                corridor_segments, eps=8.0, min_lns=4, use_weights=True
            )
        )
