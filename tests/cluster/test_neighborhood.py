"""Unit tests for ε-neighborhood engines: brute force, and the grid
index queried at the Lemma-3 candidate radius, must be exactly
equivalent."""

import numpy as np
import pytest

from repro.cluster.neighbor_graph import candidate_radius
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.index.grid import SegmentGrid
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


def grid_neighbors(segments, eps, distance=None):
    """``N_eps`` of every segment through the grid index: candidates
    within :func:`candidate_radius`, kept when their exact distance is
    at most ε.  Also checks the candidates: exactly the segments with
    an endpoint pair within the radius, and every brute-force neighbor
    among them."""
    distance = distance if distance is not None else SegmentDistance()
    radius = candidate_radius(eps, distance)
    n = len(segments)
    query_pos, found = SegmentGrid(segments, radius).candidates_near_many(
        np.arange(n)
    )
    ends = np.stack([segments.starts, segments.ends], axis=1)
    gaps = (ends[:, None, :, None] - ends[None, :, None, :]).reshape(-1, 2)
    near = np.einsum("ij,ij->i", gaps, gaps) <= radius * radius
    near = near.reshape(n, n, 4).any(axis=2)
    brute = BruteForceNeighborhood(segments, eps, distance)
    rows = []
    for i in range(n):
        candidates = found[query_pos == i]
        assert np.array_equal(candidates, np.flatnonzero(near[i]))
        assert np.isin(brute.neighbors_of(i), candidates).all()
        dists = distance.member_to_all(i, segments)[candidates]
        rows.append(candidates[dists <= eps].tolist())
    return rows


class TestBruteForce:
    def test_includes_self(self, random_segments):
        engine = BruteForceNeighborhood(random_segments, eps=0.0)
        for i in [0, 10, 39]:
            assert i in engine.neighbors_of(i)

    def test_eps_zero_on_separated_segments(self, parallel_band_segments):
        engine = BruteForceNeighborhood(parallel_band_segments, eps=0.0)
        assert engine.neighbors_of(0).tolist() == [0]

    def test_large_eps_includes_everything(self, random_segments):
        engine = BruteForceNeighborhood(random_segments, eps=1e9)
        assert engine.neighbors_of(5).size == len(random_segments)

    def test_band_neighbors(self, parallel_band_segments):
        # The 6 band segments are 0.5 apart in d_perp; eps=1.5 links
        # each to several band mates but not to the far outliers.
        engine = BruteForceNeighborhood(parallel_band_segments, eps=1.5)
        neighbors = set(engine.neighbors_of(0).tolist())
        assert 6 not in neighbors and 7 not in neighbors
        assert len(neighbors) >= 3

    def test_negative_eps_raises(self, random_segments):
        with pytest.raises(ClusteringError):
            BruteForceNeighborhood(random_segments, eps=-1.0)

    def test_neighborhood_sizes(self, parallel_band_segments):
        engine = BruteForceNeighborhood(parallel_band_segments, eps=1.5)
        sizes = engine.neighborhood_sizes()
        assert sizes.shape == (len(parallel_band_segments),)
        assert sizes[6] == 1  # outliers only see themselves
        assert sizes[0] >= 3


class TestGridEquivalence:
    @pytest.mark.parametrize("eps", [0.5, 2.0, 10.0, 40.0])
    def test_grid_equals_brute_random(self, random_segments, eps):
        brute = BruteForceNeighborhood(random_segments, eps)
        grid = grid_neighbors(random_segments, eps)
        for i in range(len(random_segments)):
            assert grid[i] == brute.neighbors_of(i).tolist()

    def test_grid_equals_brute_with_weights(self, random_segments):
        distance = SegmentDistance(w_perp=2.0, w_par=0.5, w_theta=1.5)
        brute = BruteForceNeighborhood(random_segments, 8.0, distance)
        grid = grid_neighbors(random_segments, 8.0, distance)
        for i in range(len(random_segments)):
            assert grid[i] == brute.neighbors_of(i).tolist()

    def test_grid_handles_long_outlier_segment(self):
        segments = [
            Segment([0.0, 0.0], [1.0, 0.0], seg_id=0),
            Segment([0.0, 1.0], [1.0, 1.0], seg_id=1),
            Segment([-1e5, -1e5], [1e5, 1e5], seg_id=2),  # far-apart ends
        ]
        store = SegmentSet.from_segments(segments)
        grid = grid_neighbors(store, eps=2.0)
        brute = BruteForceNeighborhood(store, eps=2.0)
        for i in range(3):
            assert grid[i] == brute.neighbors_of(i).tolist()

