"""Unit tests for the Figure-15 sweep-line representative."""

import numpy as np
import pytest

from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.representative.sweep import (
    RepresentativeConfig,
    generate_all_representatives,
    generate_representative,
)


def cluster_of(*pairs):
    store = SegmentSet.from_segments(
        [Segment(a, b, traj_id=i, seg_id=i) for i, (a, b) in enumerate(pairs)]
    )
    return Cluster(0, list(range(len(pairs))), store)


class TestConfig:
    def test_rejects_bad_min_lns(self):
        with pytest.raises(ClusteringError):
            RepresentativeConfig(min_lns=0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ClusteringError):
            RepresentativeConfig(gamma=-1.0)

    @pytest.mark.parametrize("field", ["min_lns", "gamma"])
    def test_rejects_nan(self, field):
        with pytest.raises(ClusteringError, match=f"{field} must be"):
            RepresentativeConfig(**{field: float("nan")})


class TestHorizontalBand:
    def test_representative_runs_through_the_middle(self):
        c = cluster_of(
            ([0, 0], [10, 0]), ([0, 1], [10, 1]), ([0, 2], [10, 2])
        )
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert rep.shape[0] >= 2
        # All averaged points sit at y = 1 (the band middle).
        assert np.allclose(rep[:, 1], 1.0, atol=1e-9)
        # And x runs from the common start to the common end.
        assert rep[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert rep[-1, 0] == pytest.approx(10.0, abs=1e-9)

    def test_x_coordinates_strictly_increase_along_major_axis(self):
        c = cluster_of(
            ([0, 0], [10, 0]), ([2, 1], [12, 1]), ([1, 2], [11, 2])
        )
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert np.all(np.diff(rep[:, 0]) > 0)

    def test_min_lns_gates_sparse_regions(self):
        # Staggered segments: only the overlap [4, 6] is crossed by all 3.
        c = cluster_of(
            ([0, 0], [6, 0]), ([4, 1], [10, 1]), ([4, 2], [6, 2])
        )
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert rep.shape[0] >= 2
        assert rep[:, 0].min() >= 4.0 - 1e-9
        assert rep[:, 0].max() <= 6.0 + 1e-9

    def test_no_position_reaches_min_lns(self):
        c = cluster_of(([0, 0], [3, 0]), ([5, 1], [8, 1]))
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert rep.shape == (0, 2)


class TestGammaSmoothing:
    def test_gamma_thins_the_points(self):
        segments = [([k * 0.5, 0.0], [k * 0.5 + 5.0, 0.0]) for k in range(8)]
        c = cluster_of(*segments)
        dense = generate_representative(c, RepresentativeConfig(min_lns=3, gamma=0.0))
        sparse = generate_representative(c, RepresentativeConfig(min_lns=3, gamma=2.0))
        assert sparse.shape[0] < dense.shape[0]
        assert sparse.shape[0] >= 2

    def test_gamma_enforces_minimum_spacing(self):
        segments = [([k * 0.5, 0.0], [k * 0.5 + 5.0, 0.0]) for k in range(8)]
        c = cluster_of(*segments)
        rep = generate_representative(c, RepresentativeConfig(min_lns=3, gamma=1.5))
        gaps = np.diff(rep[:, 0])
        assert np.all(gaps >= 1.5 - 1e-9)


class TestOrientation:
    def test_diagonal_cluster(self):
        # Band of segments along the diagonal y = x.
        c = cluster_of(
            ([0, 0], [10, 10]), ([1, 0], [11, 10]), ([0, 1], [10, 11])
        )
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert rep.shape[0] >= 2
        # Representative advances along the diagonal.
        direction = rep[-1] - rep[0]
        assert direction[0] > 0 and direction[1] > 0

    def test_vertical_cluster(self):
        c = cluster_of(
            ([0, 0], [0, 10]), ([1, 0], [1, 10]), ([2, 1], [2, 11])
        )
        rep = generate_representative(c, RepresentativeConfig(min_lns=3))
        assert rep.shape[0] >= 2
        assert abs(rep[-1][1] - rep[0][1]) > abs(rep[-1][0] - rep[0][0])

    def test_translation_equivariance(self):
        pairs = [([0, 0], [10, 0]), ([0, 1], [10, 1]), ([0, 2], [10, 2])]
        c1 = cluster_of(*pairs)
        shifted = [
            ([a[0] + 500, a[1] - 300], [b[0] + 500, b[1] - 300])
            for a, b in pairs
        ]
        c2 = cluster_of(*shifted)
        rep1 = generate_representative(c1, RepresentativeConfig(min_lns=3))
        rep2 = generate_representative(c2, RepresentativeConfig(min_lns=3))
        assert np.allclose(rep1 + np.array([500.0, -300.0]), rep2, atol=1e-6)


class TestGenerateAll:
    def test_attaches_representatives(self):
        c1 = cluster_of(([0, 0], [10, 0]), ([0, 1], [10, 1]), ([0, 2], [10, 2]))
        reps = generate_all_representatives([c1], RepresentativeConfig(min_lns=3))
        assert len(reps) == 1
        assert c1.representative is reps[0]
