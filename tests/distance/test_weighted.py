"""Unit tests for the SegmentDistance facade."""

import numpy as np
import pytest

from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.segment import Segment


class TestConstruction:
    def test_defaults(self):
        d = SegmentDistance()
        assert d.w_perp == d.w_par == d.w_theta == 1.0
        assert d.directed is True

    def test_negative_weight_raises(self):
        with pytest.raises(ClusteringError):
            SegmentDistance(w_perp=-1.0)

    @pytest.mark.parametrize("name,value", [
        ("w_perp", float("inf")),
        ("w_par", float("nan")),
        ("w_theta", float("nan")),
        ("w_theta", float("inf")),
    ])
    def test_non_finite_weight_raises(self, name, value):
        with pytest.raises(ClusteringError, match=f"{name} must be"):
            SegmentDistance(**{name: value})

    def test_all_zero_weights_raise(self):
        with pytest.raises(ClusteringError):
            SegmentDistance(w_perp=0.0, w_par=0.0, w_theta=0.0)

    def test_single_zero_weight_allowed(self):
        d = SegmentDistance(w_theta=0.0)
        assert d.w_theta == 0.0


class TestCallable:
    def test_symmetric(self):
        d = SegmentDistance()
        a = Segment([0.0, 0.0], [10.0, 0.0], seg_id=0)
        b = Segment([3.0, 2.0], [9.0, 5.0], seg_id=1)
        assert d(a, b) == pytest.approx(d(b, a))

    def test_zero_on_identical(self):
        d = SegmentDistance()
        a = Segment([1.0, 1.0], [4.0, 4.0], seg_id=0)
        assert d(a, a) == 0.0

    def test_weights_scale_components(self):
        a = Segment([0.0, 0.0], [10.0, 0.0], seg_id=0)
        b = Segment([2.0, 5.0], [7.0, 5.0], seg_id=1)  # d_perp=5, d_par=2, d_theta=0
        assert SegmentDistance()(a, b) == pytest.approx(7.0)
        assert SegmentDistance(w_perp=2.0)(a, b) == pytest.approx(12.0)
        assert SegmentDistance(w_par=0.0)(a, b) == pytest.approx(5.0)

    def test_directed_flag_changes_opposite_directions(self):
        a = Segment([0.0, 0.0], [10.0, 0.0], seg_id=0)
        b = Segment([10.0, 1.0], [0.0, 1.0], seg_id=1)
        directed = SegmentDistance(directed=True)(a, b)
        undirected = SegmentDistance(directed=False)(a, b)
        assert directed > undirected

    def test_not_a_metric(self):
        # The paper: dist(L1, L3) > dist(L1, L2) + dist(L2, L3) can occur.
        # A short middle segment makes both hops cheap while the direct
        # distance stays large (Figure 11's phenomenon).
        d = SegmentDistance()
        l1 = Segment([0.0, 0.0], [10.0, 0.0], seg_id=0)
        l2 = Segment([20.0, 0.5], [20.4, 0.5], seg_id=1)  # very short
        l3 = Segment([30.0, 1.0], [40.0, 1.0], seg_id=2)
        assert d(l1, l3) > d(l1, l2) + d(l2, l3)


class TestVectorizedFacade:
    def test_member_to_all_zero_diagonal(self, random_segments):
        d = SegmentDistance()
        row = d.member_to_all(6, random_segments)
        assert row[6] == pytest.approx(0.0, abs=1e-12)
        assert row.shape == (len(random_segments),)

    def test_to_all_matches_scalar(self, random_segments):
        d = SegmentDistance(w_perp=1.5, w_par=0.7, w_theta=2.0, directed=False)
        row = d.member_to_all(11, random_segments)
        for j in [0, 5, 11, 30]:
            assert row[j] == pytest.approx(
                d(random_segments.segment(11), random_segments.segment(j)),
                abs=1e-9,
            )

    def test_repr_mentions_weights(self):
        assert "w_perp=2.0" in repr(SegmentDistance(w_perp=2.0))
