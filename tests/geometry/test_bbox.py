"""Unit tests for bounding boxes."""

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.bbox import BoundingBox


def box(lo, hi):
    return BoundingBox(np.asarray(lo, float), np.asarray(hi, float))


class TestConstruction:
    def test_lo_greater_than_hi_raises(self):
        with pytest.raises(GeometryError):
            box([1.0, 0.0], [0.0, 1.0])

    def test_degenerate_box_is_allowed(self):
        b = box([1.0, 2.0], [1.0, 2.0])
        assert np.array_equal(b.lo, b.hi)

    def test_of_points(self):
        b = BoundingBox.of_points(np.array([[0.0, 5.0], [3.0, 1.0], [-1.0, 2.0]]))
        assert b.lo.tolist() == [-1.0, 1.0]
        assert b.hi.tolist() == [3.0, 5.0]

    def test_of_points_empty_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox.of_points(np.empty((0, 2)))

    def test_of_segment_orders_corners(self):
        b = BoundingBox.of_segment(np.array([5.0, 0.0]), np.array([0.0, 5.0]))
        assert b.lo.tolist() == [0.0, 0.0]
        assert b.hi.tolist() == [5.0, 5.0]
