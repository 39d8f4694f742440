"""Axis-aligned bounding boxes.

The minimum bounding box of a segment or a segment set
(:meth:`repro.model.segment.Segment.bounding_box`,
:meth:`repro.model.segmentset.SegmentSet.bounding_box`).  Boxes are
d-dimensional to match the rest of the library; the spatial index
(:mod:`repro.index.grid`) registers segment endpoints, not boxes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GeometryError


class BoundingBox:
    """A d-dimensional axis-aligned box ``[lo, hi]``.

    Degenerate boxes (``lo == hi`` in some axes) are valid — a vertical
    or horizontal segment produces one.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise GeometryError(
                f"bounding box corners must be 1-D and congruent, got "
                f"{lo.shape} vs {hi.shape}"
            )
        if np.any(lo > hi):
            raise GeometryError("bounding box has lo > hi")
        self.lo = lo
        self.hi = hi

    @classmethod
    def of_points(cls, points: np.ndarray) -> "BoundingBox":
        """Smallest box containing every row of ``(n, d)`` *points*."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise GeometryError("need a non-empty (n, d) point array")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def of_segment(cls, start: np.ndarray, end: np.ndarray) -> "BoundingBox":
        """Bounding box of a single segment."""
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        return cls(np.minimum(start, end), np.maximum(start, end))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundingBox(lo={self.lo.tolist()}, hi={self.hi.tolist()})"
