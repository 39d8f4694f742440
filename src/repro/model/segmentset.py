"""Columnar store of line segments.

The grouping phase runs an ε-neighborhood query *per segment* (Figure
12, lines 05 and 20).  Doing that with Python-object segments would be
quadratically slow, so :class:`SegmentSet` keeps every column —
starts, ends, lengths, trajectory ids, weights — in contiguous NumPy
arrays.  The vectorized distance kernels in
:mod:`repro.distance.vectorized` operate directly on these columns; the
object API (:meth:`segment`, iteration) is still available for code
that wants paper-literal clarity.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import GeometryError, TrajectoryError
from repro.geometry.bbox import BoundingBox
from repro.model.segment import Segment
from repro.model.trajectory import Trajectory


class SegmentSet:
    """An immutable collection of directed line segments in columnar form.

    Attributes
    ----------
    starts, ends:
        ``(n, d)`` float64 arrays of endpoints.
    traj_ids:
        ``(n,)`` int64 array mapping each segment to its source trajectory.
    weights:
        ``(n,)`` float64 array of per-segment weights.
    lengths:
        ``(n,)`` float64 array of Euclidean lengths (precomputed).
    """

    __slots__ = ("starts", "ends", "traj_ids", "weights", "lengths", "vectors")

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        traj_ids: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
    ):
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.ndim != 2 or starts.shape != ends.shape:
            raise GeometryError(
                f"starts/ends must be congruent (n, d) arrays, got "
                f"{starts.shape} vs {ends.shape}"
            )
        n = starts.shape[0]
        if traj_ids is None:
            traj_ids = np.full(n, -1, dtype=np.int64)
        else:
            traj_ids = np.asarray(traj_ids, dtype=np.int64)
            if traj_ids.shape != (n,):
                raise GeometryError(f"traj_ids must be ({n},), got {traj_ids.shape}")
        if weights is None:
            weights = np.ones(n, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise GeometryError(f"weights must be ({n},), got {weights.shape}")
            if not np.all((weights > 0) & np.isfinite(weights)):
                raise GeometryError("segment weights must be positive and finite")
        self.starts = starts
        self.ends = ends
        self.traj_ids = traj_ids
        self.weights = weights
        self.vectors = ends - starts
        self.lengths = np.linalg.norm(self.vectors, axis=1)
        for array in (self.starts, self.ends, self.traj_ids, self.weights,
                      self.vectors, self.lengths):
            array.setflags(write=False)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_segments(cls, segments: Iterable[Segment]) -> "SegmentSet":
        """Build a set from :class:`Segment` objects (seg_ids are reassigned
        to the positional index)."""
        segments = list(segments)
        if not segments:
            return cls.empty(dim=2)
        dim = segments[0].dim
        if any(seg.dim != dim for seg in segments):
            raise GeometryError("all segments must share one dimensionality")
        starts = np.array([seg.start for seg in segments], dtype=np.float64)
        ends = np.array([seg.end for seg in segments], dtype=np.float64)
        traj_ids = np.array([seg.traj_id for seg in segments], dtype=np.int64)
        weights = np.array([seg.weight for seg in segments], dtype=np.float64)
        return cls(starts, ends, traj_ids, weights)

    @classmethod
    def from_partitions(
        cls,
        trajectories: Sequence[Trajectory],
        characteristic_points: Sequence[Sequence[int]],
    ) -> "SegmentSet":
        """Build the set ``D`` of all trajectory partitions (Figure 4,
        lines 01-03): one segment per consecutive pair of characteristic
        points of every trajectory."""
        if len(trajectories) != len(characteristic_points):
            raise TrajectoryError(
                "one characteristic-point list is required per trajectory"
            )
        counts = [max(len(cps) - 1, 0) for cps in characteristic_points]
        if not sum(counts):
            dim = trajectories[0].dim if trajectories else 2
            return cls.empty(dim=dim)
        starts: List[np.ndarray] = []
        ends: List[np.ndarray] = []
        for trajectory, cps in zip(trajectories, characteristic_points):
            index = np.asarray(cps, dtype=np.intp)
            starts.append(trajectory.points[index[:-1]])
            ends.append(trajectory.points[index[1:]])
        return cls(
            np.concatenate(starts), np.concatenate(ends),
            np.repeat(np.array([t.traj_id for t in trajectories],
                               dtype=np.int64), counts),
            np.repeat(np.array([t.weight for t in trajectories],
                               dtype=np.float64), counts),
        )

    @classmethod
    def empty(cls, dim: int = 2) -> "SegmentSet":
        return cls(
            np.empty((0, dim), dtype=np.float64),
            np.empty((0, dim), dtype=np.float64),
        )

    # -- protocol ----------------------------------------------------------
    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def __iter__(self) -> Iterator[Segment]:
        for i in range(len(self)):
            yield self.segment(i)

    def __repr__(self) -> str:
        return f"SegmentSet(n={len(self)}, dim={self.dim})"

    # -- accessors ----------------------------------------------------------
    @property
    def dim(self) -> int:
        return int(self.starts.shape[1])

    def segment(self, index: int) -> Segment:
        """Materialise segment *index* as a :class:`Segment` object."""
        if not 0 <= index < len(self):
            raise IndexError(f"segment index {index} out of range 0..{len(self) - 1}")
        return Segment(
            self.starts[index].copy(),
            self.ends[index].copy(),
            traj_id=int(self.traj_ids[index]),
            seg_id=index,
            weight=float(self.weights[index]),
        )

    def subset(self, indices: Sequence[int]) -> "SegmentSet":
        """New set holding only the given segment indices (seg_ids are
        renumbered positionally)."""
        indices = np.asarray(indices, dtype=np.int64)
        return SegmentSet(
            self.starts[indices].copy(),
            self.ends[indices].copy(),
            self.traj_ids[indices].copy(),
            self.weights[indices].copy(),
        )

    def bounding_box(self) -> BoundingBox:
        if len(self) == 0:
            raise GeometryError("empty segment set has no bounding box")
        stacked = np.vstack([self.starts, self.ends])
        return BoundingBox.of_points(stacked)

    def n_trajectories(self) -> int:
        """Number of distinct source trajectories."""
        return int(np.unique(self.traj_ids).shape[0])

    def mean_length(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.lengths))
