"""The :class:`Trajectory` type (Section 2.1).

``TR_i = p1 p2 ... p_len`` — a sequence of d-dimensional points, with an
identifier and an optional weight (Section 4.2 sketches the weighted
extension: "a stronger hurricane should have a higher weight").
Optional per-point timestamps support the temporal extension
(Section 7.1 item 5).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.exceptions import TrajectoryError
from repro.geometry.point import as_points


class Trajectory:
    """An immutable polyline of d-dimensional points.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like with ``n >= 2`` and ``d >= 2``.
    traj_id:
        Integer identifier, unique within a dataset.  Used by the
        trajectory-cardinality filter (Definition 10).
    weight:
        Positive weight used by the weighted ε-neighborhood extension;
        defaults to 1.0.
    times:
        Optional strictly increasing 1-D array of ``n`` timestamps.
    label:
        Free-form descriptive label (e.g. a hurricane name).
    """

    __slots__ = ("points", "traj_id", "weight", "times", "label")

    def __init__(
        self,
        points: Union[Sequence[Sequence[float]], np.ndarray],
        traj_id: int,
        weight: float = 1.0,
        times: Optional[np.ndarray] = None,
        label: str = "",
    ):
        points = as_points(points)
        if points.shape[0] < 2:
            raise TrajectoryError(
                f"a trajectory needs at least 2 points, got {points.shape[0]}"
            )
        if not (np.isfinite(weight) and weight > 0):
            raise TrajectoryError(
                f"trajectory weight must be positive and finite, got {weight}"
            )
        if times is not None:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != (points.shape[0],):
                raise TrajectoryError(
                    f"times must have one entry per point: "
                    f"{times.shape} vs {points.shape[0]} points"
                )
            if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
                raise TrajectoryError(
                    "timestamps must be finite and non-decreasing"
                )
        self.points = points
        self.points.setflags(write=False)
        self.traj_id = int(traj_id)
        self.weight = float(weight)
        self.times = times
        self.label = label

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        """Number of points (``len_i`` in the paper)."""
        return int(self.points.shape[0])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.points)

    def __getitem__(self, index) -> np.ndarray:
        return self.points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.traj_id == other.traj_id
            and self.weight == other.weight
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self) -> int:
        return hash((self.traj_id, self.points.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Trajectory(id={self.traj_id}, n_points={len(self)}, "
            f"dim={self.dim}, weight={self.weight})"
        )

    # -- properties ----------------------------------------------------------
    @property
    def dim(self) -> int:
        """Spatial dimensionality d."""
        return int(self.points.shape[1])

    @property
    def n_segments(self) -> int:
        """Number of consecutive-point line segments (``len - 1``)."""
        return len(self) - 1

    def path_length(self) -> float:
        """Total Euclidean arc length of the polyline."""
        deltas = np.diff(self.points, axis=0)
        return float(np.sum(np.linalg.norm(deltas, axis=1)))

    def sub_trajectory(self, indices: Sequence[int]) -> "Trajectory":
        """Sub-trajectory through the given strictly increasing point
        indices (Section 2.1: ``p_c1 p_c2 ... p_ck``)."""
        indices = list(indices)
        if len(indices) < 2:
            raise TrajectoryError("a sub-trajectory needs at least 2 indices")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise TrajectoryError("sub-trajectory indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= len(self):
            raise TrajectoryError(
                f"indices out of range [0, {len(self) - 1}]: {indices[0]}..{indices[-1]}"
            )
        times = None if self.times is None else self.times[indices]
        return Trajectory(
            self.points[indices], self.traj_id, self.weight, times, self.label
        )

    def shifted(self, offset: Union[Sequence[float], np.ndarray]) -> "Trajectory":
        """Translate every point by *offset* (used by the Appendix C
        shift-invariance experiment)."""
        offset = np.asarray(offset, dtype=np.float64)
        return Trajectory(
            self.points + offset, self.traj_id, self.weight, self.times, self.label
        )
