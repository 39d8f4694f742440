"""Whole-trajectory density-based clustering.

The "traditional" alternative the introduction argues against: treat
each *whole* trajectory as one object under a sequence distance (LCSS /
EDR / DTW), then run point-DBSCAN over the resulting distance matrix.
Used as a baseline to show that trajectories sharing only a common
sub-trajectory do not cluster under whole-trajectory distances.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.baselines.measures import dtw_distance, edr_distance, lcss_distance
from repro.exceptions import ClusteringError
from repro.model.trajectory import Trajectory

#: Named distance factories: name -> callable(a, b) -> float.
_MEASURES = {
    "dtw": lambda eps_match: (lambda a, b: dtw_distance(a, b)),
    "edr": lambda eps_match: (lambda a, b: edr_distance(a, b, eps_match)),
    "lcss": lambda eps_match: (lambda a, b: lcss_distance(a, b, eps_match)),
}


def trajectory_distance_matrix(
    trajectories: Sequence[Trajectory],
    measure: str = "dtw",
    matching_eps: float = 5.0,
) -> np.ndarray:
    """Symmetric whole-trajectory distance matrix under the named
    measure (``"dtw"``, ``"edr"``, or ``"lcss"``)."""
    if measure not in _MEASURES:
        raise ClusteringError(
            f"unknown measure {measure!r}; expected one of {sorted(_MEASURES)}"
        )
    distance = _MEASURES[measure](matching_eps)
    n = len(trajectories)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = distance(
                trajectories[i], trajectories[j]
            )
    return matrix


class WholeTrajectoryDBSCAN:
    """DBSCAN over whole trajectories.

    Parameters
    ----------
    eps, min_pts:
        Standard DBSCAN parameters in the units of the chosen measure.
    measure:
        ``"dtw"`` (unnormalised path cost), ``"edr"`` or ``"lcss"``
        (both normalised to [0, 1]).
    matching_eps:
        Point-match tolerance for EDR/LCSS.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        measure: str = "dtw",
        matching_eps: float = 5.0,
    ):
        if not eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if min_pts < 1:
            raise ClusteringError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.measure = measure
        self.matching_eps = float(matching_eps)

    def fit(self, trajectories: Sequence[Trajectory]) -> np.ndarray:
        """Labels per trajectory: >= 0 cluster id, -1 noise."""
        trajectories = list(trajectories)
        matrix = trajectory_distance_matrix(
            trajectories, self.measure, self.matching_eps
        )
        return self.fit_matrix(matrix)

    def fit_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """DBSCAN over a precomputed distance matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise ClusteringError(f"need a square matrix, got {matrix.shape}")
        unvisited = -2
        labels = np.full(n, unvisited, dtype=np.int64)
        cluster_id = 0
        for i in range(n):
            if labels[i] != unvisited:
                continue
            neighbors = np.nonzero(matrix[i] <= self.eps)[0]
            if neighbors.size < self.min_pts:
                labels[i] = -1
                continue
            labels[i] = cluster_id
            queue = deque(int(x) for x in neighbors if x != i)
            while queue:
                j = queue.popleft()
                if labels[j] == -1:
                    labels[j] = cluster_id
                if labels[j] != unvisited:
                    continue
                labels[j] = cluster_id
                j_neighbors = np.nonzero(matrix[j] <= self.eps)[0]
                if j_neighbors.size >= self.min_pts:
                    queue.extend(
                        int(x) for x in j_neighbors if labels[x] == unvisited
                    )
            cluster_id += 1
        return labels
