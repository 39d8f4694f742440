"""Whole-trajectory similarity measures from the related work.

* :func:`lcss_similarity` / :func:`lcss_distance` — Longest Common
  Subsequence for trajectories (Vlachos et al., ICDE 2002): two points
  "match" when every coordinate differs by less than ``matching_eps``
  and their indices differ by at most ``delta``.
* :func:`edr_distance` — Edit Distance on Real sequences (Chen et al.,
  SIGMOD 2005): edit distance with a real-valued match tolerance;
  substitution/indel costs are 1.
* :func:`dtw_distance` — Dynamic Time Warping (Keogh, VLDB 2002) with
  Euclidean ground distance and an optional Sakoe-Chiba band.

The paper's point (Section 6): these compare *whole* sequences, so two
trajectories sharing only a sub-path still score as distant — which is
exactly what the baseline-comparison benchmark demonstrates.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import DatasetError
from repro.model.trajectory import Trajectory


def _as_points(trajectory) -> np.ndarray:
    if isinstance(trajectory, Trajectory):
        return trajectory.points
    points = np.asarray(trajectory, dtype=np.float64)
    if points.ndim != 2:
        raise DatasetError(f"expected (n, d) points, got shape {points.shape}")
    return points


def lcss_similarity(
    a,
    b,
    matching_eps: float,
    delta: Optional[int] = None,
) -> float:
    """Normalised LCSS similarity in [0, 1].

    ``LCSS / min(len(a), len(b))`` where two points match when all
    coordinate differences are below *matching_eps* and (optionally)
    their index offset is at most *delta*.
    """
    pa, pb = _as_points(a), _as_points(b)
    if not matching_eps >= 0:
        raise DatasetError(f"matching_eps must be non-negative, got {matching_eps}")
    n, m = pa.shape[0], pb.shape[0]
    band = delta if delta is not None else max(n, m)
    # One rolling row of the DP table.
    previous = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        current = np.zeros(m + 1, dtype=np.int64)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        for j in range(j_lo, j_hi + 1):
            if np.all(np.abs(pa[i - 1] - pb[j - 1]) < matching_eps):
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return float(previous[m]) / float(min(n, m))


def lcss_distance(a, b, matching_eps: float, delta: Optional[int] = None) -> float:
    """``1 - lcss_similarity`` — a dissimilarity in [0, 1]."""
    return 1.0 - lcss_similarity(a, b, matching_eps, delta)


def edr_distance(a, b, matching_eps: float) -> float:
    """Edit Distance on Real sequences, normalised by ``max(len)``.

    Match when all coordinate differences are below *matching_eps*
    (cost 0), otherwise substitution cost 1; insertions/deletions
    cost 1.
    """
    pa, pb = _as_points(a), _as_points(b)
    if not matching_eps >= 0:
        raise DatasetError(f"matching_eps must be non-negative, got {matching_eps}")
    n, m = pa.shape[0], pb.shape[0]
    previous = np.arange(m + 1, dtype=np.float64)
    for i in range(1, n + 1):
        current = np.empty(m + 1, dtype=np.float64)
        current[0] = i
        matches = np.all(np.abs(pb - pa[i - 1]) < matching_eps, axis=1)
        for j in range(1, m + 1):
            sub_cost = 0.0 if matches[j - 1] else 1.0
            current[j] = min(
                previous[j - 1] + sub_cost,  # match / substitute
                previous[j] + 1.0,  # delete from a
                current[j - 1] + 1.0,  # insert from b
            )
        previous = current
    return float(previous[m]) / float(max(n, m))


def dtw_distance(a, b, band: Optional[int] = None) -> float:
    """Dynamic Time Warping with Euclidean ground distance.

    *band* is an optional Sakoe-Chiba window on the index offset.
    Returns the total warped path cost (unnormalised, as in the classic
    definition).
    """
    pa, pb = _as_points(a), _as_points(b)
    n, m = pa.shape[0], pb.shape[0]
    window = band if band is not None else max(n, m)
    window = max(window, abs(n - m))  # a feasible path must exist
    previous = np.full(m + 1, math.inf)
    previous[0] = 0.0
    for i in range(1, n + 1):
        current = np.full(m + 1, math.inf)
        j_lo = max(1, i - window)
        j_hi = min(m, i + window)
        # Ground distances for this row, vectorized.
        row_costs = np.linalg.norm(pb[j_lo - 1 : j_hi] - pa[i - 1], axis=1)
        for j in range(j_lo, j_hi + 1):
            best_prev = min(previous[j], previous[j - 1], current[j - 1])
            current[j] = row_costs[j - j_lo] + best_prev
        previous = current
    return float(previous[m])
