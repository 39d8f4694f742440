"""The weighted TRACLUS distance as a configurable callable.

``dist(Li, Lj) = w_perp*d_perp + w_par*d_par + w_theta*d_theta``
(end of Section 2.3).  The default weights are all 1.0, which Appendix B
reports "generally works well in many applications"; per-application
weighting (e.g. emphasising the angle for hurricane steering analysis)
is supported by construction parameters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distance.components import ComponentDistances, component_distances
from repro.distance.vectorized import ComponentArrays, component_distances_pairs
from repro.exceptions import ClusteringError
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet


class SegmentDistance:
    """A configured TRACLUS line-segment distance function.

    Parameters
    ----------
    w_perp, w_par, w_theta:
        Non-negative component weights (Appendix B).  All three default
        to 1.0.
    directed:
        ``True`` uses Definition 3's directed angle distance; ``False``
        the undirected variant (Definition 3 remark, for trajectories
        without directions).

    The instance is a callable: ``distance(seg_a, seg_b) -> float``.
    """

    __slots__ = ("w_perp", "w_par", "w_theta", "directed")

    def __init__(
        self,
        w_perp: float = 1.0,
        w_par: float = 1.0,
        w_theta: float = 1.0,
        directed: bool = True,
    ):
        for name, value in (
            ("w_perp", w_perp), ("w_par", w_par), ("w_theta", w_theta)
        ):
            if not 0 <= value < math.inf:
                raise ClusteringError(
                    f"{name} must be finite and non-negative, got {value}"
                )
        if w_perp == 0 and w_par == 0 and w_theta == 0:
            raise ClusteringError("at least one distance weight must be positive")
        self.w_perp = float(w_perp)
        self.w_par = float(w_par)
        self.w_theta = float(w_theta)
        self.directed = bool(directed)

    # -- scalar ------------------------------------------------------------
    def components(self, a: Segment, b: Segment) -> ComponentDistances:
        """The three raw components for an unordered pair."""
        return component_distances(a, b, directed=self.directed)

    def __call__(self, a: Segment, b: Segment) -> float:
        """``dist(a, b)`` — symmetric, non-negative, not a metric."""
        return self.components(a, b).weighted_sum(
            self.w_perp, self.w_par, self.w_theta
        )

    # -- vectorized ----------------------------------------------------------
    def pairs_components(
        self,
        segments: SegmentSet,
        left: np.ndarray,
        right: np.ndarray,
    ) -> ComponentArrays:
        """Raw components for aligned pairs of stored segments."""
        return component_distances_pairs(
            segments, left, right, directed=self.directed
        )

    def pairs(
        self,
        segments: SegmentSet,
        left: np.ndarray,
        right: np.ndarray,
    ) -> np.ndarray:
        """Distances for each aligned pair ``(left[k], right[k])`` of
        stored segments, evaluated in one vectorized batch.

        Bitwise symmetric in ``left``/``right`` — the property the
        batched neighbor graph relies on to evaluate each unordered
        pair once.  Self-pairs (``left[k] == right[k]``) are pinned to
        exactly 0 (``dist(L, L) = 0`` by definition; the float pipeline
        would otherwise leave ~1e-15 residue from the projection
        arithmetic).
        """
        result = self.pairs_components(segments, left, right).weighted_sum(
            self.w_perp, self.w_par, self.w_theta
        )
        result[np.asarray(left) == np.asarray(right)] = 0.0
        return result

    def member_to_all(self, index: int, segments: SegmentSet) -> np.ndarray:
        """Distances from stored segment *index* to the whole set: the
        :meth:`pairs` row ``(index, j)`` for every ``j``, so
        ``result[index]`` is exactly 0."""
        n = len(segments)
        if not 0 <= index < n:
            raise IndexError(f"segment index {index} out of range 0..{n - 1}")
        return self.pairs(
            segments, np.full(n, index, dtype=np.int64), np.arange(n)
        )

    def __repr__(self) -> str:
        return (
            f"SegmentDistance(w_perp={self.w_perp}, w_par={self.w_par}, "
            f"w_theta={self.w_theta}, directed={self.directed})"
        )
