"""Line Segment Clustering — the DBSCAN variant of Figure 12.

A faithful transcription, including the details that distinguish it
from textbook DBSCAN:

* the whole seed neighborhood receives the cluster id immediately
  (line 07), before expansion;
* a segment previously marked *noise* can be absorbed into a later
  cluster (line 23) but is not expanded further (line 25 only enqueues
  segments that were *unclassified*);
* after all clusters are formed, clusters whose *trajectory
  cardinality* ``|PTR(C)|`` (Definition 10) falls below a threshold are
  removed (Step 3, lines 13-16) — in the extreme a density-connected
  set drawn from a single meandering trajectory explains nothing about
  the database;
* the ε-neighborhood cardinality may be *weighted* (Section 4.2's
  extension: sum the weights of the neighbors instead of counting
  them), so a strong hurricane counts for more.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.cardinality import filter_by_trajectory_cardinality
from repro.cluster.neighbor_graph import PrecomputedNeighborhood
from repro.cluster.neighborhood import NeighborhoodEngine
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE, UNCLASSIFIED, Cluster, clusters_from_labels
from repro.model.segmentset import SegmentSet


class LineSegmentDBSCAN:
    """Density-based clustering of line segments (Figure 12).

    Parameters
    ----------
    eps:
        Neighborhood radius ε (in TRACLUS distance units).
    min_lns:
        Density threshold MinLns.
    distance:
        Distance configuration (weights / directedness); defaults to
        unit weights, directed.
    cardinality_threshold:
        Trajectory-cardinality cut-off for Step 3.  The paper notes "a
        threshold other than MinLns can be used"; defaults to
        ``min_lns``.
    use_weights:
        When True, ``|N_eps(L)|`` is the *sum of segment weights* in the
        neighborhood instead of the count.
    """

    def __init__(
        self,
        eps: float,
        min_lns: float,
        distance: Optional[SegmentDistance] = None,
        cardinality_threshold: Optional[float] = None,
        use_weights: bool = False,
    ):
        # Written so that NaN fails too.
        if not eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if not min_lns > 0:
            raise ClusteringError(f"min_lns must be positive, got {min_lns}")
        self.eps = float(eps)
        self.min_lns = float(min_lns)
        self.distance = distance if distance is not None else SegmentDistance()
        self.cardinality_threshold = (
            float(cardinality_threshold)
            if cardinality_threshold is not None
            else float(min_lns)
        )
        self.use_weights = bool(use_weights)

    # ------------------------------------------------------------------
    def _cardinality(self, neighbors: np.ndarray, segments: SegmentSet) -> float:
        """``|N_eps|`` — weighted sum or plain count (Section 4.2)."""
        if self.use_weights:
            return float(np.sum(segments.weights[neighbors]))
        return float(neighbors.size)

    def fit(
        self,
        segments: SegmentSet,
        engine: Optional[NeighborhoodEngine] = None,
    ) -> Tuple[List[Cluster], np.ndarray]:
        """Cluster the segment set.

        Returns ``(clusters, labels)``: the surviving clusters (after
        the Step-3 cardinality filter, with densely renumbered ids) and
        the per-segment label array aligned with *segments* (>= 0
        cluster id, -1 noise).  Labels of members of removed clusters
        are reset to noise so the two outputs stay consistent.

        Neighborhoods come from the ε-graph
        (:class:`~repro.cluster.neighbor_graph.PrecomputedNeighborhood`)
        unless an *engine* is passed: a shared prebuilt graph reused
        across consumers, or the memory-capped
        :class:`~repro.cluster.neighborhood.BruteForceNeighborhood`
        oracle.  It must cover *segments* at this ``eps``.
        """
        n = len(segments)
        labels = np.full(n, UNCLASSIFIED, dtype=np.int64)
        if n == 0:
            return [], labels

        if engine is None:
            engine = PrecomputedNeighborhood(segments, self.eps, self.distance)
        else:
            engine_eps = getattr(engine, "eps", None)
            if engine_eps is not None and engine_eps != self.eps:
                raise ClusteringError(
                    f"prebuilt engine answers eps={engine_eps} queries but "
                    f"this DBSCAN is configured with eps={self.eps}"
                )
            engine_segments = getattr(engine, "segments", None)
            if engine_segments is not None and len(engine_segments) != n:
                raise ClusteringError(
                    f"prebuilt engine covers {len(engine_segments)} segments "
                    f"but the fitted set has {n}"
                )

        cluster_id = 0  # line 01
        for i in range(n):  # line 03
            if labels[i] != UNCLASSIFIED:  # line 04
                continue
            neighbors = engine.neighbors_of(i)  # line 05
            if self._cardinality(neighbors, segments) >= self.min_lns:  # line 06
                labels[neighbors] = cluster_id  # line 07
                queue = deque(int(x) for x in neighbors if x != i)  # line 08
                self._expand_cluster(
                    queue, cluster_id, labels, engine, segments
                )  # line 09
                cluster_id += 1  # line 10
            else:
                labels[i] = NOISE  # line 12

        # Step 3 (lines 13-16): trajectory-cardinality filter.
        clusters = clusters_from_labels(labels, segments)
        clusters, removed = filter_by_trajectory_cardinality(
            clusters, self.cardinality_threshold
        )
        for cluster in removed:
            labels[cluster.member_indices] = NOISE
        # Renumber the survivors densely (and rewrite labels to match).
        renumbered: List[Cluster] = []
        for new_id, cluster in enumerate(clusters):
            labels[cluster.member_indices] = new_id
            renumbered.append(
                Cluster(new_id, cluster.member_indices, segments)
            )
        return renumbered, labels

    def _expand_cluster(
        self,
        queue: "deque[int]",
        cluster_id: int,
        labels: np.ndarray,
        engine: NeighborhoodEngine,
        segments: SegmentSet,
    ) -> None:
        """ExpandCluster (Figure 12 lines 17-28): BFS over directly
        density-reachable segments."""
        while queue:  # line 18
            m = queue.popleft()  # lines 19, 27
            neighbors = engine.neighbors_of(m)  # line 20
            if self._cardinality(neighbors, segments) < self.min_lns:  # line 21
                continue
            for x in neighbors:  # line 22
                if labels[x] == UNCLASSIFIED or labels[x] == NOISE:  # line 23
                    was_unclassified = labels[x] == UNCLASSIFIED
                    labels[x] = cluster_id  # line 24
                    if was_unclassified:  # line 25
                        queue.append(int(x))  # line 26

    def __repr__(self) -> str:
        return (
            f"LineSegmentDBSCAN(eps={self.eps}, min_lns={self.min_lns}, "
            f"use_weights={self.use_weights})"
        )


def cluster_segments(
    segments: SegmentSet,
    eps: float,
    min_lns: float,
    distance: Optional[SegmentDistance] = None,
    cardinality_threshold: Optional[float] = None,
    use_weights: bool = False,
) -> Tuple[List[Cluster], np.ndarray]:
    """Functional facade over :class:`LineSegmentDBSCAN`."""
    algorithm = LineSegmentDBSCAN(
        eps=eps,
        min_lns=min_lns,
        distance=distance,
        cardinality_threshold=cardinality_threshold,
        use_weights=use_weights,
    )
    return algorithm.fit(segments)
