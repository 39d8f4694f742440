"""OPTICS over line segments (Appendix D).

The paper chose DBSCAN over OPTICS and Appendix D explains why: with
line segments, pairwise distances inside an ε-neighborhood are *not*
bounded by 2ε (the distance is not a metric), so reachability
distances sit close to ε and clusters become hard to tell from noise
on the reachability plot.  This module implements segment-OPTICS so
that claim can be measured (see ``benchmarks/bench_appendix_optics.py``).

The algorithm is the standard OPTICS [Ankerst et al. 1999] with the
point distance replaced by the TRACLUS segment distance:

* core-distance(o) = distance to the MinLns-th nearest segment if
  ``|N_eps(o)| >= MinLns`` else undefined;
* reachability(p from o) = max(core-distance(o), dist(o, p)).
"""

from __future__ import annotations

import heapq
import math
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.cluster.neighbor_graph import NeighborGraph
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE
from repro.model.segmentset import SegmentSet

#: Reachability value for points never reached within eps.
UNDEFINED = math.inf


class OpticsResult(NamedTuple):
    """Output of one OPTICS run.

    ``ordering`` is the visit order; ``reachability`` and
    ``core_distance`` are aligned with *segment indices* (not with the
    ordering).
    """

    ordering: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray

    def reachability_in_order(self) -> np.ndarray:
        """The reachability plot: reachability along the ordering."""
        return self.reachability[self.ordering]

    def extract_hierarchy(self, eps_levels: "Sequence[float]") -> np.ndarray:
        """Flat labellings at several ``eps' <= eps`` thresholds at once.

        One OPTICS run replaces a whole family of DBSCAN runs — the
        "parameter insensitivity" motivation of Section 7.1 item 2.
        Returns an ``(n_levels, n_segments)`` int array (row k is
        ``extract_dbscan(eps_levels[k])``); coarser levels merge or
        absorb the clusters of finer ones.  The density threshold of
        every level is the fit's MinLns (see :meth:`extract_dbscan`).
        """
        return np.vstack([self.extract_dbscan(float(e)) for e in eps_levels])

    def extract_dbscan(self, eps_prime: float) -> np.ndarray:
        """Extract a DBSCAN-like flat labelling at ``eps_prime <= eps``
        from the ordering (Ankerst et al., Section 4.2 ExtractDBSCAN).
        The density threshold is the fit's MinLns, already in
        ``core_distance``, so extraction takes no MinLns of its own.
        Returns int labels (>= 0 cluster id, -1 noise)."""
        labels = np.full(self.ordering.size, NOISE, dtype=np.int64)
        cluster_id = -1
        for idx in self.ordering:
            if self.reachability[idx] > eps_prime:
                if self.core_distance[idx] <= eps_prime:
                    cluster_id += 1
                    labels[idx] = cluster_id
                # else: noise (stays -1)
            else:
                if cluster_id >= 0:
                    labels[idx] = cluster_id
        return labels


class LineSegmentOPTICS:
    """OPTICS with the TRACLUS segment distance.

    Parameters mirror :class:`~repro.cluster.dbscan.LineSegmentDBSCAN`;
    ``eps`` is the *generating* radius bounding the neighborhoods.

    The per-segment neighborhoods and their distances are the CSR rows
    of one :class:`~repro.cluster.neighbor_graph.NeighborGraph`.
    """

    def __init__(
        self,
        eps: float,
        min_lns: float,
        distance: Optional[SegmentDistance] = None,
    ):
        # Written so that NaN fails too.
        if not eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if not min_lns >= 1:
            raise ClusteringError(f"min_lns must be >= 1, got {min_lns}")
        # +inf stays: no segment gets a core distance (DBSCAN's all-noise).
        if not math.isinf(min_lns) and min_lns != int(min_lns):
            raise ClusteringError(
                f"min_lns must be a whole number or +inf, got {min_lns}"
            )
        self.eps = float(eps)
        self.min_lns = min_lns if math.isinf(min_lns) else int(min_lns)
        self.distance = distance if distance is not None else SegmentDistance()

    def fit(
        self,
        segments: SegmentSet,
        graph: Optional["NeighborGraph"] = None,
    ) -> OpticsResult:
        """Compute the cluster ordering.  A prebuilt *graph* (at this
        ``eps`` or wider) replaces the graph build."""
        n = len(segments)
        reachability = np.full(n, UNDEFINED)
        core_distance = np.full(n, UNDEFINED)
        processed = np.zeros(n, dtype=bool)
        ordering: List[int] = []

        # Neighborhoods, their distances, and core distances, read from
        # the ε-graph's CSR rows.
        if graph is None:
            graph = NeighborGraph.build(segments, self.eps, self.distance)
        elif graph.eps != self.eps:
            # restrict() raises if the graph is narrower than self.eps —
            # a too-small graph would silently truncate neighborhoods.
            graph = graph.restrict(self.eps)
        if graph.n_segments != n:
            raise ClusteringError(
                f"graph covers {graph.n_segments} segments but the set "
                f"has {n}"
            )
        neighbor_lists = [graph.row(i) for i in range(n)]
        neighbor_dists = [graph.row_distances(i) for i in range(n)]
        for i in range(n):
            if neighbor_lists[i].size >= self.min_lns:
                core_distance[i] = float(
                    np.partition(
                        neighbor_dists[i], self.min_lns - 1
                    )[self.min_lns - 1]
                )

        counter = 0
        for start in range(n):
            if processed[start]:
                continue
            processed[start] = True
            ordering.append(start)
            if math.isinf(core_distance[start]):
                continue
            heap: List[tuple] = []
            counter = self._update(
                start, neighbor_lists, neighbor_dists, core_distance,
                reachability, processed, heap, counter,
            )
            while heap:
                _, _, current = heapq.heappop(heap)
                if processed[current]:
                    continue
                processed[current] = True
                ordering.append(current)
                if not math.isinf(core_distance[current]):
                    counter = self._update(
                        current, neighbor_lists, neighbor_dists, core_distance,
                        reachability, processed, heap, counter,
                    )

        return OpticsResult(
            ordering=np.asarray(ordering, dtype=np.int64),
            reachability=reachability,
            core_distance=core_distance,
        )

    @staticmethod
    def _update(
        center: int,
        neighbor_lists: List[np.ndarray],
        neighbor_dists: List[np.ndarray],
        core_distance: np.ndarray,
        reachability: np.ndarray,
        processed: np.ndarray,
        heap: List[tuple],
        counter: int,
    ) -> int:
        """OPTICS update(): refresh reachability of unprocessed neighbors."""
        core = core_distance[center]
        for neighbor, dist in zip(neighbor_lists[center], neighbor_dists[center]):
            if processed[neighbor]:
                continue
            new_reach = max(core, float(dist))
            if new_reach < reachability[neighbor]:
                reachability[neighbor] = new_reach
                counter += 1
                heapq.heappush(heap, (new_reach, counter, int(neighbor)))
        return counter
