"""ε-neighborhood engines for line segments (Definition 4).

``N_eps(L_i) = { L_j in D | dist(L_i, L_j) <= eps }``.

Two engines answer it, with identical neighborhoods:

* :class:`BruteForceNeighborhood` — one vectorized one-vs-all distance
  evaluation per query; O(n) per query, O(n^2) total (Lemma 3 without
  an index).  It is the oracle every other path is pinned against.
* :class:`~repro.cluster.neighbor_graph.PrecomputedNeighborhood` (in
  :mod:`repro.cluster.neighbor_graph`) — Lemma 3 with an index: a
  uniform-grid cell join yields candidate pairs, each pair's exact
  distance is evaluated once, and the whole relation is kept as a CSR
  graph, so every query is an O(1) slice.

:func:`make_neighborhood_engine` picks between them.  Callers that must
not materialise the relation (an ε so large the edge list approaches
n², or a memory cap) use the brute engine or the streaming
:func:`~repro.cluster.neighbor_graph.neighborhood_size_counts`.

**Why a geometric prefilter is sound even though the TRACLUS distance
is not a metric.**  With weights ``w_perp, w_par > 0`` and
``dist(Li, Lj) <= eps``:

* ``d_perp <= eps / w_perp``.  The Lehmer mean of order 2 satisfies
  ``L2(a, b) >= max(a, b) / 2``, so both perpendicular offsets are at
  most ``2 eps / w_perp``.
* ``d_par <= eps / w_par``, so at least one projected endpoint of the
  shorter segment lies within ``eps / w_par`` (along Li) of an endpoint
  of Li.

That endpoint of the shorter segment is therefore within Euclidean
distance ``r = sqrt((2 eps / w_perp)^2 + (eps / w_par)^2)`` of an
endpoint of the longer segment, hence the two segments' bounding boxes,
after expanding the query's by ``r``, must intersect.  Every true
neighbor survives the prefilter; the exact distance pass removes false
positives.  If either weight is zero the bound is vacuous and the
batched engine evaluates every pair.

One float subtlety: the *computed* distance of a pair whose geometric
gap is below ~sqrt(5e-324) underflows to exactly 0, which at ``eps = 0``
(nominal radius 0) would let an exact bbox prefilter prune a pair the
distance pass accepts.  Every grid prefilter (the batched join, the
streaming graph's :class:`~repro.index.grid.SegmentGrid` queries)
therefore shares :func:`repro.cluster.neighbor_graph.candidate_radius`,
which floors the radius just above that underflow scale.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.cluster.neighbor_graph import PrecomputedNeighborhood
from repro.core.config import NEIGHBORHOOD_AUTO_BATCH_SEGMENTS
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.segmentset import SegmentSet


class NeighborhoodEngine(Protocol):
    """Anything that can answer Definition 4 queries over a fixed set."""

    def neighbors_of(self, index: int) -> np.ndarray:
        """Indices of ``N_eps`` of stored segment *index* (includes the
        query itself, whose self-distance is 0)."""
        ...  # pragma: no cover - protocol

    def neighborhood_sizes(self) -> np.ndarray:
        """``|N_eps(L)|`` for every stored segment (used by the entropy
        heuristic, Formula 10)."""
        ...  # pragma: no cover - protocol


class BruteForceNeighborhood:
    """Exact ε-neighborhoods via one vectorized pass per query."""

    def __init__(
        self,
        segments: SegmentSet,
        eps: float,
        distance: Optional[SegmentDistance] = None,
    ):
        if eps < 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        self.segments = segments
        self.eps = float(eps)
        self.distance = distance if distance is not None else SegmentDistance()

    def neighbors_of(self, index: int) -> np.ndarray:
        dists = self.distance.member_to_all(index, self.segments)
        return np.nonzero(dists <= self.eps)[0]

    def neighborhood_sizes(self) -> np.ndarray:
        n = len(self.segments)
        sizes = np.zeros(n, dtype=np.int64)
        for i in range(n):
            sizes[i] = self.neighbors_of(i).size
        return sizes


#: Below this set size ``"auto"`` keeps the zero-setup brute engine;
#: above it the batched graph build amortises immediately (every
#: consumer queries all n rows at least once).  The number itself lives
#: in :mod:`repro.core.config` next to every other auto-selection
#: threshold; this is a re-export for engine-level consumers.
AUTO_BATCH_THRESHOLD = NEIGHBORHOOD_AUTO_BATCH_SEGMENTS

#: Engine names accepted by :func:`make_neighborhood_engine` (and by
#: every ``neighborhood_method`` knob that forwards to it).
NEIGHBORHOOD_METHODS = ("auto", "brute", "batch")


def make_neighborhood_engine(
    segments: SegmentSet,
    eps: float,
    distance: Optional[SegmentDistance] = None,
    method: str = "auto",
) -> "NeighborhoodEngine":
    """Engine factory.

    ``method`` is ``"brute"``, ``"batch"`` (the precomputed CSR graph
    of :mod:`repro.cluster.neighbor_graph`), or ``"auto"``.

    The ``"auto"`` policy: brute below
    :data:`AUTO_BATCH_THRESHOLD` segments (nothing to amortise) and
    whenever a zero ``w_perp``/``w_par`` weight voids the geometric
    prefilter *and* bounded memory matters (the batch fallback would
    evaluate — exactly but eagerly — all O(n^2) pairs); batch otherwise.
    Brute stays available explicitly for few-query or memory-capped
    workloads: it holds no state beyond the segment set.
    """
    distance = distance if distance is not None else SegmentDistance()
    if method == "brute":
        return BruteForceNeighborhood(segments, eps, distance)
    if method == "batch":
        return PrecomputedNeighborhood(segments, eps, distance)
    if method != "auto":
        raise ClusteringError(
            f"unknown neighborhood method {method!r}; "
            f"expected one of {NEIGHBORHOOD_METHODS}"
        )
    if (
        len(segments) >= AUTO_BATCH_THRESHOLD
        and distance.w_perp > 0
        and distance.w_par > 0
    ):
        return PrecomputedNeighborhood(segments, eps, distance)
    return BruteForceNeighborhood(segments, eps, distance)
