"""ε-neighborhood engines for line segments (Definition 4).

``N_eps(L_i) = { L_j in D | dist(L_i, L_j) <= eps }``.

Two engines answer it, with identical neighborhoods:

* :class:`~repro.cluster.neighbor_graph.PrecomputedNeighborhood` (in
  :mod:`repro.cluster.neighbor_graph`) — Lemma 3 with an index: a
  uniform-grid join over segment endpoints yields candidate pairs,
  each pair's exact distance is evaluated once, and the whole relation
  is kept as a CSR graph, so every query is an O(1) slice.  It is the
  one engine :class:`~repro.cluster.dbscan.LineSegmentDBSCAN`,
  OPTICS and the entropy heuristic run on.
* :class:`BruteForceNeighborhood` — one distance row per query; O(n)
  per query, O(n^2) total (Lemma 3 without an index).  It is the
  oracle every other path is pinned against.  It holds nothing but
  the segment set, so a caller that must not materialise the relation
  (an ε so large the edge list approaches n², or a memory cap) passes
  it in: ``LineSegmentDBSCAN(eps, min_lns).fit(segments,
  engine=BruteForceNeighborhood(segments, eps, distance))``.  Multi-ε
  counts without an edge list come from
  :func:`~repro.cluster.neighbor_graph.neighborhood_size_counts`.

**Why a geometric prefilter is sound even though the TRACLUS distance
is not a metric.**  With weights ``w_perp, w_par > 0``, the constant
``c = 2√2 − 2 ≈ 0.8284`` and ``dist(Li, Lj) <= eps``, some endpoint of
Lj lies within ``r* = eps · max(1 / (c · w_perp), 1 / w_par)`` of an
endpoint of Li:

* The order-2 Lehmer mean satisfies ``(a² + b²) / (a + b) >= c ·
  max(a, b)``, because ``(1 + t²) / (1 + t)`` on ``[0, 1]`` is smallest
  at ``t = √2 − 1``, where it equals ``c``.  So both perpendicular
  offsets of Lj's endpoints from Li's line are at most ``d_perp / c``.
* Take the endpoint ``sj`` of Lj whose projection ``ps`` onto Li's line
  realises ``d_par``, and the endpoint ``X`` of Li nearest ``ps``.  Then
  ``|sj − X| <= |sj − ps| + |ps − X| <= d_perp / c + d_par``.
* ``d_perp / c + d_par <= max(1 / (c · w_perp), 1 / w_par) · (w_perp ·
  d_perp + w_par · d_par) <= r*``, since ``w_theta · d_theta >= 0``.
* When both segments are points, their distance is ``d_perp``, at most
  ``eps / w_perp < r*``.

``ps`` is the float point the distance kernel computes, so the chain
holds for the *computed* distance up to relative rounding in norms,
the Lehmer mean and the weighted sum; no term grows with the
coordinates' magnitude, because the triangle inequality holds exactly
between float points and each float difference is correctly rounded.
:func:`repro.cluster.neighbor_graph.candidate_radius` therefore
returns ``r*`` with a relative margin of ``1e-6``.  A pair with no
endpoint pair within that radius is no ε-neighbor; the exact distance
pass removes the false positives.  If either weight is zero the bound
is vacuous and every pair is evaluated.

One prefilter rule follows, and both indexed paths use it: a pair is a
candidate when one of its four endpoint pairs lies within the radius,
decided by :func:`repro.cluster.neighbor_graph.endpoint_pairs`.  The
batched join registers a fixed set's endpoints in one sorted pass; the
streaming graph's :class:`~repro.index.grid.SegmentGrid` registers
them one segment at a time as segments come and go.  An index may
gather endpoints from any cells, provided every endpoint the test can
accept is among them.  The streaming grid's window, the cells
``floor((x − r) / c) … floor((x + r) / c)`` on each axis around a query
endpoint x, meets that at any coordinate magnitude because rounding is
monotone (its module docstring has the argument).

One float subtlety: the *computed* distance of a pair whose geometric
gap is below ~sqrt(5e-324) underflows to exactly 0, which at ``eps = 0``
(nominal radius 0) would let an exact prefilter prune a pair the
distance pass accepts.
:func:`repro.cluster.neighbor_graph.candidate_radius` therefore floors
the radius just above that underflow scale, for both paths.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

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
        """``|N_eps(L)|`` for every stored segment."""
        ...  # pragma: no cover - protocol


class BruteForceNeighborhood:
    """Exact ε-neighborhoods via one distance row per query."""

    def __init__(
        self,
        segments: SegmentSet,
        eps: float,
        distance: Optional[SegmentDistance] = None,
    ):
        if not eps >= 0:
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

