"""QMeasure — Formula (11).

``QMeasure = Total SSE + Noise Penalty`` where

* Total SSE sums, per cluster, ``(1 / 2|C|) * sum_{x in C} sum_{y in C}
  dist(x, y)^2`` (the pairwise form of the sum of squared errors);
* the Noise Penalty applies the same quantity to the noise set ``N``,
  so that classifying real cluster members as noise (too small an ε /
  too large a MinLns) is punished.

Smaller is better.  The paper uses QMeasure as "a hint of the
clustering quality" — within a fixed MinLns it tracks the visually best
ε (Figures 17 and 20).

Evaluation
----------
``dist`` is symmetric with a zero diagonal, so each group of ``m``
segments (a cluster, or the noise set) contributes
``sum_{i<j} dist(i, j)^2 / m``: every unordered pair once.  The pairs
of the group's sorted stored indices are enumerated in blocks of
:data:`~repro.kernels.DEFAULT_PAIR_BLOCK` by
:func:`~repro.model.ragged.upper_triangle_blocks`, evaluated by the
pair kernel (:meth:`SegmentDistance.pairs`, compiled when a backend is
active) over :func:`~repro.kernels.map_pair_blocks`' thread pool, then
squared and summed in numpy.  A group that fits in one block (up to
724 segments at the default block) runs in the calling thread.

* **Memory:** no ``m x m`` matrix; scratch is ``O(pair_block)`` per
  in-flight block, at most ``workers + 2`` blocks.
* **Tie-break:** distances are taken on *stored* segment ids, so Lemma
  2's equal-length tie-break — and the value — does not depend on the
  order of a cluster's ``member_indices``.
* **Determinism:** block partials are added in enumeration order, so
  the value is bitwise the same on every backend and thread count.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import kernels
from repro.distance.weighted import SegmentDistance
from repro.model.cluster import Cluster, NOISE
from repro.model.ragged import upper_triangle_blocks
from repro.model.segmentset import SegmentSet


class QualityBreakdown(NamedTuple):
    """Total SSE, noise penalty, and their sum (the QMeasure)."""

    total_sse: float
    noise_penalty: float

    @property
    def qmeasure(self) -> float:
        return self.total_sse + self.noise_penalty


def _half_mean_squared_pairwise(
    segments: SegmentSet,
    indices: np.ndarray,
    distance: SegmentDistance,
) -> float:
    """``(1 / 2m) * sum_ij dist(i, j)^2`` over the index subset, as
    ``sum_{i<j} dist(i, j)^2 / m`` over its sorted stored indices."""
    # Indexing range-checks the ids (IndexError) before the compiled
    # kernel dereferences them.
    stored = np.arange(len(segments), dtype=np.int64)
    stored = np.sort(stored[np.asarray(indices, dtype=np.int64)])
    m = stored.size
    if m == 0:
        return 0.0

    def squared_sum(left: np.ndarray, right: np.ndarray) -> float:
        dists = distance.pairs(segments, left, right)
        return float(np.sum(np.square(dists, out=dists)))

    pair_block = kernels.DEFAULT_PAIR_BLOCK
    blocks = (
        (stored[a], stored[b])
        for a, b in upper_triangle_blocks(m, pair_block)
    )
    if m * (m - 1) // 2 > pair_block:
        partials = kernels.map_pair_blocks(blocks, squared_sum)
    else:  # a single block: nothing to overlap, so no thread pool
        partials = itertools.starmap(squared_sum, blocks)
    total = 0.0
    for partial in partials:
        total += partial
    return total / m


def cluster_sse(
    cluster: Cluster, distance: Optional[SegmentDistance] = None
) -> float:
    """SSE of one cluster in the pairwise form of Formula (11)."""
    if distance is None:
        distance = SegmentDistance()
    return _half_mean_squared_pairwise(
        cluster.segments, cluster.member_indices, distance
    )


def noise_penalty(
    segments: SegmentSet,
    labels: np.ndarray,
    distance: Optional[SegmentDistance] = None,
) -> float:
    """The noise term of Formula (11): half the mean squared pairwise
    distance over all noise segments."""
    if distance is None:
        distance = SegmentDistance()
    labels = np.asarray(labels)
    noise_indices = np.nonzero(labels == NOISE)[0]
    return _half_mean_squared_pairwise(segments, noise_indices, distance)


def quality_measure(
    clusters: Sequence[Cluster],
    segments: SegmentSet,
    labels: np.ndarray,
    distance: Optional[SegmentDistance] = None,
) -> QualityBreakdown:
    """Full Formula (11) over a clustering outcome."""
    if distance is None:
        distance = SegmentDistance()
    total_sse = sum(cluster_sse(c, distance) for c in clusters)
    penalty = noise_penalty(segments, labels, distance)
    return QualityBreakdown(total_sse=float(total_sse), noise_penalty=penalty)
