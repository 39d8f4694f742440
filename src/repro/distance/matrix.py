"""Full pairwise distance matrices.

A dense ``(m, m)`` view of the TRACLUS distance over a segment subset,
for callers that need every entry at once — for example the
dissimilarity input of
:class:`~repro.extensions.embedding.ConstantShiftEmbedding`.  The
matrix itself takes ``O(m²)`` memory, but filling it allocates no
second one: each unordered pair is evaluated once by the pair kernel,
in blocks of :data:`~repro.kernels.DEFAULT_PAIR_BLOCK` pairs threaded
over :func:`~repro.kernels.map_pair_blocks`, and mirrored across the
diagonal.  QMeasure, which only needs a sum of squared entries, never
builds the matrix (:mod:`repro.quality.qmeasure`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import kernels
from repro.distance.weighted import SegmentDistance
from repro.model.ragged import upper_triangle_blocks
from repro.model.segmentset import SegmentSet


def pairwise_distance_matrix(
    segments: SegmentSet,
    distance: Optional[SegmentDistance] = None,
    indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Symmetric ``(m, m)`` matrix of TRACLUS distances.

    Parameters
    ----------
    segments:
        The segment store.
    distance:
        Distance configuration; defaults to unit weights, directed.
    indices:
        Optional subset of stored segment indices.  Entry ``[a, b]`` is
        then ``dist(indices[a], indices[b])`` on the *stored* segments,
        so Lemma 2's equal-length tie-break follows stored ids and does
        not depend on the order of *indices*.

    The diagonal is exactly 0, and the matrix is bitwise symmetric: the
    pair kernel evaluates each unordered pair once.
    """
    if distance is None:
        distance = SegmentDistance()
    stored = np.arange(len(segments), dtype=np.int64)
    if indices is not None:
        # Range-checked (IndexError) before the compiled kernel
        # dereferences them.
        stored = stored[np.asarray(indices, dtype=np.int64)]
    m = stored.size
    matrix = np.zeros((m, m), dtype=np.float64)

    def evaluate(a: np.ndarray, b: np.ndarray):
        return a, b, distance.pairs(segments, stored[a], stored[b])

    blocks = upper_triangle_blocks(m, kernels.DEFAULT_PAIR_BLOCK)
    for a, b, dists in kernels.map_pair_blocks(blocks, evaluate):
        matrix[a, b] = dists
        matrix[b, a] = dists
    return matrix
