"""Neighborhood-size entropy (Formula 10).

``H(X) = - sum_i p(x_i) log2 p(x_i)`` with
``p(x_i) = |N_eps(x_i)| / sum_j |N_eps(x_j)|``.

For too small an ε every ``|N_eps|`` is 1; for too large an ε every
``|N_eps|`` is n — both are uniform distributions with maximal entropy
``log2 n``.  A good ε produces a skewed distribution and a lower
entropy; Figures 16 and 19 of the paper plot exactly this curve.

:func:`neighborhood_size_curve` computes ``|N_eps|`` for *many* ε
values in a single pass over the pairwise distances, which is what
makes the figure-16/19 sweeps affordable.  That pass is the blocked
candidate-pair stream of :mod:`repro.cluster.neighbor_graph` — each
surviving pair is evaluated once and binned against all thresholds at
~O(log k) cost.  :func:`entropy_from_counts` turns the counts into the
Figure 16/19 curve; a :class:`~repro.api.Workspace` serves the same
counts from its cached ε-graph
(:meth:`~repro.api.Workspace.entropy_curve`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.cluster.neighbor_graph import neighborhood_size_counts
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ParameterSearchError
from repro.model.segmentset import SegmentSet


def neighborhood_entropy(sizes: np.ndarray) -> float:
    """Entropy of a neighborhood-size vector (Formula 10), in bits."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ParameterSearchError(
            f"need a non-empty 1-D size vector, got shape {sizes.shape}"
        )
    if np.any(sizes < 0):
        raise ParameterSearchError("neighborhood sizes must be non-negative")
    total = float(sizes.sum())
    if total == 0.0:
        # Degenerate: nothing has any neighbor mass; define H = 0.
        return 0.0
    p = sizes / total
    nonzero = p[p > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def neighborhood_size_curve(
    segments: SegmentSet,
    eps_values: Union[Sequence[float], np.ndarray],
    distance: Optional[SegmentDistance] = None,
) -> np.ndarray:
    """``|N_eps(L_i)|`` for every ε in *eps_values* and every segment.

    Returns an ``(n_eps, n_segments)`` int64 array, streamed through
    the blocked join of
    :func:`repro.cluster.neighbor_graph.neighborhood_size_counts` —
    each unordered pair is evaluated once and binned against every
    threshold.
    """
    eps_array = np.asarray(eps_values, dtype=np.float64)
    if eps_array.ndim != 1 or eps_array.size == 0:
        raise ParameterSearchError("eps_values must be a non-empty 1-D sequence")
    if not np.all(eps_array >= 0):
        raise ParameterSearchError("eps values must be non-negative")
    return neighborhood_size_counts(segments, eps_array, distance)


def entropy_from_counts(
    counts: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """``(entropies, avg_sizes)`` from a precomputed ``(n_eps, n)``
    neighborhood-count matrix (Formula 10 applied row-wise) — the data
    behind Figures 16 and 19.  ``avg_sizes[k]`` is ``avg|N_eps(L)|`` at
    the k-th ε, the quantity MinLns is derived from (Section 4.4: "This
    operation induces no additional cost since it can be done while
    computing H(X)").

    The counts are integers, so *any* exact counting route — the
    blocked pair stream, the brute oracle's rows, or the sweep engine's
    stored-distance binning (:meth:`repro.sweep.engine.SweepEngine
    .neighborhood_counts`) — feeds this identically, and the float
    arithmetic downstream is bitwise shared.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ParameterSearchError(
            f"need an (n_eps, n_segments) count matrix, got shape "
            f"{counts.shape}"
        )
    entropies = np.array(
        [neighborhood_entropy(counts[k]) for k in range(counts.shape[0])]
    )
    avg_sizes = counts.mean(axis=1)
    return entropies, avg_sizes
