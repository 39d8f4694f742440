"""The sweep-line representative trajectory algorithm (Figure 15).

Steps, following the paper:

1. compute the cluster's average direction vector (Definition 11);
2. rotate the axes so X' is parallel to it (Formula 9) — we use a
   Householder frame, which reduces to the paper's 2-D rotation up to a
   reflection and generalises to any dimension ("the same approach can
   be applied also to three dimensions");
3. sort the segment endpoints by X';
4. sweep: at each endpoint position ``p``, the segments whose X' extent
   contains ``p`` number ``#(x_low <= p) - #(x_high < p)``, so two
   ``searchsorted`` calls over the sorted extents count them at every
   position at once.  One scalar pass then inserts ``p`` wherever the
   count reaches MinLns and ``p`` is at least γ past the previously
   inserted position.  Each segment crosses a contiguous run of the
   inserted positions, so :func:`crossing_sums` adds every segment's
   point interpolated at those positions into one row per position;
   each row's average is mapped back to the original frame.

Only the crossing pairs are visited — the paper's loop tests every
segment at every position, ``2n²`` tests for a cluster of ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster
from repro.model.ragged import concatenate_ranges
from repro.representative.direction import major_axis


@dataclass(frozen=True)
class RepresentativeConfig:
    """Knobs of Figure 15.

    Attributes
    ----------
    min_lns:
        The sweep threshold MinLns — positions crossed by fewer
        segments are skipped.
    gamma:
        Smoothing parameter γ: minimum X' gap between consecutive
        inserted points.  With the default 0.0, exact-duplicate sweep
        positions are still collapsed (a strictly positive gap is
        required), matching the intent of "a previous point located too
        close ... is skipped".
    """

    min_lns: float = 3.0
    gamma: float = 0.0

    def __post_init__(self):
        # Written so that NaN fails too.
        if not self.min_lns > 0:
            raise ClusteringError(f"min_lns must be positive, got {self.min_lns}")
        if not self.gamma >= 0:
            raise ClusteringError(f"gamma must be non-negative, got {self.gamma}")


def _householder_frame(direction: np.ndarray) -> np.ndarray:
    """Orthonormal, self-inverse matrix H with ``H @ unit(direction) =
    e1``; coordinates ``x' = H @ x`` have their first component along
    *direction* (the X' axis of Figure 14)."""
    direction = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ClusteringError("sweep axis must be a non-zero vector")
    unit = direction / norm
    e1 = np.zeros_like(unit)
    e1[0] = 1.0
    w = unit - e1
    w_norm_sq = float(np.dot(w, w))
    if w_norm_sq < 1e-30:
        return np.eye(unit.shape[0])
    return np.eye(unit.shape[0]) - 2.0 * np.outer(w, w) / w_norm_sq


def generate_representative(
    cluster: Cluster,
    config: Optional[RepresentativeConfig] = None,
) -> np.ndarray:
    """Representative trajectory of one cluster (Figure 15).

    Returns a ``(k, d)`` array of points in the original coordinate
    frame; ``k`` may be 0 or 1 when the members never overlap enough
    along the major axis to reach MinLns at two distinct positions.
    """
    if config is None:
        config = RepresentativeConfig()
    members = cluster.member_set()
    if len(members) == 0:
        raise ClusteringError("cannot summarise an empty cluster")

    axis = major_axis(members)  # line 01
    frame = _householder_frame(axis)  # line 02
    starts = members.starts @ frame.T
    ends = members.ends @ frame.T

    # X' extents of each member segment.
    x_low = np.minimum(starts[:, 0], ends[:, 0])
    x_high = np.maximum(starts[:, 0], ends[:, 0])

    # Lines 03-04: all endpoints sorted by X' value.
    sweep_positions = np.sort(np.concatenate([starts[:, 0], ends[:, 0]]))

    # Positions closer than a relative epsilon are one position for all
    # practical purposes; collapsing them keeps the output strictly
    # monotone along the axis even when gamma is 0.
    span = float(sweep_positions[-1] - sweep_positions[0])
    min_gap = max(1e-12, 1e-9 * span)

    # Lines 05-07: members with x_low <= x, less those with x_high < x
    # (a subset, as x_low <= x_high), are exactly those crossing x.
    crossing_counts = np.searchsorted(
        np.sort(x_low), sweep_positions, "right"
    ) - np.searchsorted(np.sort(x_high), sweep_positions, "left")
    candidates = np.flatnonzero(crossing_counts >= config.min_lns)

    inserted: List[int] = []
    last_inserted_x: Optional[float] = None
    for k, x in zip(candidates.tolist(), sweep_positions[candidates].tolist()):
        if last_inserted_x is not None:  # lines 08-09
            diff = x - last_inserted_x
            if diff < config.gamma or diff < min_gap:
                continue
        inserted.append(k)
        last_inserted_x = x
    if not inserted:
        return np.empty((0, members.dim), dtype=np.float64)

    # Line 10: member i crosses the inserted positions xs[first[i]:last[i]].
    xs = sweep_positions[inserted]
    first = np.searchsorted(xs, x_low, "left")
    last = np.searchsorted(xs, x_high, "right")
    averages = crossing_sums(starts, ends, xs, first, last)
    averages /= crossing_counts[inserted][:, None]
    averages[:, 0] = xs
    # Line 11, one row at a time (H is self-inverse; H.T == H): the
    # BLAS product ``averages @ frame`` may round differently.
    frame_t = frame.T
    return np.vstack([frame_t @ average for average in averages])  # line 12


def crossing_sums(
    starts: np.ndarray,
    ends: np.ndarray,
    xs: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """Per-position sums of the crossing segments' interpolated points.

    ``starts``/``ends`` are ``(n, d)`` endpoints in the sweep frame
    (X' = coordinate 0), ``xs`` the ``k`` ascending sweep positions, and
    segment ``i`` crosses positions ``first[i] .. last[i]-1``.  Row ``r``
    of the ``(k, d)`` result is the sum, in ascending segment order from
    zero, of ``s + t * (e - s)`` with ``t = (xs[r] - s0) / (e0 - s0)``
    clipped to ``[0, 1]`` — or ``t = 0.5`` (the midpoint) for a segment
    with zero X' extent.  That is the order ``points.mean(axis=0)``
    sums in, so row ``r`` divided by its crossing count is bitwise the
    mean of the crossing segments' points.

    When a compiled kernel backend is active (``repro.kernels``), the
    whole loop runs compiled — bitwise identical by the backends'
    parity contract.
    """
    backend = kernels.active_backend()
    if backend is not None and starts.shape[1] <= kernels.MAX_COMPILED_DIM:
        with kernels.maybe_time("crossing_sums", backend.name):
            return backend.crossing_sums(
                np.ascontiguousarray(starts, dtype=np.float64),
                np.ascontiguousarray(ends, dtype=np.float64),
                np.ascontiguousarray(xs, dtype=np.float64),
                np.ascontiguousarray(first, dtype=np.int64),
                np.ascontiguousarray(last, dtype=np.int64),
            )
    with kernels.maybe_time("crossing_sums", "numpy"):
        return _crossing_sums_numpy(starts, ends, xs, first, last)


def _crossing_sums_numpy(
    starts: np.ndarray,
    ends: np.ndarray,
    xs: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    pair_block: int = kernels.DEFAULT_PAIR_BLOCK,
) -> np.ndarray:
    """The pure-numpy :func:`crossing_sums` — always available, and the
    bitwise reference the compiled backends are parity-gated against
    (:mod:`repro.kernels.selftest`).

    Works through blocks of consecutive rows holding at most
    *pair_block* (segment, position) pairs (more only when one row
    alone has more), enumerated segment-major so that
    ``np.bincount``, which adds its weights in input order into zeroed
    bins, sums each row in ascending segment order.
    """
    k = xs.shape[0]
    d = starts.shape[1]
    sums = np.zeros((k, d), dtype=np.float64)
    span = ends[:, 0] - starts[:, 0]
    # Pairs per row: the segments with first <= r, less those with last <= r.
    row_pairs = np.cumsum(
        np.bincount(first, minlength=k + 1)[:k]
        - np.bincount(last, minlength=k + 1)[:k]
    )
    through = np.cumsum(row_pairs)
    r0 = 0
    while r0 < k:
        before = int(through[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(through, before + pair_block, "right")))
        lo = np.maximum(first, r0)
        counts = np.minimum(last, r1) - lo
        active = np.flatnonzero(counts > 0)
        counts = counts[active]
        rows = concatenate_ranges(lo[active], counts)
        segment = np.repeat(active, counts)
        seg_span = span[segment]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(
                seg_span != 0.0,
                (xs[rows] - starts[segment, 0])
                / np.where(seg_span != 0, seg_span, 1.0),
                0.5,
            )
        t = np.clip(t, 0.0, 1.0)
        rows -= r0
        for j in range(d):
            s = starts[segment, j]
            sums[r0:r1, j] = np.bincount(
                rows, weights=s + t * (ends[segment, j] - s), minlength=r1 - r0
            )
        r0 = r1
    return sums


def generate_all_representatives(
    clusters: Sequence[Cluster],
    config: Optional[RepresentativeConfig] = None,
) -> List[np.ndarray]:
    """Attach a representative to every cluster (Figure 4 lines 05-06)
    and return the list in cluster order."""
    outputs: List[np.ndarray] = []
    for cluster in clusters:
        representative = generate_representative(cluster, config)
        cluster.representative = representative
        outputs.append(representative)
    return outputs
