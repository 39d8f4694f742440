"""Batched ε-neighborhood graph (the whole of Definition 4 at once).

The brute-force engine in :mod:`repro.cluster.neighborhood` answers
``N_eps(L_i)`` one segment at a time, so a consumer on it — DBSCAN
(Figure 12), OPTICS (Appendix D), the entropy heuristic (Formula 10) —
pays n sequential O(n) passes through Python.  This module instead
materializes the *entire* ε-neighborhood relation in one pass:

1. **Candidate generation** — a uniform cell join: every segment's
   bounding box registers in the cells it overlaps, and each segment's
   window (its box expanded by :func:`candidate_radius`, whose
   soundness argument is the module docstring of
   :mod:`repro.cluster.neighborhood`) is matched against the sorted
   cell keys, which yields a superset of its true neighbors.  Only
   unordered pairs ``i < j`` are kept: the distance is bitwise
   symmetric (see below), so each pair is evaluated once.  When
   :func:`candidate_radius` has no finite radius (a zero distance
   weight, or an ε too large to bound) the builder enumerates all
   ``i < j`` pairs (:func:`repro.model.ragged.upper_triangle_blocks`)
   — still exact, still blocked.
2. **Blocked join** — candidate pairs accumulate into fixed-size blocks
   (``pair_block`` pairs) that are evaluated by the many-pairs kernel
   :func:`repro.distance.vectorized.component_distances_pairs` (over
   :func:`repro.kernels.map_pair_blocks`' thread pool when the backend
   releases the GIL) and filtered against ε immediately.  **Memory
   bound:** peak usage is ``O(pair_block)`` scratch for the kernel per
   in-flight block (see :data:`repro.kernels.DEFAULT_PAIR_BLOCK`) plus
   ``O(E)`` for the surviving edges — never ``O(candidates)``, however
   many candidate pairs the grid emits.
3. **Symmetrization** — surviving pairs are mirrored into both rows,
   the diagonal is added (``dist(L, L) = 0`` by definition), and the
   whole relation is packed into CSR ``(indptr, indices, data)``
   arrays with ascending column indices per row.

Because the pairs kernel shares one arithmetic path with the per-query
kernels (they are literally the same function), a CSR row is *bitwise
identical* to ``BruteForceNeighborhood.neighbors_of(i)`` — the property
tests in ``tests/property/test_engine_equivalence.py`` assert exactly
that, and :class:`PrecomputedNeighborhood` can therefore stand in for
any engine while serving queries as O(1) slices.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.kernels import DEFAULT_PAIR_BLOCK, map_pair_blocks
from repro.model.ragged import (
    concatenate_ranges,
    sorted_unique,
    upper_triangle_blocks,
)
from repro.model.segmentset import SegmentSet

#: Geometric gaps below ~sqrt(5e-324) square to exactly 0.0 inside the
#: distance kernel, so a pair with a *positive* gap can still compute
#: ``dist == 0 <= eps``.  At ``eps = 0`` the nominal candidate radius is
#: 0 and an exact bbox prefilter would prune such a pair; flooring the
#: radius just above the underflow scale keeps every prefilter engine
#: sound (and is far below any representable coordinate difference that
#: survives squaring).
SUBNORMAL_RADIUS_GUARD = 1e-150


def candidate_radius(eps: float, distance: SegmentDistance) -> Optional[float]:
    """Euclidean bbox-expansion radius that cannot miss an ε-neighbor
    (soundness argument: module docstring of
    :mod:`repro.cluster.neighborhood`), or ``None`` when no finite
    radius is sound — a zero ``w_perp``/``w_par`` voids the bound, and
    an infinite or overflowing ε leaves nothing to prune.  ``None``
    makes every pair a candidate, in the batch join and the dynamic
    graph alike."""
    if not (distance.w_perp > 0 and distance.w_par > 0):
        return None
    radius = math.hypot(2.0 * eps / distance.w_perp, eps / distance.w_par)
    if not math.isfinite(radius):
        return None
    return max(radius, SUBNORMAL_RADIUS_GUARD)


#: Mirrors ``SegmentGrid(max_cells_per_segment=...)``: segments whose
#: bbox covers more cells go to the always-candidate oversize list.
_MAX_CELLS_PER_SEGMENT = 1024

#: Mirrors ``SegmentGrid``'s big-window escape hatch: query windows
#: covering more cells than this scan the registration ranges directly.
_HUGE_WINDOW_CELLS = 16 * _MAX_CELLS_PER_SEGMENT

#: Window cells enumerated per vectorized chunk (bounds the scratch of
#: the cell-key join).
_CELL_CHUNK_BUDGET = 1 << 16


def _suffix_products(spans: np.ndarray) -> np.ndarray:
    """Row-wise mixed-radix strides: ``strides[:, k] = prod(spans[:, k+1:])``."""
    strides = np.ones_like(spans)
    for k in range(spans.shape[1] - 2, -1, -1):
        strides[:, k] = strides[:, k + 1] * spans[:, k + 1]
    return strides


def _enumerate_cells(
    lo_cells: np.ndarray, spans: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand row-wise integer cell ranges into ``(owner_row, coords)``
    arrays: every cell of row ``r``'s box appears once, owner-major."""
    owners = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    offsets = concatenate_ranges(np.zeros_like(counts), counts)
    strides = _suffix_products(spans)
    coords = lo_cells[owners] + (
        offsets[:, None] // strides[owners]
    ) % spans[owners]
    return owners, coords


def _candidate_pair_stream(
    segments: SegmentSet,
    eps: float,
    distance: SegmentDistance,
    pair_block: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(left, right)`` blocks of candidate pairs, ``left < right``
    row-wise, each block at most ``pair_block`` pairs.

    Every pair within distance ε appears in exactly one block.  Without
    a finite :func:`candidate_radius` every ``i < j`` pair is a
    candidate.  Otherwise the pairs come from a cell join with no
    Python loop over segments: registration cells and query windows
    are enumerated with mixed-radix array arithmetic, candidates come
    from one ``searchsorted`` join against the sorted cell keys, and
    each unordered pair is *owned by its smaller id* (only ``candidate
    > query`` survives), so a pair can never be emitted from two
    chunks.  Peak scratch is bounded by chunking both the cell
    enumeration (:data:`_CELL_CHUNK_BUDGET` cells) and the member
    expansion (``pair_block`` candidates, split at query boundaries).

    Cells start at the candidate radius and are coarsened until every
    window's cell coordinates pack into one int64 key: any cell size
    is sound, a coarser one only admits more candidates.
    """
    n = len(segments)
    radius = candidate_radius(eps, distance)
    if radius is None or n < 2:
        yield from upper_triangle_blocks(n, pair_block)
        return
    box_lo = np.minimum(segments.starts, segments.ends)
    box_hi = np.maximum(segments.starts, segments.ends)
    origin = box_lo.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        window_lo = box_lo - radius - origin
        window_hi = box_hi + radius - origin
        finite = np.isfinite(window_lo).all() and np.isfinite(window_hi).all()
        cs = max(radius, 1e-9)
        lowest = window_lo.min(axis=0)
        highest = window_hi.max(axis=0)
        while finite and float(
            np.prod(np.floor(highest / cs) - np.floor(lowest / cs) + 1.0)
        ) >= 2.0**62:
            cs *= 2.0
    if not finite:
        # Windows past the float range: no cell size can key them.
        yield from upper_triangle_blocks(n, pair_block)
        return
    reg_lo = np.floor((box_lo - origin) / cs).astype(np.int64)
    reg_hi = np.floor((box_hi - origin) / cs).astype(np.int64)
    qry_lo = np.floor(window_lo / cs).astype(np.int64)
    qry_hi = np.floor(window_hi / cs).astype(np.int64)
    glo = qry_lo.min(axis=0)
    extents = qry_hi.max(axis=0) - glo + 1
    radix = np.ones(extents.shape[0], dtype=np.int64)
    for k in range(extents.shape[0] - 2, -1, -1):
        radix[k] = radix[k + 1] * extents[k + 1]

    def encode(coords: np.ndarray) -> np.ndarray:
        return (coords - glo) @ radix

    # --- registration: sorted cell keys with member groups --------
    reg_spans = reg_hi - reg_lo + 1
    reg_cells = np.prod(reg_spans.astype(np.float64), axis=1)
    oversize_mask = reg_cells > _MAX_CELLS_PER_SEGMENT
    oversize = np.flatnonzero(oversize_mask)
    registered = np.flatnonzero(~oversize_mask)
    if registered.size:
        counts = np.prod(reg_spans[registered], axis=1)
        owners, coords = _enumerate_cells(
            reg_lo[registered], reg_spans[registered], counts
        )
        keys = encode(coords)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        members = registered[owners[order]]
        unique_keys, group_start = np.unique(
            sorted_keys, return_index=True
        )
        group_count = np.diff(
            np.append(group_start, sorted_keys.size)
        )
    else:
        members = np.empty(0, dtype=np.int64)
        unique_keys = np.empty(0, dtype=np.int64)
        group_start = np.empty(0, dtype=np.int64)
        group_count = np.empty(0, dtype=np.int64)

    def emit(
        left: np.ndarray, right: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for at in range(0, left.size, pair_block):
            yield left[at:at + pair_block], right[at:at + pair_block]

    # --- huge-window queries: scan registration ranges ------------
    qry_spans = qry_hi - qry_lo + 1
    window_cells = np.prod(qry_spans.astype(np.float64), axis=1)
    for i in np.flatnonzero(window_cells > _HUGE_WINDOW_CELLS).tolist():
        hit = np.all(
            (reg_lo <= qry_hi[i]) & (reg_hi >= qry_lo[i]), axis=1
        )
        hit &= ~oversize_mask
        mates = sorted_unique(
            np.concatenate([np.flatnonzero(hit), oversize])
        )
        mates = mates[mates > i]
        if mates.size:
            yield from emit(
                np.full(mates.size, i, dtype=np.int64), mates
            )

    # --- normal queries: chunked cell-key join --------------------
    queries = np.flatnonzero(window_cells <= _HUGE_WINDOW_CELLS)
    if queries.size == 0:
        return
    query_cells = np.prod(qry_spans[queries], axis=1)
    cell_cum = np.cumsum(query_cells)
    start = 0
    while start < queries.size:
        base = cell_cum[start - 1] if start else 0
        stop = int(
            np.searchsorted(cell_cum, base + _CELL_CHUNK_BUDGET, "right")
        )
        stop = min(max(stop, start + 1), queries.size)
        chunk = queries[start:stop]
        counts = query_cells[start:stop]
        rows, coords = _enumerate_cells(
            qry_lo[chunk], qry_spans[chunk], counts
        )
        keys = encode(coords)
        pos = np.searchsorted(unique_keys, keys)
        np.clip(pos, 0, max(unique_keys.size - 1, 0), out=pos)
        matched = (
            unique_keys[pos] == keys
            if unique_keys.size
            else np.zeros(keys.size, dtype=bool)
        )
        match_row = rows[matched]
        match_gid = pos[matched]
        match_count = group_count[match_gid]
        # Split the member expansion at query boundaries so no
        # sub-chunk materializes (much) more than pair_block
        # candidates.
        per_query = np.bincount(
            match_row, weights=match_count, minlength=chunk.size
        ).astype(np.int64) + oversize.size
        expansion_cum = np.cumsum(per_query)
        row_bounds = np.searchsorted(
            match_row, np.arange(chunk.size + 1)
        )
        sub = 0
        while sub < chunk.size:
            base2 = expansion_cum[sub - 1] if sub else 0
            sub_stop = int(
                np.searchsorted(expansion_cum, base2 + pair_block, "right")
            )
            sub_stop = min(max(sub_stop, sub + 1), chunk.size)
            lo_m, hi_m = row_bounds[sub], row_bounds[sub_stop]
            sub_row = match_row[lo_m:hi_m]
            sub_gid = match_gid[lo_m:hi_m]
            sub_cnt = match_count[lo_m:hi_m]
            query_ids = chunk[np.repeat(sub_row, sub_cnt)]
            candidates = members[
                concatenate_ranges(group_start[sub_gid], sub_cnt)
            ]
            if oversize.size:
                span = chunk[sub:sub_stop]
                query_ids = np.concatenate(
                    [query_ids, np.repeat(span, oversize.size)]
                )
                candidates = np.concatenate(
                    [candidates, np.tile(oversize, span.size)]
                )
            keep = candidates > query_ids
            if np.any(keep):
                pair_keys = sorted_unique(
                    query_ids[keep] * n + candidates[keep]
                )
                yield from emit(pair_keys // n, pair_keys % n)
            sub = sub_stop
        start = stop


class NeighborGraph:
    """The full ε-neighborhood relation as a CSR adjacency.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` int64; row *i* occupies ``indptr[i]:indptr[i+1]``.
    indices:
        Column indices (neighbor segment ids), ascending within each
        row; every row contains its own index (``dist(L, L) = 0``).
    data:
        The exact TRACLUS distances aligned with ``indices`` (0.0 on
        the diagonal) — OPTICS reads these instead of re-deriving them.
    """

    __slots__ = ("eps", "distance", "indptr", "indices", "data")

    def __init__(
        self,
        eps: float,
        distance: SegmentDistance,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        self.eps = float(eps)
        self.distance = distance
        self.indptr = indptr
        self.indices = indices
        self.data = data
        for array in (self.indptr, self.indices, self.data):
            array.setflags(write=False)

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        segments: SegmentSet,
        eps: float,
        distance: Optional[SegmentDistance] = None,
        pair_block: int = DEFAULT_PAIR_BLOCK,
    ) -> "NeighborGraph":
        """Compute the whole ε-neighborhood relation in one blocked pass."""
        if eps < 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if pair_block < 1:
            raise ClusteringError(f"pair_block must be >= 1, got {pair_block}")
        distance = distance if distance is not None else SegmentDistance()
        n = len(segments)
        eps = float(eps)

        def evaluate(left: np.ndarray, right: np.ndarray):
            dists = distance.pairs(segments, left, right)
            mask = dists <= eps
            if not np.any(mask):
                return None
            return left[mask], right[mask], dists[mask]

        kept_left: List[np.ndarray] = []
        kept_right: List[np.ndarray] = []
        kept_dist: List[np.ndarray] = []
        stream = _candidate_pair_stream(segments, eps, distance, pair_block)
        for kept in map_pair_blocks(stream, evaluate):
            if kept is not None:
                kept_left.append(kept[0])
                kept_right.append(kept[1])
                kept_dist.append(kept[2])

        diagonal = np.arange(n, dtype=np.int64)
        if kept_left:
            el = np.concatenate(kept_left)
            er = np.concatenate(kept_right)
            ed = np.concatenate(kept_dist)
            rows = np.concatenate([el, er, diagonal])
            cols = np.concatenate([er, el, diagonal])
            vals = np.concatenate([ed, ed, np.zeros(n, dtype=np.float64)])
        else:
            rows = diagonal
            cols = diagonal.copy()
            vals = np.zeros(n, dtype=np.float64)
        order = np.argsort(rows * n + cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(eps, distance, indptr, cols[order], vals[order])

    # -- derived graphs ----------------------------------------------------
    def restrict(self, eps: float) -> "NeighborGraph":
        """The neighbor graph at a smaller radius ``eps <= self.eps``,
        extracted by filtering the stored distances (no re-evaluation)."""
        if eps < 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if eps > self.eps:
            raise ClusteringError(
                f"cannot restrict a graph built at eps={self.eps} to the "
                f"larger radius {eps}; rebuild instead"
            )
        mask = self.data <= eps
        n = self.n_segments
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=indptr[1:])
        return NeighborGraph(
            eps, self.distance, indptr,
            self.indices[mask].copy(), self.data[mask].copy(),
        )

    # -- queries -----------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def n_edges(self) -> int:
        """Stored entries, diagonal included (each symmetric pair twice)."""
        return int(self.indices.shape[0])

    def row(self, index: int) -> np.ndarray:
        """``N_eps`` of segment *index* as an ascending read-only slice."""
        if not 0 <= index < self.n_segments:
            raise ClusteringError(
                f"segment index {index} out of range 0..{self.n_segments - 1}"
            )
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def row_distances(self, index: int) -> np.ndarray:
        """Distances aligned with :meth:`row`."""
        if not 0 <= index < self.n_segments:
            raise ClusteringError(
                f"segment index {index} out of range 0..{self.n_segments - 1}"
            )
        return self.data[self.indptr[index]:self.indptr[index + 1]]

    def sizes(self) -> np.ndarray:
        """``|N_eps(L)|`` for every segment — one O(n) diff, no queries."""
        return np.diff(self.indptr)

    def __repr__(self) -> str:
        return (
            f"NeighborGraph(n_segments={self.n_segments}, "
            f"n_edges={self.n_edges}, eps={self.eps})"
        )


class PrecomputedNeighborhood:
    """Neighborhood engine backed by a :class:`NeighborGraph`.

    Satisfies the :class:`~repro.cluster.neighborhood.NeighborhoodEngine`
    protocol: :meth:`neighbors_of` is an O(1) CSR slice and
    :meth:`neighborhood_sizes` a single ``diff`` — the whole cost was
    paid once, up front, by the blocked builder.
    """

    def __init__(
        self,
        segments: SegmentSet,
        eps: float,
        distance: Optional[SegmentDistance] = None,
        graph: Optional[NeighborGraph] = None,
        pair_block: int = DEFAULT_PAIR_BLOCK,
    ):
        if eps < 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        self.segments = segments
        self.eps = float(eps)
        self.distance = distance if distance is not None else SegmentDistance()
        if graph is None:
            graph = NeighborGraph.build(
                segments, self.eps, self.distance, pair_block=pair_block
            )
        elif len(segments) != graph.n_segments:
            raise ClusteringError(
                f"graph covers {graph.n_segments} segments but the set has "
                f"{len(segments)}"
            )
        elif graph.eps != self.eps:
            graph = graph.restrict(self.eps)
        self.graph = graph

    def neighbors_of(self, index: int) -> np.ndarray:
        return self.graph.row(index)

    def neighborhood_sizes(self) -> np.ndarray:
        return self.graph.sizes()

    def __repr__(self) -> str:
        return f"PrecomputedNeighborhood(eps={self.eps}, graph={self.graph!r})"


def neighborhood_size_counts(
    segments: SegmentSet,
    eps_values: Union[Sequence[float], np.ndarray],
    distance: Optional[SegmentDistance] = None,
    pair_block: int = DEFAULT_PAIR_BLOCK,
) -> np.ndarray:
    """``|N_eps(L_i)|`` for every ε in *eps_values* and every segment,
    without materializing any graph.

    The blocked candidate stream is run once at ``max(eps_values)``;
    each surviving pair is binned to the smallest threshold that admits
    it (one ``searchsorted``) and a suffix cumulative sum turns the bins
    into per-threshold counts.  Peak memory is ``O(pair_block + k * n)``
    — the Figure 16/19 entropy sweeps never hold an edge list.

    Returns an ``(n_eps, n_segments)`` int64 array identical to
    thresholding per-query brute-force distance rows.
    """
    distance = distance if distance is not None else SegmentDistance()
    eps_array = np.asarray(eps_values, dtype=np.float64)
    if eps_array.ndim != 1 or eps_array.size == 0:
        raise ClusteringError("eps_values must be a non-empty 1-D sequence")
    if np.any(eps_array < 0):
        raise ClusteringError("eps values must be non-negative")
    n = len(segments)
    k = eps_array.size
    sort_order = np.argsort(eps_array, kind="stable")
    sorted_eps = eps_array[sort_order]
    eps_max = float(sorted_eps[-1])

    def evaluate(left: np.ndarray, right: np.ndarray):
        dists = distance.pairs(segments, left, right)
        mask = dists <= eps_max
        if not np.any(mask):
            return None
        return left[mask], right[mask], dists[mask]

    # binned[t, i]: neighbors of i first admitted at sorted threshold t.
    binned = np.zeros((k, n), dtype=np.int64)
    stream = _candidate_pair_stream(segments, eps_max, distance, pair_block)
    for kept in map_pair_blocks(stream, evaluate):
        if kept is None:
            continue
        left, right, dists = kept
        bins = np.searchsorted(sorted_eps, dists, side="left")
        flat_l = bins * n + left
        flat_r = bins * n + right
        binned += np.bincount(flat_l, minlength=k * n).reshape(k, n)
        binned += np.bincount(flat_r, minlength=k * n).reshape(k, n)
    counts_sorted = np.cumsum(binned, axis=0)
    counts_sorted += 1  # every segment neighbors itself at any eps >= 0
    counts = np.empty_like(counts_sorted)
    counts[sort_order] = counts_sorted
    return counts
