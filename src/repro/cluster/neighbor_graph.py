"""Batched ε-neighborhood graph (the whole of Definition 4 at once).

The brute-force oracle in :mod:`repro.cluster.neighborhood` answers
``N_eps(L_i)`` one segment at a time, so a consumer on it pays n
sequential O(n) passes through Python.  This module instead
materializes the *entire* ε-neighborhood relation in one pass, and
every consumer — DBSCAN (Figure 12), OPTICS (Appendix D), the entropy
heuristic (Formula 10) — reads it:

1. **Candidate generation** — an endpoint join: every segment's two
   endpoints register in a uniform grid, and a pair is a candidate
   when one of its four endpoint pairs lies within
   :func:`candidate_radius`, which no ε-neighbor pair can fail (the
   proof is the module docstring of
   :mod:`repro.cluster.neighborhood`).  The endpoint test runs in
   :func:`endpoint_pairs`, compiled when a kernel backend is active.
   Only unordered pairs ``i < j`` are kept, in ``(i, j)`` order: the
   distance is bitwise symmetric (see below), so each pair is
   evaluated once.  When :func:`candidate_radius` has no finite radius
   (a zero distance weight, or an ε too large to bound) the builder
   enumerates all ``i < j`` pairs
   (:func:`repro.model.ragged.upper_triangle_blocks`) — still exact,
   still blocked.
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

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
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
#: 0 and an exact prefilter would prune such a pair; flooring the
#: radius just above the underflow scale keeps every prefilter engine
#: sound (and is far below any representable coordinate difference that
#: survives squaring).
SUBNORMAL_RADIUS_GUARD = 1e-150


#: ``c = 2√2 − 2``, the sharp constant of ``L2(a, b) >= c · max(a, b)``
#: for the order-2 Lehmer mean ``L2(a, b) = (a² + b²) / (a + b)``.
LEHMER_CONSTANT = 2.0 * math.sqrt(2.0) - 2.0

#: Relative slack on the candidate radius for the rounding of computed
#: norms, Lehmer means and weighted sums.
RADIUS_MARGIN = 1e-6


def candidate_radius(eps: float, distance: SegmentDistance) -> Optional[float]:
    """Endpoint radius that cannot miss an ε-neighbor: any pair within
    distance ε has an endpoint pair within it (proof: module docstring
    of :mod:`repro.cluster.neighborhood`).  ``None`` when no finite
    radius is sound — a zero ``w_perp``/``w_par`` voids the bound, and
    an infinite or overflowing ε leaves nothing to prune.  ``None``
    makes every pair a candidate, in the batch join and the dynamic
    graph alike."""
    if not (distance.w_perp > 0 and distance.w_par > 0):
        return None
    radius = max(
        eps / (LEHMER_CONSTANT * distance.w_perp), eps / distance.w_par
    ) * (1.0 + RADIUS_MARGIN)
    if not math.isfinite(radius):
        return None
    return max(radius, SUBNORMAL_RADIUS_GUARD)


def endpoint_pairs(
    points: np.ndarray,
    owners: np.ndarray,
    at: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    n: int,
    r2: float,
) -> np.ndarray:
    """The endpoint test of the candidate join, batch and streaming
    (:class:`~repro.index.grid.SegmentGrid`), as sorted unique keys.

    ``points`` are ``(m, d)`` endpoints and ``owners`` the segment each
    belongs to.  Run ``j`` probes rows ``first[j] .. first[j] +
    count[j] - 1`` from row ``at[j]``, and the result holds
    ``owners[at[j]] * n + owners[k]`` for every probed row ``k`` whose
    squared distance to row ``at[j]`` (summed in ``np.einsum`` order)
    is at most ``r2``, each key once, ascending.  Runs must arrive
    grouped by probing owner.

    When a compiled kernel backend is active (``repro.kernels``), the
    whole loop runs compiled — bitwise identical by the backends'
    parity contract.
    """
    backend = kernels.active_backend()
    if backend is not None and points.shape[1] <= kernels.MAX_COMPILED_DIM:
        with kernels.maybe_time("endpoint_pairs", backend.name):
            return backend.endpoint_pairs(
                np.ascontiguousarray(points, dtype=np.float64),
                np.ascontiguousarray(owners, dtype=np.int64),
                np.ascontiguousarray(at, dtype=np.int64),
                np.ascontiguousarray(first, dtype=np.int64),
                np.ascontiguousarray(count, dtype=np.int64),
                n, r2,
            )
    with kernels.maybe_time("endpoint_pairs", "numpy"):
        return _endpoint_pairs_numpy(points, owners, at, first, count, n, r2)


def _endpoint_pairs_numpy(
    points: np.ndarray,
    owners: np.ndarray,
    at: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    n: int,
    r2: float,
) -> np.ndarray:
    """The pure-numpy :func:`endpoint_pairs` — always available, and the
    bitwise reference the compiled backends are parity-gated against
    (:mod:`repro.kernels.selftest`).  Rows are gathered with
    ``np.take(..., axis=0)``, several times faster than fancy indexing
    on 2-D rows."""
    rows = concatenate_ranges(first, count)
    probe = np.repeat(at, count)
    diff = np.take(points, probe, axis=0) - np.take(points, rows, axis=0)
    near = np.einsum("ij,ij->i", diff, diff) <= r2
    return sorted_unique(owners[probe[near]] * n + owners[rows[near]])


def _endpoint_join(
    segments: SegmentSet, radius: float, pair_block: int
) -> Optional[Iterator[tuple]]:
    """The :func:`endpoint_pairs` calls of the candidate join, as
    argument tuples in ascending query order, or ``None`` when a
    coordinate is non-finite (no cell can key it).

    Each segment registers its two endpoints, one cell each, on a grid
    of cell size at least *radius*, coarsened until every cell key fits
    an int64.  Endpoints are sorted by ``(cell, owner)``, so the
    endpoints of one cell owned by segments above a query id are a
    suffix of that cell, found by one ``searchsorted``.  Each query
    endpoint probes the ``3^d`` cells around its own (one cell holds
    every endpoint when ``3^d`` exceeds the segment count, where
    probing would cost more than scanning).  Queries are processed in
    chunks of at most ``pair_block`` probes, each split between
    queries into calls of about ``pair_block`` endpoint tests, so peak
    scratch stays ``O(pair_block)``.
    """
    n = len(segments)
    dim = segments.dim
    # Row 2i is segment i's start, row 2i + 1 its end.
    points = np.stack([segments.starts, segments.ends], axis=1).reshape(
        2 * n, dim
    )
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = points - points.min(axis=0)
    if not np.isfinite(offsets).all():
        return None
    if 3 ** dim <= n:
        highest = offsets.max(axis=0)
        cs = max(radius, 1e-9)
        with np.errstate(over="ignore"):
            while float(np.prod(np.floor(highest / cs) + 3.0)) >= 2.0**62:
                cs *= 2.0
        cells = np.floor(offsets / cs).astype(np.int64)
        # Mixed radix over coordinates shifted by one, so a neighbour
        # at coordinate -1 or extent + 1 keeps a distinct key.
        radix = np.ones(dim, dtype=np.int64)
        for k in range(dim - 2, -1, -1):
            radix[k] = radix[k + 1] * (cells[:, k + 1].max() + 3)
        keys = (cells + 1) @ radix
        shifts = np.array(
            list(itertools.product((-1, 0, 1), repeat=dim)), dtype=np.int64
        ) @ radix
    else:
        keys = np.zeros(2 * n, dtype=np.int64)
        shifts = np.zeros(1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")  # by (cell, owner)
    sorted_keys = keys[order]
    fresh = np.empty(2 * n, dtype=bool)
    fresh[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=fresh[1:])
    cell_start = np.flatnonzero(fresh)
    cell_keys = sorted_keys[cell_start]
    cell_end = np.append(cell_start[1:], 2 * n)
    owners = order >> 1
    ranked = (np.cumsum(fresh) - 1) * n + owners  # ascending
    sorted_points = np.take(points, order, axis=0)
    position = np.empty(2 * n, dtype=np.int64)
    position[order] = np.arange(2 * n)
    r2 = radius * radius
    step = max(1, pair_block // (2 * shifts.size))

    def calls() -> Iterator[tuple]:
        for q0 in range(0, n, step):
            q1 = min(q0 + step, n)
            endpoint = np.repeat(np.arange(2 * q0, 2 * q1), shifts.size)
            probe = keys[endpoint] + np.tile(shifts, 2 * (q1 - q0))
            cell = np.searchsorted(cell_keys, probe)
            np.minimum(cell, cell_keys.size - 1, out=cell)
            hit = cell_keys[cell] == probe
            endpoint, cell = endpoint[hit], cell[hit]
            query = endpoint >> 1
            first = np.searchsorted(ranked, cell * n + query, "right")
            count = cell_end[cell] - first
            live = count > 0
            at, first, count = position[endpoint[live]], first[live], count[live]
            # Cut between queries, so one query's runs share one call.
            bounds = np.searchsorted(query[live], np.arange(q0, q1 + 1))
            tests = np.concatenate([[0], np.cumsum(count)])[bounds]
            lo = 0
            while lo < q1 - q0:
                hi = np.searchsorted(tests, tests[lo] + pair_block, "right")
                hi = min(max(int(hi) - 1, lo + 1), q1 - q0)
                runs = slice(bounds[lo], bounds[hi])
                yield (
                    sorted_points, owners, at[runs], first[runs],
                    count[runs], n, r2,
                )
                lo = hi

    return calls()


def _candidate_pair_stream(
    segments: SegmentSet,
    eps: float,
    distance: SegmentDistance,
    pair_block: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(left, right)`` blocks of candidate pairs, ``left < right``
    row-wise, each block at most ``pair_block`` pairs, ordered by
    ``(left, right)`` across the whole stream.

    Every pair within distance ε appears in exactly one block: the
    pairs with an endpoint pair within :func:`candidate_radius`, which
    every ε-neighbor pair has (module docstring of
    :mod:`repro.cluster.neighborhood`), found by the endpoint grid of
    :func:`_endpoint_join`.  Without a finite radius, or with a
    non-finite coordinate, every ``i < j`` pair is a candidate.
    """
    n = len(segments)
    radius = candidate_radius(eps, distance)
    calls = None
    if radius is not None and n >= 2:
        calls = _endpoint_join(segments, radius, pair_block)
    if calls is None:
        yield from upper_triangle_blocks(n, pair_block)
        return
    for args in calls:
        pair_keys = endpoint_pairs(*args)
        for at in range(0, pair_keys.size, pair_block):
            yield np.divmod(pair_keys[at:at + pair_block], n)


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
        if not eps >= 0:
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
        if not eps >= 0:
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
        if not eps >= 0:
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
    if not np.all(eps_array >= 0):
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
