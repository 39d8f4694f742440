"""Dynamic endpoint grid: the streaming half of the ε-graph's endpoint join.

Each stored segment registers its two endpoints, one cell each, in a
sparse uniform grid whose cells are the candidate radius r wide (at
least ``1e-9``), so :meth:`SegmentGrid.insert` and
:meth:`SegmentGrid.remove` touch two dict entries however long the
segment is — what the streaming ε-graph needs as its store grows and
shrinks.  A query gathers the segments registered in the cells
``floor((x − r) / c) … floor((x + r) / c)`` on each axis around each
query endpoint x, and hands their endpoints to
:func:`~repro.cluster.neighbor_graph.endpoint_pairs`, the batch join's
test.  A pair is therefore a candidate exactly when one of its four
endpoint pairs lies within r, the rule of
:func:`~repro.cluster.neighbor_graph._endpoint_join`.

The window is sound at any coordinate magnitude because rounding is
monotone: a float y no lower than the real ``x − r`` is no lower than
``fl(x − r)``, so its cell is no lower than the window's first.  The
float test ``|x − y|² <= fl(r²)`` admits real gaps up to ``r(1 + 3u)``
(``u = 2⁻⁵³``), so the window reaches ``r(1 + 2⁻⁵⁰)``.  Where cell
coordinates pass 2⁵³, ``x ± r`` rounds to x unless r is near an ulp of
x, so a window spans at most about a dozen cells per axis.
"""

from __future__ import annotations

from itertools import product
from math import floor
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.cluster.neighbor_graph import endpoint_pairs
from repro.exceptions import IndexError_
from repro.kernels import DEFAULT_PAIR_BLOCK
from repro.model.ragged import sorted_unique


class SegmentGrid:
    """Sparse uniform grid over the endpoints of a segment store.

    *segments* is a :class:`~repro.model.segmentset.SegmentSet` or the
    streaming store; every segment it holds is registered.  *radius* is
    the endpoint radius of the candidate test, normally
    :func:`~repro.cluster.neighbor_graph.candidate_radius`.
    """

    def __init__(self, segments, radius: float):
        if not 0 < radius < np.inf:
            raise IndexError_(f"radius must be positive and finite, got {radius}")
        self.segments = segments
        self.radius = float(radius)
        self.cell_size = max(self.radius, 1e-9)
        self._reach = self.radius * (1.0 + 2.0**-50)
        self._r2 = self.radius * self.radius
        #: cell -> the segments with an endpoint in it.
        self._cells: Dict[Tuple[int, ...], List[int]] = {}
        for i in range(len(segments)):
            self.insert(i)

    def _endpoint_cells(self, index: int) -> Set[Tuple[int, ...]]:
        """The cells of stored segment *index*'s start and end."""
        n = len(self.segments)
        if not 0 <= index < n:
            raise IndexError_(f"segment index {index} out of range 0..{n - 1}")
        size = self.cell_size
        points = (self.segments.starts[index], self.segments.ends[index])
        try:
            return {tuple([floor(x / size) for x in p.tolist()]) for p in points}
        except (OverflowError, ValueError):  # an infinite or NaN coordinate
            raise IndexError_(f"segment {index} has a non-finite endpoint") from None

    def insert(self, index: int) -> None:
        """Register stored segment *index* in its endpoints' cells."""
        for cell in self._endpoint_cells(index):
            self._cells.setdefault(cell, []).append(index)

    def remove(self, index: int) -> None:
        """Unregister stored segment *index*.  Its coordinates must be
        unchanged since insertion (cells are recomputed from them)."""
        for cell in self._endpoint_cells(index):
            members = self._cells[cell]
            members.remove(index)
            if not members:
                del self._cells[cell]

    def candidates_near_many(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(query_pos, candidate)`` pair arrays for the stored
        segments *indices*: query-major, candidates ascending, each
        once.  The rows with ``query_pos == q`` hold every registered
        segment with an endpoint within the radius of an endpoint of
        ``indices[q]`` (the query itself too, once registered).

        Each query gathers the segments registered in the union of its
        two endpoints' windows, and both its endpoints are tested
        against both of theirs.  Queries are cut into :meth:`_test`
        calls of about ``DEFAULT_PAIR_BLOCK`` endpoint tests, so a bulk
        insert's scratch stays bounded.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = len(self.segments)
        ids = indices.tolist()
        if not ids:
            return indices, indices
        if not (0 <= min(ids) and max(ids) < n):
            raise IndexError_(f"segment index out of range 0..{n - 1}: {ids}")
        # Row 2q is query q's start, row 2q + 1 its end.
        points = np.concatenate((
            self.segments.starts[indices], self.segments.ends[indices],
        ), axis=1).reshape(-1, self.segments.dim)
        rows = points.tolist()
        reach, size = self._reach, self.cell_size
        keys: List[np.ndarray] = []
        found: List[int] = []
        runs: List[Tuple[int, int]] = []
        first = 0
        for q in range(len(ids)):
            window: Set[Tuple[int, ...]] = set()
            for point in rows[2 * q:2 * q + 2]:
                window.update(product(*[
                    range(floor((x - reach) / size),
                          floor((x + reach) / size) + 1)
                    for x in point
                ]))
            before = len(found)
            for cell in window:
                members = self._cells.get(cell)
                if members:
                    found += members
            runs.append((2 * before, 2 * (len(found) - before)))
            if q == len(ids) - 1 or 4 * len(found) >= DEFAULT_PAIR_BLOCK:
                keys.append(self._test(
                    points[2 * first:2 * q + 2], found, runs, n
                ) + first * n)
                found, runs, first = [], [], q + 1
        return np.divmod(np.concatenate(keys), n)

    def _test(self, points, found, runs, n) -> np.ndarray:
        """One :func:`endpoint_pairs` call for queries ``0 .. k - 1``:
        query ``q``'s endpoints, rows ``2q`` and ``2q + 1`` of
        *points*, against the endpoint rows ``runs[q] = (first,
        count)`` of the segments it gathered into *found*.  Returns the
        sorted unique keys ``q * n + segment`` of the pairs within the
        radius.  Gathered segments are numbered by position, so the
        kernel's scratch is sized by the gathered set, not by the
        store."""
        size = len(found)
        if not size:
            return np.empty(0, dtype=np.int64)
        slots = np.array(found, dtype=np.int64)
        # Row 2i is gathered segment i's start, row 2i + 1 its end; the
        # query rows follow, query q owned by size + q.
        gathered = np.concatenate((
            np.take(self.segments.starts, slots, axis=0),
            np.take(self.segments.ends, slots, axis=0),
        ), axis=1).reshape(-1, points.shape[1])
        m = points.shape[0]
        first, count = np.array(runs, dtype=np.int64).repeat(2, axis=0).T
        hits = endpoint_pairs(
            np.concatenate((gathered, points)),
            np.arange(2 * size + m, dtype=np.int64) >> 1,
            np.arange(2 * size, 2 * size + m, dtype=np.int64),
            first, count, size, self._r2,
        )
        query, position = np.divmod(hits, size)
        # A segment with its endpoints in two gathered cells is
        # gathered twice.
        return sorted_unique((query - size) * n + slots[position])

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return f"SegmentGrid(radius={self.radius}, n_cells={self.n_cells})"
