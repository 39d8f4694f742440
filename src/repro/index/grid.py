"""Uniform hash-grid over segment bounding boxes.

Each segment is registered in every grid cell its bounding box
overlaps; a candidate query gathers the segments registered in the
cells overlapped by the query window.  Cells are stored sparsely in a
dict keyed by integer cell coordinates, so empty space costs nothing.

Segments whose boxes would cover an excessive number of cells (a few
trans-continental outliers exist in any trajectory dataset) are kept in
an *oversize* list that is appended to every candidate set — cheaper
than rasterising thousands of cells and still exact.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import IndexError_
from repro.model.ragged import sorted_unique
from repro.model.segmentset import SegmentSet


class SegmentGrid:
    """Sparse uniform grid over the bounding boxes of a segment set.

    Parameters
    ----------
    segments:
        The (immutable) segment store to index.
    cell_size:
        Edge length of the cubic cells.  Good values are comparable to
        the query radius the caller will use.
    max_cells_per_segment:
        Segments overlapping more cells than this go to the oversize
        list instead of the grid.
    """

    def __init__(
        self,
        segments: SegmentSet,
        cell_size: float,
        max_cells_per_segment: int = 1024,
    ):
        if cell_size <= 0:
            raise IndexError_(f"cell_size must be positive, got {cell_size}")
        self.segments = segments
        self.cell_size = float(cell_size)
        self.max_cells_per_segment = int(max_cells_per_segment)
        self._cells: Dict[Tuple[int, ...], List[int]] = {}
        self._oversize: List[int] = []
        if len(segments) > 0:
            self._origin = np.minimum(
                segments.starts.min(axis=0), segments.ends.min(axis=0)
            )
        else:
            self._origin = np.zeros(segments.dim)
        for i in range(len(segments)):
            self._insert(i)

    # -- construction ------------------------------------------------------
    def _cell_range(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        lo_cell = np.floor((lo - self._origin) / self.cell_size).astype(np.int64)
        hi_cell = np.floor((hi - self._origin) / self.cell_size).astype(np.int64)
        return lo_cell, hi_cell

    def _insert(self, index: int) -> None:
        lo = np.minimum(self.segments.starts[index], self.segments.ends[index])
        hi = np.maximum(self.segments.starts[index], self.segments.ends[index])
        lo_cell, hi_cell = self._cell_range(lo, hi)
        spans = hi_cell - lo_cell + 1
        # Product in float: tiny cells give spans that overflow int64.
        if float(np.prod(spans, dtype=np.float64)) > self.max_cells_per_segment:
            self._oversize.append(index)
            return
        ranges = [range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell)]
        for cell in product(*ranges):
            self._cells.setdefault(cell, []).append(index)

    # -- dynamic maintenance -------------------------------------------------
    def insert(self, index: int) -> None:
        """Register stored segment *index* (for dynamic callers whose
        segment store grows after construction)."""
        if not 0 <= index < len(self.segments):
            raise IndexError_(
                f"segment index {index} out of range 0..{len(self.segments) - 1}"
            )
        self._insert(index)

    def remove(self, index: int) -> None:
        """Unregister stored segment *index*.  The segment's coordinates
        must be unchanged since insertion (cells are recomputed from
        them)."""
        lo = np.minimum(self.segments.starts[index], self.segments.ends[index])
        hi = np.maximum(self.segments.starts[index], self.segments.ends[index])
        lo_cell, hi_cell = self._cell_range(lo, hi)
        spans = hi_cell - lo_cell + 1
        if float(np.prod(spans, dtype=np.float64)) > self.max_cells_per_segment:
            self._oversize.remove(index)
            return
        ranges = [range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell)]
        for cell in product(*ranges):
            members = self._cells[cell]
            members.remove(index)
            if not members:
                del self._cells[cell]

    # -- queries -----------------------------------------------------------
    def candidates_in_window(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Indices of all segments whose boxes *may* overlap the window
        ``[lo, hi]`` (superset of the true overlaps; never misses one
        that was inserted)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        lo_cell, hi_cell = self._cell_range(lo, hi)
        spans = hi_cell - lo_cell + 1
        found: List[int] = list(self._oversize)
        if float(np.prod(spans, dtype=np.float64)) > 16 * self.max_cells_per_segment:
            # The window covers most of the domain; scanning every cell
            # key is cheaper than rasterising the window.
            for cell, members in self._cells.items():
                if all(a <= c <= b for c, a, b in zip(cell, lo_cell, hi_cell)):
                    found.extend(members)
        else:
            ranges = [range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell)]
            for cell in product(*ranges):
                members = self._cells.get(cell)
                if members:
                    found.extend(members)
        if not found:
            return np.empty(0, dtype=np.int64)
        return sorted_unique(np.asarray(found, dtype=np.int64))

    def candidates_near(self, index: int, radius: float) -> np.ndarray:
        """Candidate neighbors of stored segment *index* within Euclidean
        window *radius* (bbox-to-bbox)."""
        if not 0 <= index < len(self.segments):
            raise IndexError_(
                f"segment index {index} out of range 0..{len(self.segments) - 1}"
            )
        lo = np.minimum(self.segments.starts[index], self.segments.ends[index])
        hi = np.maximum(self.segments.starts[index], self.segments.ends[index])
        return self.candidates_in_window(lo - radius, hi + radius)

    def candidates_near_many(
        self, indices: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`candidates_near`: ``(query_pos, candidate)``
        pair arrays, query-major with candidates ascending and deduped
        per query — for each position ``q`` in *indices*, the rows with
        ``query_pos == q`` hold exactly ``candidates_near(indices[q],
        radius)``.

        The point is the join order: the batch's cell windows are
        rasterised into one cell -> queries table first, so each
        distinct cell key is looked up in the grid *once* for the whole
        batch instead of once per overlapping query.
        """
        indices = np.asarray(indices, dtype=np.int64)
        query_parts: List[np.ndarray] = []
        candidate_parts: List[np.ndarray] = []
        cell_to_queries: Dict[Tuple[int, ...], List[int]] = {}
        rastered: List[int] = []
        for qpos, index in enumerate(indices.tolist()):
            if not 0 <= index < len(self.segments):
                raise IndexError_(
                    f"segment index {index} out of range "
                    f"0..{len(self.segments) - 1}"
                )
            lo = np.minimum(
                self.segments.starts[index], self.segments.ends[index]
            )
            hi = np.maximum(
                self.segments.starts[index], self.segments.ends[index]
            )
            lo_cell, hi_cell = self._cell_range(lo - radius, hi + radius)
            spans = hi_cell - lo_cell + 1
            if (
                float(np.prod(spans, dtype=np.float64))
                > 16 * self.max_cells_per_segment
            ):
                # Same huge-window escape as candidates_in_window:
                # cheaper to answer this query alone than rasterise it.
                found = self.candidates_in_window(lo - radius, hi + radius)
                query_parts.append(
                    np.full(found.size, qpos, dtype=np.int64)
                )
                candidate_parts.append(found)
                continue
            rastered.append(qpos)
            ranges = [
                range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell)
            ]
            for cell in product(*ranges):
                cell_to_queries.setdefault(cell, []).append(qpos)
        hits_q: List[int] = []
        hits_c: List[int] = []
        for cell, queries in cell_to_queries.items():
            members = self._cells.get(cell)
            if not members:
                continue
            for qpos in queries:
                hits_q.extend([qpos] * len(members))
                hits_c.extend(members)
        if self._oversize and rastered:
            for qpos in rastered:
                hits_q.extend([qpos] * len(self._oversize))
                hits_c.extend(self._oversize)
        if hits_q:
            query_parts.append(np.asarray(hits_q, dtype=np.int64))
            candidate_parts.append(np.asarray(hits_c, dtype=np.int64))
        if not query_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        query_pos = np.concatenate(query_parts)
        candidates = np.concatenate(candidate_parts)
        # Dedup (query, candidate) pairs; the combined key sorts
        # query-major with candidates ascending, matching the per-query
        # dedup of candidates_in_window.
        span = max(len(self.segments), 1)
        keys = sorted_unique(query_pos * span + candidates)
        return keys // span, keys % span

    # -- introspection -------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self._cells)

    @property
    def n_oversize(self) -> int:
        return len(self._oversize)

    def __repr__(self) -> str:
        return (
            f"SegmentGrid(n_segments={len(self.segments)}, "
            f"cell_size={self.cell_size}, n_cells={self.n_cells}, "
            f"n_oversize={self.n_oversize})"
        )
