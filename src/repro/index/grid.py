"""Uniform hash-grid over segment bounding boxes.

Each segment is registered in every grid cell its bounding box
overlaps; a candidate query gathers the segments registered in the
cells overlapped by the query window.  Cells are stored sparsely in a
dict keyed by integer cell coordinates, so empty space costs nothing.
Segments come and go (:meth:`SegmentGrid.insert` /
:meth:`SegmentGrid.remove`), which is what the streaming ε-graph needs;
every query, one window or many, goes through
:meth:`SegmentGrid.candidates_near_many`.

Segments whose boxes would cover an excessive number of cells (a few
trans-continental outliers exist in any trajectory dataset) are kept in
an *oversize* list that is appended to every candidate set — cheaper
than rasterising thousands of cells and still exact.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

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
        # Float cell coordinates: Python ints made from them never
        # overflow, however fine the cells are against the extent.
        lo_cell = np.floor((lo - self._origin) / self.cell_size)
        hi_cell = np.floor((hi - self._origin) / self.cell_size)
        return lo_cell, hi_cell

    def _registration(self, index: int) -> Optional[Iterator[Tuple[int, ...]]]:
        """The cells stored segment *index* registers in, or ``None``
        when its box is oversize."""
        lo = np.minimum(self.segments.starts[index], self.segments.ends[index])
        hi = np.maximum(self.segments.starts[index], self.segments.ends[index])
        lo_cell, hi_cell = self._cell_range(lo, hi)
        if float((hi_cell - lo_cell + 1).prod()) > self.max_cells_per_segment:
            return None
        return product(
            *(range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell))
        )

    def _insert(self, index: int) -> None:
        cells = self._registration(index)
        if cells is None:
            self._oversize.append(index)
            return
        for cell in cells:
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
        cells = self._registration(index)
        if cells is None:
            self._oversize.remove(index)
            return
        for cell in cells:
            members = self._cells[cell]
            members.remove(index)
            if not members:
                del self._cells[cell]

    # -- queries -----------------------------------------------------------
    def candidates_near(self, index: int, radius: float) -> np.ndarray:
        """Candidate neighbors of stored segment *index* within Euclidean
        window *radius* (bbox-to-bbox), ascending."""
        return self.candidates_near_many(np.array([index]), radius)[1]

    def candidates_near_many(
        self, indices: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(query_pos, candidate)`` pair arrays for the stored
        segments *indices*: query-major, candidates ascending and
        deduped per query.  The rows with ``query_pos == q`` hold every
        segment whose box *may* overlap ``indices[q]``'s box expanded by
        *radius* (a superset of the true overlaps; never misses one
        that was inserted).

        Each window is rasterised into its cells, except that a window
        covering more than ``16 * max_cells_per_segment`` cells (most of
        the domain) scans the occupied cell keys instead.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = len(self.segments)
        ids = indices.tolist()
        if ids and not (0 <= min(ids) and max(ids) < n):
            raise IndexError_(f"segment index out of range 0..{n - 1}: {ids}")
        starts = self.segments.starts[indices]
        ends = self.segments.ends[indices]
        lo_cells, hi_cells = self._cell_range(
            np.minimum(starts, ends) - radius, np.maximum(starts, ends) + radius
        )
        huge = (hi_cells - lo_cells + 1).prod(axis=1) > (
            16 * self.max_cells_per_segment
        )
        found: List[int] = []
        counts: List[int] = []
        for lo_cell, hi_cell, scan in zip(
            lo_cells.tolist(), hi_cells.tolist(), huge.tolist()
        ):
            before = len(found)
            if scan:
                for cell, members in self._cells.items():
                    if all(a <= c <= b for c, a, b in zip(cell, lo_cell, hi_cell)):
                        found.extend(members)
            else:
                for cell in product(*(
                    range(int(a), int(b) + 1) for a, b in zip(lo_cell, hi_cell)
                )):
                    members = self._cells.get(cell)
                    if members:
                        found.extend(members)
            found.extend(self._oversize)
            counts.append(len(found) - before)
        # One dedup over (query, candidate) keys, which sort query-major
        # with candidates ascending.
        span = max(n, 1)
        keys = sorted_unique(
            np.repeat(np.arange(len(ids), dtype=np.int64) * span, counts)
            + np.asarray(found, dtype=np.int64)
        )
        return np.divmod(keys, span)

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
