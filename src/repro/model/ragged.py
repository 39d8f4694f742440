"""Ragged (offsets + flat) containers for variable-length point rows.

A trajectory corpus is a ragged 2-D structure: ``T`` rows of differing
point counts.  Python-level lists of ``(n_t, d)`` arrays force every
whole-corpus kernel back into a per-row interpreter loop, so the
batched phase-1 engine (:mod:`repro.partition.batched`) — and any
future corpus-wide kernel — works on the standard flattened form
instead:

* ``flat`` — one ``(N, d)`` float64 array holding every row's points
  back to back, row-major;
* ``offsets`` — an ``(T + 1,)`` int64 array with row ``t`` occupying
  ``flat[offsets[t]:offsets[t + 1]]``.

:func:`concatenate_ranges` is the companion gather helper: it expands
per-window ``(first, count)`` descriptors into one flat index array
without a Python loop, which is how the lock-step scanner materialises
every active trajectory's enclosed segments in a single fancy-index.
:func:`sorted_unique` deduplicates the flat integer keys such
expansions produce (candidate pairs, cell hits).
:func:`upper_triangle_blocks` enumerates every unordered pair of ``m``
positions in bounded blocks, for the all-pairs consumers (QMeasure,
the full distance matrix, the unfiltered neighbor-graph join).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TrajectoryError


def concatenate_ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat int64 index array ``[first_0 .. first_0+counts_0-1,
    first_1 .. , ...]`` — ragged ``arange`` concatenation, vectorized.

    Empty ranges (``counts == 0``) contribute nothing.
    """
    first = np.asarray(first, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if first.shape != counts.shape or first.ndim != 1:
        raise TrajectoryError(
            f"first/counts must be congruent 1-D arrays, got "
            f"{first.shape} vs {counts.shape}"
        )
    if np.any(counts < 0):
        raise TrajectoryError("range counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts  # output offset of each range
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return np.repeat(first, counts) + within


def upper_triangle_blocks(
    m: int, pair_block: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every unordered pair ``a < b`` of positions ``0 .. m-1``, once.

    Yields ``(a, b)`` int64 arrays in row-major order (``a`` ascending,
    then ``b``), cut into blocks of exactly *pair_block* pairs except
    the last, so peak scratch is ``O(pair_block)`` however large the
    ``m (m - 1) / 2`` triangle is.  A block may start and end mid-row;
    each is one :func:`concatenate_ranges` expansion of its row spans.
    """
    if pair_block < 1:
        raise TrajectoryError(f"pair_block must be >= 1, got {pair_block}")
    rows = np.arange(m, dtype=np.int64)
    widths = m - 1 - rows  # pairs (a, a+1 .. m-1) in row a
    row_end = np.cumsum(widths)  # linear index one past row a's pairs
    total = int(row_end[-1]) if m else 0
    for lo in range(0, total, pair_block):
        hi = min(lo + pair_block, total)
        # The rows holding linear pairs lo and hi-1 (empty rows never
        # match: searchsorted "right" skips repeated row_end values).
        first_row, last_row = np.searchsorted(row_end, [lo, hi - 1], "right")
        span = rows[first_row:last_row + 1]
        row_start = row_end[span] - widths[span]
        begin = np.maximum(row_start, lo)
        counts = np.minimum(row_end[span], hi) - begin
        yield (
            np.repeat(span, counts),
            concatenate_ranges(span + 1 + (begin - row_start), counts),
        )


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D integer array, by ``np.sort`` plus
    an adjacent-difference mask.

    Same output, but numpy 2.x answers a plain ``np.unique`` on integers
    with a hash table, which is one to two orders of magnitude slower
    than sorting at 10^3-10^6 int64 keys.
    """
    ordered = np.sort(keys)
    fresh = np.empty(ordered.shape, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


class RaggedPoints:
    """Immutable ragged collection of point rows in flattened form.

    Attributes
    ----------
    flat:
        ``(N, d)`` float64 array of all points, rows back to back.
    offsets:
        ``(T + 1,)`` int64 array; row ``t`` is
        ``flat[offsets[t]:offsets[t + 1]]``.
    """

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if flat.ndim != 2:
            raise TrajectoryError(
                f"flat points must be (N, d), got shape {flat.shape}"
            )
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise TrajectoryError(
                f"offsets must be a (T + 1,) array, got shape {offsets.shape}"
            )
        if offsets[0] != 0 or offsets[-1] != flat.shape[0]:
            raise TrajectoryError(
                f"offsets must run 0 .. {flat.shape[0]}, got "
                f"{offsets[0]} .. {offsets[-1]}"
            )
        if np.any(np.diff(offsets) < 0):
            raise TrajectoryError("offsets must be non-decreasing")
        self.flat = flat
        self.offsets = offsets
        self.flat.setflags(write=False)
        self.offsets.setflags(write=False)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_arrays(
        cls, arrays: Sequence[Union[Sequence[Sequence[float]], np.ndarray]]
    ) -> "RaggedPoints":
        """Flatten a sequence of ``(n_t, d)`` point arrays."""
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if not arrays:
            return cls(np.empty((0, 2)), np.zeros(1, dtype=np.int64))
        dims = set()
        for a in arrays:
            if a.ndim != 2 or a.shape[0] < 1:
                raise TrajectoryError(
                    f"each row needs a non-empty (n, d) array, got shape "
                    f"{a.shape}"
                )
            dims.add(a.shape[1])
        if len(dims) != 1:
            raise TrajectoryError(
                f"all rows must share one dimensionality, got {sorted(dims)}"
            )
        lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(np.concatenate(arrays, axis=0), offsets)

    @classmethod
    def from_trajectories(cls, trajectories) -> "RaggedPoints":
        """Flatten the points of :class:`~repro.model.trajectory.Trajectory`
        objects (ids/weights/times are not carried — pair row index
        ``t`` with ``trajectories[t]`` for those)."""
        return cls.from_arrays([t.points for t in trajectories])

    # -- protocol ----------------------------------------------------------
    def __len__(self) -> int:
        """Number of rows."""
        return int(self.offsets.shape[0] - 1)

    def __iter__(self) -> Iterator[np.ndarray]:
        for t in range(len(self)):
            yield self.row(t)

    def __repr__(self) -> str:
        return (
            f"RaggedPoints(n_rows={len(self)}, n_points={self.n_points}, "
            f"dim={self.dim})"
        )

    # -- accessors ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return int(self.flat.shape[1])

    @property
    def n_points(self) -> int:
        return int(self.flat.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """``(T,)`` point count per row."""
        return np.diff(self.offsets)

    def row(self, t: int) -> np.ndarray:
        """Read-only view of row *t*'s points."""
        if not 0 <= t < len(self):
            raise TrajectoryError(f"row {t} out of range 0..{len(self) - 1}")
        return self.flat[self.offsets[t] : self.offsets[t + 1]]
