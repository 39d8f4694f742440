"""Incremental MDL partitioning for streaming point appends.

Figure 8 scans a trajectory left to right keeping one candidate
partition ``p_startIndex .. p_currIndex``; each committed
characteristic point restarts the scan *at that point* and is never
revisited.  The loop body only reads ``points[start_index ..
curr_index]`` and the committed prefix, so appending points to the end
of the trajectory cannot change any already-committed characteristic
point — it merely resumes the scan where it stopped.

:class:`IncrementalPartitioner` exploits that: it persists the scan
state ``(start_index, length)`` between appends and replays the exact
Figure 8 loop over the grown buffer.  It is phase 1's one scalar loop:
:func:`repro.partition.approximate.approximate_partition` appends a
whole trajectory at once, and every step evaluates its window through
:func:`repro.partition.mdl.mdl_costs` — the same contiguous kernel the
lock-step corpus scan uses.  So after any sequence of appends its
characteristic points are *identical* (not merely similar) to a
one-shot partition of the full point array and to the lock-step scan —
the property tests in ``tests/property/test_stream_equivalence.py`` and
``tests/property/test_partition_engine_equivalence.py`` pin this.

Terminology used by the streaming layer on top:

* a **committed** characteristic point is one emitted by line 08 of
  Figure 8; the segment between two consecutive committed points is
  final and will never change;
* the **trailing** segment runs from the last committed point to the
  current last point (the forced endpoint of line 12).  Every append
  moves the trajectory's end, so the trailing segment is retracted and
  re-inserted on each append.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import PartitionError
from repro.partition.mdl import mdl_costs


class IncrementalPartitioner:
    """Figure 8 with a resumable scan state.

    Parameters
    ----------
    suppression:
        The Section 4.1.3 constant added to ``cost_nopar`` (``inf``
        never partitions); must match the value a batch comparison run
        would use.
    """

    __slots__ = ("suppression", "_buffer", "_n", "_committed", "_start", "_length")

    def __init__(self, suppression: float = 0.0):
        if not suppression >= 0:  # written so that NaN fails too
            raise PartitionError(
                f"suppression must be non-negative, got {suppression}"
            )
        self.suppression = float(suppression)
        self._buffer: Optional[np.ndarray] = None
        self._n = 0
        self._committed: List[int] = []
        self._start = 0
        self._length = 1

    # -- state -------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self._n

    @property
    def dim(self) -> Optional[int]:
        return None if self._buffer is None else int(self._buffer.shape[1])

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the points appended so far."""
        if self._buffer is None:
            raise PartitionError("no points appended yet")
        view = self._buffer[: self._n]
        view.setflags(write=False)
        return view

    @property
    def committed(self) -> List[int]:
        """The committed characteristic-point indices (line 08 commits;
        excludes the forced final endpoint)."""
        return list(self._committed)

    def characteristic_points(self) -> List[int]:
        """Exactly ``approximate_partition(self.points, suppression)``.

        Committed points plus the forced final endpoint (Figure 8 line
        12).  A single-point trajectory has ``[0]`` and no segments yet.
        """
        if self._n == 0:
            raise PartitionError("no points appended yet")
        cps = list(self._committed)
        if self._n - 1 > cps[-1]:
            cps.append(self._n - 1)
        return cps

    # -- ingestion ---------------------------------------------------------
    def _grow(self, extra: int, dim: int) -> None:
        if self._buffer is None:
            capacity = max(16, extra)
            self._buffer = np.empty((capacity, dim), dtype=np.float64)
        elif self._buffer.shape[1] != dim:
            raise PartitionError(
                f"appended points have dim {dim}, trajectory has "
                f"dim {self._buffer.shape[1]}"
            )
        needed = self._n + extra
        if needed > self._buffer.shape[0]:
            capacity = max(needed, 2 * self._buffer.shape[0])
            grown = np.empty((capacity, dim), dtype=np.float64)
            grown[: self._n] = self._buffer[: self._n]
            self._buffer = grown

    def append(
        self, new_points: Union[Sequence[Sequence[float]], np.ndarray]
    ) -> List[int]:
        """Append points and resume the Figure 8 scan.

        Returns the characteristic points *committed by this append*
        (strictly increasing, possibly empty).  The forced final
        endpoint is never in this list — it is the moving end of the
        trailing segment.
        """
        new_points = np.asarray(new_points, dtype=np.float64)
        if new_points.ndim == 1:
            new_points = new_points[None, :]
        if new_points.ndim != 2 or new_points.shape[0] == 0:
            raise PartitionError(
                f"need a non-empty (k, d) point array, got shape "
                f"{new_points.shape}"
            )
        if not np.all(np.isfinite(new_points)):
            raise PartitionError("trajectory points must be finite")
        self._grow(new_points.shape[0], new_points.shape[1])
        self._buffer[self._n : self._n + new_points.shape[0]] = new_points
        self._n += new_points.shape[0]
        if not self._committed:
            self._committed.append(0)  # Figure 8 line 01

        points = self._buffer[: self._n]
        newly: List[int] = []
        while self._start + self._length <= self._n - 1:  # line 03
            curr = self._start + self._length  # line 04
            cost_par, base_nopar = mdl_costs(points, self._start, curr)
            cost_nopar = base_nopar + self.suppression  # lines 05-06
            # The guard `curr - 1 > start` cannot fire on the very first
            # step (cost_par == cost_nopar exactly when the candidate is
            # a single original segment) but protects against a
            # non-terminating rescan under extreme float noise.
            if cost_par > cost_nopar and curr - 1 > self._start:  # line 07
                self._committed.append(curr - 1)  # line 08
                newly.append(curr - 1)
                self._start, self._length = curr - 1, 1  # line 09
            else:
                self._length += 1  # line 11
        return newly

    # -- checkpointing -----------------------------------------------------
    def scan_state(self) -> "tuple[int, int]":
        """The resumable Figure 8 scan position ``(start_index, length)``."""
        return self._start, self._length

    @classmethod
    def restore(
        cls,
        suppression: float,
        points: np.ndarray,
        committed: Sequence[int],
        start_index: int,
        length: int,
    ) -> "IncrementalPartitioner":
        """Rebuild a partitioner from checkpointed state (the inverse of
        reading :attr:`points`, :attr:`committed`, :meth:`scan_state`)."""
        partitioner = cls(suppression)
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0]:
            partitioner._grow(points.shape[0], points.shape[1])
            partitioner._buffer[: points.shape[0]] = points
            partitioner._n = points.shape[0]
        partitioner._committed = [int(c) for c in committed]
        partitioner._start = int(start_index)
        partitioner._length = int(length)
        return partitioner

    def __repr__(self) -> str:
        return (
            f"IncrementalPartitioner(n_points={self._n}, "
            f"n_committed={len(self._committed)}, "
            f"suppression={self.suppression})"
        )
