"""Incremental MDL partitioning for streaming point appends.

Figure 8 scans a trajectory left to right keeping one candidate
partition ``p_startIndex .. p_currIndex``; each committed
characteristic point restarts the scan *at that point* and is never
revisited.  The loop body only reads ``points[start_index ..
curr_index]`` and the committed prefix, so appending points to the end
of the trajectory cannot change any already-committed characteristic
point — it merely resumes the scan where it stopped.

Where it stopped needs no storing: line 09 moves ``startIndex`` to the
point it has just committed, and the loop exits exactly when
``startIndex + length`` reaches the number of points ``n``, so after
any append the scan position is ``(CP[-1], n - CP[-1])``.
:class:`IncrementalPartitioner` keeps only the points and the committed
characteristic points, derives that position at the next append and
replays the exact Figure 8 loop over the grown buffer.  It is phase 1's
one scalar loop:
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
    """Figure 8, resumed from its committed characteristic points.

    Parameters
    ----------
    suppression:
        The Section 4.1.3 constant added to ``cost_nopar`` (``inf``
        never partitions); must match the value a batch comparison run
        would use.
    """

    __slots__ = ("suppression", "_buffer", "_n", "_committed")

    def __init__(self, suppression: float = 0.0):
        if not suppression >= 0:  # written so that NaN fails too
            raise PartitionError(
                f"suppression must be non-negative, got {suppression}"
            )
        self.suppression = float(suppression)
        self._buffer: Optional[np.ndarray] = None
        self._n = 0
        self._committed: List[int] = []

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
        n_before = self._n
        self._buffer[n_before : n_before + new_points.shape[0]] = new_points
        self._n += new_points.shape[0]
        if not self._committed:
            self._committed.append(0)  # Figure 8 line 01

        # Line 02 on the first append; afterwards the position the last
        # append's loop exited at (start + length == n_before).
        start = self._committed[-1]
        length = max(n_before - start, 1)
        points = self._buffer[: self._n]
        newly: List[int] = []
        while start + length <= self._n - 1:  # line 03
            curr = start + length  # line 04
            cost_par, base_nopar = mdl_costs(points, start, curr)
            cost_nopar = base_nopar + self.suppression  # lines 05-06
            # The guard `curr - 1 > start` cannot fire on the very first
            # step (cost_par == cost_nopar exactly when the candidate is
            # a single original segment) but protects against a
            # non-terminating rescan under extreme float noise.
            if cost_par > cost_nopar and curr - 1 > start:  # line 07
                self._committed.append(curr - 1)  # line 08
                newly.append(curr - 1)
                start, length = curr - 1, 1  # line 09
            else:
                length += 1  # line 11
        return newly

    # -- checkpointing -----------------------------------------------------
    @classmethod
    def restore(
        cls, suppression: float, points: np.ndarray, committed: Sequence[int]
    ) -> "IncrementalPartitioner":
        """Rebuild a partitioner from saved state (the inverse of
        reading :attr:`points` and :attr:`committed`).

        *committed* must be what Figure 8 can have committed on
        *points*: strictly increasing from 0 and below ``n - 1`` (``[0]``
        for a one-point trajectory); anything else raises
        :class:`PartitionError`."""
        partitioner = cls(suppression)
        points = np.asarray(points, dtype=np.float64)
        committed = [int(c) for c in committed]
        n = points.shape[0] if points.ndim == 2 else 0
        if (
            n == 0
            or not committed
            or committed[0] != 0
            or committed[-1] >= max(n - 1, 1)
            or any(b <= a for a, b in zip(committed, committed[1:]))
        ):
            raise PartitionError(
                f"committed points do not fit a {n}-point trajectory: "
                f"they must rise strictly from 0 and stay below n - 1 "
                f"([0] for one point)"
            )
        partitioner._grow(n, points.shape[1])
        partitioner._buffer[:n] = points
        partitioner._n = n
        partitioner._committed = committed
        return partitioner

    def __repr__(self) -> str:
        return (
            f"IncrementalPartitioner(n_points={self._n}, "
            f"n_committed={len(self._committed)}, "
            f"suppression={self.suppression})"
        )
