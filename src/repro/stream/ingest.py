"""Trajectory ingestion: point appends in, segment deltas out.

:class:`TrajectoryStream` owns one
:class:`~repro.partition.incremental.IncrementalPartitioner` per
trajectory and translates its resumable Figure 8 scan into a *delta
protocol* over segments:

* every emitted segment carries a stream-unique integer ``key``;
* a **committed** segment (between two committed characteristic
  points) is inserted once and never touched again;
* the **trailing** segment (last committed point to the current last
  point) is retracted and re-inserted on every append that moves the
  trajectory's end.

Consumers apply a :class:`StreamDelta` by evicting the retracted keys
and inserting the new records, in that order.  After any sequence of
appends the live records equal the segments a batch
``SegmentSet.from_partitions`` would produce for the same points —
that is what makes online clustering comparable to a batch refit.

Whole-corpus seeding goes through :meth:`TrajectoryStream.bulk_append`:
the lock-step batched engine (:mod:`repro.partition.batched`) partitions
every new trajectory in one vectorized scan and hands back each
trajectory's resumable Figure 8 state, so the bulk path emits exactly
the records per-trajectory appends would — just without the per-point
interpreter loop — and later appends continue incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import PartitionError, TrajectoryError
from repro.model.ragged import RaggedPoints
from repro.model.trajectory import Trajectory
from repro.partition.batched import lockstep_scan
from repro.partition.incremental import IncrementalPartitioner


def _as_point_batch(points) -> np.ndarray:
    """Coerce one append's points to float64, promoting a single bare
    point to a ``(1, d)`` batch."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[None, :]
    return points


def _opening_weight(weight: Optional[float]) -> float:
    """Validate a trajectory's opening weight (``None`` = default 1.0)."""
    opening = 1.0 if weight is None else float(weight)
    if not (np.isfinite(opening) and opening > 0):
        raise TrajectoryError(
            f"trajectory weight must be positive and finite, got {weight}"
        )
    return opening


def _validated_times(times, n_points: int) -> np.ndarray:
    """Validate one batch's timestamps (shape, finiteness and
    monotonicity within the batch; cross-batch monotonicity is the
    caller's to check)."""
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (n_points,):
        raise TrajectoryError(
            f"times must have one entry per appended point: "
            f"{times.shape} vs {n_points}"
        )
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise TrajectoryError("timestamps must be finite and non-decreasing")
    return times


@dataclass(frozen=True)
class SegmentRecord:
    """One segment emitted by the stream.

    ``stamp`` is the event time of the segment's end point (the point
    index when the feed carries no timestamps) — eviction horizons are
    expressed against it.  ``trailing`` marks records that a later
    append to the same trajectory will retract.
    """

    key: int
    traj_id: int
    start: np.ndarray
    end: np.ndarray
    weight: float
    stamp: float
    trailing: bool


@dataclass(frozen=True)
class StreamDelta:
    """Retract-then-insert instructions for one append."""

    inserted: Tuple[SegmentRecord, ...]
    retracted: Tuple[int, ...]

    def __bool__(self) -> bool:
        return bool(self.inserted or self.retracted)


class _TrajectoryState:
    __slots__ = ("partitioner", "weight", "times", "trailing_key")

    def __init__(self, partitioner: IncrementalPartitioner, weight: float):
        self.partitioner = partitioner
        self.weight = weight
        self.times: Optional[List[float]] = None
        self.trailing_key: Optional[int] = None


class TrajectoryStream:
    """Multi-trajectory append-only ingestion front end.

    ``dim`` is the spatial dimension every appended point must have,
    as for the stream's ε-graph (a pipeline passes its
    ``StreamConfig.dim``, so points the graph would refuse never reach
    a partitioner).  Every append is validated whole before a
    trajectory opens or its partitioner changes, so a rejected append
    leaves the stream as it was.
    """

    def __init__(self, suppression: float = 0.0, dim: int = 2):
        if not suppression >= 0:  # written so that NaN fails too
            raise PartitionError(
                f"suppression must be non-negative, got {suppression}"
            )
        self.suppression = float(suppression)
        self.dim = int(dim)
        self._trajectories: Dict[int, _TrajectoryState] = {}
        self._next_key = 0

    # -- introspection -----------------------------------------------------
    @property
    def traj_ids(self) -> List[int]:
        return sorted(self._trajectories)

    def n_points(self, traj_id: int) -> int:
        state = self._trajectories.get(int(traj_id))
        return 0 if state is None else state.partitioner.n_points

    def characteristic_points(self, traj_id: int) -> List[int]:
        state = self._trajectories.get(int(traj_id))
        if state is None:
            raise TrajectoryError(f"unknown trajectory id {traj_id}")
        return state.partitioner.characteristic_points()

    # -- ingestion ---------------------------------------------------------
    def _checked_points(self, traj_id: int, points) -> np.ndarray:
        """One append's points as a validated float64 ``(k, d)`` batch:
        non-empty, of the stream's dimension and finite."""
        points = _as_point_batch(points)
        if points.ndim != 2 or points.shape[0] == 0:
            raise TrajectoryError(
                f"trajectory {traj_id}: need a non-empty (n, d) point "
                f"array, got shape {points.shape}"
            )
        if points.shape[1] != self.dim:
            raise TrajectoryError(
                f"trajectory {traj_id}: points have dim {points.shape[1]}, "
                f"the stream has dim {self.dim}"
            )
        if not np.all(np.isfinite(points)):
            raise TrajectoryError(
                f"trajectory {traj_id}: points must be finite"
            )
        return points

    def _take_key(self) -> int:
        key = self._next_key
        self._next_key += 1
        return key

    def _record(
        self,
        state: _TrajectoryState,
        traj_id: int,
        a: int,
        b: int,
        trailing: bool,
    ) -> SegmentRecord:
        points = state.partitioner.points
        stamp = state.times[b] if state.times is not None else float(b)
        return SegmentRecord(
            key=self._take_key(),
            traj_id=traj_id,
            start=points[a].copy(),
            end=points[b].copy(),
            weight=state.weight,
            stamp=stamp,
            trailing=trailing,
        )

    def append(
        self,
        traj_id: int,
        points: Union[Sequence[Sequence[float]], np.ndarray],
        times: Optional[Sequence[float]] = None,
        weight: Optional[float] = None,
    ) -> StreamDelta:
        """Append *points* to trajectory *traj_id* and return the delta.

        ``times`` (one stamp per appended point, non-decreasing across
        appends) enables timestamp-horizon eviction; a trajectory must
        be consistently timed or consistently untimed.  ``weight`` is
        fixed at the trajectory's first append (default 1.0); passing
        any explicit weight that differs from it later is an error,
        ``None`` means "keep the opening weight".
        """
        traj_id = int(traj_id)
        points = self._checked_points(traj_id, points)
        state = self._trajectories.get(traj_id)
        if state is None:
            opening = _opening_weight(weight)
        else:
            if weight is not None and state.weight != float(weight):
                raise TrajectoryError(
                    f"trajectory {traj_id} was opened with weight "
                    f"{state.weight}; cannot change it to {weight}"
                )
            if (times is not None) != (state.times is not None):
                raise TrajectoryError(
                    f"trajectory {traj_id} must be consistently timed: "
                    f"times {'given' if times is not None else 'missing'} "
                    f"now, {'missing' if times is not None else 'given'} "
                    f"before"
                )
        if times is not None:
            times = _validated_times(times, points.shape[0])
            if state is not None and state.times and times[0] < state.times[-1]:
                raise TrajectoryError("timestamps must be non-decreasing")
        if state is None:
            # Validated whole: only now may the trajectory open.
            state = _TrajectoryState(
                IncrementalPartitioner(self.suppression), opening
            )
            if times is not None:
                state.times = []
            self._trajectories[traj_id] = state

        part = state.partitioner
        previous_last = part.committed[-1] if part.n_points else None
        had_trailing = state.trailing_key is not None
        newly_committed = part.append(points)
        if times is not None:
            state.times.extend(float(t) for t in times)

        retracted: List[int] = []
        inserted: List[SegmentRecord] = []
        if had_trailing:
            # The trajectory's end moved: the old trailing segment is
            # stale whether or not new points were committed.
            retracted.append(state.trailing_key)
            state.trailing_key = None
        anchor = previous_last if previous_last is not None else 0
        for cp in newly_committed:
            inserted.append(self._record(state, traj_id, anchor, cp, False))
            anchor = cp
        last_committed = part.committed[-1]
        end = part.n_points - 1
        if end > last_committed:
            record = self._record(state, traj_id, last_committed, end, True)
            state.trailing_key = record.key
            inserted.append(record)
        return StreamDelta(tuple(inserted), tuple(retracted))

    def bulk_append(
        self,
        items: Sequence[
            Union[
                Trajectory,
                Tuple[int, Union[Sequence[Sequence[float]], np.ndarray]],
                Tuple[int, Union[Sequence[Sequence[float]], np.ndarray],
                      Optional[Sequence[float]]],
                Tuple[int, Union[Sequence[Sequence[float]], np.ndarray],
                      Optional[Sequence[float]], Optional[float]],
            ]
        ],
        scan: Optional[
            Tuple[Sequence[Sequence[int]], np.ndarray, np.ndarray]
        ] = None,
    ) -> StreamDelta:
        """Open many *new* trajectories at once through the batched
        phase-1 engine.

        *items* are :class:`~repro.model.trajectory.Trajectory` objects
        or ``(traj_id, points[, times[, weight]])`` tuples.  Every
        trajectory id must be unopened — bulk loading is a seed path,
        not a multi-trajectory append.

        Equivalent, record for record and state for state, to calling
        :meth:`append` once per item in order: the lock-step scanner
        commits bitwise-identical characteristic points and returns
        each trajectory's resumable ``(start_index, length)`` scan
        position, from which the per-trajectory incremental
        partitioners are restored — so later appends to a bulk-loaded
        trajectory continue exactly as if it had been fed point by
        point.

        *scan* hands over a precomputed ``(committed, starts,
        lengths)`` triple — exactly :func:`lockstep_scan`'s output for
        these items at this suppression, e.g. a Workspace partition
        artifact's scan states — in which case phase 1 is **skipped**
        entirely and the stream seeds from the cached result (same
        states bitwise, no scan work).
        """
        parsed: List[Tuple[int, np.ndarray, Optional[np.ndarray], float]] = []
        seen: set = set()
        for item in items:
            if isinstance(item, Trajectory):
                traj_id, points = item.traj_id, item.points
                times, weight = item.times, item.weight
            else:
                traj_id, points = int(item[0]), item[1]
                times = item[2] if len(item) > 2 else None
                weight = item[3] if len(item) > 3 else None
            points = self._checked_points(traj_id, points)
            if traj_id in self._trajectories or traj_id in seen:
                raise TrajectoryError(
                    f"trajectory {traj_id} is already open; bulk_append "
                    f"only seeds new trajectories"
                )
            seen.add(traj_id)
            if times is not None:
                times = _validated_times(times, points.shape[0])
            parsed.append((traj_id, points, times, _opening_weight(weight)))
        if not parsed:
            return StreamDelta((), ())

        if scan is not None:
            committed, starts, lengths = scan
            if (
                len(committed) != len(parsed)
                or len(starts) != len(parsed)
                or len(lengths) != len(parsed)
            ):
                raise TrajectoryError(
                    f"precomputed scan covers {len(committed)} trajectories "
                    f"but {len(parsed)} items were given"
                )
            # Structural consistency per row: a scan handed over for the
            # wrong corpus (shorter/longer trajectories) must fail here,
            # not corrupt the session or crash deep in restore().
            for row, (traj_id, points, _, _) in enumerate(parsed):
                n = points.shape[0]
                cps = committed[row]
                start = int(starts[row])
                length = int(lengths[row])
                if (
                    not cps
                    or cps[0] != 0
                    or any(b <= a for a, b in zip(cps, cps[1:]))
                    or cps[-1] >= n
                    or not 0 <= start < n
                    or start != cps[-1]  # the scan resumes at the last cp
                    or length < 1
                    or start + length < n
                ):
                    raise TrajectoryError(
                        f"trajectory {traj_id}: precomputed scan state is "
                        f"inconsistent with the given points (was the "
                        f"partition artifact built over this corpus?)"
                    )
        else:
            ragged = RaggedPoints.from_arrays([p for _, p, _, _ in parsed])
            committed, starts, lengths = lockstep_scan(
                ragged, self.suppression
            )

        inserted: List[SegmentRecord] = []
        for row, (traj_id, points, times, weight) in enumerate(parsed):
            partitioner = IncrementalPartitioner.restore(
                self.suppression,
                points,
                committed[row],
                int(starts[row]),
                int(lengths[row]),
            )
            state = _TrajectoryState(partitioner, weight)
            if times is not None:
                state.times = [float(t) for t in times]
            self._trajectories[traj_id] = state
            cps = committed[row]
            for a, b in zip(cps, cps[1:]):
                inserted.append(self._record(state, traj_id, a, b, False))
            end = points.shape[0] - 1
            if end > cps[-1]:
                record = self._record(state, traj_id, cps[-1], end, True)
                state.trailing_key = record.key
                inserted.append(record)
        return StreamDelta(tuple(inserted), ())

    def __repr__(self) -> str:
        return (
            f"TrajectoryStream(n_trajectories={len(self._trajectories)}, "
            f"next_key={self._next_key})"
        )
