"""Approximate Trajectory Partitioning — Figure 8 of the paper.

Scans the trajectory keeping a growing candidate partition
``p_startIndex .. p_currIndex``; the moment partitioning
(``MDL_par``) costs more than not partitioning (``MDL_nopar``), the
previous point becomes a characteristic point and the scan restarts
there.  Lemma 1: the number of MDL evaluations is linear in the number
of points.

Section 4.1.3 adds one practical refinement: very short partitions harm
clustering (a short segment's angle distance is tiny regardless of the
actual angle), so partitioning can be *suppressed* by adding a small
constant to ``cost_nopar``, lengthening partitions by 20-30 %.  That
constant is the ``suppression`` parameter below.

Phase 1 has one scalar loop and one corpus engine:
:func:`approximate_partition` runs the scalar loop of
:class:`~repro.partition.incremental.IncrementalPartitioner` over one
whole trajectory, and :func:`partition_all` runs the lock-step corpus
scan of :mod:`repro.partition.batched` — the same characteristic
points, bitwise, from one vectorized scan over every trajectory.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import PartitionError
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.partition.batched import batched_partition_arrays
from repro.partition.incremental import IncrementalPartitioner


def approximate_partition(
    points: np.ndarray, suppression: float = 0.0
) -> List[int]:
    """Characteristic-point indices for one trajectory (Figure 8).

    Parameters
    ----------
    points:
        ``(n, d)`` array of finite trajectory points, ``n >= 2``.
    suppression:
        Non-negative constant added to ``cost_nopar`` (Section 4.1.3);
        larger values yield fewer, longer partitions, and ``inf`` never
        partitions.  0 reproduces Figure 8 verbatim.

    Returns
    -------
    list[int]
        Strictly increasing indices, always starting at 0 and ending at
        ``n - 1``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise PartitionError(
            f"need an (n >= 2, d) point array, got shape {points.shape}"
        )
    partitioner = IncrementalPartitioner(suppression)
    partitioner.append(points)
    return partitioner.characteristic_points()


def partition_trajectory(
    trajectory: Trajectory, suppression: float = 0.0
) -> List[int]:
    """Characteristic points of a :class:`Trajectory` (Figure 8)."""
    return approximate_partition(trajectory.points, suppression=suppression)


def partition_all(
    trajectories: Sequence[Trajectory], suppression: float = 0.0
) -> "tuple[SegmentSet, List[List[int]]]":
    """The whole partitioning phase of TRACLUS (Figure 4, lines 01-03).

    Runs Figure 8 on every trajectory through the lock-step corpus scan
    (:mod:`repro.partition.batched`) and accumulates the resulting
    trajectory partitions into one :class:`SegmentSet` ``D``.

    Returns ``(segments, characteristic_points)``.
    """
    all_cps = batched_partition_arrays(
        [trajectory.points for trajectory in trajectories],
        suppression=suppression,
    )
    segments = SegmentSet.from_partitions(trajectories, all_cps)
    return segments, all_cps
