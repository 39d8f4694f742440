"""Lock-step Figure 8 over a corpus: the phase-1 corpus engine.

Calling the per-trajectory scan once per trajectory evaluates one MDL
comparison per loop iteration — a handful of tiny NumPy calls per
*point*, which would make phase 1 the interpreter-bound bottleneck of
``TRACLUS.fit`` on large corpora.  This module runs the **same scan on
every trajectory simultaneously**: the corpus becomes one ragged
``(offsets, flat points)`` container (:class:`~repro.model.ragged.RaggedPoints`)
and each *global* step advances all still-scanning trajectories by one
Figure-8 iteration, evaluating every active candidate window in a
single call to the MDL window kernel
(:meth:`LockstepLayout.window_costs
<repro.partition.layout.LockstepLayout.window_costs>`) over the
corpus's flat points.

Exactness, not approximation
----------------------------
This is a *mechanical* re-scheduling of Figure 8, not a numerical
shortcut.  Trajectories are independent, so interleaving their loop
iterations cannot change any decision; and because the per-trajectory
scan evaluates its windows through the same kernel, whose per-window
arithmetic is elementwise-IEEE and whose per-window sums are
``np.add.reduceat`` slices, every ``MDL_par`` / ``MDL_nopar`` value —
including the Section 4.1.3 suppression constant and the strict ``>``
tie behavior of line 07 — is bitwise identical to the per-trajectory
scan.  The characteristic points are therefore *exactly* equal, which
the property suites assert point for point.

The committed points are also the whole resumable state of each
trajectory's scan (it stopped at ``(CP[-1], n - CP[-1])``), so a
streaming session can bulk-load a whole corpus through this engine and
then continue incrementally (:meth:`TrajectoryStream.bulk_append
<repro.stream.ingest.TrajectoryStream.bulk_append>`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import PartitionError
from repro.model.ragged import RaggedPoints, concatenate_ranges
from repro.partition.layout import LockstepLayout
from repro.partition.mdl import _window_mdl_costs_numpy


def _rebuild_step_costs(
    flat: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The historical per-step evaluation: rebuild the full ragged
    gather/window_of layout from scratch and call the numpy reference
    on the copied rows.  Kept as the baseline the persistent layout is
    benchmarked (and bitwise-regression-tested) against."""
    offsets = np.cumsum(counts) - counts
    gather = concatenate_ranges(first, counts)
    window_of = np.repeat(np.arange(first.size, dtype=np.int64), counts)
    return _window_mdl_costs_numpy(
        flat[first],
        flat[first + counts],
        flat[gather],
        flat[gather + 1],
        window_of,
        offsets,
    )


def lockstep_scan(
    ragged: RaggedPoints,
    suppression: float = 0.0,
    *,
    reuse_layout: bool = True,
) -> List[List[int]]:
    """Run Figure 8 on every row of *ragged* in lock-step.

    Rows may have any length >= 1 (a single-point row simply never
    enters the scan loop — the streaming bulk-load path needs that);
    every coordinate must be finite.

    By default each step is evaluated through one
    :class:`~repro.partition.layout.LockstepLayout` over the corpus's
    flat points (per-segment invariants computed once);
    ``reuse_layout=False`` forces the historical rebuild-per-step path
    on the numpy reference.  Both paths are bitwise identical.

    Returns
    -------
    committed
        ``committed[t]`` are row *t*'s line-08 characteristic points
        including the leading 0 and *excluding* the forced final
        endpoint of line 12 — exactly
        :attr:`IncrementalPartitioner.committed
        <repro.partition.incremental.IncrementalPartitioner.committed>`
        after appending the same points, from which that partitioner
        resumes.
    """
    if not suppression >= 0:  # written so that NaN fails too
        raise PartitionError(
            f"suppression must be non-negative, got {suppression}"
        )
    flat = ragged.flat
    if not np.all(np.isfinite(flat)):
        raise PartitionError("trajectory points must be finite")
    n_rows = len(ragged)
    base = ragged.offsets[:-1]
    n = ragged.lengths
    layout = LockstepLayout(flat) if reuse_layout else None
    committed: List[List[int]] = [[0] for _ in range(n_rows)]  # line 01
    start = np.zeros(n_rows, dtype=np.int64)  # line 02
    length = np.ones(n_rows, dtype=np.int64)
    active = np.flatnonzero(start + length <= n - 1)  # line 03
    while active.size:
        starts = start[active]
        counts = length[active]
        currs = starts + counts  # line 04
        first = base[active] + starts
        if layout is not None:
            lh, ldh, nopar = layout.window_costs(first, counts)
        else:
            lh, ldh, nopar = _rebuild_step_costs(flat, first, counts)
        cost_par = lh + ldh  # line 05
        cost_nopar = nopar + suppression  # line 06
        commit = (cost_par > cost_nopar) & (currs - 1 > starts)  # line 07
        committing = active[commit]
        if committing.size:
            new_starts = currs[commit] - 1
            for row, cp in zip(committing.tolist(), new_starts.tolist()):
                committed[row].append(cp)  # line 08
            start[committing] = new_starts  # line 09
            length[committing] = 1
        length[active[~commit]] += 1  # line 11
        active = active[start[active] + length[active] <= n[active] - 1]
    return committed


def with_endpoints(
    committed: Sequence[Sequence[int]], lengths: Sequence[int]
) -> List[List[int]]:
    """Each row's characteristic points: its committed points plus the
    row's last point (Figure 8 line 12: the ending point), as new
    lists."""
    characteristic_points: List[List[int]] = []
    for cps, n in zip(committed, lengths):
        last = int(n) - 1
        cps = list(cps)
        if cps[-1] != last:
            cps.append(last)  # line 12: the ending point
        characteristic_points.append(cps)
    return characteristic_points


def batched_partition_arrays(
    point_arrays: Sequence[Union[Sequence[Sequence[float]], np.ndarray]],
    suppression: float = 0.0,
) -> List[List[int]]:
    """Characteristic-point indices for many trajectories at once.

    The corpus counterpart of calling
    :func:`~repro.partition.approximate.approximate_partition` on each
    ``(n >= 2, d)`` array of finite points — same validation,
    bitwise-identical output.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in point_arrays]
    for a in arrays:
        if a.ndim != 2 or a.shape[0] < 2:
            raise PartitionError(
                f"need an (n >= 2, d) point array, got shape {a.shape}"
            )
    if not arrays:
        return []
    ragged = RaggedPoints.from_arrays(arrays)
    return with_endpoints(lockstep_scan(ragged, suppression), ragged.lengths)
