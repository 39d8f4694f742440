"""Trajectory partitioning (Section 3): MDL cost model, the O(n)
approximate algorithm of Figure 8, the exact dynamic-programming
optimum, the precision measurement comparing the two, and the
resumable incremental scanner behind the streaming subsystem.

Phase 1 has one scalar loop and one corpus engine, over one MDL window
kernel.  The scalar loop is
:class:`~repro.partition.incremental.IncrementalPartitioner`, which
:func:`~repro.partition.approximate.approximate_partition` drives over
a whole trajectory; the corpus engine is the lock-step scan
(:func:`~repro.partition.batched.lockstep_scan`), which advances every
trajectory simultaneously and is what
:func:`~repro.partition.approximate.partition_all` runs.  Both evaluate
their windows — runs of consecutive points — through
:meth:`LockstepLayout.window_costs
<repro.partition.layout.LockstepLayout.window_costs>`, so their
characteristic points are bitwise identical, with interpreter work per
global step instead of per point on the corpus engine.  The streaming
subsystem's bulk-load seed path rides the lock-step scan and restores
the incremental scanner from its committed points, from which Figure 8
resumes.
"""

from repro.partition.mdl import (
    clamped_log2,
    encoded_cost,
    lh_cost,
    ldh_cost,
    mdl_costs,
    mdl_par,
    mdl_nopar,
)
from repro.partition.approximate import (
    approximate_partition,
    partition_trajectory,
    partition_all,
)
from repro.partition.batched import (
    batched_partition_arrays,
    lockstep_scan,
)
from repro.partition.exact import exact_partition
from repro.partition.incremental import IncrementalPartitioner
from repro.partition.precision import partitioning_precision

__all__ = [
    "clamped_log2",
    "encoded_cost",
    "lh_cost",
    "ldh_cost",
    "mdl_costs",
    "mdl_par",
    "mdl_nopar",
    "approximate_partition",
    "partition_trajectory",
    "partition_all",
    "batched_partition_arrays",
    "lockstep_scan",
    "exact_partition",
    "IncrementalPartitioner",
    "partitioning_precision",
]
