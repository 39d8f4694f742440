"""The trajectory-cardinality filter (Figure 12 Step 3, Definition 10).

A density-connected set whose members all come from one (or a few)
trajectories does not describe common behavior across the database —
e.g. a single animal circling the same meadow produces a dense blob of
its own segments.  Clusters with ``|PTR(C)| < threshold`` are removed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster


def filter_by_trajectory_cardinality(
    clusters: Sequence[Cluster], threshold: float
) -> Tuple[List[Cluster], List[Cluster]]:
    """Split *clusters* into (kept, removed) by trajectory cardinality.

    A cluster is kept iff ``|PTR(C)| >= threshold`` (Figure 12 line 15
    removes those strictly below the threshold).
    """
    if not threshold >= 0:  # NaN fails too
        raise ClusteringError(f"threshold must be non-negative, got {threshold}")
    kept: List[Cluster] = []
    removed: List[Cluster] = []
    for cluster in clusters:
        if cluster.trajectory_cardinality() >= threshold:
            kept.append(cluster)
        else:
            removed.append(cluster)
    return kept, removed
