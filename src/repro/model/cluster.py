"""Cluster labelling constants and the :class:`Cluster` type.

Figure 12 of the paper classifies every segment as *unclassified*, a
member of some cluster, or *noise*; we encode those states in a single
int64 label array (non-negative = cluster id).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ClusteringError
from repro.model.segmentset import SegmentSet

#: Label for a segment not yet visited by the clustering algorithm.
UNCLASSIFIED: int = -2

#: Label for a segment classified as noise (Figure 12 line 12).
NOISE: int = -1


class Cluster:
    """A cluster of trajectory partitions (Definition 9 realised).

    Holds the member segment indices (into the owning
    :class:`SegmentSet`), provides the participating-trajectory
    machinery of Definition 10, and carries the representative
    trajectory once it is computed (Section 4.3).
    """

    __slots__ = ("cluster_id", "member_indices", "segments", "representative")

    def __init__(
        self,
        cluster_id: int,
        member_indices: Sequence[int],
        segments: SegmentSet,
        representative: Optional[np.ndarray] = None,
    ):
        member_indices = np.asarray(member_indices, dtype=np.int64)
        if member_indices.size == 0:
            raise ClusteringError("a cluster cannot be empty")
        if member_indices.min() < 0 or member_indices.max() >= len(segments):
            raise ClusteringError("cluster member index out of range")
        self.cluster_id = int(cluster_id)
        self.member_indices = member_indices
        self.segments = segments
        self.representative = representative

    def __len__(self) -> int:
        """Number of member line segments (``|C_i|``)."""
        return int(self.member_indices.size)

    def __repr__(self) -> str:
        return (
            f"Cluster(id={self.cluster_id}, n_segments={len(self)}, "
            f"trajectory_cardinality={self.trajectory_cardinality()})"
        )

    # -- Definition 10 -----------------------------------------------------
    def participating_trajectories(self) -> np.ndarray:
        """``PTR(C_i)`` — the distinct source-trajectory ids of the members."""
        return np.unique(self.segments.traj_ids[self.member_indices])

    def trajectory_cardinality(self) -> int:
        """``|PTR(C_i)|`` (Definition 10)."""
        return int(self.participating_trajectories().size)

    # -- convenience ---------------------------------------------------------
    def member_set(self) -> SegmentSet:
        """Materialise the members as their own :class:`SegmentSet`."""
        return self.segments.subset(self.member_indices)


def clusters_from_labels(
    labels: np.ndarray, segments: SegmentSet
) -> List[Cluster]:
    """Group a label array into :class:`Cluster` objects, ignoring noise
    and unclassified entries.  Cluster ids are renumbered densely from 0
    in ascending order of the original ids."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(segments),):
        raise ClusteringError(
            f"labels must have one entry per segment: {labels.shape} vs {len(segments)}"
        )
    clusters: List[Cluster] = []
    for new_id, old_id in enumerate(sorted(set(labels[labels >= 0].tolist()))):
        members = np.nonzero(labels == old_id)[0]
        clusters.append(Cluster(new_id, members, segments))
    return clusters
