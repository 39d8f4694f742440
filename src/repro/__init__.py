"""TRACLUS — Trajectory Clustering with a Partition-and-Group Framework.

A from-scratch reproduction of Lee, Han & Whang (SIGMOD 2007).  The
package partitions trajectories into line segments at MDL-optimal
characteristic points, groups the segments with a density-based
(DBSCAN-style) algorithm under a purpose-built line-segment distance,
and summarises every cluster with a representative trajectory — thereby
discovering *common sub-trajectories* that whole-trajectory clustering
misses.

Quickstart
----------
>>> import numpy as np
>>> from repro import Trajectory, traclus
>>> rng = np.random.default_rng(7)
>>> trajectories = [
...     Trajectory(
...         np.column_stack([np.linspace(0, 100, 20),
...                          5 * i + rng.normal(0, 0.5, 20)]),
...         traj_id=i,
...     )
...     for i in range(6)
... ]
>>> result = traclus(trajectories, eps=12.0, min_lns=4)
>>> len(result) >= 1
True
"""

from repro.core.config import StreamConfig, SweepConfig, TraclusConfig
from repro.core.traclus import TRACLUS, traclus
from repro.api.workspace import PartitionArtifact, Workspace
from repro.cluster.dbscan import LineSegmentDBSCAN, cluster_segments
from repro.cluster.optics import LineSegmentOPTICS
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ReproError
from repro.model.cluster import Cluster, NOISE, UNCLASSIFIED
from repro.model.result import ClusteringResult
from repro.model.ragged import RaggedPoints
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.params.heuristic import ParameterEstimate, recommend_parameters
from repro.partition.approximate import (
    PARTITION_METHODS,
    partition_all,
    partition_trajectory,
)
from repro.partition.batched import batched_partition_all
from repro.partition.exact import exact_partition
from repro.quality.qmeasure import quality_measure
from repro.representative.sweep import (
    RepresentativeConfig,
    generate_representative,
)
from repro.stream import StreamingTRACLUS
from repro.sweep import SweepEngine, SweepResult

__version__ = "1.1.0"

__all__ = [
    "TRACLUS",
    "traclus",
    "Workspace",
    "PartitionArtifact",
    "TraclusConfig",
    "StreamConfig",
    "SweepConfig",
    "StreamingTRACLUS",
    "SweepEngine",
    "SweepResult",
    "LineSegmentDBSCAN",
    "cluster_segments",
    "LineSegmentOPTICS",
    "SegmentDistance",
    "ReproError",
    "Cluster",
    "ClusteringResult",
    "NOISE",
    "UNCLASSIFIED",
    "RaggedPoints",
    "Segment",
    "SegmentSet",
    "Trajectory",
    "ParameterEstimate",
    "recommend_parameters",
    "PARTITION_METHODS",
    "partition_all",
    "partition_trajectory",
    "batched_partition_all",
    "exact_partition",
    "quality_measure",
    "RepresentativeConfig",
    "generate_representative",
    "__version__",
]
