"""The grouping phase (Section 4): density-based clustering of line
segments, the trajectory-cardinality filter, and the OPTICS extension
discussed in Appendix D.
"""

from repro.cluster.neighborhood import BruteForceNeighborhood, NeighborhoodEngine
from repro.cluster.neighbor_graph import (
    NeighborGraph,
    PrecomputedNeighborhood,
    neighborhood_size_counts,
)
from repro.cluster.dbscan import LineSegmentDBSCAN, cluster_segments
from repro.cluster.cardinality import filter_by_trajectory_cardinality
from repro.cluster.optics import LineSegmentOPTICS, OpticsResult

__all__ = [
    "BruteForceNeighborhood",
    "NeighborhoodEngine",
    "NeighborGraph",
    "PrecomputedNeighborhood",
    "neighborhood_size_counts",
    "LineSegmentDBSCAN",
    "cluster_segments",
    "filter_by_trajectory_cardinality",
    "LineSegmentOPTICS",
    "OpticsResult",
]
