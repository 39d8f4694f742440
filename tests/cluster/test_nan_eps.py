"""A NaN ε is rejected by every ε guard: ``eps < 0`` is false for NaN,
so a guard written that way let a NaN through to a diagonal-only graph,
all-noise labels or all-ones neighborhood counts."""

import numpy as np
import pytest

from repro.baselines.measures import edr_distance, lcss_similarity
from repro.baselines.whole_traj import WholeTrajectoryDBSCAN
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighbor_graph import (
    NeighborGraph,
    PrecomputedNeighborhood,
    neighborhood_size_counts,
)
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.cluster.optics import LineSegmentOPTICS
from repro.exceptions import ReproError
from repro.params.entropy import neighborhood_size_curve
from repro.stream.dynamic_graph import DynamicNeighborGraph
from repro.stream.online_dbscan import OnlineDBSCAN

NAN = float("nan")
TRACK = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])

ENTRY_POINTS = {
    "NeighborGraph.build": lambda s: NeighborGraph.build(s, NAN),
    "NeighborGraph.restrict": lambda s: NeighborGraph.build(s, 3.0).restrict(NAN),
    "PrecomputedNeighborhood": lambda s: PrecomputedNeighborhood(s, NAN),
    "neighborhood_size_counts": lambda s: neighborhood_size_counts(s, [1.0, NAN]),
    "neighborhood_size_curve": lambda s: neighborhood_size_curve(s, [NAN]),
    "BruteForceNeighborhood": lambda s: BruteForceNeighborhood(s, NAN),
    "LineSegmentDBSCAN": lambda s: LineSegmentDBSCAN(eps=NAN, min_lns=3),
    "LineSegmentOPTICS": lambda s: LineSegmentOPTICS(eps=NAN, min_lns=3),
    "DynamicNeighborGraph": lambda s: DynamicNeighborGraph(NAN),
    "OnlineDBSCAN": lambda s: OnlineDBSCAN(eps=NAN, min_lns=3),
    "WholeTrajectoryDBSCAN": lambda s: WholeTrajectoryDBSCAN(eps=NAN, min_pts=2),
    "lcss_similarity": lambda s: lcss_similarity(TRACK, TRACK, NAN),
    "edr_distance": lambda s: edr_distance(TRACK, TRACK, NAN),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_eps_is_rejected(entry, random_segments):
    with pytest.raises(ReproError, match="non-negative"):
        ENTRY_POINTS[entry](random_segments)
