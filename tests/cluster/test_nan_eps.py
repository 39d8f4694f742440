"""A NaN ε, MinLns or Step-3 threshold is rejected by every guard:
``eps < 0``, ``min_lns <= 0`` and ``threshold < 0`` are all false for
NaN, so a guard written that way let a NaN through to a diagonal-only
graph, all-noise labels or all-ones neighborhood counts."""

import numpy as np
import pytest

from repro.api.workspace import Workspace
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
from repro.sweep.engine import SweepEngine

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


MIN_LNS_ENTRY_POINTS = {
    "LineSegmentDBSCAN": lambda s: LineSegmentDBSCAN(eps=3.0, min_lns=NAN),
    "LineSegmentDBSCAN threshold": lambda s: LineSegmentDBSCAN(
        eps=3.0, min_lns=3, cardinality_threshold=NAN
    ).fit(s),
    "LineSegmentOPTICS": lambda s: LineSegmentOPTICS(eps=3.0, min_lns=NAN),
    "OnlineDBSCAN": lambda s: OnlineDBSCAN(eps=3.0, min_lns=NAN),
    "OnlineDBSCAN threshold": lambda s: OnlineDBSCAN(
        eps=3.0, min_lns=3, cardinality_threshold=NAN
    ),
    "OnlineDBSCAN negative threshold": lambda s: OnlineDBSCAN(
        eps=3.0, min_lns=3, cardinality_threshold=-1.0
    ),
    "SweepEngine.labels_for_min_lns": lambda s: SweepEngine(
        s, [3.0]
    ).labels_for_min_lns(NAN),
    "SweepEngine.labels_grid": lambda s: SweepEngine(s, [3.0]).labels_grid(
        [NAN]
    ),
    "SweepEngine threshold": lambda s: SweepEngine(s, [3.0]).labels_grid(
        [3.0], cardinality_threshold=NAN
    ),
    "SweepEngine negative threshold": lambda s: SweepEngine(
        s, [3.0]
    ).labels_grid([3.0], cardinality_threshold=-1.0),
    "Workspace.labels": lambda s: Workspace.from_segments(s).labels(6.0, NAN),
    "Workspace.labels_grid threshold": lambda s: Workspace.from_segments(
        s
    ).labels_grid([6.0], [3.0], cardinality_threshold=NAN),
    "Workspace.quality": lambda s: Workspace.from_segments(s).quality(6.0, NAN),
    "Workspace.clusters": lambda s: Workspace.from_segments(s).clusters(
        6.0, NAN
    ),
}


@pytest.mark.parametrize("entry", sorted(MIN_LNS_ENTRY_POINTS))
def test_nan_min_lns_and_threshold_are_rejected(entry, random_segments):
    with pytest.raises(ReproError, match="positive|non-negative|>= 1"):
        MIN_LNS_ENTRY_POINTS[entry](random_segments)


def test_infinite_min_lns_stays_valid(random_segments):
    """+inf passes every guard: no segment is a core, so all is noise."""
    inf = float("inf")
    _, labels = LineSegmentDBSCAN(eps=3.0, min_lns=inf).fit(random_segments)
    assert np.all(labels == -1)
    column = SweepEngine(random_segments, [3.0]).labels_for_min_lns(inf)
    assert np.array_equal(column[0], labels)
    online = OnlineDBSCAN(eps=3.0, min_lns=inf, cardinality_threshold=inf)
    online.insert_batch(
        random_segments.starts, random_segments.ends, random_segments.traj_ids
    )
    assert np.all(online.labels()[1] == -1)
