"""Edge cases across the partitioning stack."""

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.model.ragged import RaggedPoints
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.partition.approximate import approximate_partition, partition_all
from repro.partition.batched import (
    batched_partition_arrays,
    lockstep_scan,
    with_endpoints,
)
from repro.partition.exact import exact_partition
from repro.partition.incremental import IncrementalPartitioner
from repro.partition.mdl import encoded_cost, ldh_cost, mdl_nopar, mdl_par
from repro.stream.ingest import TrajectoryStream


class TestRepeatedPoints:
    def test_duplicate_points_partition_cleanly(self):
        # Stationary GPS fixes produce exact duplicates.
        points = np.array(
            [[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [10.0, 0.0]]
        )
        cps = approximate_partition(points)
        assert cps[0] == 0 and cps[-1] == 4

    def test_all_identical_points(self):
        points = np.zeros((6, 2))
        cps = approximate_partition(points)
        assert cps[0] == 0 and cps[-1] == 5
        # Exact DP also survives the fully degenerate case.
        exact = exact_partition(points)
        assert exact[0] == 0 and exact[-1] == 5

    def test_mdl_costs_finite_on_duplicates(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        assert np.isfinite(mdl_par(points, 0, 2))
        assert np.isfinite(mdl_nopar(points, 0, 2))
        assert ldh_cost(points, 0, 2) >= 0.0


class TestExactTieBreaking:
    def test_prefers_longer_final_partition_on_ties(self):
        # A perfectly straight line: every partitioning of cost
        # log2(total length) decomposition... the single-partition
        # solution is optimal and must be chosen over equal-cost
        # multi-partition solutions if any tie occurs.
        points = np.column_stack([np.arange(6.0) * 4.0, np.zeros(6)])
        assert exact_partition(points) == [0, 5]


class TestEncodedCost:
    @pytest.mark.parametrize("x,expected", [
        (2.0, 1.0), (1024.0, 10.0), (1.0, 0.0), (0.9999, 0.0), (0.0, 0.0),
    ])
    def test_values(self, x, expected):
        assert encoded_cost(x) == expected


class TestPartitionAllEdges:
    def test_empty_list(self):
        segments, cps = partition_all([])
        assert isinstance(segments, SegmentSet)
        assert len(segments) == 0
        assert cps == []

    def test_two_point_trajectories_only(self):
        from repro.model.trajectory import Trajectory

        trajectories = [
            Trajectory([[0.0, 0.0], [1.0, 1.0]], traj_id=0),
            Trajectory([[5.0, 5.0], [6.0, 5.0]], traj_id=1),
        ]
        segments, cps = partition_all(trajectories)
        assert len(segments) == 2
        assert cps == [[0, 1], [0, 1]]


def _incremental(points, suppression):
    partitioner = IncrementalPartitioner(suppression)
    partitioner.append(points)
    return partitioner.characteristic_points()


def _stream(points, suppression):
    stream = TrajectoryStream(suppression)
    stream.append(0, points)
    return stream.characteristic_points(0)


#: Every phase-1 entry point, as ``(points, suppression) ->
#: characteristic points`` of one trajectory.
ENTRY_POINTS = {
    "approximate_partition": approximate_partition,
    "batched_partition_arrays": (
        lambda points, s: batched_partition_arrays([points], s)[0]
    ),
    "partition_all": (
        lambda points, s: partition_all([Trajectory(points, 0)], s)[1][0]
    ),
    "lockstep_scan": lambda points, s: with_endpoints(
        lockstep_scan(RaggedPoints.from_arrays([points]), s)[0],
        [len(points)],
    )[0],
    "IncrementalPartitioner": _incremental,
    "TrajectoryStream": _stream,
}


def _walk(n, seed=7):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0.0, 3.0, (n, 2)), axis=0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_suppression_guard(self, entry):
        """NaN suppression is refused like a negative one; +inf stays
        valid and never partitions."""
        run = ENTRY_POINTS[entry]
        points = _walk(60)
        assert run(points, 0.0) == approximate_partition(points)
        assert len(run(points, 0.0)) > 2
        with pytest.raises(
            PartitionError, match="suppression must be non-negative"
        ):
            run(points, float("nan"))
        with pytest.raises(PartitionError):
            run(points, -1.0)
        assert run(points, float("inf")) == [0, 59]

    @pytest.mark.parametrize(
        "entry",
        ["approximate_partition", "batched_partition_arrays",
         "lockstep_scan", "IncrementalPartitioner"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, entry, bad):
        points = _walk(20)
        points[7, 1] = bad
        with pytest.raises(
            PartitionError, match="trajectory points must be finite"
        ):
            ENTRY_POINTS[entry](points, 0.0)
