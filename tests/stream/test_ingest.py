"""Unit tests for incremental partitioning and the segment delta
protocol."""

import numpy as np
import pytest

from repro.exceptions import PartitionError, TrajectoryError
from repro.partition.approximate import approximate_partition
from repro.partition.incremental import IncrementalPartitioner
from repro.stream.ingest import TrajectoryStream


def random_walk(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [np.linspace(0, 3.0 * n, n), np.cumsum(rng.normal(0, 2.0, n))]
    )


class TestIncrementalPartitioner:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_matches_batch_for_any_append_granularity(self, chunk):
        points = random_walk(60, seed=11)
        partitioner = IncrementalPartitioner()
        for at in range(0, 60, chunk):
            partitioner.append(points[at:at + chunk])
        assert partitioner.characteristic_points() == approximate_partition(
            points
        )

    def test_matches_batch_with_suppression(self):
        points = random_walk(50, seed=3)
        partitioner = IncrementalPartitioner(suppression=2.0)
        for at in range(0, 50, 4):
            partitioner.append(points[at:at + 4])
        assert partitioner.characteristic_points() == approximate_partition(
            points, suppression=2.0
        )

    def test_committed_points_are_stable(self):
        """Committed characteristic points never change on later appends."""
        points = random_walk(80, seed=5)
        partitioner = IncrementalPartitioner()
        seen = []
        for at in range(0, 80, 5):
            partitioner.append(points[at:at + 5])
            committed = partitioner.committed
            assert committed[: len(seen)] == seen
            seen = committed

    def test_single_point_has_no_segments(self):
        partitioner = IncrementalPartitioner()
        partitioner.append([[0.0, 0.0]])
        assert partitioner.characteristic_points() == [0]

    def test_rejects_bad_input(self):
        partitioner = IncrementalPartitioner()
        with pytest.raises(PartitionError):
            partitioner.append(np.empty((0, 2)))
        with pytest.raises(PartitionError):
            IncrementalPartitioner(suppression=-1.0)
        partitioner.append([[0.0, 0.0]])
        with pytest.raises(PartitionError):
            partitioner.append([[1.0, 2.0, 3.0]])  # dim change

    def test_restore_roundtrip(self):
        points = random_walk(40, seed=9)
        partitioner = IncrementalPartitioner()
        partitioner.append(points[:25])
        clone = IncrementalPartitioner.restore(
            0.0, partitioner.points, partitioner.committed
        )
        assert clone.committed == partitioner.committed
        partitioner.append(points[25:])
        clone.append(points[25:])
        assert clone.committed == partitioner.committed
        assert clone.characteristic_points() == (
            partitioner.characteristic_points()
        )

    @pytest.mark.parametrize(
        "committed", [[], [3, 10], [0, 12, 5], [0, 5, 5], [0, 39]]
    )
    def test_restore_rejects_points_figure8_cannot_commit(self, committed):
        """Committed points rise strictly from 0 and stay below n - 1."""
        with pytest.raises(PartitionError, match="40-point trajectory"):
            IncrementalPartitioner.restore(0.0, random_walk(40), committed)

    def test_restore_one_point_trajectory(self):
        restored = IncrementalPartitioner.restore(0.0, [[1.0, 2.0]], [0])
        assert restored.characteristic_points() == [0]
        with pytest.raises(PartitionError):
            IncrementalPartitioner.restore(0.0, [[1.0, 2.0]], [0, 1])


class TestTrajectoryStream:
    def test_live_records_match_batch_partitions(self):
        """Applying every delta leaves exactly the batch segments."""
        points = random_walk(50, seed=21)
        stream = TrajectoryStream()
        live = {}
        for at in range(0, 50, 6):
            delta = stream.append(7, points[at:at + 6])
            for key in delta.retracted:
                del live[key]
            for record in delta.inserted:
                live[record.key] = record
        cps = approximate_partition(points)
        expected = [(points[a], points[b]) for a, b in zip(cps, cps[1:])]
        got = sorted(live.values(), key=lambda r: r.key)
        assert len(got) == len(expected)
        for record, (start, end) in zip(got, expected):
            assert np.array_equal(record.start, start)
            assert np.array_equal(record.end, end)
            assert record.traj_id == 7

    def test_trailing_segment_is_replaced(self):
        stream = TrajectoryStream()
        first = stream.append(1, [[0.0, 0.0], [1.0, 0.0]])
        assert len(first.inserted) == 1 and first.inserted[0].trailing
        second = stream.append(1, [[2.0, 0.0]])
        assert first.inserted[0].key in second.retracted

    def test_keys_are_unique_across_trajectories(self):
        stream = TrajectoryStream()
        keys = set()
        for traj_id in range(4):
            delta = stream.append(traj_id, random_walk(12, seed=traj_id))
            for record in delta.inserted:
                assert record.key not in keys
                keys.add(record.key)

    def test_stamps_come_from_times(self):
        stream = TrajectoryStream()
        delta = stream.append(
            3, [[0.0, 0.0], [1.0, 0.0]], times=[100.0, 110.0]
        )
        assert delta.inserted[-1].stamp == 110.0

    def test_untimed_stamps_are_point_indices(self):
        stream = TrajectoryStream()
        delta = stream.append(3, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert delta.inserted[-1].stamp == 2.0

    def test_rejects_inconsistent_timing(self):
        stream = TrajectoryStream()
        stream.append(1, [[0.0, 0.0]], times=[5.0])
        with pytest.raises(TrajectoryError):
            stream.append(1, [[1.0, 0.0]])
        with pytest.raises(TrajectoryError):
            stream.append(1, [[1.0, 0.0]], times=[4.0])  # goes backwards

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(TrajectoryError):
            TrajectoryStream().append(1, [[0.0, 0.0]], weight=weight)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan, 1.0]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(TrajectoryError):
            TrajectoryStream().append(
                1, [[0.0, 0.0], [1.0, 0.0]], times=times
            )

    def test_rejects_weight_change(self):
        stream = TrajectoryStream()
        stream.append(1, [[0.0, 0.0]], weight=2.0)
        with pytest.raises(TrajectoryError):
            stream.append(1, [[1.0, 0.0]], weight=3.0)
        # An explicit 1.0 is a change too; None keeps the opening weight.
        with pytest.raises(TrajectoryError):
            stream.append(1, [[1.0, 0.0]], weight=1.0)
        delta = stream.append(1, [[1.0, 0.0]])
        assert delta.inserted[0].weight == 2.0
