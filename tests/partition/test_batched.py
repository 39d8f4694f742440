"""Unit tests for the lock-step batched partitioning engine."""

import numpy as np
import pytest

from repro.exceptions import PartitionError, TrajectoryError
from repro.model.ragged import RaggedPoints, concatenate_ranges
from repro.partition.approximate import approximate_partition, partition_all
from repro.partition.batched import (
    batched_partition_arrays,
    lockstep_scan,
)
from repro.model.trajectory import Trajectory


class TestRaggedPoints:
    def test_roundtrip(self):
        arrays = [
            np.arange(6, dtype=np.float64).reshape(3, 2),
            np.ones((1, 2)),
            np.zeros((4, 2)),
        ]
        ragged = RaggedPoints.from_arrays(arrays)
        assert len(ragged) == 3
        assert ragged.n_points == 8
        assert ragged.lengths.tolist() == [3, 1, 4]
        for original, row in zip(arrays, ragged):
            assert np.array_equal(original, row)

    def test_mixed_dims_rejected(self):
        with pytest.raises(TrajectoryError):
            RaggedPoints.from_arrays([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_empty_row_rejected(self):
        with pytest.raises(TrajectoryError):
            RaggedPoints.from_arrays([np.zeros((0, 2))])

    def test_empty_corpus(self):
        ragged = RaggedPoints.from_arrays([])
        assert len(ragged) == 0 and ragged.n_points == 0

    def test_from_trajectories(self):
        trajectories = [
            Trajectory(np.arange(8, dtype=np.float64).reshape(4, 2), 0),
            Trajectory(np.ones((2, 2)), 1),
        ]
        ragged = RaggedPoints.from_trajectories(trajectories)
        assert ragged.lengths.tolist() == [4, 2]

    def test_concatenate_ranges(self):
        got = concatenate_ranges(
            np.array([5, 20, 7]), np.array([3, 0, 2])
        )
        assert got.tolist() == [5, 6, 7, 7, 8]

    def test_concatenate_ranges_rejects_negative_counts(self):
        with pytest.raises(TrajectoryError):
            concatenate_ranges(np.array([0]), np.array([-1]))


class TestBatchedValidation:
    def test_too_few_points_rejected(self):
        with pytest.raises(PartitionError):
            batched_partition_arrays([np.zeros((1, 2))])

    def test_bad_shape_rejected(self):
        with pytest.raises(PartitionError):
            batched_partition_arrays([np.zeros(4)])

    def test_negative_suppression_rejected(self):
        with pytest.raises(PartitionError):
            batched_partition_arrays(
                [np.zeros((3, 2))], suppression=-1.0
            )

    def test_empty_corpus(self):
        assert batched_partition_arrays([]) == []


class TestLockstepScan:
    def test_single_point_rows_never_scan(self):
        """The streaming bulk-load path feeds rows of any length >= 1."""
        ragged = RaggedPoints.from_arrays([np.zeros((1, 2))])
        committed, starts, lengths = lockstep_scan(ragged)
        assert committed == [[0]]
        assert starts.tolist() == [0] and lengths.tolist() == [1]

    def test_matches_paper_figure8_example(self):
        """Same zigzag the scalar unit tests partition."""
        sharp = np.array(
            [[0.0, 0.0], [2.0, 30.0], [4.0, 0.0], [6.0, 30.0], [8.0, 0.0]]
        )
        assert batched_partition_arrays([sharp]) == [
            approximate_partition(sharp)
        ]


class TestEngineSelection:
    def test_auto_equals_python_on_multi_trajectory_corpus(self):
        """``partition_all`` (the lock-step scan) equals the scalar
        Figure-8 loop run one trajectory at a time."""
        rng = np.random.default_rng(9)
        trajectories = [
            Trajectory(np.cumsum(rng.normal(0, 2, (25, 2)), axis=0), i)
            for i in range(4)
        ]
        _, cps = partition_all(trajectories)
        assert cps == [approximate_partition(t.points) for t in trajectories]
