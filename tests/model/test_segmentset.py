"""Unit tests for the columnar SegmentSet store."""

import numpy as np
import pytest

from repro.exceptions import GeometryError, TrajectoryError
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory


class TestConstruction:
    def test_from_arrays(self):
        ss = SegmentSet(
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.array([[1.0, 0.0], [2.0, 1.0]]),
        )
        assert len(ss) == 2
        assert ss.dim == 2
        assert ss.lengths.tolist() == [1.0, 1.0]
        assert ss.traj_ids.tolist() == [-1, -1]
        assert ss.weights.tolist() == [1.0, 1.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(GeometryError):
            SegmentSet(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_bad_traj_ids_shape_raises(self):
        with pytest.raises(GeometryError):
            SegmentSet(
                np.zeros((2, 2)), np.ones((2, 2)), traj_ids=np.zeros(3, dtype=int)
            )

    def test_non_positive_weights_raise(self):
        with pytest.raises(GeometryError):
            SegmentSet(
                np.zeros((1, 2)), np.ones((1, 2)), weights=np.array([0.0])
            )

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weights_raise(self, weight):
        with pytest.raises(GeometryError):
            SegmentSet(
                np.zeros((2, 2)), np.ones((2, 2)),
                weights=np.array([1.0, weight]),
            )

    def test_from_segments_roundtrip(self):
        segments = [
            Segment([0.0, 0.0], [1.0, 0.0], traj_id=0, weight=2.0),
            Segment([5.0, 5.0], [5.0, 9.0], traj_id=1),
        ]
        ss = SegmentSet.from_segments(segments)
        assert len(ss) == 2
        assert ss.traj_ids.tolist() == [0, 1]
        assert ss.weights.tolist() == [2.0, 1.0]
        back = ss.segment(1)
        assert back.start.tolist() == [5.0, 5.0]
        assert back.seg_id == 1  # positional

    def test_from_segments_mixed_dims_raise(self):
        with pytest.raises(GeometryError):
            SegmentSet.from_segments(
                [Segment([0.0, 0.0], [1.0, 1.0]),
                 Segment([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])]
            )

    def test_empty(self):
        ss = SegmentSet.empty(dim=3)
        assert len(ss) == 0
        assert ss.dim == 3

    def test_from_empty_segment_list(self):
        assert len(SegmentSet.from_segments([])) == 0


class TestFromPartitions:
    def test_builds_one_segment_per_consecutive_cp_pair(self):
        t1 = Trajectory([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], traj_id=0)
        t2 = Trajectory([[0.0, 5.0], [2.0, 5.0]], traj_id=1, weight=3.0)
        ss = SegmentSet.from_partitions([t1, t2], [[0, 2, 3], [0, 1]])
        assert len(ss) == 3
        assert ss.traj_ids.tolist() == [0, 0, 1]
        assert ss.starts[0].tolist() == [0.0, 0.0]
        assert ss.ends[0].tolist() == [2.0, 0.0]
        assert ss.weights.tolist() == [1.0, 1.0, 3.0]

    def test_mismatched_lists_raise(self):
        t = Trajectory([[0.0, 0.0], [1.0, 0.0]], traj_id=0)
        with pytest.raises(TrajectoryError):
            SegmentSet.from_partitions([t], [[0, 1], [0, 1]])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_columns_equal_the_per_segment_construction(self, dim):
        """A ragged, weighted corpus with a one-segment trajectory: every
        column is byte- and dtype-equal to appending one segment at a
        time."""
        rng = np.random.default_rng(dim)
        trajectories = [
            Trajectory(rng.uniform(-50, 50, (length, dim)), traj_id=traj_id,
                       weight=weight)
            for traj_id, length, weight in [
                (4, 9, 1.0), (7, 2, 2.5), (1, 30, 0.75), (12, 5, 1.0),
            ]
        ]
        cps = [[0, 3, 5, 8], [0, 1], [0, 2, 3, 11, 19, 29], [0, 4]]
        built = SegmentSet.from_partitions(trajectories, cps)

        starts, ends, traj_ids, weights = [], [], [], []
        for trajectory, points in zip(trajectories, cps):
            for a, b in zip(points, points[1:]):
                starts.append(trajectory.points[a])
                ends.append(trajectory.points[b])
                traj_ids.append(trajectory.traj_id)
                weights.append(trajectory.weight)
        expected = (
            np.array(starts), np.array(ends),
            np.array(traj_ids, dtype=np.int64), np.array(weights),
        )
        got = (built.starts, built.ends, built.traj_ids, built.weights)
        for column, reference in zip(got, expected):
            assert column.dtype == reference.dtype
            assert column.shape == reference.shape
            assert column.tobytes() == reference.tobytes()

    def test_no_segments_gives_an_empty_set_of_the_corpus_dim(self):
        t = Trajectory(np.zeros((3, 3)) + np.arange(3)[:, None], traj_id=0)
        built = SegmentSet.from_partitions([t], [[0]])
        assert len(built) == 0 and built.dim == 3


class TestAccessors:
    def test_iteration(self, random_segments):
        segments = list(random_segments)
        assert len(segments) == len(random_segments)
        assert segments[3].seg_id == 3

    def test_segment_out_of_range(self, random_segments):
        with pytest.raises(IndexError):
            random_segments.segment(len(random_segments))

    def test_subset_renumbers(self, random_segments):
        sub = random_segments.subset([5, 10, 20])
        assert len(sub) == 3
        assert sub.segment(0).start.tolist() == random_segments.starts[5].tolist()
        assert sub.traj_ids.tolist() == random_segments.traj_ids[[5, 10, 20]].tolist()

    def test_n_trajectories(self, random_segments):
        assert random_segments.n_trajectories() == 5

    def test_bounding_box_covers_everything(self, random_segments):
        b = random_segments.bounding_box()
        assert np.all(random_segments.starts >= b.lo - 1e-12)
        assert np.all(random_segments.ends <= b.hi + 1e-12)

    def test_bounding_box_of_empty_raises(self):
        with pytest.raises(GeometryError):
            SegmentSet.empty().bounding_box()

    def test_mean_length(self):
        ss = SegmentSet(
            np.array([[0.0, 0.0], [0.0, 0.0]]),
            np.array([[2.0, 0.0], [4.0, 0.0]]),
        )
        assert ss.mean_length() == 3.0

    def test_mean_length_of_empty_is_zero(self):
        assert SegmentSet.empty().mean_length() == 0.0

    def test_columns_are_read_only(self, random_segments):
        with pytest.raises(ValueError):
            random_segments.starts[0, 0] = 1.0
