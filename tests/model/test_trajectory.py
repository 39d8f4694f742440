"""Unit tests for the Trajectory model."""

import numpy as np
import pytest

from repro.exceptions import TrajectoryError
from repro.model.trajectory import Trajectory


def simple_trajectory(**kwargs):
    return Trajectory([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], traj_id=7, **kwargs)


class TestConstruction:
    def test_basic_properties(self):
        t = simple_trajectory()
        assert len(t) == 3
        assert t.dim == 2
        assert t.n_segments == 2
        assert t.traj_id == 7
        assert t.weight == 1.0

    def test_single_point_raises(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0.0, 0.0]], traj_id=0)

    def test_non_positive_weight_raises(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory(weight=0.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_raises(self, weight):
        with pytest.raises(TrajectoryError):
            simple_trajectory(weight=weight)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_non_finite_times_raise(self, times):
        with pytest.raises(TrajectoryError):
            simple_trajectory(times=np.array(times))

    def test_times_wrong_length_raises(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory(times=np.array([0.0, 1.0]))

    def test_decreasing_times_raise(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory(times=np.array([0.0, 2.0, 1.0]))

    def test_valid_times_accepted(self):
        t = simple_trajectory(times=np.array([0.0, 1.0, 5.0]))
        assert t.times.tolist() == [0.0, 1.0, 5.0]

    def test_points_are_read_only(self):
        t = simple_trajectory()
        with pytest.raises(ValueError):
            t.points[0, 0] = 99.0


class TestProtocol:
    def test_iteration_yields_points(self):
        t = simple_trajectory()
        assert [p.tolist() for p in t] == [[0, 0], [1, 0], [2, 1]]

    def test_indexing(self):
        t = simple_trajectory()
        assert t[1].tolist() == [1.0, 0.0]

    def test_equality(self):
        assert simple_trajectory() == simple_trajectory()

    def test_inequality_on_id(self):
        other = Trajectory([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], traj_id=8)
        assert simple_trajectory() != other

    def test_hashable(self):
        assert len({simple_trajectory(), simple_trajectory()}) == 1


class TestGeometry:
    def test_path_length(self):
        t = Trajectory([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]], traj_id=0)
        assert t.path_length() == pytest.approx(11.0)

    def test_sub_trajectory(self):
        t = simple_trajectory()
        sub = t.sub_trajectory([0, 2])
        assert len(sub) == 2
        assert sub.points[1].tolist() == [2.0, 1.0]
        assert sub.traj_id == t.traj_id

    def test_sub_trajectory_carries_times(self):
        t = simple_trajectory(times=np.array([0.0, 1.0, 2.0]))
        sub = t.sub_trajectory([0, 2])
        assert sub.times.tolist() == [0.0, 2.0]

    def test_sub_trajectory_needs_increasing_indices(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory().sub_trajectory([2, 0])

    def test_sub_trajectory_out_of_range(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory().sub_trajectory([0, 5])

    def test_sub_trajectory_needs_two_indices(self):
        with pytest.raises(TrajectoryError):
            simple_trajectory().sub_trajectory([1])

    def test_shifted(self):
        t = simple_trajectory()
        moved = t.shifted([10.0, -1.0])
        assert moved.points[0].tolist() == [10.0, -1.0]
        assert moved.traj_id == t.traj_id
        assert t.points[0].tolist() == [0.0, 0.0]  # original untouched

    def test_shift_preserves_path_length(self):
        t = simple_trajectory()
        assert t.shifted([1e4, 1e4]).path_length() == pytest.approx(t.path_length())
