"""Property tests: the lock-step corpus scan equals the scalar loop.

The lock-step scan promises characteristic points *exactly* equal —
bitwise, including suppression and line-07 tie behavior — to running
Figure 8 one trajectory at a time.  These tests drive both over
adversarial corpora (duplicate points, collinear runs, quantised
coordinates that manufacture cost ties, positive suppression) and
assert list equality point for point, plus scan-state equality against
the incremental partitioner the streaming bulk-load path restores
from.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.partition.approximate import (
    approximate_partition,
    partition_all,
)
from repro.partition.batched import batched_partition_arrays, lockstep_scan
from repro.partition.incremental import IncrementalPartitioner
from repro.partition.mdl import _window_mdl_costs_numpy
from repro.model.ragged import RaggedPoints
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory


@st.composite
def one_trajectory(draw, min_points=2, max_points=30, dim=2):
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    points = draw(
        arrays(
            dtype=np.float64,
            shape=(n, dim),
            elements=st.floats(
                min_value=-300.0, max_value=300.0,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )
    # Quantising makes equal coordinates — duplicate points, exact cost
    # ties — far more likely than raw floats would.
    if draw(st.booleans()):
        points = np.round(points / 8.0) * 8.0
    # Duplicate runs: resample points with replacement, sorted.
    if draw(st.booleans()):
        idx = np.sort(
            draw(
                arrays(
                    dtype=np.int64, shape=(n,),
                    elements=st.integers(0, n - 1),
                )
            )
        )
        points = points[idx]
    # Collinear stretch from a random position on.
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        points[k:, 1] = 0.25 * points[k:, 0]
    return points


@st.composite
def corpus(draw, max_trajectories=6):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=1, max_value=max_trajectories))
    return [draw(one_trajectory(dim=dim)) for _ in range(n)]


class TestEngineEquivalence:
    @given(corpus())
    @settings(max_examples=120, deadline=None)
    def test_characteristic_points_bitwise_equal(self, point_arrays):
        expected = [approximate_partition(a) for a in point_arrays]
        assert batched_partition_arrays(point_arrays) == expected

    @given(corpus(), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_equal_under_suppression(self, point_arrays, suppression):
        expected = [
            approximate_partition(a, suppression=suppression)
            for a in point_arrays
        ]
        got = batched_partition_arrays(
            point_arrays, suppression=suppression
        )
        assert got == expected

    @given(corpus(max_trajectories=4))
    @settings(max_examples=60, deadline=None)
    def test_scan_state_matches_incremental(self, point_arrays):
        """The lock-step scanner's resumable state is exactly what the
        incremental partitioner reaches after appending everything —
        the invariant the streaming bulk-load path restores from."""
        ragged = RaggedPoints.from_arrays(point_arrays)
        committed, starts, lengths = lockstep_scan(ragged)
        for row, points in enumerate(point_arrays):
            incremental = IncrementalPartitioner()
            incremental.append(points)
            assert committed[row] == incremental.committed
            assert (int(starts[row]), int(lengths[row])) == (
                incremental.scan_state()
            )

    @given(corpus(max_trajectories=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_all_engine_dispatch(self, point_arrays):
        trajectories = [
            Trajectory(points, traj_id=i)
            for i, points in enumerate(point_arrays)
        ]
        cps_python = [approximate_partition(p) for p in point_arrays]
        seg_python = SegmentSet.from_partitions(trajectories, cps_python)
        seg_batched, cps_batched = partition_all(trajectories)
        assert cps_batched == cps_python
        assert np.array_equal(seg_batched.starts, seg_python.starts)
        assert np.array_equal(seg_batched.ends, seg_python.ends)
        assert np.array_equal(seg_batched.traj_ids, seg_python.traj_ids)
        assert np.array_equal(seg_batched.weights, seg_python.weights)


class TestHandPickedAdversaries:
    def test_all_identical_points(self):
        points = np.ones((9, 2)) * 3.5
        assert batched_partition_arrays([points]) == [
            approximate_partition(points)
        ]

    def test_perfect_collinear_run(self):
        # Spacing 4 so the enclosed segments cost bits (unit segments
        # are free under the delta=1 clamp, which makes partitioning
        # *every* point optimal — a fun cost-model corner both engines
        # must agree on; see test below).
        points = np.column_stack(
            [np.arange(12, dtype=np.float64) * 4.0, np.zeros(12)]
        )
        expected = approximate_partition(points)
        assert batched_partition_arrays([points]) == [expected]
        # A straight line with costly segments never pays for extra
        # characteristic points.
        assert expected == [0, 11]

    def test_unit_collinear_run_commits_everywhere(self):
        # Unit segments encode in 0 bits, any longer hypothesis in > 0:
        # line 07 fires at every step, in both engines.
        points = np.column_stack(
            [np.arange(12, dtype=np.float64), np.zeros(12)]
        )
        expected = approximate_partition(points)
        assert batched_partition_arrays([points]) == [expected]
        assert expected == list(range(12))

    def test_mixed_lengths_interleave(self):
        """Rows of very different lengths keep distinct active
        lifetimes in the lock-step loop."""
        rng = np.random.default_rng(5)
        point_arrays = [
            np.cumsum(rng.normal(0, 2.0, (n, 2)), axis=0)
            for n in (2, 3, 150, 7, 41, 2, 90)
        ]
        assert batched_partition_arrays(point_arrays) == [
            approximate_partition(a) for a in point_arrays
        ]

    def test_batched_partition_all_matches_trajectory_weights(self):
        rng = np.random.default_rng(6)
        trajectories = [
            Trajectory(
                np.cumsum(rng.normal(0, 2.0, (20, 2)), axis=0),
                traj_id=i,
                weight=float(i + 1),
            )
            for i in range(5)
        ]
        segments, cps = partition_all(trajectories)
        expected_cps = [approximate_partition(t.points) for t in trajectories]
        expected_segments = SegmentSet.from_partitions(
            trajectories, expected_cps
        )
        assert cps == expected_cps
        assert np.array_equal(segments.weights, expected_segments.weights)


def _reference_costs(points, i, j):
    """``(MDL_par, MDL_nopar)`` of the window ``p_i .. p_j``: the numpy
    reference on the window's gathered rows."""
    lh, ldh, nopar = _window_mdl_costs_numpy(
        points[i][None, :],
        points[j][None, :],
        points[i:j],
        points[i + 1 : j + 1],
        np.zeros(j - i, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )
    return lh[0] + ldh[0], nopar[0]


def figure8(points, suppression):
    """Figure 8 of the paper, line for line, over the reference costs.

    Returns ``(characteristic points, committed, scan state)``."""
    n = len(points)
    cps = [0]  # 01
    start_index, length = 0, 1  # 02
    while start_index + length <= n - 1:  # 03
        curr_index = start_index + length  # 04
        cost_par, cost_nopar = _reference_costs(
            points, start_index, curr_index
        )  # 05
        cost_nopar = cost_nopar + suppression  # 06
        if cost_par > cost_nopar:  # 07
            cps.append(curr_index - 1)  # 08
            start_index, length = curr_index - 1, 1  # 09
        else:
            length += 1  # 11
    committed = list(cps)
    if cps[-1] != n - 1:
        cps.append(n - 1)  # 12
    return cps, committed, (start_index, length)


def _backend_params():
    params = [pytest.param("numpy")]
    status = kernels.available_backends()["cext"]
    marks = [] if status.startswith("ok") else [
        pytest.mark.skip(reason=f"cext: {status}")
    ]
    params.append(pytest.param("cext", marks=marks))
    return params


@st.composite
def stalled_walk(draw, dim):
    """A walk of lattice and free-float steps with stalled points."""
    n = draw(st.integers(min_value=2, max_value=24))
    step = st.one_of(
        st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0),
        st.floats(
            min_value=-40.0, max_value=40.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    points = [[draw(step) for _ in range(dim)]]
    for _ in range(n - 1):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            points.append(list(points[-1]))  # stalled point
        else:
            points.append([p + draw(step) for p in points[-1]])
    return np.asarray(points, dtype=np.float64)


@st.composite
def reference_case(draw):
    dim = draw(st.sampled_from([2, 3]))
    walks = draw(st.lists(stalled_walk(dim), min_size=1, max_size=4))
    suppression = draw(st.sampled_from([0.0, 0.7, 2.5, float("inf")]))
    chunks = [
        draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                      max_size=len(walk)))
        for walk in walks
    ]
    return walks, suppression, chunks


@pytest.mark.parametrize("backend", _backend_params())
class TestFigure8Reference:
    """Every phase-1 engine against the paper's loop over the numpy
    reference: same characteristic points, same scan states."""

    @given(case=reference_case())
    @settings(max_examples=80, deadline=None)
    def test_engines_equal_figure8(self, backend, case):
        walks, suppression, chunks = case
        expected = [figure8(walk, suppression) for walk in walks]
        with kernels.use_backend(backend):
            scan = lockstep_scan(RaggedPoints.from_arrays(walks), suppression)
            for row, (walk, sizes) in enumerate(zip(walks, chunks)):
                cps, committed, state = expected[row]
                assert approximate_partition(walk, suppression) == cps

                incremental = IncrementalPartitioner(suppression)
                at = 0
                for size in sizes:
                    if at < len(walk):
                        incremental.append(walk[at : at + size])
                        at += size
                if at < len(walk):
                    incremental.append(walk[at:])
                assert incremental.characteristic_points() == cps
                assert incremental.committed == committed
                assert incremental.scan_state() == state

                assert scan[0][row] == committed
                assert (int(scan[1][row]), int(scan[2][row])) == state
