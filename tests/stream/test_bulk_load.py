"""Bulk loading a streaming session through the batched phase-1 engine.

The contract: ``bulk_load`` is *indistinguishable after the fact* from
having appended every trajectory point by point — same labels, same
slot assignments, same committed characteristic points per trajectory
(the whole resumable scan state), and identical behavior under all
subsequent appends.
"""

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.core.config import StreamConfig
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import TrajectoryError
from repro.model.trajectory import Trajectory
from repro.stream.pipeline import StreamingTRACLUS

EPS, MIN_LNS = 8.0, 4.0


def corridor_tracks(n=14, seed=5):
    return generate_corridor_set(n_trajectories=n, seed=seed)


def sequential_pipeline(tracks, config=None, chunk=None):
    pipeline = StreamingTRACLUS(
        config or StreamConfig(eps=EPS, min_lns=MIN_LNS)
    )
    for track in tracks:
        if chunk is None:
            pipeline.append(track.traj_id, track.points, weight=track.weight)
        else:
            for at in range(0, len(track.points), chunk):
                pipeline.append(
                    track.traj_id,
                    track.points[at:at + chunk],
                    weight=track.weight if at == 0 else None,
                )
    return pipeline


class TestBulkEqualsSequential:
    def test_labels_and_slots_equal(self):
        tracks = corridor_tracks()
        sequential = sequential_pipeline(tracks)
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        update = bulk.bulk_load(tracks)
        seq_slots, seq_labels = sequential.labels()
        bulk_slots, bulk_labels = bulk.labels()
        assert np.array_equal(seq_slots, bulk_slots)
        assert np.array_equal(seq_labels, bulk_labels)
        assert set(update.inserted) == set(bulk_slots.tolist())

    def test_partitioner_states_equal(self):
        tracks = corridor_tracks()
        sequential = sequential_pipeline(tracks, chunk=7)
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bulk.bulk_load(tracks)
        for track in tracks:
            seq_part = sequential.stream._trajectories[
                track.traj_id
            ].partitioner
            bulk_part = bulk.stream._trajectories[track.traj_id].partitioner
            assert bulk_part.committed == seq_part.committed
            assert bulk_part.characteristic_points() == (
                seq_part.characteristic_points()
            )
            assert np.array_equal(bulk_part.points, seq_part.points)

    def test_subsequent_appends_identical(self):
        tracks = corridor_tracks()
        sequential = sequential_pipeline(tracks)
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bulk.bulk_load(tracks)
        rng = np.random.default_rng(17)
        for round_ in range(4):
            target = tracks[round_ % len(tracks)]
            chunk = target.points[-1] + np.cumsum(
                rng.normal(0, 2.0, (6, 2)), axis=0
            )
            seq_update = sequential.append(target.traj_id, chunk)
            bulk_update = bulk.append(target.traj_id, chunk)
            assert seq_update.labels == bulk_update.labels
            assert seq_update.inserted == bulk_update.inserted
            assert seq_update.evicted == bulk_update.evicted

    def test_matches_batch_refit(self):
        tracks = corridor_tracks()
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bulk.bulk_load(tracks)
        survivors, _ = bulk.clusterer.store.compact()
        _, expected = LineSegmentDBSCAN(eps=EPS, min_lns=MIN_LNS).fit(
            survivors
        )
        _, labels = bulk.labels()
        assert np.array_equal(labels, expected)

    def test_window_applied(self):
        tracks = corridor_tracks()
        config = StreamConfig(eps=EPS, min_lns=MIN_LNS, max_segments=40)
        bulk = StreamingTRACLUS(config)
        bulk.bulk_load(tracks)
        assert bulk.n_alive == 40
        sequential = sequential_pipeline(tracks, config=StreamConfig(
            eps=EPS, min_lns=MIN_LNS, max_segments=40
        ))
        seq_slots, seq_labels = sequential.labels()
        bulk_slots, bulk_labels = bulk.labels()
        assert np.array_equal(seq_slots, bulk_slots)
        assert np.array_equal(seq_labels, bulk_labels)

    def test_tuple_items_with_times_and_weight(self):
        points = np.cumsum(np.ones((6, 2)), axis=0)
        times = np.arange(6.0) * 10.0
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bulk.bulk_load([(3, points, times, 2.5)])
        state = bulk.stream._trajectories[3]
        assert state.weight == 2.5
        assert state.times == times.tolist()
        # Timed trajectories must stay timed on later appends.
        with pytest.raises(TrajectoryError):
            bulk.append(3, points + 100.0)

    def test_single_point_item_emits_no_segment(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        update = bulk.bulk_load([(0, np.array([[1.0, 2.0]]))])
        assert update.inserted == ()
        assert bulk.n_alive == 0
        # ... and the trajectory is open: growing it behaves exactly
        # like growing a trajectory opened by a single-point append.
        extra = np.array([[2.0, 2.0], [3.0, 2.0]])
        update = bulk.append(0, extra)
        sequential = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        sequential.append(0, np.array([[1.0, 2.0]]))
        expected = sequential.append(0, extra)
        assert update.inserted == expected.inserted
        assert update.labels == expected.labels


class TestBulkValidation:
    def test_existing_trajectory_rejected(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bulk.append(1, np.zeros((2, 2)))
        with pytest.raises(TrajectoryError):
            bulk.bulk_load([(1, np.ones((3, 2)))])

    def test_duplicate_ids_in_one_bulk_rejected(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        with pytest.raises(TrajectoryError):
            bulk.bulk_load([(1, np.ones((3, 2))), (1, np.zeros((3, 2)))])

    def test_non_finite_points_rejected(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        bad = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(TrajectoryError):
            bulk.bulk_load([(1, bad)])

    def test_bad_weight_rejected(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        with pytest.raises(TrajectoryError):
            bulk.bulk_load([(1, np.ones((3, 2)), None, 0.0)])

    def test_decreasing_times_rejected(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        with pytest.raises(TrajectoryError):
            bulk.bulk_load(
                [(1, np.ones((3, 2)), [3.0, 2.0, 1.0])]
            )

    def test_empty_bulk_is_a_noop(self):
        bulk = StreamingTRACLUS(StreamConfig(eps=EPS, min_lns=MIN_LNS))
        update = bulk.bulk_load([])
        assert update.inserted == () and update.evicted == ()
