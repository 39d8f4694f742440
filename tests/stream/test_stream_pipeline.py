"""Unit tests for the streaming pipeline and checkpointing."""

import os

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.core.config import StreamConfig
from repro.exceptions import ClusteringError, ReproError, TrajectoryError
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.pipeline import StreamingTRACLUS


def feed_corridors(pipeline, n_trajectories=6, seed=0, chunk=4):
    rng = np.random.default_rng(seed)
    for traj_id in range(n_trajectories):
        points = np.column_stack(
            [
                np.linspace(0, 40, 12),
                3.0 * (traj_id % 2) + rng.normal(0, 0.3, 12),
            ]
        )
        for at in range(0, 12, chunk):
            pipeline.append(traj_id, points[at:at + chunk])


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ClusteringError):
            StreamConfig(eps=-1.0, min_lns=3)
        with pytest.raises(ClusteringError):
            StreamConfig(eps=1.0, min_lns=0)
        with pytest.raises(ClusteringError):
            StreamConfig(eps=1.0, min_lns=3, max_segments=0)
        with pytest.raises(ClusteringError):
            StreamConfig(eps=1.0, min_lns=3, horizon=-2.0)
        with pytest.raises(ClusteringError):
            StreamConfig(eps=1.0, min_lns=3, w_perp=-1.0)


class TestStreamingTraclus:
    def test_updates_report_changes(self):
        pipeline = StreamingTRACLUS(StreamConfig(eps=5.0, min_lns=3))
        updates = []
        rng = np.random.default_rng(1)
        for traj_id in range(4):
            points = np.column_stack(
                [np.linspace(0, 30, 8), rng.normal(0, 0.3, 8)]
            )
            updates.append(pipeline.append(traj_id, points))
        assert any(update.n_clusters > 0 for update in updates)
        last = updates[-1]
        assert set(last.labels) == set(
            pipeline.clusterer.store.alive_slots().tolist()
        )
        for slot, (old, new) in last.changed.items():
            assert old != new

    def test_count_window_bounds_live_segments(self):
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=5.0, min_lns=3, max_segments=10)
        )
        feed_corridors(pipeline, n_trajectories=8, seed=2)
        assert pipeline.n_alive <= 10
        # Oldest slots are the ones gone.
        slots, _ = pipeline.labels()
        assert slots.min() > 0

    def test_horizon_window_evicts_stale_stamps(self):
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=5.0, min_lns=2, horizon=5.0)
        )
        points = np.column_stack([np.linspace(0, 20, 6), np.zeros(6)])
        pipeline.append(0, points, times=np.arange(6.0))
        late = np.column_stack([np.linspace(0, 20, 4), np.ones(4)])
        update = pipeline.append(1, late, times=50.0 + np.arange(4.0))
        store = pipeline.clusterer.store
        stamps = store.stamps[store.alive_slots()]
        assert np.all(stamps >= 45.0)
        assert update.evicted  # the stale trajectory was pushed out

    def test_matches_batch_after_every_update(self):
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=5.0, min_lns=3, max_segments=30)
        )
        rng = np.random.default_rng(3)
        for step in range(25):
            traj_id = int(rng.integers(0, 5))
            chunk = rng.normal(0, 0.4, (3, 2)) + [
                4.0 * step % 11, 3.0 * (traj_id % 2)
            ]
            pipeline.append(traj_id, chunk)
            segments, _ = pipeline.clusterer.store.compact()
            _, expected = LineSegmentDBSCAN(eps=5.0, min_lns=3).fit(segments)
            _, labels = pipeline.labels()
            assert np.array_equal(labels, expected)


class TestCheckpoint:
    def test_roundtrip_preserves_labels_and_future(self, tmp_path):
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=5.0, min_lns=3, max_segments=40)
        )
        feed_corridors(pipeline, n_trajectories=6, seed=4)
        path = os.fspath(tmp_path / "stream.npz")
        save_checkpoint(pipeline, path)
        restored = load_checkpoint(path)

        slots_a, labels_a = pipeline.labels()
        slots_b, labels_b = restored.labels()
        assert np.array_equal(slots_a, slots_b)
        assert np.array_equal(labels_a, labels_b)

        # Both sessions continue identically — including partitioner
        # scan state, window cursor and key bookkeeping.
        rng = np.random.default_rng(5)
        for traj_id in (2, 9):
            points = np.column_stack(
                [np.linspace(0, 25, 7), rng.normal(0, 0.3, 7)]
            )
            update_a = pipeline.append(traj_id, points)
            update_b = restored.append(traj_id, points)
            assert update_a.labels == update_b.labels
            assert update_a.changed == update_b.changed

    def test_rejects_foreign_files(self, tmp_path):
        path = os.fspath(tmp_path / "bogus.npz")
        np.savez(path, meta=np.array('{"format": "something-else"}'))
        with pytest.raises(Exception):
            load_checkpoint(path)

    def test_timed_trajectories_roundtrip(self, tmp_path):
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=5.0, min_lns=2, horizon=100.0)
        )
        points = np.column_stack([np.linspace(0, 20, 6), np.zeros(6)])
        pipeline.append(0, points, times=10.0 + np.arange(6.0))
        path = os.fspath(tmp_path / "timed.npz")
        save_checkpoint(pipeline, path)
        restored = load_checkpoint(path)
        more = np.column_stack([np.linspace(22, 30, 3), np.zeros(3)])
        update_a = pipeline.append(0, more, times=20.0 + np.arange(3.0))
        update_b = restored.append(0, more, times=20.0 + np.arange(3.0))
        assert update_a.labels == update_b.labels


def checkpoint_arrays(pipeline, path):
    """Every member of a saved checkpoint (the meta JSON included)."""
    with np.load(save_checkpoint(pipeline, str(path))) as saved:
        return {name: saved[name].copy() for name in saved.files}


#: Appends the stream must refuse whole, each opening trajectory 99 on a
#: dim-2 pipeline.
REJECTED = {
    "nan_point": lambda p: p.append(99, [[0.0, 0.0], [np.nan, 1.0]]),
    "nan_time": lambda p: p.append(
        99, [[0.0, 0.0], [1.0, 1.0]], times=[0.0, np.nan]
    ),
    "wrong_dim": lambda p: p.append(
        99, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]
    ),
    "bulk_wrong_dim": lambda p: p.bulk_load(
        [(99, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
         (98, [[0.0, 0.0, 0.0], [2.0, 1.0, 1.0]])]
    ),
}


class TestRejectedAppend:
    """A rejected append leaves no phantom trajectory behind: the
    stream, the graph and the next checkpoint are as they were."""

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_leaves_no_trace(self, case, tmp_path):
        pipeline = StreamingTRACLUS(StreamConfig(eps=2.0, min_lns=2))
        feed_corridors(pipeline, n_trajectories=3)
        traj_ids = pipeline.stream.traj_ids
        slots, labels = pipeline.labels()
        n_slots = len(pipeline.clusterer.store)
        before = checkpoint_arrays(pipeline, tmp_path / "before.npz")

        with pytest.raises(ReproError):
            REJECTED[case](pipeline)

        assert pipeline.stream.traj_ids == traj_ids
        assert pipeline.stream.n_points(99) == 0
        with pytest.raises(TrajectoryError):
            pipeline.stream.characteristic_points(99)
        assert len(pipeline.clusterer.store) == n_slots
        after_slots, after_labels = pipeline.labels()
        assert np.array_equal(after_slots, slots)
        assert np.array_equal(after_labels, labels)
        after = checkpoint_arrays(pipeline, tmp_path / "after.npz")
        assert sorted(after) == sorted(before)
        for name, array in before.items():
            assert after[name].tobytes() == array.tobytes(), name
        restored_slots, restored_labels = load_checkpoint(
            str(tmp_path / "after.npz")
        ).labels()
        assert np.array_equal(restored_slots, slots)
        assert np.array_equal(restored_labels, labels)

        # The id is still free: a valid first append opens it afresh,
        # with its own weight.
        update = pipeline.append(99, [[0.0, 0.0], [5.0, 0.0]], weight=2.0)
        assert pipeline.stream.n_points(99) == 2
        assert len(update.inserted) == 1
        assert pipeline.clusterer.store.weights[update.inserted[0]] == 2.0
