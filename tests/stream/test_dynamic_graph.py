"""Unit tests for the dynamic ε-graph and its segment store."""

import numpy as np
import pytest

from repro import kernels
from repro.cluster.neighbor_graph import (
    DEFAULT_PAIR_BLOCK,
    NeighborGraph,
    _candidate_pair_stream,
)
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.segmentset import SegmentSet
from repro.stream.dynamic_graph import DynamicNeighborGraph, StreamSegmentStore
from repro.stream.online_dbscan import OnlineDBSCAN


def random_segments(n, seed=0, scale=40.0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, scale, (n, 2))
    ends = starts + rng.normal(0, 3.0, (n, 2))
    return starts, ends


def batch_rows(graph):
    """Rows of a batch rebuild over the survivors, keyed by slot."""
    segments, slots = graph.store.compact()
    batch = NeighborGraph.build(segments, graph.eps, graph.distance)
    return {
        int(slot): slots[batch.row(position)]
        for position, slot in enumerate(slots)
    }


class TestStreamSegmentStore:
    def test_slots_are_stable_and_monotone(self):
        store = StreamSegmentStore(dim=2)
        slots = [
            store.append([0.0, k], [1.0, k], traj_id=k) for k in range(200)
        ]
        assert slots == list(range(200))  # growth does not renumber
        store.kill(5)
        assert store.append([9.0, 9.0], [10.0, 9.0], traj_id=9) == 200

    def test_compact_preserves_slot_order(self):
        store = StreamSegmentStore(dim=2)
        for k in range(10):
            store.append([0.0, k], [1.0, k], traj_id=k)
        for dead in (0, 3, 7):
            store.kill(dead)
        segments, slots = store.compact()
        assert slots.tolist() == [1, 2, 4, 5, 6, 8, 9]
        assert np.array_equal(segments.starts[:, 1], slots.astype(float))

    def test_kill_twice_rejected(self):
        store = StreamSegmentStore(dim=2)
        slot = store.append([0.0, 0.0], [1.0, 0.0], traj_id=0)
        store.kill(slot)
        with pytest.raises(ClusteringError):
            store.kill(slot)

    def test_validation(self):
        store = StreamSegmentStore(dim=2)
        with pytest.raises(ClusteringError):
            store.append([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], traj_id=0)
        with pytest.raises(ClusteringError):
            store.append([0.0, 0.0], [1.0, 0.0], traj_id=0, weight=0.0)


class TestDynamicNeighborGraph:
    def test_rows_match_batch_rebuild_after_inserts(self):
        starts, ends = random_segments(60, seed=1)
        graph = DynamicNeighborGraph(eps=4.0)
        for k in range(60):
            graph.insert(starts[k], ends[k], traj_id=k % 7)
        for slot, expected in batch_rows(graph).items():
            assert np.array_equal(graph.neighbors_of(slot), expected)

    def test_rows_match_batch_rebuild_after_evictions(self):
        starts, ends = random_segments(50, seed=2)
        graph = DynamicNeighborGraph(eps=5.0)
        for k in range(50):
            graph.insert(starts[k], ends[k], traj_id=k % 5)
        rng = np.random.default_rng(3)
        for slot in rng.choice(50, size=20, replace=False).tolist():
            graph.evict(slot)
        for slot, expected in batch_rows(graph).items():
            assert np.array_equal(graph.neighbors_of(slot), expected)

    def test_distances_are_bitwise_batch_identical(self):
        starts, ends = random_segments(40, seed=4)
        graph = DynamicNeighborGraph(eps=6.0)
        for k in range(40):
            graph.insert(starts[k], ends[k], traj_id=k % 4)
        segments, slots = graph.store.compact()
        batch = NeighborGraph.build(segments, 6.0, graph.distance)
        position_of = {int(slot): pos for pos, slot in enumerate(slots)}
        for slot in slots.tolist():
            online = graph.neighbor_distances(slot)
            position = position_of[slot]
            row = batch.row(position)
            row_dists = batch.row_distances(position)
            for mate, dist in zip(row.tolist(), row_dists.tolist()):
                if mate == position:
                    continue
                assert online[int(slots[mate])] == dist  # bitwise

    def test_degenerate_weights_degrade_to_all_pairs(self):
        starts, ends = random_segments(30, seed=5)
        distance = SegmentDistance(w_perp=0.0, w_par=1.0, w_theta=1.0)
        graph = DynamicNeighborGraph(eps=5.0, distance=distance)
        for k in range(30):
            graph.insert(starts[k], ends[k], traj_id=k % 3)
        for slot, expected in batch_rows(graph).items():
            assert np.array_equal(graph.neighbors_of(slot), expected)

    def test_eviction_unlinks_both_sides(self):
        graph = DynamicNeighborGraph(eps=10.0)
        a, _ = graph.insert([0.0, 0.0], [1.0, 0.0], traj_id=0)
        b, neighbors = graph.insert([0.0, 0.1], [1.0, 0.1], traj_id=1)
        assert neighbors.tolist() == [a]
        graph.evict(a)
        assert graph.neighbors_of(b).tolist() == [b]
        with pytest.raises(ClusteringError):
            graph.neighbors_of(a)

    def test_eps_zero_duplicates_are_neighbors(self):
        graph = DynamicNeighborGraph(eps=0.0)
        a, _ = graph.insert([0.0, 0.0], [1.0, 1.0], traj_id=0)
        b, neighbors = graph.insert([0.0, 0.0], [1.0, 1.0], traj_id=1)
        assert neighbors.tolist() == [a]
        c, neighbors = graph.insert([5.0, 5.0], [6.0, 6.0], traj_id=2)
        assert neighbors.size == 0


class TestRejectedBatch:
    """A batch with one bad row is rejected whole: no slot, adjacency
    row or grid entry of its good rows stays behind."""

    BAD_ROWS = {
        "zero weight": ([2.0, 2.0], [3.0, 2.0], 0.0),
        "nan weight": ([2.0, 2.0], [3.0, 2.0], float("nan")),
        "inf weight": ([2.0, 2.0], [3.0, 2.0], float("inf")),
        "nan endpoint": ([2.0, float("nan")], [3.0, 2.0], 1.0),
        "+inf endpoint": ([2.0, 2.0], [float("inf"), 2.0], 1.0),
        "-inf endpoint": ([-float("inf"), 2.0], [3.0, 2.0], 1.0),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_store_and_labels_unchanged(self, bad):
        clusterer = OnlineDBSCAN(eps=2.0, min_lns=2)
        starts, ends = random_segments(12, seed=7, scale=6.0)
        clusterer.insert_batch(starts, ends, np.arange(12) % 4)
        before = clusterer.labels()
        n_slots, n_alive = len(clusterer.store), clusterer.graph.n_alive
        start, end, weight = self.BAD_ROWS[bad]
        with pytest.raises(ClusteringError):
            clusterer.insert_batch(
                [[0.0, 0.0], [1.0, 0.0], start],
                [[1.0, 0.0], [2.0, 0.0], end],
                [1, 2, 3],
                [1.0, 1.0, weight],
            )
        assert len(clusterer.store) == n_slots
        assert clusterer.graph.n_alive == n_alive
        after = clusterer.labels()
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        slots = clusterer.insert_batch([[0.0, 0.0]], [[1.0, 0.0]], [1])
        assert slots == [n_slots]
        assert clusterer.graph.neighbors_of(0)[0] == 0
        assert clusterer.labels()[0].size == n_alive + 1


def float_or_lattice_corpus(kind, dim, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        starts = rng.integers(-8, 8, (n, dim)) / 2.0
        ends = starts + rng.integers(-4, 5, (n, dim)) / 2.0
    else:
        starts = rng.uniform(0.0, 16.0, (n, dim))
        ends = starts + rng.normal(0.0, 2.0, (n, dim))
    points = rng.random(n) < 0.2
    ends[points] = starts[points]
    return starts, ends


class TestCandidatesEqualBatchJoin:
    """One rule for batch and stream: inserting a corpus in chunks
    hands :meth:`SegmentDistance.pairs` exactly the pairs the batch
    join's :func:`_candidate_pair_stream` yields, each once."""

    @staticmethod
    def keys(pairs, n):
        return np.concatenate(
            [np.minimum(a, b) * n + np.maximum(a, b) for a, b in pairs]
            or [np.empty(0, dtype=np.int64)]
        )

    @pytest.mark.parametrize("kind", ["float", "lattice"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.5, 4.0])
    def test_same_pairs(self, pair_backend, monkeypatch, kind, dim, eps):
        evaluated = []
        pairs = SegmentDistance.pairs

        def spy(self, segments, left, right, *args, **kwargs):
            evaluated.append((left, right))
            return pairs(self, segments, left, right, *args, **kwargs)

        for seed in range(3):
            starts, ends = float_or_lattice_corpus(kind, dim, 90, seed)
            n = len(starts)
            cuts = np.random.default_rng(seed).integers(1, n, 12)
            bounds = np.unique(np.concatenate([[0, n], cuts]))
            evaluated.clear()
            with kernels.use_backend(pair_backend):
                graph = DynamicNeighborGraph(eps, dim=dim)
                monkeypatch.setattr(SegmentDistance, "pairs", spy)
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    graph.insert_batch(
                        starts[lo:hi], ends[lo:hi], np.arange(lo, hi)
                    )
                monkeypatch.undo()
                batch = list(_candidate_pair_stream(
                    SegmentSet(starts, ends), eps, SegmentDistance(),
                    DEFAULT_PAIR_BLOCK,
                ))
            stream_keys = np.sort(self.keys(evaluated, n))
            assert np.all(np.diff(stream_keys) > 0)  # each pair once
            assert np.array_equal(stream_keys, self.keys(batch, n))
