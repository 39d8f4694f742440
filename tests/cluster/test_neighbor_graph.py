"""Unit tests for the batched CSR neighbor graph and its engine."""

import numpy as np
import pytest

from repro.cluster.neighbor_graph import (
    DEFAULT_PAIR_BLOCK,
    NeighborGraph,
    PrecomputedNeighborhood,
    _candidate_pair_stream,
    candidate_radius,
    neighborhood_size_counts,
)
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.stream.online_dbscan import OnlineDBSCAN


class TestNeighborGraphStructure:
    def test_csr_invariants(self, random_segments):
        graph = NeighborGraph.build(random_segments, eps=12.0)
        n = len(random_segments)
        assert graph.n_segments == n
        assert graph.indptr.shape == (n + 1,)
        assert graph.indptr[0] == 0 and graph.indptr[-1] == graph.n_edges
        assert graph.indices.shape == graph.data.shape
        for i in range(n):
            row = graph.row(i)
            assert np.all(np.diff(row) > 0)  # ascending, no duplicates
            assert i in row  # diagonal present
            dists = graph.row_distances(i)
            assert np.all(dists <= 12.0)
            assert dists[np.searchsorted(row, i)] == 0.0

    def test_symmetry(self, random_segments):
        graph = NeighborGraph.build(random_segments, eps=15.0)
        for i in range(len(random_segments)):
            for j in graph.row(i):
                assert i in graph.row(int(j))

    def test_sizes_match_rows(self, random_segments):
        graph = NeighborGraph.build(random_segments, eps=9.0)
        sizes = graph.sizes()
        assert np.array_equal(
            sizes,
            [graph.row(i).size for i in range(len(random_segments))],
        )

    def test_small_pair_block_same_graph(self, random_segments):
        whole = NeighborGraph.build(random_segments, eps=10.0)
        blocked = NeighborGraph.build(random_segments, eps=10.0, pair_block=7)
        assert np.array_equal(whole.indptr, blocked.indptr)
        assert np.array_equal(whole.indices, blocked.indices)
        assert np.array_equal(whole.data, blocked.data)

    def test_empty_set(self):
        graph = NeighborGraph.build(SegmentSet.empty(), eps=1.0)
        assert graph.n_segments == 0 and graph.n_edges == 0

    def test_negative_eps_raises(self, random_segments):
        with pytest.raises(ClusteringError):
            NeighborGraph.build(random_segments, eps=-1.0)

    def test_rows_are_read_only(self, random_segments):
        graph = NeighborGraph.build(random_segments, eps=10.0)
        with pytest.raises(ValueError):
            graph.row(0)[0] = 99


class TestCandidatePairStream:
    """The join behind every graph build: each unordered pair once,
    ``left < right``, ordered by ``(left, right)``, and exactly the
    pairs with an endpoint pair within the candidate radius."""

    EPS = 3.0

    @staticmethod
    def segments():
        rng = np.random.default_rng(31)
        starts = rng.uniform(0, 20, (60, 2))
        ends = starts + np.column_stack(
            [np.full(60, 4.0), rng.normal(0, 0.5, 60)]
        )
        segments = [
            Segment(s, e, traj_id=i % 7)
            for i, (s, e) in enumerate(zip(starts, ends))
        ]
        # Two segments far longer than the radius cross the whole set
        # mid-order: the join meets them only at their endpoints.
        segments.insert(10, Segment([0.0, 0.0], [300.0, 300.0], traj_id=8))
        segments.insert(
            30, Segment([-600.0, 700.0], [700.0, -600.0], traj_id=9)
        )
        return SegmentSet.from_segments(segments)

    def pairs(self, segments, pair_block):
        blocks = list(
            _candidate_pair_stream(
                segments, self.EPS, SegmentDistance(), pair_block
            )
        )
        assert all(0 < left.size <= pair_block for left, _ in blocks)
        left = np.concatenate([left for left, _ in blocks])
        right = np.concatenate([right for _, right in blocks])
        return left, right

    @pytest.mark.parametrize("pair_block", [3, DEFAULT_PAIR_BLOCK])
    def test_each_pair_once_and_every_edge_covered(self, pair_block):
        segments = self.segments()
        n = len(segments)
        left, right = self.pairs(segments, pair_block)
        assert np.all(left < right)
        keys = left * n + right
        assert np.all(np.diff(keys) > 0)  # once each, in (left, right) order
        # Brute force over all four endpoint pairs of every pair.
        radius = candidate_radius(self.EPS, SegmentDistance())
        ends = np.stack([segments.starts, segments.ends], axis=1)
        gaps = (ends[:, None, :, None] - ends[None, :, None, :]).reshape(-1, 2)
        near = (np.einsum("ij,ij->i", gaps, gaps) <= radius * radius)
        near = near.reshape(n, n, 4).any(axis=2)
        i, j = np.nonzero(np.triu(near, 1))
        assert np.array_equal(keys, i * n + j)
        brute = BruteForceNeighborhood(segments, self.EPS)
        edges = {
            (i, int(j)) for i in range(n) for j in brute.neighbors_of(i) if j > i
        }
        assert edges <= set(zip(left.tolist(), right.tolist()))
        assert len(edges) > n


class TestExtremeScales:
    """An ε with no finite candidate radius, and cells coarsened until
    their keys fit int64: the brute oracle, the batch graph and the
    streaming graph still give equal labels."""

    @staticmethod
    def labels_of_every_engine(segments, eps, min_lns):
        dbscan = LineSegmentDBSCAN(eps=eps, min_lns=min_lns)
        labels = [
            dbscan.fit(
                segments, engine=BruteForceNeighborhood(segments, eps)
            )[1],
            dbscan.fit(segments)[1],
        ]
        online = OnlineDBSCAN(eps=eps, min_lns=min_lns)
        for at in range(0, len(segments), 7):
            online.insert_batch(
                segments.starts[at:at + 7],
                segments.ends[at:at + 7],
                segments.traj_ids[at:at + 7],
            )
        labels.append(online.labels()[1])
        return labels

    @pytest.mark.parametrize("eps", [np.inf, 1e154, 1e200, 1e308])
    def test_huge_eps_joins_everything(self, eps):
        rng = np.random.default_rng(7)
        starts = rng.uniform(0, 100, (300, 2))
        ends = starts + rng.normal(0, 5, (300, 2))
        segments = SegmentSet(starts, ends, rng.integers(0, 30, 300))
        brute, batch, online = self.labels_of_every_engine(segments, eps, 4)
        assert np.all(brute == 0)
        assert np.array_equal(batch, brute)
        assert np.array_equal(online, brute)

    def test_tiny_eps_over_a_huge_extent(self):
        # 1e12 / (candidate radius ~1e-2) cells per axis overflow an
        # int64 key in two dimensions, so the batch join coarsens.
        rng = np.random.default_rng(11)
        centers = rng.uniform(0.0, 1e12, (40, 2))
        offsets = np.arange(5)[:, None] * np.array([1e-3, 2e-3])
        starts = (centers[:, None, :] + offsets[None]).reshape(-1, 2)
        ends = starts + np.array([1e-2, 0.0])
        traj_ids = np.tile(np.arange(5), 40)
        segments = SegmentSet(starts, ends, traj_ids)
        brute, batch, online = self.labels_of_every_engine(segments, 5e-3, 3)
        assert brute.max() >= 30
        assert np.array_equal(batch, brute)
        assert np.array_equal(online, brute)


class TestRestrict:
    def test_restrict_equals_fresh_build(self, random_segments):
        wide = NeighborGraph.build(random_segments, eps=25.0)
        narrow = wide.restrict(8.0)
        fresh = NeighborGraph.build(random_segments, eps=8.0)
        assert np.array_equal(narrow.indptr, fresh.indptr)
        assert np.array_equal(narrow.indices, fresh.indices)
        assert np.array_equal(narrow.data, fresh.data)

    def test_restrict_to_wider_raises(self, random_segments):
        graph = NeighborGraph.build(random_segments, eps=5.0)
        with pytest.raises(ClusteringError):
            graph.restrict(6.0)


class TestPrecomputedEngine:
    def test_matches_brute(self, random_segments):
        brute = BruteForceNeighborhood(random_segments, 10.0)
        batch = PrecomputedNeighborhood(random_segments, 10.0)
        assert np.array_equal(
            brute.neighborhood_sizes(), batch.neighborhood_sizes()
        )
        for i in range(len(random_segments)):
            assert np.array_equal(brute.neighbors_of(i), batch.neighbors_of(i))

    def test_accepts_wider_prebuilt_graph(self, random_segments):
        wide = NeighborGraph.build(random_segments, eps=30.0)
        engine = PrecomputedNeighborhood(random_segments, 10.0, graph=wide)
        brute = BruteForceNeighborhood(random_segments, 10.0)
        for i in range(len(random_segments)):
            assert np.array_equal(brute.neighbors_of(i), engine.neighbors_of(i))

    def test_rejects_mismatched_graph(self, random_segments):
        other = NeighborGraph.build(random_segments.subset(range(5)), eps=3.0)
        with pytest.raises(ClusteringError):
            PrecomputedNeighborhood(random_segments, 3.0, graph=other)

    def test_rejects_narrower_prebuilt_graph(self, random_segments):
        narrow = NeighborGraph.build(random_segments, eps=2.0)
        with pytest.raises(ClusteringError):
            PrecomputedNeighborhood(random_segments, 10.0, graph=narrow)


class TestPrebuiltEngineGuards:
    def test_dbscan_rejects_engine_with_other_eps(self, random_segments):
        from repro.cluster.dbscan import LineSegmentDBSCAN

        engine = PrecomputedNeighborhood(random_segments, 1.0)
        dbscan = LineSegmentDBSCAN(eps=5.0, min_lns=3)
        with pytest.raises(ClusteringError):
            dbscan.fit(random_segments, engine=engine)

    def test_dbscan_rejects_engine_over_other_segments(self, random_segments):
        from repro.cluster.dbscan import LineSegmentDBSCAN

        subset = random_segments.subset(range(10))
        engine = PrecomputedNeighborhood(subset, 5.0)
        dbscan = LineSegmentDBSCAN(eps=5.0, min_lns=3)
        with pytest.raises(ClusteringError):
            dbscan.fit(random_segments, engine=engine)

    def test_optics_rejects_narrower_graph(self, random_segments):
        from repro.cluster.optics import LineSegmentOPTICS

        narrow = NeighborGraph.build(random_segments, eps=0.5)
        optics = LineSegmentOPTICS(eps=5.0, min_lns=2)
        with pytest.raises(ClusteringError):
            optics.fit(random_segments, graph=narrow)


class TestStreamingCounts:
    def test_matches_brute_curve(self, random_segments):
        eps_values = np.array([0.0, 2.0, 7.5, 7.5, 31.0, 4.0])
        batched = neighborhood_size_counts(random_segments, eps_values)
        oracle = [
            BruteForceNeighborhood(random_segments, eps).neighborhood_sizes()
            for eps in eps_values
        ]
        assert np.array_equal(batched, oracle)

    def test_small_blocks_identical(self, random_segments):
        eps_values = np.array([1.0, 6.0, 18.0])
        assert np.array_equal(
            neighborhood_size_counts(random_segments, eps_values, pair_block=5),
            neighborhood_size_counts(random_segments, eps_values),
        )

    def test_rejects_bad_thresholds(self, random_segments):
        with pytest.raises(ClusteringError):
            neighborhood_size_counts(random_segments, [])
        with pytest.raises(ClusteringError):
            neighborhood_size_counts(random_segments, [-1.0])
