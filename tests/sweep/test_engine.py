"""Unit tests for the amortised sweep engine.

The load-bearing claim: every grid point's labels are *bitwise
identical* to an independent batch fit at those parameters — not merely
the same clustering up to relabeling.  The hypothesis suite in
``tests/property/test_sweep_equivalence.py`` fuzzes the same claim over
random inputs; here the cases are deterministic and the API surface
(result container, executors, error paths) is covered too.
"""

import numpy as np
import pytest

from repro.cluster.dbscan import LineSegmentDBSCAN, cluster_segments
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.core.config import SweepConfig, TraclusConfig
from repro.core.traclus import TRACLUS
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import ClusteringError, TrajectoryError
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.params.entropy import entropy_from_counts
from repro.params.heuristic import recommend_parameters
from repro.partition.approximate import partition_all
from repro.sweep import SweepEngine
from repro.sweep.engine import _hook_components


EPS_VALUES = [3.0, 5.0, 8.0, 12.0]
MIN_LNS_VALUES = [1.0, 3.0, 4.5, 6.0]


@pytest.fixture(scope="module")
def corridor_segments():
    trajectories = generate_corridor_set(n_trajectories=14, seed=9)
    segments, _ = partition_all(trajectories)
    return segments


class TestLabelsBitwiseIdentity:
    def test_every_grid_point_equals_fresh_dbscan(self, corridor_segments):
        engine = SweepEngine(corridor_segments, EPS_VALUES)
        grid = engine.labels_grid(MIN_LNS_VALUES)
        for i, eps in enumerate(EPS_VALUES):
            for j, min_lns in enumerate(MIN_LNS_VALUES):
                _, expected = cluster_segments(
                    corridor_segments, eps=eps, min_lns=min_lns
                )
                assert np.array_equal(grid[i, j], expected), (
                    f"labels diverge at eps={eps}, min_lns={min_lns}"
                )

    def test_unsorted_and_duplicate_eps_values(self, corridor_segments):
        eps_values = [8.0, 3.0, 8.0, 5.0]
        engine = SweepEngine(corridor_segments, eps_values)
        grid = engine.labels_grid([3.0])
        assert np.array_equal(grid[0, 0], grid[2, 0])
        for i, eps in enumerate(eps_values):
            _, expected = cluster_segments(
                corridor_segments, eps=eps, min_lns=3.0
            )
            assert np.array_equal(grid[i, 0], expected)

    def test_eps_zero_grid_point(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [0.0, 4.0])
        grid = engine.labels_grid([2.0])
        for i, eps in enumerate([0.0, 4.0]):
            _, expected = cluster_segments(
                corridor_segments, eps=eps, min_lns=2.0
            )
            assert np.array_equal(grid[i, 0], expected)

    def test_min_lns_at_or_below_one_makes_singletons_core(
        self, corridor_segments
    ):
        # Cardinality with no neighbors is 1 (the segment itself); a
        # MinLns of exactly 1 must promote isolated segments.
        engine = SweepEngine(corridor_segments, [0.0])
        grid = engine.labels_grid([1.0])
        _, expected = cluster_segments(
            corridor_segments, eps=0.0, min_lns=1.0
        )
        assert np.array_equal(grid[0, 0], expected)

    def test_eps_exactly_at_edge_distance_tie(self, corridor_segments):
        # Pick a realised pairwise distance as a grid ε: the admission
        # predicate must treat dist == eps as inside, like every engine.
        graph = SweepEngine(corridor_segments, [10.0]).graph
        rows = np.repeat(np.arange(graph.n_segments), np.diff(graph.indptr))
        distances = np.sort(graph.data[graph.indices > rows])
        assert distances.size > 0
        tie = float(distances[distances.size // 2])
        engine = SweepEngine(corridor_segments, [tie])
        grid = engine.labels_grid([3.0])
        _, expected = cluster_segments(
            corridor_segments, eps=tie, min_lns=3.0
        )
        assert np.array_equal(grid[0, 0], expected)

    def test_min_lns_exactly_at_cardinality_boundary(
        self, corridor_segments
    ):
        # MinLns equal to a segment's realised |N_eps|: >= must promote.
        eps = 6.0
        engine = SweepEngine(corridor_segments, [eps])
        counts = engine.neighborhood_counts()[0]
        boundary = float(np.max(counts))
        grid = engine.labels_grid([boundary, boundary + 0.5])
        for j, min_lns in enumerate([boundary, boundary + 0.5]):
            _, expected = cluster_segments(
                corridor_segments, eps=eps, min_lns=min_lns
            )
            assert np.array_equal(grid[0, j], expected)

    def test_fixed_cardinality_threshold(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [5.0, 8.0])
        grid = engine.labels_grid([3.0, 5.0], cardinality_threshold=4.0)
        for i, eps in enumerate([5.0, 8.0]):
            for j, min_lns in enumerate([3.0, 5.0]):
                _, expected = cluster_segments(
                    corridor_segments, eps=eps, min_lns=min_lns,
                    cardinality_threshold=4.0,
                )
                assert np.array_equal(grid[i, j], expected)

    def test_weighted_cardinalities(self):
        base = generate_corridor_set(n_trajectories=10, seed=21)
        trajectories = [
            Trajectory(t.points, traj_id=t.traj_id, weight=1.0 + 0.5 * (i % 3))
            for i, t in enumerate(base)
        ]
        segments, _ = partition_all(trajectories)
        engine = SweepEngine(segments, [4.0, 7.0])
        grid = engine.labels_grid([2.0, 4.0], use_weights=True)
        for i, eps in enumerate([4.0, 7.0]):
            for j, min_lns in enumerate([2.0, 4.0]):
                _, expected = LineSegmentDBSCAN(
                    eps=eps, min_lns=min_lns, use_weights=True
                ).fit(segments)
                assert np.array_equal(grid[i, j], expected)

    def test_weighted_core_dropping_out_as_eps_grows(self):
        """``np.sum`` sums 8 or more terms pairwise, so a row's weighted
        sum can round down when a tiny weight joins it.  Segment 0 sits
        at y = 0 with a crowd of unit segments at y in [-0.5, -0.1];
        at ε = 1.6 it also reaches a 1e-17-weight segment at y = 1.55,
        which no crowd member reaches.  MinLns is segment 0's sum at
        ε = 1, so at ε = 1.6 segment 0 stops being core while the crowd
        stays one cluster, with segment 0 as its border."""
        rng = np.random.default_rng(8)  # a seed whose row-0 sum drops
        n = 10
        tiny = int(rng.integers(1, n))
        ys = np.zeros(n)
        crowd = [i for i in range(1, n) if i != tiny]
        ys[crowd] = rng.uniform(-0.5, -0.1, size=len(crowd))
        ys[tiny] = 1.55
        weights = rng.uniform(0.5, 2.0, size=n)
        weights[tiny] = 1e-17
        segments = SegmentSet(
            np.stack([np.zeros(n), ys], axis=1),
            np.stack([np.ones(n), ys], axis=1),
            np.arange(n),
            weights,
        )
        min_lns = float(np.sum(weights[[0, *crowd]]))
        assert float(np.sum(weights)) < min_lns  # the core drops out

        eps_values = [1.0, 1.6]
        grid = SweepEngine(segments, eps_values).labels_grid(
            [min_lns], cardinality_threshold=1.0, use_weights=True
        )
        for i, eps in enumerate(eps_values):
            _, expected = LineSegmentDBSCAN(
                eps=eps, min_lns=min_lns, cardinality_threshold=1.0,
                use_weights=True,
            ).fit(segments, engine=BruteForceNeighborhood(segments, eps))
            assert np.array_equal(grid[i, 0], expected)
            assert np.all(expected[[0, *crowd]] == 0)

    def test_single_column_facade(self, corridor_segments):
        engine = SweepEngine(corridor_segments, EPS_VALUES)
        column = engine.labels_for_min_lns(3.0)
        grid = engine.labels_grid([3.0])
        assert np.array_equal(column, grid[:, 0, :])


def _stack(x, heights):
    """Unit segments stacked at one x: two of them lie exactly
    ``|dy|`` apart (no parallel or angle component)."""
    return [Segment([x, y], [x + 1.0, y]) for y in heights]


def _star(x, hub_last):
    """Four 3-segment leaf bundles, each core on its own from ε=0, at
    distance 1 from a hub that turns core only at ε=1 and then joins all
    four at once; the leaves are >= 2 apart from each other."""
    leaves = []
    for dx, dy in ((0.0, 1.0), (0.0, -1.0), (2.0, 0.0), (-2.0, 0.0)):
        leaves += _stack(x + dx, [dy] * 3)
    hub = _stack(x, [0.0])
    return leaves + hub if hub_last else hub + leaves


def _bridge(x):
    """Two clusters, each a segment at distance 1 from the bridge plus
    three copies 1 further out, and the bridge itself, which sees one
    segment of each at ε=1 but turns core (MinLns=4) only at ε=1.5, when
    its third neighbor, a non-core, arrives.  The edges that join the
    two clusters then were all admitted at an earlier ε step."""
    sides = _stack(x, [1.0, 2.0, 2.0, 2.0, -1.0, -2.0, -2.0, -2.0])
    return sides + _stack(x, [0.0]) + _stack(x + 2.5, [0.0])


@pytest.fixture(scope="module")
def chain_and_stars():
    """A 40-segment chain whose gaps alternate 1.0 / 1.5 (it links up
    over two ε steps) with ids *descending* up the chain, so every hook
    points at the next link and the forest starts as one long path; two
    stars, the hub's id above all its leaves in one and below them in
    the other; and a late bridge between two clusters."""
    heights = np.cumsum([0.0] + [1.0, 1.5] * 19 + [1.0])
    segments = _stack(0.0, heights[::-1])
    segments += _star(100.0, hub_last=True) + _star(200.0, hub_last=False)
    segments += _bridge(300.0)
    return SegmentSet.from_segments(
        Segment(s.start, s.end, traj_id=i) for i, s in enumerate(segments)
    )


class TestAdversarialUnionFind:
    EPS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]
    MIN_LNS = [2.0, 3.0, 4.0]

    def test_labels_equal_brute_dbscan_at_every_eps(self, chain_and_stars):
        engine = SweepEngine(chain_and_stars, self.EPS)
        grid = engine.labels_grid(self.MIN_LNS)
        for i, eps in enumerate(self.EPS):
            for j, min_lns in enumerate(self.MIN_LNS):
                _, expected = LineSegmentDBSCAN(eps, min_lns).fit(
                    chain_and_stars,
                    engine=BruteForceNeighborhood(chain_and_stars, eps),
                )
                assert np.array_equal(grid[i, j], expected), (eps, min_lns)
        # Not vacuous: at MinLns=3 the eight leaf bundles are separate
        # clusters until ε=1, where each star collapses into one, and
        # the chain is one cluster from ε=1.5.
        stars = slice(40, 66)
        for eps, n_clusters in ((0.5, 8), (1.0, 2)):
            labels = grid[self.EPS.index(eps), 1, stars]
            assert np.unique(labels[labels >= 0]).size == n_clusters
        chain = grid[self.EPS.index(1.5), 1, 1:39]
        assert chain.min() >= 0 and np.unique(chain).size == 1
        # At MinLns=4 the bridged clusters are apart at ε=1, one at 1.5.
        sides = np.split(np.arange(len(chain_and_stars))[-10:-2], 2)
        at_1, at_15 = (grid[self.EPS.index(eps), 2] for eps in (1.0, 1.5))
        assert at_1[sides[0]].min() >= 0 and at_1[sides[1]].min() >= 0
        assert np.intersect1d(at_1[sides[0]], at_1[sides[1]]).size == 0
        assert np.unique(at_15[np.concatenate(sides)]).size == 1

    def test_hooking_keeps_every_root_at_its_component_minimum(self):
        n = 64
        parent = np.arange(n, dtype=np.int64)
        evens = np.arange(32, n, 2)
        _hook_components(parent, evens, evens + 1)  # {32, 33} .. {62, 63}
        assert np.array_equal(parent[evens + 1], evens)
        # Chain the pairs through their odd members, ids descending, so
        # the even roots hook into one long path while sitting on no
        # edge themselves; plus a star whose hub outranks its leaves.
        odds = np.arange(n - 1, 32, -2)
        hub = np.full(16, 31)
        leaves = np.arange(15, -1, -1)
        _hook_components(
            parent,
            np.concatenate([odds[:-1], hub]),
            np.concatenate([odds[1:], leaves]),
        )
        assert np.all(parent[32:] == 32)
        assert np.all(parent[leaves] == 0) and parent[31] == 0
        assert np.array_equal(parent[16:31], np.arange(16, 31))


class TestEdgeGrouping:
    def test_one_eps_engine_keeps_csr_order(self, corridor_segments):
        # One ε admits every edge in one step: the engine takes the
        # graph's upper triangle as stored, with no reordering.
        engine = SweepEngine(corridor_segments, [8.0])
        graph = engine.graph
        rows = np.repeat(np.arange(graph.n_segments), np.diff(graph.indptr))
        upper = graph.indices > rows
        assert np.array_equal(engine._edge_u, rows[upper])
        assert np.array_equal(engine._edge_v, graph.indices[upper])
        assert engine._cuts.tolist() == [int(np.count_nonzero(upper))]

    def test_edges_are_grouped_by_admitting_step(self, corridor_segments):
        eps_values = [8.0, 2.0, 5.0]
        engine = SweepEngine(corridor_segments, eps_values)
        graph = engine.graph
        rows = np.repeat(np.arange(graph.n_segments), np.diff(graph.indptr))
        upper = graph.indices > rows
        dist = graph.data[upper]
        lookup = dict(zip(zip(rows[upper].tolist(),
                              graph.indices[upper].tolist()), dist.tolist()))
        steps = np.searchsorted(
            [2.0, 5.0, 8.0],
            [lookup[pair] for pair in zip(engine._edge_u.tolist(),
                                          engine._edge_v.tolist())],
        )
        assert np.all(np.diff(steps) >= 0)
        assert engine._cuts.tolist() == [
            int(np.count_nonzero(dist <= eps)) for eps in (2.0, 5.0, 8.0)
        ]


class TestExecutors:
    def test_process_executor_matches_serial(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [4.0, 8.0])
        serial = engine.labels_grid([2.0, 3.0, 4.0])
        forked = engine.labels_grid(
            [2.0, 3.0, 4.0], executor="process", n_workers=2
        )
        assert np.array_equal(serial, forked)

    def test_process_executor_weighted_grid(self):
        base = generate_corridor_set(n_trajectories=10, seed=21)
        trajectories = [
            Trajectory(t.points, traj_id=t.traj_id, weight=0.25 * (1 + i % 4))
            for i, t in enumerate(base)
        ]
        segments, _ = partition_all(trajectories)
        eps_values, min_lns_values = [3.0, 5.0, 8.0], [1.5, 2.75, 4.0]
        forked = SweepEngine(segments, eps_values).labels_grid(
            min_lns_values, use_weights=True, executor="process", n_workers=2
        )
        for i, eps in enumerate(eps_values):
            for j, min_lns in enumerate(min_lns_values):
                _, expected = LineSegmentDBSCAN(
                    eps=eps, min_lns=min_lns, use_weights=True,
                ).fit(segments, engine=BruteForceNeighborhood(segments, eps))
                assert np.array_equal(forked[i, j], expected)

    def test_unknown_executor_rejected(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [4.0])
        with pytest.raises(ClusteringError, match="executor"):
            engine.labels_grid([2.0, 3.0], executor="threads")


class TestEntropyAndHeuristic:
    def test_counts_match_streaming_route(self, corridor_segments):
        from repro.cluster.neighbor_graph import neighborhood_size_counts

        eps_values = np.array([2.0, 5.0, 9.0])
        engine = SweepEngine(corridor_segments, eps_values)
        expected = neighborhood_size_counts(corridor_segments, eps_values)
        assert np.array_equal(engine.neighborhood_counts(), expected)

    def test_entropy_curve_bitwise_equal(self, corridor_segments):
        eps_values = np.arange(1.0, 12.0)
        engine = SweepEngine(corridor_segments, eps_values)
        entropies, avg_sizes = engine.entropy_curve()
        # Oracle: per-segment brute distance rows, no SweepEngine.
        expected_entropy, expected_avg = entropy_from_counts(np.array([
            BruteForceNeighborhood(corridor_segments, eps).neighborhood_sizes()
            for eps in eps_values
        ]))
        assert np.array_equal(entropies, expected_entropy)
        assert np.array_equal(avg_sizes, expected_avg)

    def test_recommend_parameters_matches_heuristic(self, corridor_segments):
        eps_values = np.arange(1.0, 12.0)
        engine = SweepEngine(corridor_segments, eps_values)
        from_engine = engine.recommend_parameters()
        direct = recommend_parameters(corridor_segments, eps_values=eps_values)
        assert from_engine == direct


class TestFacadeAndResult:
    def test_traclus_sweep_equals_per_point_fits(self):
        trajectories = generate_corridor_set(n_trajectories=12, seed=4)
        config = TraclusConfig(
            suppression=1.0, compute_representatives=False
        )
        sweep_config = SweepConfig(
            eps_values=[4.0, 7.0], min_lns_values=[3.0, 5.0]
        )
        result = TRACLUS(config).sweep(trajectories, sweep_config)
        assert result.labels.shape[:2] == (2, 2)
        for i, eps in enumerate(sweep_config.eps_values):
            for j, min_lns in enumerate(sweep_config.min_lns_values):
                fit = TRACLUS(
                    TraclusConfig(
                        eps=eps, min_lns=min_lns, suppression=1.0,
                        compute_representatives=False,
                    )
                ).fit(trajectories)
                assert np.array_equal(result.labels[i, j], fit.labels)
                assert np.array_equal(
                    result.labels_at(eps, min_lns), fit.labels
                )

    def test_clusters_at_matches_fit_clusters(self):
        trajectories = generate_corridor_set(n_trajectories=12, seed=4)
        result = TRACLUS(
            TraclusConfig(compute_representatives=False)
        ).sweep(
            trajectories,
            SweepConfig(eps_values=[7.0], min_lns_values=[3.0]),
        )
        fit = TRACLUS(
            TraclusConfig(eps=7.0, min_lns=3.0, compute_representatives=False)
        ).fit(trajectories)
        clusters = result.clusters_at(7.0, 3.0)
        assert len(clusters) == len(fit.clusters)
        for got, expected in zip(clusters, fit.clusters):
            assert np.array_equal(got.member_indices, expected.member_indices)

    def test_labels_at_unknown_point_rejected(self):
        trajectories = generate_corridor_set(n_trajectories=8, seed=4)
        result = TRACLUS(
            TraclusConfig(compute_representatives=False)
        ).sweep(
            trajectories,
            SweepConfig(eps_values=[7.0], min_lns_values=[3.0]),
        )
        with pytest.raises(ClusteringError, match="not a grid point"):
            result.labels_at(7.5, 3.0)

    def test_point_summary_consistent_with_labels(self):
        trajectories = generate_corridor_set(n_trajectories=12, seed=4)
        result = TRACLUS(
            TraclusConfig(compute_representatives=False)
        ).sweep(
            trajectories,
            SweepConfig(eps_values=[4.0, 7.0], min_lns_values=[3.0]),
        )
        rows = result.summary_rows()
        assert len(rows) == 2
        for row, (i, j) in zip(rows, [(0, 0), (1, 0)]):
            labels = result.labels[i, j]
            assert row["n_clusters"] == max(int(labels.max()) + 1, 0)
            assert row["n_noise"] == int(np.sum(labels < 0))
            assert row["n_clustered"] + row["n_noise"] == labels.size

    def test_empty_trajectories_rejected(self):
        with pytest.raises(TrajectoryError):
            TRACLUS().sweep(
                [], SweepConfig(eps_values=[1.0], min_lns_values=[2.0])
            )

    def test_mixed_dimensionality_rejected(self):
        t2 = Trajectory(np.array([[0.0, 0.0], [1.0, 1.0]]), traj_id=0)
        t3 = Trajectory(
            np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), traj_id=1
        )
        with pytest.raises(TrajectoryError, match="dimensionality"):
            TRACLUS().sweep(
                [t2, t3], SweepConfig(eps_values=[1.0], min_lns_values=[2.0])
            )


class TestEngineValidation:
    def test_empty_eps_values_rejected(self, corridor_segments):
        with pytest.raises(ClusteringError, match="non-empty"):
            SweepEngine(corridor_segments, [])

    def test_negative_eps_rejected(self, corridor_segments):
        with pytest.raises(ClusteringError, match="non-negative"):
            SweepEngine(corridor_segments, [3.0, -1.0])

    def test_non_positive_min_lns_rejected(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [3.0])
        with pytest.raises(ClusteringError, match="positive"):
            engine.labels_grid([0.0])
        with pytest.raises(ClusteringError, match="positive"):
            engine.labels_for_min_lns(-2.0)

    def test_empty_min_lns_values_rejected(self, corridor_segments):
        engine = SweepEngine(corridor_segments, [3.0])
        with pytest.raises(ClusteringError, match="non-empty"):
            engine.labels_grid([])
