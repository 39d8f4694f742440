"""Workspace artifact semantics: compute-once, exact persistence,
engine short-circuits, and the single-graph-build invariant."""

import json

import numpy as np
import pytest

from repro.api.cache import ARTIFACT_KINDS
from repro.api.workspace import Workspace
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.cluster.neighbor_graph import (
    NeighborGraph,
    neighborhood_size_counts,
)
from repro.core.config import SweepConfig, TraclusConfig
from repro.core.traclus import TRACLUS
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import WorkspaceError
from repro.obs import MetricsRegistry
from repro.partition.approximate import partition_all
from repro.sweep.engine import SweepEngine
import repro.partition.batched as batched_module


def brute_labels(trajectories, eps, min_lns, **kwargs):
    """Figure-12 labels from the engines run by hand: phase 1, then
    DBSCAN over the brute-force ε-engine (the oracle)."""
    segments, _ = partition_all(trajectories)
    _, labels = LineSegmentDBSCAN(eps, min_lns, **kwargs).fit(
        segments, engine=BruteForceNeighborhood(segments, eps)
    )
    return labels


@pytest.fixture
def trajectories(corridor_trajectories):
    return corridor_trajectories


@pytest.fixture
def workspace(trajectories):
    return Workspace(trajectories, TraclusConfig(compute_representatives=False))


class TestPartitionArtifact:
    def test_matches_partition_all_bitwise(self, trajectories, workspace):
        expected_segments, expected_cps = partition_all(trajectories)
        artifact = workspace.partition()
        assert artifact.characteristic_points == expected_cps
        assert np.array_equal(artifact.segments.starts, expected_segments.starts)
        assert np.array_equal(artifact.segments.ends, expected_segments.ends)
        assert np.array_equal(
            artifact.segments.traj_ids, expected_segments.traj_ids
        )

    def test_computed_once(self, trajectories, monkeypatch):
        calls = {"n": 0}
        real = batched_module.lockstep_scan

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(batched_module, "lockstep_scan", counting)
        ws = Workspace(trajectories, TraclusConfig())
        ws.partition()
        ws.partition()
        ws.segments()
        ws.characteristic_points()
        assert calls["n"] == 1
        assert ws.stats.build_count("partition") == 1

    def test_segment_bound_has_no_characteristic_points(
        self, random_segments
    ):
        ws = Workspace.from_segments(random_segments)
        assert ws.partition().characteristic_points is None
        with pytest.raises(WorkspaceError):
            ws.characteristic_points()

    def test_returned_characteristic_points_are_copies(self, trajectories):
        """Changing the lists a call returns changes no later call."""
        _, expected = partition_all(trajectories)
        ws = Workspace(trajectories, TraclusConfig(
            eps=6.0, min_lns=3.0, compute_representatives=False
        ))
        ws.characteristic_points()[0].append(1_000_000)
        ws.sweep(
            SweepConfig(eps_values=[6.0], min_lns_values=[3.0])
        ).characteristic_points[2].clear()
        assert ws.characteristic_points() == expected
        assert ws.fit().characteristic_points == expected


class TestGraphArtifact:
    def test_restriction_matches_direct_build(self, workspace):
        """eps_graph at a smaller radius == a fresh build there, CSR
        arrays bit for bit."""
        segments = workspace.segments()
        big = workspace.eps_graph(9.0)
        small = workspace.eps_graph(4.0)
        direct = NeighborGraph.build(segments, 4.0, workspace.config.distance())
        assert np.array_equal(small.indptr, direct.indptr)
        assert np.array_equal(small.indices, direct.indices)
        assert np.array_equal(
            small.data.view(np.uint8), direct.data.view(np.uint8)
        )
        assert big.eps == 9.0
        assert workspace.graph_builds() == 1  # 4.0 served from 9.0

    def test_growing_eps_rebuilds_once(self, workspace, monkeypatch):
        calls = {"n": 0}
        real = NeighborGraph.build.__func__

        def counting(cls, *args, **kwargs):
            calls["n"] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(
            NeighborGraph, "build", classmethod(counting)
        )
        workspace.eps_graph(3.0)
        workspace.eps_graph(2.0)
        workspace.eps_graph(3.0)
        assert calls["n"] == 1
        workspace.eps_graph(8.0)  # larger radius: one rebuild
        workspace.eps_graph(5.0)
        assert calls["n"] == 2


class TestCountsAndLabels:
    def test_counts_match_streaming_route(self, workspace):
        eps_values = np.array([2.0, 5.0, 9.0])
        expected = neighborhood_size_counts(
            workspace.segments(), eps_values, workspace.config.distance()
        )
        assert np.array_equal(workspace.entropy_counts(eps_values), expected)

    def test_labels_match_fit_bitwise(self, trajectories, workspace):
        for eps, min_lns in ((4.0, 3.0), (7.0, 5.0)):
            assert np.array_equal(
                workspace.labels(eps, min_lns),
                brute_labels(trajectories, eps, min_lns),
            )

    def test_labels_cache_short_circuits_engine(self, workspace, monkeypatch):
        eps_values, min_lns_values = [3.0, 6.0], [3.0, 4.0]
        first = workspace.labels_grid(eps_values, min_lns_values)

        def exploding(self, *args, **kwargs):
            raise AssertionError("labels served from cache must not walk")

        monkeypatch.setattr(SweepEngine, "labels_grid", exploding)
        second = workspace.labels_grid(eps_values, min_lns_values)
        assert second is first

    def test_cardinality_threshold_override(self, workspace, trajectories):
        pinned = workspace.labels_grid([5.0], [4.0], cardinality_threshold=2.0)
        default = workspace.labels_grid([5.0], [4.0])
        assert np.array_equal(
            pinned[0, 0],
            brute_labels(trajectories, 5.0, 4.0, cardinality_threshold=2.0),
        )
        assert default.shape == pinned.shape

    def test_returned_labels_are_read_only(self, workspace):
        labels = workspace.labels(5.0, 3.0)
        with pytest.raises(ValueError):
            labels[0] = 7

    def test_single_point_served_from_covering_grid(
        self, workspace, monkeypatch
    ):
        """labels()/quality() at a point inside an already-materialised
        grid slice it instead of walking a one-cell column."""
        grid = workspace.labels_grid([3.0, 5.0, 7.0], [3.0, 4.0])

        def exploding(self, *args, **kwargs):
            raise AssertionError("covered point must not re-walk")

        monkeypatch.setattr(SweepEngine, "labels_grid", exploding)
        point = workspace.labels(5.0, 4.0)
        assert np.array_equal(point, grid[1, 1])


class TestPersistence:
    def test_disk_round_trip_bitwise(self, trajectories, tmp_path):
        """Cold process computes, warm process loads: labels,
        characteristic points, counts, quality — all exact."""
        config = TraclusConfig(compute_representatives=False)
        eps_grid = np.arange(1.0, 10.0)
        cold = Workspace(trajectories, config, cache_dir=str(tmp_path))
        cold_counts = cold.entropy_counts(eps_grid)
        cold_labels = cold.labels_grid([3.0, 6.0], [3.0, 4.0])
        cold_cps = cold.characteristic_points()
        cold_quality = cold.quality(6.0, 3.0)

        warm = Workspace(trajectories, config, cache_dir=str(tmp_path))
        assert np.array_equal(warm.entropy_counts(eps_grid), cold_counts)
        assert np.array_equal(
            warm.labels_grid([3.0, 6.0], [3.0, 4.0]), cold_labels
        )
        assert warm.characteristic_points() == cold_cps
        warm_quality = warm.quality(6.0, 3.0)
        assert warm_quality.total_sse == cold_quality.total_sse
        assert warm_quality.noise_penalty == cold_quality.noise_penalty
        assert warm.stats.builds == {}  # nothing recomputed
        assert warm.stats.disk_hits >= 4

    def test_representatives_round_trip(self, trajectories, tmp_path):
        config = TraclusConfig()
        cold = Workspace(trajectories, config, cache_dir=str(tmp_path))
        cold_reps = cold.representatives(6.0, 3.0)
        warm = Workspace(trajectories, config, cache_dir=str(tmp_path))
        warm_reps = warm.representatives(6.0, 3.0)
        assert warm.stats.build_count("representatives") == 0
        assert len(cold_reps) == len(warm_reps)
        for a, b in zip(cold_reps, warm_reps):
            assert np.array_equal(a.member_indices, b.member_indices)
            assert np.array_equal(
                a.representative.view(np.uint8),
                b.representative.view(np.uint8),
            )

    def test_config_change_misses_cache(self, trajectories, tmp_path):
        cold = Workspace(
            trajectories, TraclusConfig(), cache_dir=str(tmp_path)
        )
        cold.labels(5.0, 3.0)
        other = Workspace(
            trajectories, TraclusConfig(w_theta=2.0),
            cache_dir=str(tmp_path),
        )
        other.labels(5.0, 3.0)
        # New distance weights: the graph and labels must be rebuilt.
        assert other.stats.build_count("graph") == 1
        assert other.stats.build_count("labels") == 1

    def test_partition_missing_a_member_is_rebuilt(
        self, trajectories, tmp_path
    ):
        """A partition npz that lacks a member its decoder reads (cut
        short, or written by another version) is a miss: the artifact
        is rebuilt and saved over the file."""
        config = TraclusConfig(
            eps=6.0, min_lns=3.0, compute_representatives=False
        )
        Workspace(trajectories, config, cache_dir=str(tmp_path)).partition()
        [path] = tmp_path.glob("partition-*.npz")
        with np.load(path) as archive:
            kept = {
                name: archive[name]
                for name in archive.files if name != "cps_offsets"
            }
        np.savez(path, **kept)

        damaged = Workspace(trajectories, config, cache_dir=str(tmp_path))
        result = damaged.fit()
        fresh = Workspace(trajectories, config).fit()
        assert np.array_equal(result.labels, fresh.labels)
        assert result.characteristic_points == fresh.characteristic_points
        assert damaged.stats.build_count("partition") == 1
        warm = Workspace(trajectories, config, cache_dir=str(tmp_path))
        assert warm.characteristic_points() == fresh.characteristic_points
        assert warm.stats.builds == {}

    @pytest.mark.parametrize("damaged", [False, True])
    def test_disk_hit_is_counted_once_decoded(self, tmp_path, damaged):
        """A partition npz its decoder rejects counts one miss, not a
        hit (then a build); an intact one counts one hit."""
        trajectories = generate_corridor_set(n_trajectories=6, seed=40)
        Workspace(trajectories, cache_dir=str(tmp_path)).partition()
        [path] = tmp_path.glob("partition-*.npz")
        if damaged:
            with np.load(path) as archive:
                kept = {
                    name: archive[name]
                    for name in archive.files if name != "cps_offsets"
                }
            np.savez(path, **kept)
        metrics = MetricsRegistry()
        fresh = Workspace(
            trajectories, cache_dir=str(tmp_path), metrics=metrics
        )
        fresh.partition()
        hits, misses = (0, 1) if damaged else (1, 0)
        assert (fresh.stats.disk_hits, fresh.stats.misses) == (hits, misses)
        assert fresh.stats.builds == ({"partition": 1} if damaged else {})
        lookups = {
            dict(labels)["outcome"]: value
            for key, value in metrics.snapshot()["series"].items()
            for name, labels in [json.loads(key)]
            if name == "repro_cache_lookups_total"
            and dict(labels)["tier"] == "disk"
        }
        assert lookups == {"hit": hits, "miss": misses}

    def test_build_seconds_share_one_clock(self, trajectories, tmp_path):
        """One cold build per kind: each saved artifact's
        ``build_seconds`` meta is the very float the session counters
        recorded for that build."""
        ws = Workspace(trajectories, TraclusConfig(), cache_dir=str(tmp_path))
        ws.entropy_counts([3.0, 6.0])
        ws.quality(6.0, 3.0)
        ws.representatives(6.0, 3.0)
        metas = {row["kind"]: row["meta"] for row in ws.artifact_entries()}
        assert sorted(metas) == sorted(ARTIFACT_KINDS)
        for kind in ARTIFACT_KINDS:
            assert ws.stats.builds[kind] == 1, kind
            assert metas[kind]["build_seconds"] == (
                ws.stats.build_seconds[kind]
            ), kind


class TestSingleGraphBuild:
    def test_fig17_style_grid_builds_one_graph(self, trajectories):
        """The acceptance criterion: parameter estimate + QMeasure grid
        + entropy curve over one workspace = exactly one ε-graph build,
        and a warm re-run performs zero additional builds."""
        ws = Workspace(
            trajectories, TraclusConfig(compute_representatives=False)
        )
        estimate = ws.recommend_parameters(np.arange(1.0, 13.0))
        eps_star = min(estimate.eps, 10.0)
        eps_values = [eps_star - 1.0, eps_star, eps_star + 1.0]
        ws.labels_grid(eps_values, [3.0, 4.0])
        for eps in eps_values:
            ws.quality(eps, 3.0)
        ws.entropy_curve(np.arange(1.0, 13.0))
        assert ws.graph_builds() == 1
        before = dict(ws.stats.builds)
        # Warm re-run of the whole grid: zero additional builds of any
        # kind (memory hits all the way down).
        ws.recommend_parameters(np.arange(1.0, 13.0))
        ws.labels_grid(eps_values, [3.0, 4.0])
        for eps in eps_values:
            ws.quality(eps, 3.0)
        assert ws.stats.builds == before

    def test_sweep_and_fit_share_the_graph(self, trajectories):
        config = TraclusConfig(
            eps=5.0, min_lns=3.0, compute_representatives=False
        )
        ws = Workspace(trajectories, config)
        ws.sweep(SweepConfig(eps_values=[3.0, 6.0], min_lns_values=[3.0]))
        ws.fit()  # eps=5 <= 6: served by the sweep's graph
        assert ws.graph_builds() == 1


class TestFacades:
    def test_traclus_fit_equals_workspace_fit(self, trajectories):
        config = TraclusConfig(eps=5.0, min_lns=3.0)
        wrapped = TRACLUS(config).fit(trajectories)
        direct = Workspace(trajectories, config).fit()
        assert np.array_equal(wrapped.labels, direct.labels)
        assert wrapped.parameters == direct.parameters

    def test_traclus_sweep_equals_sweep_engine(self, trajectories):
        config = TraclusConfig(compute_representatives=False)
        sweep = SweepConfig(eps_values=[3.0, 6.0], min_lns_values=[3.0, 4.0])
        wrapped = TRACLUS(config).sweep(trajectories, sweep)
        segments, _ = partition_all(trajectories)
        engine = SweepEngine(segments, sweep.eps_values, config.distance())
        entropies, _ = engine.entropy_curve()
        assert np.array_equal(
            wrapped.labels, engine.labels_grid(sweep.min_lns_values)
        )
        assert np.array_equal(
            wrapped.neighborhood_counts, engine.neighborhood_counts()
        )
        assert np.array_equal(
            wrapped.entropies.view(np.uint8), entropies.view(np.uint8)
        )
        assert wrapped.n_graph_edges == engine.n_edges

    def test_traclus_memoizes_workspace_across_calls(self, trajectories):
        """fit then sweep on one TRACLUS instance shares the session
        workspace: the graph from the sweep serves the fit."""
        t = TRACLUS(TraclusConfig(
            eps=5.0, min_lns=3.0, compute_representatives=False
        ))
        t.sweep(
            trajectories,
            SweepConfig(eps_values=[3.0, 6.0], min_lns_values=[3.0]),
        )
        ws = t._workspace(trajectories)
        builds_after_sweep = ws.graph_builds()
        t.fit(trajectories)  # eps=5 <= 6: no new build, same workspace
        assert t._workspace(trajectories) is ws
        assert ws.graph_builds() == builds_after_sweep == 1


class TestBindingErrors:
    def test_requires_exactly_one_binding(self, trajectories):
        with pytest.raises(WorkspaceError):
            Workspace()
        with pytest.raises(WorkspaceError):
            Workspace(trajectories, _segments=Workspace)  # both given

    def test_segment_bound_rejects_fit_and_sweep(self, random_segments):
        ws = Workspace.from_segments(random_segments)
        with pytest.raises(WorkspaceError):
            ws.fit()
        with pytest.raises(WorkspaceError):
            ws.sweep(SweepConfig(eps_values=[1.0], min_lns_values=[2.0]))
