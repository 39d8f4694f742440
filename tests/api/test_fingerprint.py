"""Fingerprint keys: invalidation on what matters, stability on what
does not."""

import numpy as np
import pytest

from repro.api.fingerprint import (
    artifact_key,
    corpus_fingerprint,
    segments_fingerprint,
)
from repro.api.workspace import Workspace
from repro.core.config import TraclusConfig
from repro.model.trajectory import Trajectory


@pytest.fixture
def trajectories(corridor_trajectories):
    return corridor_trajectories


class TestCorpusFingerprint:
    def test_deterministic(self, trajectories):
        assert corpus_fingerprint(trajectories) == corpus_fingerprint(
            trajectories
        )

    def test_point_bits_matter(self, trajectories):
        moved = [
            Trajectory(t.points.copy(), traj_id=t.traj_id)
            for t in trajectories
        ]
        bumped = moved[0].points.copy()
        bumped[3, 0] = np.nextafter(bumped[3, 0], np.inf)
        moved[0] = Trajectory(bumped, traj_id=moved[0].traj_id)
        assert corpus_fingerprint(moved) != corpus_fingerprint(trajectories)

    def test_ids_weights_times_matter(self, trajectories):
        base = corpus_fingerprint(trajectories)
        reid = list(trajectories)
        reid[0] = Trajectory(reid[0].points, traj_id=999)
        assert corpus_fingerprint(reid) != base
        reweighted = list(trajectories)
        reweighted[0] = Trajectory(
            reweighted[0].points, traj_id=reweighted[0].traj_id, weight=2.0
        )
        assert corpus_fingerprint(reweighted) != base
        timed = list(trajectories)
        timed[0] = Trajectory(
            timed[0].points, traj_id=timed[0].traj_id,
            times=np.arange(float(len(timed[0]))),
        )
        assert corpus_fingerprint(timed) != base

    def test_order_matters(self, trajectories):
        assert corpus_fingerprint(trajectories[::-1]) != corpus_fingerprint(
            trajectories
        )

    def test_segment_fingerprint_tracks_columns(self, random_segments):
        base = segments_fingerprint(random_segments)
        assert base == segments_fingerprint(random_segments)
        subset = random_segments.subset(range(len(random_segments) - 1))
        assert segments_fingerprint(subset) != base


class TestArtifactKey:
    def test_float_bits_distinguished(self):
        a = artifact_key(["labels", 30.0])
        b = artifact_key(["labels", np.nextafter(30.0, np.inf)])
        assert a != b

    def test_none_distinct_from_zero_and_string(self):
        assert artifact_key([None]) != artifact_key([0.0])
        assert artifact_key([None]) != artifact_key(["none"])

    def test_array_dtype_and_shape_matter(self):
        ints = np.array([1, 2, 3], dtype=np.int64)
        floats = ints.astype(np.float64)
        assert artifact_key([ints]) != artifact_key([floats])
        assert artifact_key([ints.reshape(3, 1)]) != artifact_key([ints])


class TestWorkspaceKeyInvalidation:
    """Changing a result-affecting config field must change the keys of
    the artifacts it can affect — and only those."""

    def _keys(self, trajectories, config):
        ws = Workspace(trajectories, config)
        eps = np.array([5.0])
        min_lns = np.array([3.0])
        return {
            "partition": ws._partition_key(),
            "graph": ws._graph_key(),
            "counts": ws._counts_key(eps),
            "labels": ws._labels_key(
                eps, min_lns, config.cardinality_threshold
            ),
        }

    def test_suppression_invalidates_everything(self, trajectories):
        base = self._keys(trajectories, TraclusConfig())
        changed = self._keys(trajectories, TraclusConfig(suppression=1.0))
        for kind in base:
            assert base[kind] != changed[kind], kind

    def test_distance_weights_keep_partition(self, trajectories):
        base = self._keys(trajectories, TraclusConfig())
        changed = self._keys(trajectories, TraclusConfig(w_theta=2.0))
        assert base["partition"] == changed["partition"]
        for kind in ("graph", "counts", "labels"):
            assert base[kind] != changed[kind], kind
        undirected = self._keys(trajectories, TraclusConfig(directed=False))
        assert base["partition"] == undirected["partition"]
        assert base["graph"] != undirected["graph"]

    def test_use_weights_and_threshold_touch_labels_only(self, trajectories):
        base = self._keys(trajectories, TraclusConfig())
        weighted = self._keys(trajectories, TraclusConfig(use_weights=True))
        pinned = self._keys(
            trajectories, TraclusConfig(cardinality_threshold=2.0)
        )
        for kind in ("partition", "graph", "counts"):
            assert base[kind] == weighted[kind] == pinned[kind], kind
        assert base["labels"] != weighted["labels"]
        assert base["labels"] != pinned["labels"]

    def test_grids_key_counts_and_labels(self, trajectories):
        ws = Workspace(trajectories, TraclusConfig())
        assert ws._counts_key(np.array([5.0])) != ws._counts_key(
            np.array([6.0])
        )
        assert ws._labels_key(
            np.array([5.0]), np.array([3.0]), None
        ) != ws._labels_key(np.array([5.0]), np.array([4.0]), None)
