"""The sqlite artifact catalog: sync from the npz files, canned
queries, raw-SQL guard, rebuild convergence, and the zero-payload-load
analytics contract."""

import json
import os
import sqlite3
from contextlib import closing, contextmanager

import numpy as np
import pytest
from numpy.lib.npyio import NpzFile

from repro.api.cache import ArtifactStore
from repro.api.catalog import CANNED_QUERIES, CATALOG_FILENAME, Catalog
from repro.api.workspace import Workspace
from repro.cli import main, run_workspace_query
from repro.core.config import TraclusConfig
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import CatalogError, WorkspaceError
from repro.io.artifacts import save_artifact
from repro.obs import MetricsRegistry


def _save(store, kind, key, meta, size=64):
    store.save_arrays(
        kind, key, {"x": np.zeros(size, dtype=np.int64)}, meta
    )


def _labels_meta(corpus, cells, n_segments=40):
    return {
        "kind": "labels",
        "corpus": corpus,
        "n_segments": n_segments,
        "cells": cells,
    }


@pytest.fixture
def catalog(tmp_path):
    with closing(Catalog(str(tmp_path))) as opened:
        yield opened


@contextmanager
def decoded_members():
    """Record the name of every npz member decoded inside the block."""
    names = set()
    original = NpzFile.__getitem__

    def recording(archive, name):
        names.add(name)
        return original(archive, name)

    NpzFile.__getitem__ = recording
    try:
        yield names
    finally:
        NpzFile.__getitem__ = original


class TestIndexing:
    def test_query_indexes_saved_file(self, tmp_path, catalog):
        store = ArtifactStore(str(tmp_path))
        _save(store, "graph", "abc", {
            "kind": "graph", "corpus": "fp1", "eps": 5.0,
            "build_seconds": 0.25,
        })
        rows = catalog.query("artifacts")
        assert len(rows) == 1
        row = rows[0]
        assert row["file"] == "graph-abc.npz"
        assert row["kind"] == "graph" and row["key"] == "abc"
        assert row["corpus"] == "fp1" and row["eps"] == 5.0
        assert row["bytes"] == os.path.getsize(store.path("graph", "abc"))
        assert row["build_seconds"] == 0.25

    def test_eviction_drops_rows(self, tmp_path, catalog):
        store = ArtifactStore(str(tmp_path))
        _save(store, "labels", "k0", _labels_meta("fp1", [[5.0, 3.0, 2, 8]]))
        _save(store, "labels", "k1", _labels_meta("fp1", [[6.0, 3.0, 1, 9]]))
        assert len(catalog.query("cells")) == 2
        store.max_disk_bytes = 1
        store.enforce_disk_budget()
        assert catalog.query("cells") == []
        assert catalog.files() == set()

    def test_cells_rows_from_labels_meta(self, tmp_path, catalog):
        store = ArtifactStore(str(tmp_path))
        _save(store, "labels", "k0", _labels_meta(
            "fp1", [[5.0, 3.0, 2, 8], [6.0, 3.0, 0, 40]]
        ))
        cells = catalog.query("cells")
        assert len(cells) == 2
        assert cells[0]["n_clusters"] == 2
        assert cells[0]["noise_fraction"] == pytest.approx(8 / 40)
        clustered = catalog.query("cells", min_clusters=1)
        assert [c["eps"] for c in clustered] == [5.0]
        quiet = catalog.query("cells", max_noise=0.5)
        assert [c["eps"] for c in quiet] == [5.0]

    @pytest.mark.parametrize("quality_first", [False, True])
    def test_quality_joins_cells_in_either_order(
        self, tmp_path, catalog, quality_first
    ):
        """QMeasure lands on the grid cell whichever artifact is saved
        second, with a query (a sync) between the two saves."""
        store = ArtifactStore(str(tmp_path))
        quality_meta = {
            "kind": "quality", "corpus": "fp1",
            "eps": 5.0, "min_lns": 3.0, "qmeasure": 123.5,
        }
        labels_meta = _labels_meta("fp1", [[5.0, 3.0, 2, 8]])
        saves = [("labels", "k0", labels_meta), ("quality", "q0", quality_meta)]
        if quality_first:
            saves.reverse()
        for kind, key, meta in saves:
            _save(store, kind, key, meta)
            catalog.query("artifacts")
        cells = catalog.query("cells")
        assert [c["qmeasure"] for c in cells] == [123.5]

    def test_cell_loses_qmeasure_with_its_quality_file(
        self, tmp_path, catalog
    ):
        """A quality artifact the budget evicts takes its QMeasure off
        the grid cell, as a rebuild from the files would."""
        store = ArtifactStore(str(tmp_path))
        _save(store, "labels", "k0", _labels_meta("fp1", [[5.0, 3.0, 2, 8]]))
        _save(store, "quality", "q0", {
            "kind": "quality", "corpus": "fp1",
            "eps": 5.0, "min_lns": 3.0, "qmeasure": 9.25,
        }, size=4096)
        assert [c["qmeasure"] for c in catalog.query("cells")] == [9.25]
        quality = store.path("quality", "q0")
        os.utime(quality, (1_000_000_000, 1_000_000_000))  # the coldest
        store.max_disk_bytes = os.path.getsize(store.path("labels", "k0"))
        assert store.enforce_disk_budget() == 1
        assert not os.path.exists(quality)
        assert [c["qmeasure"] for c in catalog.query("cells")] == [None]
        synced = catalog.sql("SELECT * FROM cells")
        catalog.rebuild()
        assert catalog.sql("SELECT * FROM cells") == synced

    def test_register_corpus_merges_and_skips_noop_writes(self, tmp_path):
        catalog = Catalog(str(tmp_path))
        catalog.register_corpus("fp1", n_trajectories=10)
        catalog.register_corpus("fp1", name="brumby")
        row = catalog.query("corpora")[0]
        assert row["name"] == "brumby" and row["n_trajectories"] == 10
        first_last_seen = catalog.sql(
            "SELECT last_seen FROM corpora WHERE fingerprint='fp1'"
        )[0]["last_seen"]
        # Re-registering identical facts changes no row — last_seen
        # records metadata changes only.
        catalog.register_corpus("fp1", name="brumby", n_trajectories=10)
        again = catalog.sql(
            "SELECT last_seen FROM corpora WHERE fingerprint='fp1'"
        )[0]["last_seen"]
        assert again == first_last_seen
        catalog.close()

    def test_metrics_counters(self, tmp_path):
        registry = MetricsRegistry()
        store = ArtifactStore(str(tmp_path))
        _save(store, "graph", "abc", {"kind": "graph"})
        with closing(Catalog(str(tmp_path), metrics=registry)) as catalog:
            catalog.query("artifacts")
        ops = {}
        for key, value in registry.snapshot()["series"].items():
            name, labels = json.loads(key)
            if name == "repro_catalog_ops_total":
                ops[dict(labels)["op"]] = value
        assert ops["index"] >= 1
        assert ops["query"] >= 1


class TestStoreWritesNoCatalog:
    def test_save_load_and_evict_never_create_the_catalog(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_disk_bytes=2000)
        for i in range(4):
            _save(store, "labels", f"k{i}", _labels_meta(
                "fp1", [[5.0, 3.0, i, 8]]
            ))
        assert store.load_arrays("labels", "k3") is not None
        assert store.stats.disk_evictions > 0
        assert [e["key"] for e in store.entries()] == ["k3"]
        assert not [
            name for name in os.listdir(tmp_path)
            if name.startswith(CATALOG_FILENAME)
        ]

    def test_budget_evicts_a_file_written_around_the_store(self, tmp_path):
        """Every npz in the directory is an eviction candidate, also one
        that another process wrote (or a crash left) outside this
        store."""
        store = ArtifactStore(str(tmp_path), max_disk_bytes=20_000)
        around = os.path.join(str(tmp_path), "graph-around.npz")
        save_artifact(around, {"x": np.zeros(2000)}, {"kind": "graph"})
        os.utime(around, (1_000_000_000, 1_000_000_000))  # the coldest
        _save(store, "labels", "k0", _labels_meta("fp1", []), size=1500)
        assert not os.path.exists(around)
        assert store.disk_bytes() <= 20_000
        assert [e["key"] for e in store.entries()] == ["k0"]


class TestQuerySurface:
    def test_canned_query_names_exported(self):
        assert CANNED_QUERIES == ("artifacts", "cells", "corpora", "kinds")

    def test_unknown_query_and_filter_rejected(self, tmp_path):
        catalog = Catalog(str(tmp_path))
        with pytest.raises(CatalogError, match="unknown canned query"):
            catalog.query("bogus")
        with pytest.raises(CatalogError, match="does not accept"):
            catalog.query("kinds", eps=5.0)
        catalog.close()

    def test_corpus_filter_matches_fingerprint_or_name(
        self, tmp_path, catalog
    ):
        store = ArtifactStore(str(tmp_path))
        _save(store, "labels", "k0", _labels_meta("fp1", [[5.0, 3.0, 2, 8]]))
        catalog.register_corpus("fp1", name="brumby")
        for spelling in ("fp1", "brumby"):
            cells = catalog.query("cells", corpus=spelling)
            assert len(cells) == 1
            assert cells[0]["corpus_name"] == "brumby"
        assert catalog.query("cells", corpus="absent") == []

    def test_limit(self, tmp_path, catalog):
        store = ArtifactStore(str(tmp_path))
        for i in range(5):
            _save(store, "graph", f"k{i}", {"kind": "graph"})
        assert len(catalog.query("artifacts", limit=2)) == 2

    def test_raw_sql_guard(self, tmp_path):
        catalog = Catalog(str(tmp_path))
        rows = catalog.sql("SELECT COUNT(*) AS n FROM artifacts")
        assert rows == [{"n": 0}]
        rows = catalog.sql(
            "WITH x AS (SELECT 1 AS v) SELECT v FROM x;"
        )
        assert rows == [{"v": 1}]
        with pytest.raises(CatalogError, match="read-only"):
            catalog.sql("DELETE FROM artifacts")
        with pytest.raises(CatalogError, match="read-only"):
            catalog.sql("PRAGMA user_version=9")
        with pytest.raises(CatalogError, match="one statement"):
            catalog.sql("SELECT 1; SELECT 2")
        with pytest.raises(CatalogError, match="one statement"):
            catalog.sql("   ")
        # Even a SELECT-shaped writer dies on the mode=ro connection.
        with pytest.raises(CatalogError, match="raw SQL failed"):
            catalog.sql(
                "SELECT * FROM artifacts WHERE file IN "
                "(SELECT file FROM missing_table)"
            )
        catalog.close()


class TestRecovery:
    def _store_with_artifacts(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        _save(store, "labels", "k0", _labels_meta(
            "fp1", [[5.0, 3.0, 2, 8], [6.0, 3.0, 1, 12]]
        ))
        _save(store, "graph", "g0", {
            "kind": "graph", "corpus": "fp1", "eps": 5.0,
            "build_seconds": 0.5,
        })
        _save(store, "quality", "q0", {
            "kind": "quality", "corpus": "fp1",
            "eps": 5.0, "min_lns": 3.0, "qmeasure": 9.25,
        })
        return store

    def _dump(self, path):
        conn = sqlite3.connect(os.path.join(path, CATALOG_FILENAME))
        try:
            artifacts = conn.execute(
                "SELECT file, kind, key, corpus, bytes, mtime,"
                " build_seconds, eps, min_lns, qmeasure, meta"
                " FROM artifacts ORDER BY file"
            ).fetchall()
            cells = conn.execute(
                "SELECT * FROM cells ORDER BY file, eps, min_lns"
            ).fetchall()
        finally:
            conn.close()
        return artifacts, cells

    def _synced_dump(self, path):
        with closing(Catalog(str(path))) as catalog:
            catalog.query("artifacts")
        return self._dump(str(path))

    def test_rebuild_converges_to_synced_rows(self, tmp_path, catalog):
        self._store_with_artifacts(tmp_path)
        catalog.query("artifacts")
        before = self._dump(str(tmp_path))
        assert catalog.rebuild() == 3
        assert self._dump(str(tmp_path)) == before

    def test_deleted_catalog_is_rederived_at_the_next_query(self, tmp_path):
        self._store_with_artifacts(tmp_path)
        before = self._synced_dump(tmp_path)
        for name in os.listdir(tmp_path):
            if name.startswith(CATALOG_FILENAME):
                os.unlink(tmp_path / name)
        assert self._synced_dump(tmp_path) == before
        with closing(Catalog(str(tmp_path))) as catalog:
            cells = catalog.query("cells", min_clusters=1)
        assert [c["qmeasure"] for c in cells] == [9.25, None]

    def test_torn_catalog_recovers_on_schema_mismatch(self, tmp_path):
        self._store_with_artifacts(tmp_path)
        before = self._synced_dump(tmp_path)
        db = os.path.join(tmp_path, CATALOG_FILENAME)
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version=999")
        conn.execute("DELETE FROM cells")  # simulate a torn write
        conn.commit()
        conn.close()
        assert self._synced_dump(tmp_path) == before

    def test_wal_catalog_of_an_earlier_version_keeps_working(self, tmp_path):
        """A catalog an earlier version left in WAL mode, at its schema
        version, is re-derived in place and stays in WAL mode."""
        self._store_with_artifacts(tmp_path)
        before = self._synced_dump(tmp_path)
        os.unlink(tmp_path / CATALOG_FILENAME)
        conn = sqlite3.connect(os.path.join(tmp_path, CATALOG_FILENAME))
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("CREATE TABLE artifacts (file TEXT PRIMARY KEY)")
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        assert self._synced_dump(tmp_path) == before
        with closing(Catalog(str(tmp_path))) as catalog:
            assert catalog.sql("SELECT * FROM pragma_journal_mode") == [
                {"journal_mode": "wal"}
            ]

    def test_unreadable_db_leaves_the_store_working(self, tmp_path):
        """A catalog that is not a database: the store still saves and
        lists, and a query fails with one CatalogError."""
        with open(tmp_path / CATALOG_FILENAME, "wb") as handle:
            handle.write(b"this is not a sqlite database at all\n" * 4)
        store = ArtifactStore(str(tmp_path))
        _save(store, "graph", "k0", {"kind": "graph"})
        assert [e["kind"] for e in store.entries()] == ["graph"]
        with pytest.raises(CatalogError, match="catalog unavailable"):
            run_workspace_query(str(tmp_path), "artifacts")


class TestWorkspaceSurface:
    def test_memory_only_workspace_has_no_catalog(self):
        trajectories = generate_corridor_set(n_trajectories=4, seed=7)
        workspace = Workspace(trajectories, TraclusConfig())
        with pytest.raises(WorkspaceError, match="memory-only"):
            workspace.catalog()

    def test_catalog_reflects_builds(self, tmp_path):
        trajectories = generate_corridor_set(n_trajectories=6, seed=40)
        workspace = Workspace(
            trajectories,
            TraclusConfig(compute_representatives=False),
            cache_dir=str(tmp_path),
        )
        workspace.labels_grid([4.0, 5.0], [3.0])
        with closing(workspace.catalog()) as catalog:
            kinds = {row["kind"] for row in catalog.query("kinds")}
            assert {"partition", "graph", "labels"} <= kinds
            cells = catalog.query("cells")
            assert len(cells) == 2
            assert {c["eps"] for c in cells} == {4.0, 5.0}
            corpora = catalog.query("corpora")
        assert [c["fingerprint"] for c in corpora] == [workspace.corpus_key]
        assert corpora[0]["n_trajectories"] == 6
        assert corpora[0]["n_segments"] == len(workspace.segments())

    def test_cells_join_quality_of_their_own_setting(self, tmp_path):
        """One corpus cached under two distance weightings: each labels
        grid's cell carries the QMeasure of its own weighting, not of
        whichever quality artifact of that (ε, MinLns) landed last."""
        trajectories = generate_corridor_set(n_trajectories=8, seed=41)
        expected = {}
        for w_theta in (1.0, 3.0):
            workspace = Workspace(
                trajectories,
                TraclusConfig(w_theta=w_theta, compute_representatives=False),
                cache_dir=str(tmp_path),
            )
            workspace.labels_grid([5.0], [3.0])
            [labels] = [
                entry["file"] for entry in workspace.artifact_entries()
                if entry["kind"] == "labels" and entry["file"] not in expected
            ]
            expected[labels] = workspace.quality(5.0, 3.0).qmeasure
        assert expected[min(expected)] != expected[max(expected)]
        with closing(Catalog(str(tmp_path))) as catalog:
            cells = catalog.query("cells")
            assert {c["file"]: c["qmeasure"] for c in cells} == expected
            synced = catalog.sql("SELECT * FROM cells")
            catalog.rebuild()
            assert catalog.sql("SELECT * FROM cells") == synced


class TestCrossCorpusAcceptance:
    def test_query_answers_without_payload_loads(self, tmp_path, capsys):
        """The warehouse's acceptance bar: ``repro workspace query
        --min-clusters 3`` answers a cross-corpus question over three
        cached corpora from the catalog alone — syncing it decodes no
        npz member but ``__meta__``."""
        ws_dir = str(tmp_path / "ws")
        keys = {}
        for i in range(3):
            trajectories = generate_corridor_set(
                n_trajectories=6, seed=40 + i
            )
            workspace = Workspace(
                trajectories,
                TraclusConfig(compute_representatives=False),
                cache_dir=ws_dir,
            )
            workspace.labels_grid([4.0, 5.0], [3.0, 4.0])
            keys[f"c{i}"] = workspace.corpus_key
        assert len(set(keys.values())) == 3

        with decoded_members() as members:
            rows = run_workspace_query(ws_dir, "cells", {"min_clusters": 1})
            assert run_workspace_query(
                ws_dir, "cells", {"min_clusters": 1}
            ) == rows
        assert members == {"__meta__"}
        assert len(rows) > 0
        assert len({row["corpus"] for row in rows}) >= 2
        assert all(row["n_clusters"] >= 1 for row in rows)

        # Same answer through the real CLI surface.
        assert main([
            "workspace", "query", ws_dir, "--min-clusters", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert f"({len(rows)} rows)" in out
