"""Artifact store: exact npz round trips, ragged packing, inspection."""

import gc
import os
import warnings

import numpy as np
import pytest

from repro.api.cache import ArtifactStore
from repro.exceptions import ReproError
from repro.io.artifacts import (
    DAMAGED_NPZ_ERRORS,
    load_artifact,
    load_artifact_meta,
    pack_ragged,
    save_artifact,
    unpack_ragged,
)


class TestRagged:
    def test_round_trip(self):
        rows = [[0, 3, 9], [], [7], [1, 2, 3, 4]]
        flat, offsets = pack_ragged(rows)
        back = [list(map(int, row)) for row in unpack_ragged(flat, offsets)]
        assert back == rows

    def test_empty(self):
        flat, offsets = pack_ragged([])
        assert flat.size == 0 and offsets.tolist() == [0]
        assert unpack_ragged(flat, offsets) == []


class TestNpzRoundTrip:
    def test_bitwise_floats_and_ints(self, tmp_path):
        """The cache contract: every stored dtype comes back bit for
        bit — subnormals, -0.0, nextafter neighbours, int64 extremes."""
        path = str(tmp_path / "artifact.npz")
        arrays = {
            "floats": np.array(
                [0.0, -0.0, 5e-324, np.nextafter(30.0, np.inf),
                 1e308, -1e-308],
                dtype=np.float64,
            ),
            "labels": np.array(
                [-1, 0, 2**62, -(2**62)], dtype=np.int64
            ),
            "counts": np.arange(12, dtype=np.int64).reshape(3, 4),
            "matrix": np.linspace(0, 1, 6).reshape(2, 3),
        }
        save_artifact(path, arrays, {"kind": "test", "eps": 30.0})
        loaded, meta = load_artifact(path)
        assert meta == {"kind": "test", "eps": 30.0}
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert np.array_equal(
                loaded[name].view(np.uint8), array.view(np.uint8)
            ), name

    def test_meta_key_reserved(self, tmp_path):
        with pytest.raises(ReproError):
            save_artifact(
                str(tmp_path / "x.npz"), {"__meta__": np.zeros(1)}, {}
            )

    def test_no_partial_file_on_replace(self, tmp_path):
        """Writes go through rename: after a successful save there is
        exactly the final file, no temp residue."""
        path = str(tmp_path / "artifact.npz")
        save_artifact(path, {"a": np.zeros(4)}, {})
        save_artifact(path, {"a": np.ones(4)}, {})
        assert sorted(os.listdir(tmp_path)) == ["artifact.npz"]
        loaded, _ = load_artifact(path)
        assert np.array_equal(loaded["a"], np.ones(4))


    @pytest.mark.parametrize("reader", [load_artifact, load_artifact_meta])
    def test_truncated_file_is_closed(self, tmp_path, reader):
        """The read of a half-written npz raises and leaves no file
        handle open behind it."""
        path = str(tmp_path / "artifact.npz")
        save_artifact(path, {"a": np.arange(4096.0)}, {"kind": "test"})
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DAMAGED_NPZ_ERRORS):
                reader(path)
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


class TestArtifactStore:
    def test_memory_only_store_never_touches_disk(self):
        """A memory-only workspace has no disk tier, so lookups must
        not count as disk misses (regression: every lookup used to
        inflate ``misses`` and skew warm-hit-rate metrics)."""
        store = ArtifactStore(None)
        assert store.load_arrays("labels", "abc") is None
        store.save_arrays("labels", "abc", {"x": np.zeros(2)}, {})
        assert store.entries() == []
        assert store.stats.misses == 0

    def test_disk_miss_still_counted(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.load_arrays("labels", "absent") is None
        assert store.stats.misses == 1

    def test_disk_round_trip_and_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_arrays(
            "labels", "deadbeef", {"labels": np.arange(5)},
            {"kind": "labels", "grid": [1, 1]},
        )
        store.save_arrays(
            "graph", "cafe", {"indptr": np.zeros(3, dtype=np.int64)},
            {"kind": "graph", "eps": 9.0},
        )
        loaded = store.load_arrays("labels", "deadbeef")
        assert loaded is not None
        assert np.array_equal(loaded[0]["labels"], np.arange(5))
        entries = store.entries()
        # Pipeline-stage order: graph before labels.
        assert [entry["kind"] for entry in entries] == ["graph", "labels"]
        assert entries[0]["meta"]["eps"] == 9.0
        assert store.stats.disk_hits == 1

    def test_object_layer_counts_hits(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get_object("graph", "k") is None
        store.put_object("graph", "k", object())
        assert store.get_object("graph", "k") is not None
        assert store.stats.memory_hits == 1
        store.drop_objects("graph")
        assert store.get_object("graph", "k") is None


class TestObjectTierLRU:
    def test_cap_honored_after_insert(self):
        store = ArtifactStore(None)
        for i in range(store.MAX_OBJECTS_PER_KIND + 4):
            store.put_object("labels", f"k{i}", i)
        held = [k for k in store._memory if k[0] == "labels"]
        assert len(held) == store.MAX_OBJECTS_PER_KIND

    def test_get_refreshes_recency(self):
        """Regression: eviction used to be FIFO (``get_object`` never
        refreshed recency), so the hottest entry could be the first
        victim.  A read must move the entry to the warm end."""
        store = ArtifactStore(None)
        cap = store.MAX_OBJECTS_PER_KIND
        for i in range(cap):
            store.put_object("labels", f"k{i}", i)
        assert store.get_object("labels", "k0") == 0  # refresh oldest
        store.put_object("labels", "new", "x")  # forces one eviction
        assert store.get_object("labels", "k0") == 0  # survived (LRU)
        assert store.get_object("labels", "k1") is None  # the victim

    def test_reput_refreshes_recency(self):
        store = ArtifactStore(None)
        cap = store.MAX_OBJECTS_PER_KIND
        for i in range(cap):
            store.put_object("labels", f"k{i}", i)
        store.put_object("labels", "k0", -1)  # replace == touch
        store.put_object("labels", "new", "x")
        assert store.get_object("labels", "k0") == -1
        assert store.get_object("labels", "k1") is None

    def test_kinds_do_not_share_the_cap(self):
        store = ArtifactStore(None)
        for i in range(store.MAX_OBJECTS_PER_KIND):
            store.put_object("labels", f"k{i}", i)
            store.put_object("counts", f"k{i}", i)
        assert len(store._memory) == 2 * store.MAX_OBJECTS_PER_KIND


class TestDiskBudget:
    def _fill(self, store, n, size=2048):
        for i in range(n):
            store.save_arrays(
                "labels", f"k{i}",
                {"labels": np.arange(size, dtype=np.int64)},
                {"kind": "labels"},
            )

    def test_unbudgeted_store_grows(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 6)
        assert len(store.entries()) == 6
        assert store.stats.disk_evictions == 0

    def test_budget_evicts_coldest(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 1)
        one_file = store.disk_bytes()
        store = ArtifactStore(
            str(tmp_path), max_disk_bytes=3 * one_file + one_file // 2
        )
        self._fill(store, 6)
        assert store.disk_bytes() <= store.max_disk_bytes
        assert store.stats.disk_evictions >= 2
        # Warmest (latest-written) artifacts survived.
        surviving = {entry["key"] for entry in store.entries()}
        assert "k5" in surviving and "k4" in surviving

    def test_read_refreshes_disk_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 1)
        one_file = store.disk_bytes()
        store = ArtifactStore(
            str(tmp_path), max_disk_bytes=3 * one_file + one_file // 2
        )
        self._fill(store, 3)
        # mtime granularity: force distinct timestamps, then read k0 to
        # warm it before the budget forces an eviction.
        for i in range(3):
            past = 1_000_000_000 + i
            os.utime(store.path("labels", f"k{i}"), (past, past))
        assert store.load_arrays("labels", "k0") is not None
        store.save_arrays(  # 4th artifact: over budget -> evict coldest
            "labels", "k3", {"labels": np.arange(2048, dtype=np.int64)},
            {"kind": "labels"},
        )
        surviving = {entry["key"] for entry in store.entries()}
        assert "k0" in surviving
        assert "k1" not in surviving

    def test_pinned_file_is_never_a_victim(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 3)
        path = store.path("labels", "k0")
        store.max_disk_bytes = 1  # everything is now over budget
        store._pin(path)  # a reader holds k0 open
        try:
            store.enforce_disk_budget()
            assert os.path.exists(path)
            assert not os.path.exists(store.path("labels", "k1"))
        finally:
            store._unpin(path)
        store.enforce_disk_budget()
        assert not os.path.exists(path)

    def test_vanished_load_counts_as_miss(self, tmp_path, monkeypatch):
        """A reader losing the exists-then-open race against another
        process's eviction sees a plain miss, not a crash."""
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 1)
        path = store.path("labels", "k0")
        import repro.api.cache as cache_module

        real_load = cache_module.load_artifact

        def racing_load(p):
            os.unlink(path)
            return real_load(p)

        monkeypatch.setattr(cache_module, "load_artifact", racing_load)
        assert store.load_arrays("labels", "k0") is None
        assert store.stats.misses == 1


class TestEntriesUnderConcurrentEviction:
    def test_vanished_file_is_skipped(self, tmp_path, monkeypatch):
        """Regression: ``entries()`` used to crash with
        ``FileNotFoundError`` when a file was evicted between listdir
        and stat — the ``repro workspace`` inspector died mid-sweep.
        A file that vanishes before its stat, or between its stat and
        its meta read, is skipped."""
        import repro.api.cache as cache_module

        store = ArtifactStore(str(tmp_path))
        store.save_arrays("labels", "stays", {"x": np.zeros(2)}, {})
        store.save_arrays("graph", "vanishes", {"x": np.zeros(2)}, {})
        victim = store.path("graph", "vanishes")
        real_listdir = os.listdir
        real_meta = cache_module.load_artifact_meta

        def racing_listdir(path):
            return real_listdir(path) + ["graph-evicted.npz"]

        def racing_meta(path):
            if path == victim:
                os.unlink(victim)  # concurrent eviction wins the race
            return real_meta(path)

        monkeypatch.setattr(os, "listdir", racing_listdir)
        monkeypatch.setattr(cache_module, "load_artifact_meta", racing_meta)
        entries = store.entries()
        assert [entry["key"] for entry in entries] == ["stays"]

    def test_sync_skips_file_vanishing_mid_scan(self, tmp_path, monkeypatch):
        """The same race, where a query's sync reads the files: a file
        evicted between the sync's stat and its meta read is skipped,
        not indexed as a dangling row."""
        from contextlib import closing

        import repro.api.catalog as catalog_module
        from repro.api.catalog import Catalog

        store = ArtifactStore(str(tmp_path))
        store.save_arrays("labels", "stays", {"x": np.zeros(2)}, {})
        store.save_arrays("graph", "vanishes", {"x": np.zeros(2)}, {})
        victim = store.path("graph", "vanishes")
        real_meta = catalog_module.load_artifact_meta

        def racing_meta(path):
            if path == victim:
                os.unlink(victim)  # concurrent eviction wins the race
            return real_meta(path)

        monkeypatch.setattr(catalog_module, "load_artifact_meta", racing_meta)
        with closing(Catalog(str(tmp_path))) as catalog:
            rows = catalog.query("artifacts")
            assert catalog.files() == {"labels-stays.npz"}
        assert [row["key"] for row in rows] == ["stays"]
