"""Catalog-vs-filesystem consistency under concurrent mutation.

Threads and processes hammer one workspace directory with saves,
byte-budget evictions, in-place damage and files written around the
store, while other threads and processes query the sqlite catalog
(each query syncs it from the files).  The contract under test: a query
after any interleaving of those sees exactly the npz files on disk — no
dangling rows pointing at evicted files, no unindexed artifacts, no row
describing a file's previous version — and equals what
:meth:`Catalog.rebuild` derives from the npz meta alone, including
after a torn or deleted catalog.
"""

import multiprocessing
import os
import sqlite3
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing

import numpy as np

import repro.api.catalog as catalog_module
from repro.api.cache import ArtifactStore
from repro.api.catalog import CATALOG_FILENAME, Catalog
from repro.exceptions import CatalogError
from repro.io.artifacts import load_artifact_meta, save_artifact

N_THREADS = 8
N_QUERY_THREADS = 2
ROUNDS = 10


def _cells_meta(corpus, seed):
    return {
        "kind": "labels",
        "corpus": corpus,
        "n_segments": 40,
        "cells": [[float(seed % 7 + 1), 3.0, seed % 4, seed % 11]],
    }


def _quality_meta(corpus, seed):
    return {
        "kind": "quality", "corpus": corpus,
        "eps": float(seed % 7 + 1), "min_lns": 3.0, "qmeasure": float(seed),
    }


def _npz_set(directory):
    return {n for n in os.listdir(directory) if n.endswith(".npz")}


def _dump(directory):
    conn = sqlite3.connect(os.path.join(directory, CATALOG_FILENAME))
    try:
        artifacts = conn.execute(
            "SELECT file, kind, key, corpus, bytes, mtime, inode, meta"
            " FROM artifacts ORDER BY file"
        ).fetchall()
        cells = conn.execute(
            "SELECT * FROM cells ORDER BY file, eps, min_lns"
        ).fetchall()
    finally:
        conn.close()
    return artifacts, cells


def _assert_settled(directory):
    """The end-state invariant: a query sees exactly the files on disk,
    and a rebuild derives the very same rows from the npz meta alone."""
    with closing(Catalog(directory)) as catalog:
        rows = catalog.query("artifacts")
        on_disk = _npz_set(directory)
        assert {row["file"] for row in rows} == on_disk
        assert catalog.files() == on_disk
        synced = _dump(directory)
        catalog.rebuild()
        assert _dump(directory) == synced
    return synced


def _query_until(stop, directory, errors):
    """Query (and so sync) the catalog over and over until *stop*."""
    try:
        with closing(Catalog(directory)) as catalog:
            while not stop.is_set():
                catalog.query("cells")
                catalog.query("artifacts")
    except BaseException as error:  # noqa: BLE001 - collected
        errors.append(error)


class TestThreadStress:
    def test_saves_evictions_damage_and_queries_settle(self, tmp_path):
        """8 writer threads x 10 rounds through ONE store: each saves its
        own labels and quality artifacts, re-saves a contended
        fingerprint, damages one of its files in place, writes one
        around the store, and runs the byte-budget sweep (evicting
        peers' files under them), while 2 threads query."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        store.save_arrays(
            "labels", "probe", {"x": np.zeros(512, dtype=np.int64)},
            _cells_meta("fp-probe", 0),
        )
        one_file = store.disk_bytes()
        # Room for roughly half the fleet's artifacts: the budget sweep
        # runs constantly without starving writers completely.
        store.max_disk_bytes = one_file * (N_THREADS * ROUNDS // 2)
        errors = []

        def worker(worker_id):
            try:
                for round_index in range(ROUNDS):
                    seed = worker_id * 100 + round_index
                    key = f"t{worker_id}-{round_index}"
                    store.save_arrays(
                        "labels", key,
                        {"x": np.full(512, seed, dtype=np.int64)},
                        _cells_meta(f"fp{worker_id}", seed),
                    )
                    store.save_arrays(
                        "quality", key, {"q": np.zeros(4)},
                        _quality_meta(f"fp{worker_id}", seed),
                    )
                    store.save_arrays(
                        "graph", "contended",
                        {"x": np.full(512, worker_id, dtype=np.int64)},
                        {"kind": "graph", "corpus": f"fp{worker_id}"},
                    )
                    if round_index % 3 == 1:
                        path = store.path("quality", key)
                        try:
                            with open(path, "r+b") as handle:
                                handle.truncate(100)  # damaged in place
                        except FileNotFoundError:
                            pass  # already evicted by a peer's sweep
                        save_artifact(
                            os.path.join(directory, f"labels-around{key}.npz"),
                            {"x": np.full(256, seed, dtype=np.int64)},
                            _cells_meta(f"fp{worker_id}", seed + 1),
                        )
                    store.enforce_disk_budget()
            except BaseException as error:  # noqa: BLE001 - collected
                errors.append(error)

        stop = threading.Event()
        queriers = [
            threading.Thread(target=_query_until, args=(stop, directory, errors))
            for _ in range(N_QUERY_THREADS)
        ]
        writers = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in queriers + writers:
                thread.start()
            for thread in writers:
                thread.join(120)
            stop.set()
            for thread in queriers:
                thread.join(120)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in queriers + writers)
        assert errors == [], f"stress raised: {errors[:3]}"
        _assert_settled(directory)


class TestWriteRace:
    def test_sync_sees_a_file_replaced_before_its_index_write(
        self, tmp_path, monkeypatch
    ):
        """A sync reads file A's meta; before it writes A's row, a writer
        replaces the file with B — same size, same mtime.  The row then
        describes A, and the next query must re-read the file and
        describe B, the one on disk."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        path = store.path("graph", "contended")

        def save(corpus):
            store.save_arrays(
                "graph", "contended", {"x": np.zeros(8)},
                {"kind": "graph", "corpus": corpus},
            )

        save("fpA")
        replaced = []
        real_meta = catalog_module.load_artifact_meta

        def racing_meta(meta_path):
            meta = real_meta(meta_path)
            if meta_path == path and not replaced:
                stat = os.stat(path)
                save("fpB")  # lands after the read, before the row write
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
                assert os.path.getsize(path) == stat.st_size
                replaced.append(True)
            return meta

        monkeypatch.setattr(catalog_module, "load_artifact_meta", racing_meta)
        with closing(Catalog(directory)) as catalog:
            stale = catalog.query("artifacts")
            assert replaced and [row["corpus"] for row in stale] == ["fpA"]
            fresh = catalog.query("artifacts")
        assert load_artifact_meta(path)["corpus"] == "fpB"
        assert [row["corpus"] for row in fresh] == ["fpB"]
        _assert_settled(directory)


def _process_stress(args):
    """One child process: its own store over the shared directory,
    saving and budget-evicting concurrently; or, for a query worker,
    its own catalog syncing under the writers."""
    directory, worker_id, rounds, queries = args
    if queries:
        try:
            with closing(Catalog(directory)) as catalog:
                for _ in range(queries):
                    catalog.query("cells")
        except CatalogError as error:
            return f"query worker {worker_id}: {error}"
        return None
    store = ArtifactStore(directory, max_disk_bytes=512 * 1024)
    for round_index in range(rounds):
        seed = worker_id * 100 + round_index
        store.save_arrays(
            "labels", f"p{worker_id}-{round_index}",
            {"x": np.full(2048, seed, dtype=np.int64)},
            _cells_meta(f"fp{worker_id}", seed),
        )
        store.save_arrays(
            "quality", f"p{worker_id}-{round_index}",
            {"q": np.zeros(4)}, _quality_meta(f"fp{worker_id}", seed),
        )
    return None


class TestProcessStress:
    def test_processes_share_one_directory(self, tmp_path):
        """4 writer processes and 2 query processes over one directory:
        the queries' syncs serialise on ``BEGIN IMMEDIATE``; afterwards
        a fresh query sees a catalog that matches the filesystem
        exactly."""
        directory = str(tmp_path)
        jobs = [(directory, worker_id, 8, 0) for worker_id in range(4)]
        jobs += [(directory, 4 + worker_id, 0, 40) for worker_id in range(2)]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            failures = [
                failure
                for failure in pool.map(_process_stress, jobs)
                if failure is not None
            ]
        assert failures == []
        # Parent catalog opens only AFTER the children exit (sqlite
        # connections must never cross a fork).
        _, cells = _assert_settled(directory)
        # Quality rows joined their grid cells across process writers.
        assert any(cell[-1] is not None for cell in cells)


_OPEN_BARRIER = None


def _share_barrier(barrier):
    global _OPEN_BARRIER
    _OPEN_BARRIER = barrier


def _open_each(directories):
    """One child process: open the catalog of each fresh directory in
    turn, each open released together with the other children's."""
    failures = []
    for directory in directories:
        _OPEN_BARRIER.wait(timeout=30)
        try:
            Catalog(directory).close()
        except CatalogError as error:
            failures.append(str(error))
    return failures


class TestFirstOpenRace:
    def test_simultaneous_first_opens_all_succeed(self, tmp_path):
        """4 processes open one fresh directory's catalog at the same
        instant, 100 directories over.  Each creates the schema only if
        it finds none inside its ``BEGIN IMMEDIATE`` transaction, so
        the tables are created once and no open fails."""
        directories = []
        for trial in range(100):
            directory = tmp_path / f"trial{trial}"
            directory.mkdir()
            directories.append(str(directory))
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=4, mp_context=context, initializer=_share_barrier,
            initargs=(context.Barrier(4),),
        ) as pool:
            futures = [pool.submit(_open_each, directories) for _ in range(4)]
            failures = [error for f in futures for error in f.result()]
        assert failures == []


class TestKillRecovery:
    def test_torn_catalog_resyncs_at_the_next_query(self, tmp_path):
        """Crash simulation: files on disk whose rows are missing (a
        sync killed before its commit, or files saved since) AND a
        dangling row of a file that is gone.  The next query restores
        exact correspondence."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        for i in range(6):
            store.save_arrays(
                "labels", f"k{i}", {"x": np.zeros(64, dtype=np.int64)},
                _cells_meta("fp1", i),
            )
        truth = _assert_settled(directory)

        conn = sqlite3.connect(os.path.join(directory, CATALOG_FILENAME))
        conn.execute("DELETE FROM artifacts WHERE key IN ('k0', 'k1')")
        conn.execute(
            "DELETE FROM cells WHERE file IN ('labels-k0.npz', 'labels-k1.npz')"
        )
        conn.execute(
            "INSERT INTO artifacts (file, kind, key, bytes, mtime)"
            " VALUES ('labels-ghost.npz', 'labels', 'ghost', 10, 1.0)"
        )
        conn.execute(
            "INSERT INTO cells (file, eps, min_lns, n_clusters, n_noise,"
            " n_segments) VALUES ('labels-ghost.npz', 1.0, 3.0, 1, 0, 1)"
        )
        conn.commit()
        conn.close()

        assert _assert_settled(directory) == truth

    def test_deleted_catalog_recovers_at_the_next_query(self, tmp_path):
        """Losing the db entirely is the deepest tear: the next query
        re-derives everything, including grid cells."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        for i in range(4):
            store.save_arrays(
                "labels", f"k{i}", {"x": np.zeros(64, dtype=np.int64)},
                _cells_meta("fp1", i),
            )
        with closing(Catalog(directory)) as catalog:
            truth_cells = catalog.query("cells")
        for name in os.listdir(directory):
            if name.startswith(CATALOG_FILENAME):
                os.unlink(os.path.join(directory, name))

        with closing(Catalog(directory)) as reopened:
            # corpora names are gone (not derivable from npz meta), but
            # every artifact and cell row is back.
            assert reopened.query("cells") == truth_cells
            assert reopened.files() == _npz_set(directory)
