"""Catalog-vs-filesystem consistency under concurrent mutation.

Threads and processes hammer one workspace directory with saves and
byte-budget evictions while the sqlite catalog tracks every change.
The contract under test: at quiescence (after the store's ``entries()``
self-heal pass) the catalog's file set equals the npz files on disk —
no dangling rows pointing at evicted files, no unindexed artifacts —
and :meth:`Catalog.rebuild` converges to exactly the rows the
incremental save/evict path maintained, including after a torn catalog
(simulating a crash between the file write and the row commit).
"""

import multiprocessing
import os
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.api.cache import ArtifactStore
from repro.api.catalog import CATALOG_FILENAME, Catalog
from repro.exceptions import CatalogError
from repro.io.artifacts import load_artifact_meta

N_THREADS = 8
ROUNDS = 10


def _cells_meta(corpus, seed):
    return {
        "kind": "labels",
        "corpus": corpus,
        "n_segments": 40,
        "cells": [[float(seed % 7 + 1), 3.0, seed % 4, seed % 11]],
    }


def _npz_set(directory):
    return {n for n in os.listdir(directory) if n.endswith(".npz")}


def _dump(directory):
    conn = sqlite3.connect(os.path.join(directory, CATALOG_FILENAME))
    try:
        artifacts = conn.execute(
            "SELECT file, kind, key, corpus, bytes, meta"
            " FROM artifacts ORDER BY file"
        ).fetchall()
        cells = conn.execute(
            "SELECT * FROM cells ORDER BY file, eps, min_lns"
        ).fetchall()
    finally:
        conn.close()
    return artifacts, cells


def _assert_settled(directory):
    """The end-state invariant: entries() (self-healing if the races
    left a mismatch) settles the catalog onto exactly the files on
    disk, and a rebuild derives the very same rows from the npz meta
    alone."""
    store = ArtifactStore(directory)
    assert store.catalog is not None
    entries = store.entries()
    on_disk = _npz_set(directory)
    assert store.catalog.files() == on_disk
    assert {entry["file"] for entry in entries} == on_disk
    settled = _dump(directory)
    store.catalog.rebuild()
    rebuilt = _dump(directory)
    assert rebuilt[0] == settled[0]
    assert rebuilt[1] == settled[1]
    return store


class TestThreadStress:
    def test_saves_and_evictions_leave_no_dangling_rows(self, tmp_path):
        """8 threads x 10 rounds through ONE store: each saves its own
        labels artifacts, re-saves a contended fingerprint, and runs
        the byte-budget sweep (evicting peers' files under them)."""
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
                    store.save_arrays(
                        "labels", f"t{worker_id}-{round_index}",
                        {"x": np.full(512, seed, dtype=np.int64)},
                        _cells_meta(f"fp{worker_id}", seed),
                    )
                    store.save_arrays(
                        "graph", "contended",
                        {"x": np.full(512, worker_id, dtype=np.int64)},
                        {"kind": "graph", "corpus": f"fp{worker_id}"},
                    )
                    store.enforce_disk_budget()
            except BaseException as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [], f"stress raised: {errors[:3]}"
        assert store.catalog is not None, "catalog degraded under threads"
        _assert_settled(directory)


class TestWriteRace:
    def test_row_describes_the_file_that_won(self, tmp_path):
        """Writer A replaces the file, then stalls before its catalog
        write until writer B has saved the same key.  A's late write
        must not index its own meta: the row describes B's file, the
        one on disk."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        replaced, b_saved = threading.Event(), threading.Event()
        errors = []
        catalog_call = store._catalog_call

        def held_catalog_call(method, *args):
            if threading.current_thread() is writer_a:
                replaced.set()
                if not b_saved.wait(10.0):
                    errors.append("writer B never saved")
            return catalog_call(method, *args)

        store._catalog_call = held_catalog_call

        def save(corpus):
            try:
                store.save_arrays(
                    "graph", "contended", {"x": np.zeros(8)},
                    {"kind": "graph", "corpus": corpus},
                )
            except Exception as error:  # collected, asserted below
                errors.append(error)

        writer_a = threading.Thread(target=save, args=("fpA",))
        writer_a.start()
        assert replaced.wait(10.0)
        save("fpB")
        b_saved.set()
        writer_a.join(10.0)
        assert not writer_a.is_alive()
        assert errors == []
        path = os.path.join(directory, "graph-contended.npz")
        assert load_artifact_meta(path)["corpus"] == "fpB"
        assert store.catalog.sql(
            "SELECT corpus FROM artifacts WHERE file='graph-contended.npz'"
        ) == [{"corpus": "fpB"}]
        _assert_settled(directory)


def _process_stress(args):
    """One child process: its own store (and catalog connection) over
    the shared directory, saving and budget-evicting concurrently."""
    directory, worker_id, rounds = args
    store = ArtifactStore(directory, max_disk_bytes=512 * 1024)
    if store.catalog is None:
        return f"worker {worker_id}: catalog failed to open"
    for round_index in range(rounds):
        seed = worker_id * 100 + round_index
        store.save_arrays(
            "labels", f"p{worker_id}-{round_index}",
            {"x": np.full(2048, seed, dtype=np.int64)},
            _cells_meta(f"fp{worker_id}", seed),
        )
        store.save_arrays(
            "quality", f"p{worker_id}-{round_index}",
            {"q": np.zeros(4)},
            {
                "kind": "quality", "corpus": f"fp{worker_id}",
                "eps": float(seed % 7 + 1), "min_lns": 3.0,
                "qmeasure": float(seed),
            },
        )
    if store.catalog is None:
        return f"worker {worker_id}: catalog degraded mid-run"
    return None


class TestProcessStress:
    def test_processes_share_one_catalog(self, tmp_path):
        """4 writer processes over one directory: WAL + BEGIN IMMEDIATE
        serialise the row traffic; afterwards a fresh parent store sees
        a catalog that matches the filesystem exactly."""
        directory = str(tmp_path)
        with ProcessPoolExecutor(max_workers=4) as pool:
            failures = [
                failure
                for failure in pool.map(
                    _process_stress,
                    [(directory, worker_id, 8) for worker_id in range(4)],
                )
                if failure is not None
            ]
        assert failures == []
        # Parent store opens only AFTER the children exit (sqlite
        # connections must never cross a fork).
        store = _assert_settled(directory)
        # Quality rows joined their grid cells across process writers.
        joined = store.catalog.sql(
            "SELECT COUNT(*) AS n FROM cells WHERE qmeasure IS NOT NULL"
        )[0]["n"]
        assert joined > 0


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
        instant, 100 directories over.  Switching a new database to WAL
        takes a lock sqlite does not wait for; unserialised, several
        percent of these opens failed with "database is locked"."""
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
    def test_torn_catalog_rebuild_converges(self, tmp_path):
        """Crash simulation: files on disk but the catalog missing rows
        (killed between file write and row commit) AND holding a
        dangling row (killed between unlink and row delete).  A single
        rebuild() restores exact correspondence."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        for i in range(6):
            store.save_arrays(
                "labels", f"k{i}", {"x": np.zeros(64, dtype=np.int64)},
                _cells_meta("fp1", i),
            )
        truth = _dump(directory)
        store.catalog.close()

        db = os.path.join(directory, CATALOG_FILENAME)
        conn = sqlite3.connect(db)
        conn.execute("DELETE FROM artifacts WHERE key IN ('k0', 'k1')")
        conn.execute(
            "DELETE FROM cells WHERE file LIKE 'labels-%'"
            " AND file IN (SELECT file FROM cells LIMIT 2)"
        )
        conn.execute(
            "INSERT INTO artifacts (file, kind, key, bytes, mtime)"
            " VALUES ('labels-ghost.npz', 'labels', 'ghost', 10, 1.0)"
        )
        conn.commit()
        conn.close()

        reopened = ArtifactStore(directory)
        assert reopened.catalog is not None
        reopened.catalog.rebuild()
        assert _dump(directory) == truth
        assert reopened.catalog.files() == _npz_set(directory)

    def test_deleted_catalog_recovers_through_entries(self, tmp_path):
        """Losing the db entirely is the deepest tear: the next store
        re-derives everything, including grid cells."""
        directory = str(tmp_path)
        store = ArtifactStore(directory)
        for i in range(4):
            store.save_arrays(
                "labels", f"k{i}", {"x": np.zeros(64, dtype=np.int64)},
                _cells_meta("fp1", i),
            )
        truth_cells = store.catalog.query("cells")
        store.catalog.close()
        for name in os.listdir(directory):
            if name.startswith(CATALOG_FILENAME):
                os.unlink(os.path.join(directory, name))

        reopened = ArtifactStore(directory)
        # corpora names are gone (not derivable from npz meta), but
        # every artifact and cell row is back.
        assert reopened.catalog.query("cells") == truth_cells
        assert reopened.catalog.files() == _npz_set(directory)
