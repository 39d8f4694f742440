"""A sqlite index over the npz artifact store, synced from the files.

The store (:mod:`repro.api.cache`) can answer "give me artifact X" but
not "which (ε, MinLns) cells across all cached corpora have ≥ k
clusters" without loading every payload.  This module keeps that answer
in ``catalog.sqlite`` next to the npz files.  The npz files are the
only record: the store never opens the catalog, and every query first
brings the index up to date (:meth:`Catalog.sync`) — it stats the
files, re-reads the ``__meta__`` member of each file that is new or
changed since its row was written, never a payload, and drops the rows
of files that are gone.

``artifacts``
    one row per npz file: kind, fingerprint key, corpus fingerprint,
    the config knobs split into typed columns (ε, MinLns,
    ``use_weights``, γ, suppression, grid shape, labels setting), byte
    size, mtime, inode, and the engine build seconds that produced it.
``cells``
    one row per (ε, MinLns) cell of every cached labels grid: cluster
    count, noise count, segment count, and the QMeasure of a quality
    artifact of the same corpus, cell and setting, while one is on disk.
``corpora``
    corpus fingerprints with the trajectory and segment counts of their
    partition artifacts, and the human names the serve layer registers
    — the one fact no file records.

Concurrency: sqlite's default rollback journal.  Queries are the only
writers, and a sync decides each row inside one ``BEGIN IMMEDIATE``
transaction, re-reading there every file it indexes, so concurrent
syncs serialise and the last commit describes the files as they are.
Every row but a corpus name is derivable from ``(os.stat, npz meta)``:
:meth:`Catalog.rebuild` re-derives the rows a sync converges to, and a
torn, deleted or older-schema catalog is re-derived at the next query.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import CatalogError
from repro.io.artifacts import DAMAGED_NPZ_ERRORS, load_artifact_meta
from repro.obs import NULL_REGISTRY

#: File name of the catalog database inside a workspace directory.
CATALOG_FILENAME = "catalog.sqlite"

#: Bumped on any schema change; an on-disk catalog with a different
#: ``user_version`` is dropped and re-derived from the npz files.
SCHEMA_VERSION = 2

#: Seconds a writer waits on another process's transaction before
#: giving up (sqlite busy timeout).
BUSY_TIMEOUT_SECONDS = 10.0

_SCHEMA = (
    """
    CREATE TABLE artifacts (
        file TEXT PRIMARY KEY,
        kind TEXT NOT NULL,
        key TEXT NOT NULL,
        corpus TEXT,
        bytes INTEGER NOT NULL,
        mtime REAL NOT NULL,
        inode INTEGER,
        build_seconds REAL,
        suppression REAL,
        eps REAL,
        min_lns REAL,
        use_weights INTEGER,
        gamma REAL,
        n_segments INTEGER,
        n_eps INTEGER,
        n_min_lns INTEGER,
        qmeasure REAL,
        setting TEXT,
        meta TEXT
    )
    """,
    "CREATE INDEX artifacts_cell ON artifacts(kind, corpus, eps, min_lns)",
    "CREATE INDEX artifacts_corpus ON artifacts(corpus)",
    """
    CREATE TABLE cells (
        file TEXT NOT NULL,
        corpus TEXT,
        eps REAL NOT NULL,
        min_lns REAL NOT NULL,
        n_clusters INTEGER NOT NULL,
        n_noise INTEGER NOT NULL,
        n_segments INTEGER NOT NULL,
        qmeasure REAL,
        PRIMARY KEY (file, eps, min_lns)
    )
    """,
    "CREATE INDEX cells_grid ON cells(corpus, eps, min_lns)",
    """
    CREATE TABLE corpora (
        fingerprint TEXT PRIMARY KEY,
        name TEXT,
        n_trajectories INTEGER,
        n_segments INTEGER,
        first_seen REAL,
        last_seen REAL
    )
    """,
)

#: Each grid cell's QMeasure, derived from the quality rows present
#: now: the first by file name of the same corpus and cell whose setting
#: is the labels artifact's (an artifact that records none, written
#: before settings were, matches any).  Run after every indexing write,
#: so an evicted quality artifact takes its value with it.
_DERIVE_QMEASURE = """
    UPDATE cells SET qmeasure = (
        SELECT q.qmeasure FROM artifacts q, artifacts l
        WHERE l.file = cells.file AND q.kind = 'quality'
          AND q.corpus IS cells.corpus AND q.eps = cells.eps
          AND q.min_lns = cells.min_lns AND q.qmeasure IS NOT NULL
          AND (q.setting IS NULL OR l.setting IS NULL
               OR q.setting = l.setting)
        ORDER BY q.file LIMIT 1
    )
"""

#: meta keys lifted into typed columns (same name in both).
_KNOB_COLUMNS = (
    "suppression",
    "eps",
    "min_lns",
    "gamma",
    "n_segments",
    "n_eps",
    "n_min_lns",
    "qmeasure",
    "build_seconds",
)

_OPS_NAME = "repro_catalog_ops_total"
_OPS_HELP = "Catalog operations by op (index/touch/rebuild/query/sql)."
_SECONDS_NAME = "repro_catalog_op_seconds"
_SECONDS_HELP = "Wall seconds per catalog operation by op."


def _signature(stat: os.stat_result) -> Tuple[int, float, int]:
    """What tells one version of a file from the next: a save replaces
    the file by rename, so a new inode marks it even when the size and
    the coarse mtime tick are the old ones; a budgeted read's ``utime``
    moves the mtime."""
    return int(stat.st_size), float(stat.st_mtime), int(stat.st_ino)


class Catalog:
    """The sqlite index of one workspace directory.

    Open via :meth:`repro.api.Workspace.catalog` (or directly with the
    directory) and :meth:`close` when done; reads are :meth:`query`
    (named canned queries) and :meth:`sql` (guarded raw SQL over a
    read-only connection), each after a :meth:`sync`.  The one write
    that is not derived from the files is :meth:`register_corpus`'s
    corpus name.
    """

    def __init__(self, cache_dir: str, metrics=None):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, CATALOG_FILENAME)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_SECONDS,
                isolation_level=None,  # explicit BEGIN IMMEDIATE below
                check_same_thread=False,
            )
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.Error as exc:
            raise CatalogError(
                f"cannot open catalog at {self.path!r}: {exc}"
            ) from exc
        if version != SCHEMA_VERSION:
            self._create_schema()

    def _create_schema(self) -> None:
        """Drop the tables of any other schema version and create this
        one's — decided inside the write transaction, so concurrent
        first opens create the tables once.  Every dropped row but a
        corpus name is re-derived by the next sync."""
        with self._write() as conn:
            if conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION:
                return
            for table in ("artifacts", "cells", "corpora"):
                conn.execute(f"DROP TABLE IF EXISTS {table}")
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    # -- bookkeeping ---------------------------------------------------------
    @contextmanager
    def _timed(self, op: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.metrics.counter(_OPS_NAME, help=_OPS_HELP, op=op).inc()
            self.metrics.histogram(
                _SECONDS_NAME, help=_SECONDS_HELP, op=op
            ).observe(time.perf_counter() - started)

    @contextmanager
    def _write(self):
        """One serialised write transaction (in-process lock +
        ``BEGIN IMMEDIATE`` so the cross-process write lock is taken up
        front instead of deadlocking on upgrade)."""
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog write failed: {exc}") from exc
            try:
                yield self._conn
            except sqlite3.Error as exc:
                self._conn.execute("ROLLBACK")
                raise CatalogError(f"catalog write failed: {exc}") from exc
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    def _npz_names(self) -> Set[str]:
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return set()
        return {name for name in names if name.endswith(".npz")}

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass

    # -- indexing ------------------------------------------------------------
    def sync(self) -> int:
        """Bring the index up to date with the npz files: re-index every
        file whose ``(bytes, mtime, inode)`` differs from its row or
        that has no row, and drop the rows of vanished files.  Write-free
        when nothing changed.  Returns how many files it re-indexed or
        dropped."""
        indexed = self.file_stats()
        on_disk = {}
        for name in self._npz_names():
            try:
                stat = os.stat(os.path.join(self.cache_dir, name))
            except OSError:
                continue  # evicted since the listing
            on_disk[name] = _signature(stat)
        changed = sorted(
            name for name in indexed.keys() | on_disk.keys()
            if indexed.get(name) != on_disk.get(name)
        )
        if changed:
            self.index_artifact(*changed)
        return len(changed)

    def index_artifact(self, *files: str) -> None:
        """Make the rows of the named npz files say what the files say
        now, then re-derive every cell's QMeasure.

        Decided inside one write transaction: a present file is read
        back (``os.stat``, then its ``__meta__`` member) and its
        artifact row and grid cells upserted; a missing file loses its
        rows.  Concurrent syncs therefore serialise, and the last commit
        sees the last change.  A file replaced between the stat and the
        meta read keeps the old signature, so the next sync re-reads
        it."""
        with self._timed("index"), self._write() as conn:
            for file in files:
                read = self._read_file(file)
                if read is None:
                    conn.execute("DELETE FROM artifacts WHERE file=?", (file,))
                    conn.execute("DELETE FROM cells WHERE file=?", (file,))
                else:
                    self._index_one(conn, file, *read)
            conn.execute(_DERIVE_QMEASURE)

    #: A vanished file takes the same disk-decided write.
    record_eviction = index_artifact

    def _read_file(self, file: str) -> Optional[Tuple[os.stat_result, dict]]:
        """``(stat, meta)`` of one npz file as it is on disk, or
        ``None`` when it is gone.  Only ``__meta__`` is read."""
        path = os.path.join(self.cache_dir, file)
        try:
            stat = os.stat(path)
            meta = load_artifact_meta(path)
        except OSError:
            return None  # vanished under a concurrent eviction
        except DAMAGED_NPZ_ERRORS:
            meta = {"error": "unreadable"}
        return stat, meta if isinstance(meta, dict) else {}

    def _index_one(
        self, conn, file: str, stat: os.stat_result, meta: dict
    ) -> None:
        """Upsert one file's artifact row; a labels file's grid cells
        and a partition file's corpus counts go with it.  Kind and key
        come from the name ``<kind>-<key>.npz``."""
        kind, _, rest = file.partition("-")
        size, mtime, inode = _signature(stat)
        knobs = {column: _number(meta.get(column)) for column in _KNOB_COLUMNS}
        grid = meta.get("grid")
        if isinstance(grid, (list, tuple)) and len(grid) == 2:
            knobs["n_eps"] = _number(grid[0])
            knobs["n_min_lns"] = _number(grid[1])
        use_weights = meta.get("use_weights")
        corpus = meta.get("corpus")
        corpus = corpus if isinstance(corpus, str) else None
        setting = meta.get("setting")
        conn.execute(
            "INSERT OR REPLACE INTO artifacts (file, kind, key, corpus,"
            " bytes, mtime, inode, build_seconds, suppression, eps,"
            " min_lns, use_weights, gamma, n_segments, n_eps, n_min_lns,"
            " qmeasure, setting, meta)"
            " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (
                file, kind, rest[: -len(".npz")], corpus, size, mtime, inode,
                knobs["build_seconds"], knobs["suppression"], knobs["eps"],
                knobs["min_lns"],
                None if use_weights is None else int(bool(use_weights)),
                knobs["gamma"], _integer(knobs["n_segments"]),
                _integer(knobs["n_eps"]), _integer(knobs["n_min_lns"]),
                knobs["qmeasure"],
                setting if isinstance(setting, str) else None,
                json.dumps(meta, sort_keys=True, default=str),
            ),
        )
        if kind == "labels":
            self._index_cells(conn, file, meta)
        elif kind == "partition" and corpus is not None:
            self._merge_corpus(
                conn, corpus, None,
                _integer(_number(meta.get("n_trajectories"))),
                _integer(knobs["n_segments"]),
            )

    def _index_cells(self, conn, file: str, meta: dict) -> None:
        conn.execute("DELETE FROM cells WHERE file=?", (file,))
        cells = meta.get("cells")
        if not isinstance(cells, (list, tuple)):
            return  # pre-catalog labels artifact: no per-cell stats
        corpus = meta.get("corpus")
        n_segments = _integer(_number(meta.get("n_segments"))) or 0
        rows = []
        for cell in cells:
            try:
                eps, min_lns, n_clusters, n_noise = cell
            except (TypeError, ValueError):
                continue
            rows.append(
                (file, corpus, float(eps), float(min_lns),
                 int(n_clusters), int(n_noise), n_segments)
            )
        conn.executemany(
            "INSERT OR REPLACE INTO cells (file, corpus, eps, min_lns,"
            " n_clusters, n_noise, n_segments) VALUES (?,?,?,?,?,?,?)",
            rows,
        )

    def touch(self, file: str, mtime: float) -> None:
        """Set one row's mtime (a sync reads it from the file anyway)."""
        with self._timed("touch"), self._write() as conn:
            conn.execute(
                "UPDATE artifacts SET mtime=? WHERE file=?",
                (float(mtime), file),
            )

    def register_corpus(
        self,
        fingerprint: str,
        name: Optional[str] = None,
        n_trajectories: Optional[int] = None,
        n_segments: Optional[int] = None,
    ) -> None:
        """Upsert corpus metadata, merging non-``None`` fields — the
        serve layer records a corpus's name here."""
        with self._timed("index"), self._write() as conn:
            self._merge_corpus(
                conn, fingerprint, name, n_trajectories, n_segments
            )

    @staticmethod
    def _merge_corpus(
        conn,
        fingerprint: str,
        name: Optional[str],
        n_trajectories: Optional[int],
        n_segments: Optional[int],
    ) -> None:
        """Row-free when nothing changed, so ``last_seen`` records the
        last change of a corpus's facts, not the last sync."""
        row = conn.execute(
            "SELECT name, n_trajectories, n_segments FROM corpora"
            " WHERE fingerprint=?",
            (fingerprint,),
        ).fetchone()
        merged = (
            name if name is not None else (row and row[0]),
            n_trajectories if n_trajectories is not None else (row and row[1]),
            n_segments if n_segments is not None else (row and row[2]),
        )
        if row is not None and tuple(row) == merged:
            return
        now = time.time()
        if row is None:
            conn.execute(
                "INSERT INTO corpora (fingerprint, name, n_trajectories,"
                " n_segments, first_seen, last_seen) VALUES (?,?,?,?,?,?)",
                (fingerprint, *merged, now, now),
            )
        else:
            conn.execute(
                "UPDATE corpora SET name=?, n_trajectories=?,"
                " n_segments=?, last_seen=? WHERE fingerprint=?",
                (*merged, now, fingerprint),
            )

    def rebuild(self) -> int:
        """Re-derive ``artifacts`` and ``cells`` from the npz files
        (``corpora`` keeps its rows — names are not recoverable from
        disk) — the rows a :meth:`sync` converges to.  Reads only each
        file's ``__meta__`` member, never a payload.  Returns the number
        of artifacts indexed."""
        with self._timed("rebuild"):
            rows = []
            for name in sorted(self._npz_names()):
                read = self._read_file(name)
                if read is not None:
                    rows.append((name, *read))
            with self._write() as conn:
                conn.execute("DELETE FROM artifacts")
                conn.execute("DELETE FROM cells")
                for row in rows:
                    self._index_one(conn, *row)
                conn.execute(_DERIVE_QMEASURE)
            return len(rows)

    # -- index reads ---------------------------------------------------------
    def _read(self, statement: str, params: Sequence = ()) -> List[tuple]:
        with self._lock:
            try:
                return self._conn.execute(statement, tuple(params)).fetchall()
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog read failed: {exc}") from exc

    def files(self) -> Set[str]:
        """Every indexed npz file name."""
        return set(self.file_stats())

    def file_stats(self) -> Dict[str, Tuple[int, float, int]]:
        """``file -> (bytes, mtime, inode)`` as indexed, to compare with
        disk."""
        return {
            file: (int(size), float(mtime), inode)
            for file, size, mtime, inode in self._read(
                "SELECT file, bytes, mtime, inode FROM artifacts"
            )
        }

    def eviction_candidates(self) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, file)`` of the indexed files, coldest first."""
        return [
            (float(mtime), int(size), file)
            for file, size, mtime in self._read(
                "SELECT file, bytes, mtime FROM artifacts ORDER BY mtime"
            )
        ]

    # -- the query surface ---------------------------------------------------
    def query(self, name: str, **filters) -> List[dict]:
        """Run a named canned query after a :meth:`sync`; returns a list
        of dict rows.

        ========== ==========================================================
        name       filters
        ========== ==========================================================
        artifacts  ``kind=``, ``corpus=`` (fingerprint or registered name),
                   ``limit=``
        cells      ``corpus=``, ``min_clusters=``, ``max_noise=`` (noise
                   fraction ceiling), ``eps=``, ``min_lns=``, ``limit=``
        corpora    ``limit=``
        kinds      ``limit=``
        ========== ==========================================================
        """
        builder = _CANNED.get(name)
        if builder is None:
            raise CatalogError(
                f"unknown canned query {name!r}; available:"
                f" {', '.join(sorted(_CANNED))}"
            )
        remaining = dict(filters)
        statement, params = builder(remaining)
        statement, params = _apply_limit(statement, params, remaining)
        if remaining:
            raise CatalogError(
                f"canned query {name!r} does not accept"
                f" {', '.join(sorted(remaining))}"
            )
        with self._timed("query"):
            self.sync()
            return self._read_dicts(statement, params)

    def _read_dicts(self, statement: str, params: Sequence) -> List[dict]:
        with self._lock:
            try:
                cursor = self._conn.execute(statement, tuple(params))
                columns = [item[0] for item in cursor.description]
                return [dict(zip(columns, row)) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog read failed: {exc}") from exc

    def sql(self, statement: str, params: Sequence = ()) -> List[dict]:
        """Run one read-only SELECT, after a :meth:`sync`, over a fresh
        ``mode=ro`` connection.

        The guard is belt and braces: the statement must be a single
        SELECT/WITH, and the connection itself cannot write even if the
        guard were fooled."""
        text = statement.strip()
        if text.endswith(";"):
            text = text[:-1].rstrip()
        if not text or ";" in text:
            raise CatalogError("raw SQL must be exactly one statement")
        head = text.lstrip("(").split(None, 1)[0].upper() if text else ""
        if head not in ("SELECT", "WITH"):
            raise CatalogError(
                "raw SQL is read-only: statement must start with"
                " SELECT or WITH"
            )
        with self._timed("sql"):
            self.sync()
            try:
                conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro",
                    uri=True,
                    timeout=BUSY_TIMEOUT_SECONDS,
                )
            except sqlite3.Error as exc:
                raise CatalogError(
                    f"cannot open read-only catalog: {exc}"
                ) from exc
            try:
                cursor = conn.execute(text, tuple(params))
                columns = [item[0] for item in cursor.description or ()]
                return [dict(zip(columns, row)) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise CatalogError(f"raw SQL failed: {exc}") from exc
            finally:
                conn.close()


def _number(value) -> Optional[float]:
    if value is None or isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _integer(value: Optional[float]) -> Optional[int]:
    return None if value is None else int(value)


def _apply_limit(
    statement: str, params: List, filters: Dict
) -> Tuple[str, List]:
    limit = filters.pop("limit", None)
    if limit is not None:
        statement += " LIMIT ?"
        params = list(params) + [int(limit)]
    return statement, list(params)


def _corpus_clause(
    filters: Dict, clauses: List[str], params: List, column: str
) -> None:
    corpus = filters.pop("corpus", None)
    if corpus is not None:
        clauses.append(f"({column} = ? OR co.name = ?)")
        params.extend([corpus, corpus])


def _canned_artifacts(filters: Dict) -> Tuple[str, List]:
    clauses: List[str] = []
    params: List = []
    kind = filters.pop("kind", None)
    if kind is not None:
        clauses.append("a.kind = ?")
        params.append(kind)
    _corpus_clause(filters, clauses, params, "a.corpus")
    statement = (
        "SELECT a.file AS file, a.kind AS kind, a.key AS key,"
        " a.corpus AS corpus, co.name AS corpus_name, a.bytes AS bytes,"
        " a.mtime AS mtime, a.build_seconds AS build_seconds,"
        " a.eps AS eps, a.min_lns AS min_lns, a.n_eps AS n_eps,"
        " a.n_min_lns AS n_min_lns, a.qmeasure AS qmeasure"
        " FROM artifacts a LEFT JOIN corpora co"
        " ON co.fingerprint = a.corpus"
    )
    if clauses:
        statement += " WHERE " + " AND ".join(clauses)
    return statement + " ORDER BY a.kind, a.file", params


def _canned_cells(filters: Dict) -> Tuple[str, List]:
    clauses: List[str] = []
    params: List = []
    _corpus_clause(filters, clauses, params, "c.corpus")
    min_clusters = filters.pop("min_clusters", None)
    if min_clusters is not None:
        clauses.append("c.n_clusters >= ?")
        params.append(int(min_clusters))
    max_noise = filters.pop("max_noise", None)
    if max_noise is not None:
        clauses.append(
            "CAST(c.n_noise AS REAL) / MAX(c.n_segments, 1) <= ?"
        )
        params.append(float(max_noise))
    for column in ("eps", "min_lns"):
        value = filters.pop(column, None)
        if value is not None:
            clauses.append(f"c.{column} = ?")
            params.append(float(value))
    statement = (
        "SELECT c.file AS file, c.corpus AS corpus,"
        " co.name AS corpus_name, c.eps AS eps, c.min_lns AS min_lns,"
        " c.n_clusters AS n_clusters, c.n_noise AS n_noise,"
        " c.n_segments AS n_segments,"
        " CAST(c.n_noise AS REAL) / MAX(c.n_segments, 1)"
        "   AS noise_fraction,"
        " c.qmeasure AS qmeasure"
        " FROM cells c LEFT JOIN corpora co ON co.fingerprint = c.corpus"
    )
    if clauses:
        statement += " WHERE " + " AND ".join(clauses)
    return statement + " ORDER BY c.corpus, c.eps, c.min_lns, c.file", params


def _canned_corpora(filters: Dict) -> Tuple[str, List]:
    statement = (
        "SELECT co.fingerprint AS fingerprint, co.name AS name,"
        " co.n_trajectories AS n_trajectories,"
        " co.n_segments AS n_segments,"
        " COUNT(a.file) AS n_artifacts,"
        " COALESCE(SUM(a.bytes), 0) AS bytes"
        " FROM corpora co LEFT JOIN artifacts a ON a.corpus = co.fingerprint"
        " GROUP BY co.fingerprint ORDER BY co.name, co.fingerprint"
    )
    return statement, []


def _canned_kinds(filters: Dict) -> Tuple[str, List]:
    statement = (
        "SELECT kind, COUNT(*) AS n_artifacts,"
        " COALESCE(SUM(bytes), 0) AS bytes,"
        " COALESCE(SUM(build_seconds), 0.0) AS build_seconds"
        " FROM artifacts GROUP BY kind ORDER BY kind"
    )
    return statement, []


_CANNED = {
    "artifacts": _canned_artifacts,
    "cells": _canned_cells,
    "corpora": _canned_corpora,
    "kinds": _canned_kinds,
}

#: Canned query names (the CLI/serve layers validate against this).
CANNED_QUERIES = tuple(sorted(_CANNED))
