"""A sqlite catalog over the npz artifact store.

The store (:mod:`repro.api.cache`) can answer "give me artifact X" but
not "which (ε, MinLns) cells across all cached corpora have ≥ k
clusters" without loading every payload.  This module maintains that
answer as a live index — ``catalog.sqlite`` next to the npz files —
updated incrementally through the store's save/evict paths rather than
rebuilt by scanning:

``artifacts``
    one row per npz file: kind, fingerprint key, corpus fingerprint,
    the config knobs split into typed columns (ε, MinLns,
    ``use_weights``, γ, suppression, grid shape), byte size, mtime,
    and the engine build seconds that produced it.
``cells``
    one row per (ε, MinLns) cell of every cached labels grid: cluster
    count, noise count, segment count, and — once the matching quality
    artifact lands — QMeasure.  This is the table the cross-corpus
    analytics (``repro workspace query``, ``GET /v1/query``) hit.
``corpora``
    corpus fingerprints with their human names (the serve layer
    registers spec names) and sizes.

Concurrency: WAL journal mode, so any number of reader processes
(query CLIs, the serve front-end) proceed while one writer commits;
writes take an in-process lock plus a ``BEGIN IMMEDIATE`` transaction
with a generous busy timeout, so the multi-process eviction stress in
``tests/api/test_catalog_consistency.py`` serialises cleanly.  Every
row is derivable from ``(os.stat, npz meta)`` alone, so
:meth:`Catalog.rebuild` recovers a cold or torn catalog by re-scanning
the directory — reading only each file's lazily-decompressed
``__meta__`` member, never a payload — and converges to the same rows
the incremental path wrote.
"""

from __future__ import annotations

import fcntl
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import CatalogError
from repro.io.artifacts import DAMAGED_NPZ_ERRORS, load_artifact_meta
from repro.obs import NULL_REGISTRY

#: File name of the catalog database inside a workspace directory.
CATALOG_FILENAME = "catalog.sqlite"

#: Sidecar file whose exclusive ``flock`` serialises catalog opens.
OPEN_LOCK_FILENAME = CATALOG_FILENAME + ".lock"

#: Bumped on any schema change; an on-disk catalog with a different
#: ``user_version`` is dropped and rebuilt from the npz files.
SCHEMA_VERSION = 1

#: Seconds a writer waits on another process's transaction before
#: giving up (sqlite busy timeout).
BUSY_TIMEOUT_SECONDS = 10.0

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        file TEXT PRIMARY KEY,
        kind TEXT NOT NULL,
        key TEXT NOT NULL,
        corpus TEXT,
        bytes INTEGER NOT NULL,
        mtime REAL NOT NULL,
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
        meta TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS artifacts_kind ON artifacts(kind)",
    "CREATE INDEX IF NOT EXISTS artifacts_corpus ON artifacts(corpus)",
    "CREATE INDEX IF NOT EXISTS artifacts_mtime ON artifacts(mtime)",
    """
    CREATE TABLE IF NOT EXISTS cells (
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
    "CREATE INDEX IF NOT EXISTS cells_grid ON cells(corpus, eps, min_lns)",
    """
    CREATE TABLE IF NOT EXISTS corpora (
        fingerprint TEXT PRIMARY KEY,
        name TEXT,
        n_trajectories INTEGER,
        n_segments INTEGER,
        first_seen REAL,
        last_seen REAL
    )
    """,
)

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
_OPS_HELP = "Catalog operations by op (index/touch/rebuild/query)."
_SECONDS_NAME = "repro_catalog_op_seconds"
_SECONDS_HELP = "Wall seconds per catalog operation by op."


class Catalog:
    """The sqlite index of one workspace directory.

    Open via :meth:`repro.api.Workspace.catalog` (or directly with the
    directory); reads are :meth:`query` (named canned queries) and
    :meth:`sql` (guarded raw SQL over a read-only connection).  The
    write methods are called by :class:`~repro.api.cache.ArtifactStore`
    — user code should never need them.
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
            # Switching a fresh database to WAL needs an exclusive lock
            # that sqlite does not wait for, so concurrent first opens
            # fail with "database is locked" unless they queue here.
            with open(
                os.path.join(cache_dir, OPEN_LOCK_FILENAME), "a"
            ) as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                self._configure()
        except (OSError, sqlite3.Error) as exc:
            raise CatalogError(
                f"cannot open catalog at {self.path!r}: {exc}"
            ) from exc
        # A cold catalog (fresh db, or schema bump) over a directory
        # that already holds artifacts: adopt them.
        if not self._any_rows() and self._npz_names():
            self.rebuild()

    def _configure(self) -> None:
        conn = self._conn
        # WAL lets readers proceed under a writer; on filesystems that
        # refuse it sqlite reports the old mode — keep going.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            # Unknown (newer/older) schema: drop and re-derive — every
            # row is recoverable from the npz files.
            for table in ("artifacts", "cells", "corpora"):
                conn.execute(f"DROP TABLE IF EXISTS {table}")
        for statement in _SCHEMA:
            conn.execute(statement)
        if version != SCHEMA_VERSION:
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

    def _any_rows(self) -> bool:
        row = self._conn.execute("SELECT 1 FROM artifacts LIMIT 1").fetchone()
        return row is not None

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

    # -- write paths (driven by ArtifactStore) -------------------------------
    def index_artifact(self, file: str) -> None:
        """Make one npz file's rows say what the file says now, after a
        save or an unlink.

        Decided inside the write transaction: a present file is read
        back (``os.stat`` and its ``__meta__`` member) and its artifact
        row and grid cells upserted; a missing file loses its rows.
        Each writer calls this after its own replace or unlink, so the
        last commit sees the last change — two writers of one key
        cannot leave a row describing the file that lost the race."""
        with self._timed("index"), self._write() as conn:
            row = self._read_file(file)
            if row is None:
                conn.execute("DELETE FROM artifacts WHERE file=?", (file,))
                conn.execute("DELETE FROM cells WHERE file=?", (file,))
            else:
                self._index_one(conn, *row)

    #: An unlinked file takes the same disk-decided write.
    record_eviction = index_artifact

    def _read_file(
        self, file: str
    ) -> Optional[Tuple[str, str, str, int, float, dict]]:
        """``(file, kind, key, bytes, mtime, meta)`` of one npz file as
        it is on disk, or ``None`` when it is gone.  Kind and key come
        from the name ``<kind>-<key>.npz``; only ``__meta__`` is read."""
        path = os.path.join(self.cache_dir, file)
        try:
            stat = os.stat(path)
            meta = load_artifact_meta(path)
        except OSError:
            return None  # vanished under a concurrent eviction
        except DAMAGED_NPZ_ERRORS:
            meta = {"error": "unreadable"}
        kind, _, rest = file.partition("-")
        return (
            file, kind, rest[: -len(".npz")], stat.st_size, stat.st_mtime,
            meta if isinstance(meta, dict) else {},
        )

    def _index_one(
        self, conn, file: str, kind: str, key: str,
        size: int, mtime: float, meta: dict,
    ) -> None:
        knobs = {column: _number(meta.get(column)) for column in _KNOB_COLUMNS}
        grid = meta.get("grid")
        if isinstance(grid, (list, tuple)) and len(grid) == 2:
            knobs["n_eps"] = _number(grid[0])
            knobs["n_min_lns"] = _number(grid[1])
        use_weights = meta.get("use_weights")
        corpus = meta.get("corpus")
        conn.execute(
            "INSERT OR REPLACE INTO artifacts (file, kind, key, corpus,"
            " bytes, mtime, build_seconds, suppression, eps, min_lns,"
            " use_weights, gamma, n_segments, n_eps, n_min_lns, qmeasure,"
            " meta) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (
                file, kind, key,
                corpus if isinstance(corpus, str) else None,
                int(size), float(mtime),
                knobs["build_seconds"], knobs["suppression"], knobs["eps"],
                knobs["min_lns"],
                None if use_weights is None else int(bool(use_weights)),
                knobs["gamma"], _integer(knobs["n_segments"]),
                _integer(knobs["n_eps"]), _integer(knobs["n_min_lns"]),
                knobs["qmeasure"],
                json.dumps(meta, sort_keys=True, default=str),
            ),
        )
        if kind == "labels":
            self._index_cells(conn, file, meta)
        elif kind == "quality" and knobs["qmeasure"] is not None:
            # Backfill the matching grid cells (order-independent with
            # the labels side: whichever lands second completes the row).
            conn.execute(
                "UPDATE cells SET qmeasure=? WHERE corpus IS ?"
                " AND eps=? AND min_lns=?",
                (knobs["qmeasure"], meta.get("corpus"),
                 knobs["eps"], knobs["min_lns"]),
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
        # Adopt QMeasure from quality artifacts already indexed.
        conn.execute(
            "UPDATE cells SET qmeasure = ("
            "  SELECT a.qmeasure FROM artifacts a WHERE a.kind='quality'"
            "  AND a.corpus IS cells.corpus AND a.eps=cells.eps"
            "  AND a.min_lns=cells.min_lns)"
            " WHERE file=? AND qmeasure IS NULL",
            (file,),
        )

    def touch(self, file: str, mtime: float) -> None:
        """Mirror a read-refreshed file mtime (the recency signal the
        byte-budget eviction orders by)."""
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
        """Upsert corpus metadata, merging non-``None`` fields.

        Write-free when nothing changed — warm re-runs over an existing
        directory stay pure reads (``last_seen`` therefore records the
        last *metadata change*, not the last open)."""
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT name, n_trajectories, n_segments FROM corpora"
                    " WHERE fingerprint=?",
                    (fingerprint,),
                ).fetchone()
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog read failed: {exc}") from exc
        merged = (
            name if name is not None else (row and row[0]),
            n_trajectories if n_trajectories is not None else (row and row[1]),
            n_segments if n_segments is not None else (row and row[2]),
        )
        if row is not None and tuple(row) == merged:
            return
        now = time.time()
        with self._timed("index"), self._write() as conn:
            if row is None:
                conn.execute(
                    "INSERT OR REPLACE INTO corpora (fingerprint, name,"
                    " n_trajectories, n_segments, first_seen, last_seen)"
                    " VALUES (?,?,?,?,?,?)",
                    (fingerprint, *merged, now, now),
                )
            else:
                conn.execute(
                    "UPDATE corpora SET name=?, n_trajectories=?,"
                    " n_segments=?, last_seen=? WHERE fingerprint=?",
                    (*merged, now, fingerprint),
                )

    # -- recovery ------------------------------------------------------------
    def rebuild(self) -> int:
        """Re-derive ``artifacts`` and ``cells`` from the npz files
        (``corpora`` keeps its rows — names are not recoverable from
        disk).  Reads only each file's ``__meta__`` member, never a
        payload.  Returns the number of artifacts indexed."""
        with self._timed("rebuild"):
            rows = [
                row
                for row in map(self._read_file, sorted(self._npz_names()))
                if row is not None
            ]
            with self._write() as conn:
                conn.execute("DELETE FROM artifacts")
                conn.execute("DELETE FROM cells")
                for row in rows:
                    self._index_one(conn, *row)
            return len(rows)

    # -- store-facing reads --------------------------------------------------
    def _read(self, statement: str, params: Sequence = ()) -> List[tuple]:
        with self._lock:
            try:
                return self._conn.execute(statement, tuple(params)).fetchall()
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog read failed: {exc}") from exc

    def files(self) -> Set[str]:
        """Every indexed npz file name."""
        return set(self.file_stats())

    def file_stats(self) -> Dict[str, Tuple[int, float]]:
        """``file -> (bytes, mtime)`` as indexed, to compare with disk."""
        return {
            file: (int(size), float(mtime))
            for file, size, mtime in self._read(
                "SELECT file, bytes, mtime FROM artifacts"
            )
        }

    def total_bytes(self) -> int:
        row = self._read("SELECT COALESCE(SUM(bytes), 0) FROM artifacts")
        return int(row[0][0])

    def eviction_candidates(self) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, file)`` coldest first — the byte-budget
        sweep's victim order, as one query instead of listdir+stat."""
        return [
            (float(mtime), int(size), file)
            for file, size, mtime in self._read(
                "SELECT file, bytes, mtime FROM artifacts ORDER BY mtime"
            )
        ]

    def entries(self, kind_order: Sequence[str] = ()) -> List[dict]:
        """The ``ArtifactStore.entries()`` rows, served from the index
        (no stat, no npz open)."""
        rows = [
            {
                "kind": kind,
                "key": key,
                "file": file,
                "bytes": int(size),
                "meta": _load_meta_json(meta),
            }
            for file, kind, key, size, meta in self._read(
                "SELECT file, kind, key, bytes, meta FROM artifacts"
            )
        ]
        order = {kind: rank for rank, kind in enumerate(kind_order)}
        rows.sort(key=lambda row: (order.get(row["kind"], 99), row["file"]))
        return rows

    # -- the query surface ---------------------------------------------------
    def query(self, name: str, **filters) -> List[dict]:
        """Run a named canned query; returns a list of dict rows.

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
            rows = self._read_dicts(statement, params)
        return rows

    def _read_dicts(self, statement: str, params: Sequence) -> List[dict]:
        with self._lock:
            try:
                cursor = self._conn.execute(statement, tuple(params))
                columns = [item[0] for item in cursor.description]
                return [dict(zip(columns, row)) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise CatalogError(f"catalog read failed: {exc}") from exc

    def sql(self, statement: str, params: Sequence = ()) -> List[dict]:
        """Run one read-only SELECT over a fresh ``mode=ro`` connection.

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


def _load_meta_json(text) -> dict:
    if not text:
        return {}
    try:
        meta = json.loads(text)
    except ValueError:  # pragma: no cover - hand-edited catalog
        return {}
    return meta if isinstance(meta, dict) else {}


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
