"""The two-level artifact cache behind a :class:`~repro.api.Workspace`.

Level 1 is a plain in-process dict of rich objects (``NeighborGraph``,
``SegmentSet``, label arrays) keyed by ``(kind, key)``.  Level 2 — only
when the workspace was opened with a directory — is one npz file per
artifact (:mod:`repro.io.artifacts`), named ``<kind>-<key>.npz``, so a
later CLI invocation or benchmark process starts warm.

The store never interprets payloads; (de)materialising rich objects is
the workspace's job, handed in as the ``decode`` of
:meth:`ArtifactStore.load_arrays`.  It does count traffic
(:class:`CacheStats`) — tests and the cold/warm benchmark assert engine
short-circuits through those counters.

Both tiers evict least-recently-used entries: the object tier caps the
entry count per kind, and the npz tier (when ``max_disk_bytes`` is
set) keeps the directory's total size under a byte budget by unlinking
the coldest files (recency == file mtime, refreshed on every read, so
the ordering is shared across the serving processes that share one
directory).  A file being read is pinned and never a mid-eviction
victim in-process; cross-process, POSIX unlink semantics keep an
already-open reader safe, and a reader that loses the
exists-then-open race treats the vanished file as a plain miss.

The npz files are the store's only record: eviction and listing scan
the directory, and the store never opens the sqlite catalog
(:mod:`repro.api.catalog`), which syncs itself from the files when it
is queried.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.io.artifacts import (
    DAMAGED_NPZ_ERRORS,
    load_artifact,
    load_artifact_meta,
    save_artifact,
)
from repro.obs import NULL_REGISTRY, SIZE_BUCKETS_BYTES, span

#: Artifact kinds in the order the ``repro workspace`` inspector lists
#: them (upstream stages first).
ARTIFACT_KINDS = (
    "partition",
    "graph",
    "counts",
    "labels",
    "quality",
    "representatives",
)


@dataclass
class CacheStats:
    """Traffic counters of one workspace session (not persisted).

    All mutation goes through the ``count_*`` methods, which hold an
    internal lock: workspaces are shared across serving threads, and
    unlocked ``dict`` read-modify-write on :attr:`builds` lost updates
    under contention (two threads both reading ``n`` then writing
    ``n + 1``).  The plain integer fields stay public for reads —
    torn reads are impossible for ints under the GIL, and every test
    asserting exact totals runs after the writers have joined.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    #: Disk lookups that found no file.  Memory-only stores
    #: (``cache_dir is None``) have no disk tier and never count one —
    #: the serving layer's warm-hit-rate metrics ride this.
    misses: int = 0
    #: npz files unlinked by the byte-budget eviction sweep.
    disk_evictions: int = 0
    #: Expensive engine invocations, by stage — the cold/warm benchmark
    #: asserts ``graph_builds == 0`` on a warm grid re-run.
    builds: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds spent inside engine builds, by stage: the same
    #: clock as each saved artifact's ``build_seconds`` meta, which the
    #: catalog indexes for ``repro workspace query`` (see
    #: :meth:`repro.api.Workspace._materialize`).
    build_seconds: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_build(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.builds[stage] = self.builds.get(stage, 0) + 1
            self.build_seconds[stage] = (
                self.build_seconds.get(stage, 0.0) + seconds
            )

    def build_count(self, stage: str) -> int:
        with self._lock:
            return self.builds.get(stage, 0)

    def builds_snapshot(self) -> Dict[str, int]:
        """A point-in-time copy safe to diff against a later one."""
        with self._lock:
            return dict(self.builds)

    def count_memory_hit(self) -> None:
        with self._lock:
            self.memory_hits += 1

    def count_disk_hit(self) -> None:
        with self._lock:
            self.disk_hits += 1

    def count_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def count_disk_eviction(self) -> None:
        with self._lock:
            self.disk_evictions += 1


class ArtifactStore:
    """``(kind, key) -> (arrays, meta)`` with optional npz persistence."""

    #: In-memory objects kept per kind.  Within one workspace each kind
    #: has a single key per *configuration*, but per-grid kinds (labels,
    #: counts, quality) accumulate one entry per distinct grid — the cap
    #: bounds a sweep-many-grids session; evicted entries recompute (or
    #: reload from disk) on the next request.
    MAX_OBJECTS_PER_KIND = 8

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
        metrics=None,
    ):
        self.cache_dir = cache_dir
        #: Total-size budget for the npz tier; ``None`` means grow-only
        #: (the pre-serving behaviour).  Enforced after every save.
        self.max_disk_bytes = max_disk_bytes
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        # Insertion order doubles as recency order (oldest first):
        # get/put re-insert on every touch, making eviction true LRU.
        self._memory: Dict[Tuple[str, str], object] = {}
        self._lock = threading.RLock()
        self._pins: Dict[str, int] = {}
        self.stats = CacheStats()
        # Instruments are resolved once here; with the default disabled
        # registry every one is the shared no-op, so the hot path pays
        # a method call and nothing else.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        lookups = "repro_cache_lookups_total"
        lookups_help = "Artifact cache lookups by tier and outcome."
        self._m_memory_hits = self.metrics.counter(
            lookups, help=lookups_help, tier="memory", outcome="hit"
        )
        self._m_disk_hits = self.metrics.counter(
            lookups, help=lookups_help, tier="disk", outcome="hit"
        )
        self._m_misses = self.metrics.counter(
            lookups, help=lookups_help, tier="disk", outcome="miss"
        )
        self._m_evictions = self.metrics.counter(
            "repro_cache_evictions_total",
            help="Artifacts evicted by the disk byte-budget sweep.",
            tier="disk",
        )
        io_name = "repro_cache_io_seconds"
        io_help = "Wall seconds spent loading/saving npz artifacts."
        self._m_load_seconds = self.metrics.histogram(
            io_name, help=io_help, op="load"
        )
        self._m_save_seconds = self.metrics.histogram(
            io_name, help=io_help, op="save"
        )
        bytes_name = "repro_cache_artifact_bytes"
        bytes_help = "npz artifact sizes crossing the disk tier."
        self._m_load_bytes = self.metrics.histogram(
            bytes_name, help=bytes_help, buckets=SIZE_BUCKETS_BYTES, op="load"
        )
        self._m_save_bytes = self.metrics.histogram(
            bytes_name, help=bytes_help, buckets=SIZE_BUCKETS_BYTES, op="save"
        )

    # -- level 1: rich in-process objects ---------------------------------
    def get_object(self, kind: str, key: str):
        with self._lock:
            entry = self._memory.pop((kind, key), None)
            if entry is not None:
                self._memory[(kind, key)] = entry  # refresh recency
        if entry is not None:
            self.stats.count_memory_hit()
            self._m_memory_hits.inc()
        return entry

    def put_object(self, kind: str, key: str, value) -> None:
        with self._lock:
            self._memory.pop((kind, key), None)
            same_kind = [k for k in self._memory if k[0] == kind]
            while len(same_kind) >= self.MAX_OBJECTS_PER_KIND:
                del self._memory[same_kind.pop(0)]  # least recent first
            self._memory[(kind, key)] = value

    def drop_objects(self, kind: str) -> None:
        """Forget every in-memory object of *kind* (disk is untouched)."""
        with self._lock:
            for cache_key in [k for k in self._memory if k[0] == kind]:
                del self._memory[cache_key]

    # -- read pins ---------------------------------------------------------
    def _pin(self, path: str) -> None:
        with self._lock:
            self._pins[path] = self._pins.get(path, 0) + 1

    def _unpin(self, path: str) -> None:
        with self._lock:
            count = self._pins.get(path, 0) - 1
            if count <= 0:
                self._pins.pop(path, None)
            else:
                self._pins[path] = count

    # -- level 2: npz files ------------------------------------------------
    def path(self, kind: str, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{kind}-{key}.npz")

    def load_arrays(
        self,
        kind: str,
        key: str,
        decode: Optional[Callable[[Dict[str, np.ndarray], dict], object]] = None,
    ):
        """The npz-tier artifact: ``decode(arrays, meta)`` when *decode*
        is given, else ``(arrays, meta)``; ``None`` on a miss.  A file
        that is missing, damaged, or that *decode* rejects (a member
        missing or malformed, as in one written by another version)
        counts one miss; a disk hit is counted only once decoded."""
        path = self.path(kind, key)
        if path is None:
            # Memory-only store: there is no disk tier to miss.
            return None
        if not os.path.exists(path):
            return self._miss()
        self._pin(path)
        started = time.perf_counter()
        try:
            with span("artifact_load", kind=kind):
                loaded = load_artifact(path)
        except (FileNotFoundError, *DAMAGED_NPZ_ERRORS):
            # Lost the exists-then-open race against a concurrent
            # eviction (another process's budget sweep), or a damaged
            # file that the rebuild replaces — a plain miss.
            return self._miss()
        finally:
            self._unpin(path)
        self._m_load_seconds.observe(time.perf_counter() - started)
        if decode is not None:
            try:
                loaded = decode(*loaded)
            except (KeyError, ValueError):
                return self._miss()
        if self.max_disk_bytes is not None:
            # Budgeted stores refresh mtime on read — the recency
            # signal eviction sorts on, visible to every process
            # sharing the directory.  Grow-only stores leave mtimes
            # alone (warm re-runs are pure reads; tests pin that).
            self._touch(path)
        self.stats.count_disk_hit()
        self._m_disk_hits.inc()
        if self.metrics.enabled:
            try:
                self._m_load_bytes.observe(os.path.getsize(path))
            except OSError:  # pragma: no cover - concurrently evicted
                pass
        return loaded

    def _miss(self) -> None:
        self.stats.count_miss()
        self._m_misses.inc()
        return None

    def save_arrays(
        self, kind: str, key: str, arrays: Dict[str, np.ndarray], meta: dict
    ) -> None:
        path = self.path(kind, key)
        if path is None:
            return
        started = time.perf_counter()
        with span("artifact_save", kind=kind):
            save_artifact(path, arrays, meta)
        self._m_save_seconds.observe(time.perf_counter() - started)
        if self.metrics.enabled:
            try:
                self._m_save_bytes.observe(os.path.getsize(path))
            except OSError:  # pragma: no cover - concurrently evicted
                pass
        self.enforce_disk_budget()

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh a file's mtime — the cross-process recency signal the
        byte-budget eviction sorts on."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - concurrently evicted
            pass

    def _scan(self) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, name)`` of every npz file in the directory
        now; a file evicted between the listing and its stat is
        skipped."""
        found = []
        for name in os.listdir(self.cache_dir):
            if not name.endswith(".npz"):
                continue
            try:
                stat = os.stat(os.path.join(self.cache_dir, name))
            except OSError:
                continue  # vanished under a concurrent eviction
            found.append((stat.st_mtime, stat.st_size, name))
        return found

    def disk_bytes(self) -> int:
        """Total size of the npz tier right now (0 when memory-only)."""
        if self.cache_dir is None:
            return 0
        return sum(size for _, size, _ in self._scan())

    def enforce_disk_budget(self) -> int:
        """Unlink coldest-first npz files — by (mtime, bytes, name) —
        until the directory fits ``max_disk_bytes``; returns how many
        were evicted.  Every npz file in the directory is a candidate,
        however it got there.  Pinned (mid-read) files are never
        victims; a file another process is already reading survives its
        unlink (POSIX keeps the open fd valid)."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return 0
        candidates = sorted(self._scan())
        total = sum(size for _, size, _ in candidates)
        evicted = 0
        for _, size, name in candidates:
            if total <= self.max_disk_bytes:
                break
            path = os.path.join(self.cache_dir, name)
            with self._lock:
                if self._pins.get(path, 0) > 0:
                    continue  # a reader holds it — never a mid-read victim
            try:
                os.unlink(path)
            except FileNotFoundError:
                total -= size  # another process evicted it first
                continue
            except OSError:
                continue
            total -= size
            evicted += 1
            self.stats.count_disk_eviction()
            self._m_evictions.inc()
        return evicted

    # -- inspection --------------------------------------------------------
    def entries(self) -> List[dict]:
        """Every persisted artifact: kind, key, file size, metadata (a
        file that does not decode lists ``{"error": "unreadable"}``).
        Sorted by pipeline stage then name (the ``repro workspace``
        inspector prints this)."""
        if self.cache_dir is None:
            return []
        rows: List[dict] = []
        for _, size, name in self._scan():
            try:
                meta = load_artifact_meta(os.path.join(self.cache_dir, name))
            except FileNotFoundError:
                continue  # evicted between stat and open
            except (OSError, *DAMAGED_NPZ_ERRORS):
                meta = {"error": "unreadable"}
            kind, _, rest = name.partition("-")
            rows.append(
                {
                    "kind": kind,
                    "key": rest[:-len(".npz")],
                    "file": name,
                    "bytes": size,
                    "meta": meta,
                }
            )
        order = {kind: rank for rank, kind in enumerate(ARTIFACT_KINDS)}
        rows.sort(key=lambda row: (order.get(row["kind"], 99), row["file"]))
        return rows
