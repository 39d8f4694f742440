"""Per-corpus Workspace management for the serving layer.

A :class:`WorkspaceRegistry` maps corpus *names* to open
:class:`~repro.api.workspace.Workspace` sessions over one shared cache
directory.  Corpora are declared up front as :class:`CorpusSpec`
records (a CSV path, or in-process trajectories for tests), opened
lazily on first request, keyed by their content fingerprint
(:func:`repro.api.fingerprint.corpus_fingerprint`), and evicted LRU
once more than ``max_workspaces`` are open — evicting a workspace only
drops its in-memory object tier; the npz artifacts stay on disk, so a
re-opened corpus starts warm (read-through).

The registry is thread-safe: the serving front-end calls it from
executor threads, and each pool worker process builds its own instance
from the same picklable specs.  The first time an instance learns a
corpus's fingerprint it records the corpus's name in the directory's
catalog (:mod:`repro.api.catalog`): the one fact no artifact records,
which ``/v1/query`` filters accept.
"""

from __future__ import annotations

import threading
from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.catalog import Catalog
from repro.api.workspace import Workspace
from repro.core.config import TraclusConfig
from repro.exceptions import CatalogError, ServeError
from repro.model.trajectory import Trajectory


@dataclass(frozen=True)
class CorpusSpec:
    """One servable corpus: where its trajectories come from and the
    point-independent config its workspace runs with.  Exactly one of
    ``csv_path`` / ``trajectories`` must be set; CSV specs are the
    picklable flavor pool workers are initialised with."""

    name: str
    csv_path: Optional[str] = None
    trajectories: Optional[Tuple[Trajectory, ...]] = None
    config: TraclusConfig = field(default_factory=TraclusConfig)

    def __post_init__(self):
        if (self.csv_path is None) == (self.trajectories is None):
            raise ServeError(
                f"corpus {self.name!r}: set exactly one of csv_path or "
                f"trajectories"
            )

    def load(self) -> Sequence[Trajectory]:
        if self.trajectories is not None:
            return list(self.trajectories)
        from repro.io.csvio import read_trajectories_csv

        return read_trajectories_csv(self.csv_path)


@dataclass
class RegistryStats:
    """Counters of one registry instance (not persisted)."""

    opens: int = 0
    hits: int = 0
    evictions: int = 0


class WorkspaceRegistry:
    """``name -> Workspace`` with LRU eviction over one cache dir."""

    def __init__(
        self,
        specs: Sequence[CorpusSpec],
        cache_dir: Optional[str] = None,
        max_workspaces: int = 8,
        max_disk_bytes: Optional[int] = None,
        metrics=None,
    ):
        if max_workspaces < 1:
            raise ServeError("max_workspaces must be >= 1")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate corpus names in {names}")
        self.specs: Dict[str, CorpusSpec] = {s.name: s for s in specs}
        self.cache_dir = cache_dir
        self.max_workspaces = max_workspaces
        self.max_disk_bytes = max_disk_bytes
        #: Shared by every workspace this registry opens (telemetry).
        self.metrics = metrics
        # Insertion order == recency order (oldest first), like the
        # artifact store's object tier.
        self._open: Dict[str, Workspace] = {}
        self._fingerprints: Dict[str, str] = {}
        self._lock = threading.RLock()
        self.stats = RegistryStats()

    def names(self) -> List[str]:
        return sorted(self.specs)

    def get(self, name: str) -> Workspace:
        """The corpus's workspace — opened (and LRU-registered) on
        first use, served from the open set afterwards."""
        with self._lock:
            workspace = self._open.pop(name, None)
            if workspace is not None:
                self._open[name] = workspace  # refresh recency
                self.stats.hits += 1
                return workspace
            spec = self.specs.get(name)
            if spec is None:
                raise ServeError(
                    f"unknown corpus {name!r}; serving "
                    f"{self.names() or 'none'}"
                )
        # Load outside the lock: opening a big corpus must not block
        # lookups of already-open ones.
        workspace = Workspace(
            spec.load(),
            spec.config,
            cache_dir=self.cache_dir,
            max_disk_bytes=self.max_disk_bytes,
            metrics=self.metrics,
        )
        with self._lock:
            raced = self._open.pop(name, None)
            if raced is not None:
                # Another thread opened it while we loaded; keep theirs.
                self._open[name] = raced
                self.stats.hits += 1
                return raced
            while len(self._open) >= self.max_workspaces:
                evicted_name = next(iter(self._open))
                del self._open[evicted_name]
                self.stats.evictions += 1
            self._open[name] = workspace
            learned = name not in self._fingerprints
            self._fingerprints[name] = workspace.corpus_key
            self.stats.opens += 1
        if learned and self.cache_dir is not None:
            self._record_name(name, workspace.corpus_key)
        return workspace

    def _record_name(self, name: str, fingerprint: str) -> None:
        """Write *name* for *fingerprint* into the catalog; a catalog
        that cannot open or write costs only the name."""
        try:
            with closing(Catalog(self.cache_dir, metrics=self.metrics)) as catalog:
                catalog.register_corpus(fingerprint, name=name)
        except CatalogError:
            pass

    def fingerprint(self, name: str) -> str:
        """The corpus's content fingerprint (opens it if needed)."""
        with self._lock:
            cached = self._fingerprints.get(name)
        if cached is not None:
            return cached
        return self.get(name).corpus_key

    def open_names(self) -> List[str]:
        """Currently-open corpora, coldest first (inspection only)."""
        with self._lock:
            return list(self._open)

    def __repr__(self) -> str:
        return (
            f"WorkspaceRegistry({len(self.specs)} corpora, "
            f"{len(self._open)} open, cache={self.cache_dir!r})"
        )
