"""The artifact-graph analysis facade.

A :class:`Workspace` binds one corpus (trajectories, or an
already-partitioned :class:`~repro.model.segmentset.SegmentSet`) to one
:class:`~repro.core.config.TraclusConfig` and materialises every
TRACLUS stage of the partition-and-group framework as a **named,
fingerprint-keyed artifact**:

=================  =====================================================
artifact           contents / downstream consumers
=================  =====================================================
``partition()``    characteristic points and the segment set ``D``
``eps_graph(eps)`` the ε-neighborhood CSR graph; any ε below the built
                   ε_max is served by filtering stored distances
``entropy_counts`` ``|N_eps|`` per (ε, segment) — entropy curves and the
                   Section 4.4 heuristic (Figures 16/19)
``labels(...)``    Figure-12 labels at any (ε, MinLns), via the shared
                   incremental sweep walk — clusters, Section 5.4 tables
``quality(...)``   QMeasure (Formula 11) at a grid point (Figures 17/20)
``representatives`` Figure-15 representative trajectories per cluster
=================  =====================================================

Every artifact is computed **at most once per configuration
fingerprint** (:mod:`repro.api.fingerprint`): repeated queries hit the
in-memory store, and — when the workspace is opened with a directory —
repeated *processes* hit the npz files on disk
(:mod:`repro.api.cache`).  All six kinds take the same read-through
path, :meth:`Workspace._materialize`: memory, then the per-artifact
build lock, then npz, then one timed build whose seconds feed the
session counters, the metrics and the artifact's ``build_seconds``
alike.  Because the stages form a dependency graph (labels need the
graph, which needs the partition), a single graph build at the largest
requested ε serves the parameter heuristic, every labeling, the
entropy curves, and the QMeasure figures.

Everything a workspace returns is **bitwise identical** to the direct
engine calls it replaces (characteristic points, labels, neighborhood
counts — pinned by ``tests/property/test_workspace_equivalence.py``);
the facade only removes redundant work, never changes results.

When to bypass to the raw engines (see also the README API guide):

* an ε_max so large the edge list approaches n², or a memory cap —
  ``LineSegmentDBSCAN(eps, min_lns).fit(segments,
  engine=BruteForceNeighborhood(segments, eps, distance))`` and the
  streaming ``neighborhood_size_counts`` never materialise edges;
* annealed parameter search (``eps_search_method="anneal"``) — probe
  points are data-dependent, so there is nothing to key a cache on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.cache import ArtifactStore, CacheStats
from repro.api.catalog import Catalog
from repro.api.fingerprint import (
    artifact_key,
    corpus_fingerprint,
    segments_fingerprint,
)
from repro.cluster.neighbor_graph import NeighborGraph
from repro.core.config import SweepConfig, TraclusConfig
from repro.exceptions import TrajectoryError, WorkspaceError
from repro.io.artifacts import pack_ragged, unpack_ragged
from repro.model.cluster import Cluster, clusters_from_labels
from repro.model.result import ClusteringResult
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.obs import NULL_REGISTRY, span
from repro.params.entropy import entropy_from_counts
from repro.params.heuristic import (
    ParameterEstimate,
    default_eps_grid,
    recommend_parameters,
)
from repro.partition.approximate import partition_all
from repro.quality.qmeasure import QualityBreakdown, quality_measure
from repro.representative.sweep import (
    RepresentativeConfig,
    generate_all_representatives,
)
from repro.sweep.engine import SweepEngine, SweepResult


def _readonly(array: np.ndarray) -> np.ndarray:
    """Freeze a cached array in place: every caller shares it."""
    array.setflags(write=False)
    return array


def _grid_cells(
    eps_values: np.ndarray, min_lns_values: np.ndarray, labels: np.ndarray
) -> List[List[float]]:
    """Per-cell ``[eps, min_lns, n_clusters, n_noise]`` of one labels
    grid — precomputed at save time so the sqlite catalog (and hence
    every cross-corpus analytics query) never has to open the payload.
    Cluster ids are contiguous ``0..k-1`` with ``-1`` noise, so the
    per-cell maximum is the cluster count minus one."""
    n_clusters = labels.max(axis=2) + 1
    n_noise = (labels < 0).sum(axis=2)
    return [
        [
            float(eps_values[i]),
            float(min_lns_values[j]),
            int(n_clusters[i, j]),
            int(n_noise[i, j]),
        ]
        for i in range(eps_values.size)
        for j in range(min_lns_values.size)
    ]


class PartitionArtifact:
    """Phase-1 output: the segment set ``D`` and per-trajectory
    characteristic points (``None`` for a segment-bound workspace,
    which never ran phase 1)."""

    __slots__ = ("segments", "characteristic_points")

    def __init__(
        self,
        segments: SegmentSet,
        characteristic_points: Optional[List[List[int]]],
    ):
        self.segments = segments
        self.characteristic_points = characteristic_points

    def __repr__(self) -> str:
        return f"PartitionArtifact(n_segments={len(self.segments)})"


class Workspace:
    """Corpus-bound analysis session over cached TRACLUS artifacts.

    Parameters
    ----------
    trajectories:
        The corpus.  Alternatively build from an already-partitioned
        set with :meth:`from_segments` (figure benchmarks do).
    config:
        Point-independent knobs (distance weights, suppression,
        ``use_weights``, Step-3 threshold, γ); per-query parameters
        (ε, MinLns, grids) are method arguments.
    cache_dir:
        Optional directory for the npz-backed persistent cache; the
        CLI's ``--workspace DIR`` flag is exactly this.
    max_disk_bytes:
        Optional total-size budget for the npz tier.  When set, every
        save triggers an LRU sweep that unlinks the coldest artifacts
        until the directory fits — the knob the multi-corpus serving
        layer (:mod:`repro.serve`) uses to share one bounded cache
        directory across corpora.  ``None`` (default) keeps the
        grow-only behaviour.

    >>> ws = Workspace(trajectories, TraclusConfig())     # doctest: +SKIP
    >>> est = ws.recommend_parameters()                   # builds graph
    >>> labels = ws.labels(est.eps, est.min_lns)          # reuses graph
    >>> q = ws.quality(est.eps, est.min_lns)              # reuses labels
    """

    def __init__(
        self,
        trajectories: Optional[Sequence[Trajectory]] = None,
        config: Optional[TraclusConfig] = None,
        cache_dir: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
        metrics=None,
        _segments: Optional[SegmentSet] = None,
    ):
        if (trajectories is None) == (_segments is None):
            raise WorkspaceError(
                "bind a workspace to either trajectories or (via "
                "Workspace.from_segments) a segment set"
            )
        self.config = config if config is not None else TraclusConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.store = ArtifactStore(
            cache_dir, max_disk_bytes=max_disk_bytes, metrics=self.metrics
        )
        self._distance = self.config.distance()
        self._engines: Dict[bytes, SweepEngine] = {}
        # Grids materialised this session: (eps tuple, min_lns tuple,
        # threshold, key).  labels()/quality() at a single point first
        # look for a covering grid and slice it instead of walking a
        # one-cell column of their own.
        self._grid_registry: List[Tuple[Tuple[float, ...],
                                        Tuple[float, ...],
                                        Optional[float], str]] = []
        # One lock per (artifact kind, fingerprint key): concurrent
        # builds of the *same* artifact collapse to one compute while
        # distinct keys proceed in parallel.  The meta-lock only guards
        # this dict and the grid registry, never a build.
        self._build_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._build_locks_meta = threading.Lock()
        if trajectories is not None:
            trajectories = list(trajectories)
            if not trajectories:
                raise TrajectoryError("a workspace needs at least one trajectory")
            dims = {t.dim for t in trajectories}
            if len(dims) != 1:
                raise TrajectoryError(
                    f"all trajectories must share one dimensionality, "
                    f"got {sorted(dims)}"
                )
            self.trajectories: Optional[List[Trajectory]] = trajectories
            self.corpus_key = corpus_fingerprint(trajectories)
        else:
            self.trajectories = None
            self.corpus_key = segments_fingerprint(_segments)
            # A segment-bound workspace starts with its partition
            # artifact pre-materialised (phase 1 already happened).
            self.store.put_object(
                "partition",
                self._partition_key(),
                PartitionArtifact(_segments, None),
            )

    @classmethod
    def from_segments(
        cls,
        segments: SegmentSet,
        config: Optional[TraclusConfig] = None,
        cache_dir: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
        metrics=None,
    ) -> "Workspace":
        """Bind to an already-partitioned segment set (phase 2+ only:
        no characteristic points, no :meth:`fit`)."""
        return cls(
            config=config, cache_dir=cache_dir,
            max_disk_bytes=max_disk_bytes, metrics=metrics,
            _segments=segments,
        )

    # -- stats / inspection --------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.store.stats

    def _artifact_lock(self, kind: str, key: str) -> threading.Lock:
        """The build lock for one (kind, key) artifact.

        Callers take the fast cache path first and only reach for the
        lock on a miss, then re-check the cache under it (double-checked
        locking): a thread that lost the race finds the winner's object
        and never builds.  Lock acquisition order follows the artifact
        dependency graph (labels -> engine -> graph -> partition), which
        is acyclic, so nested holds cannot deadlock."""
        pair = (kind, key)
        with self._build_locks_meta:
            lock = self._build_locks.get(pair)
            if lock is None:
                lock = self._build_locks[pair] = threading.Lock()
        return lock

    def _materialize(
        self,
        kind: str,
        key: str,
        compute: Callable,
        encode: Callable,
        decode: Callable,
        meta: Callable,
        inputs: Callable[[], tuple] = tuple,
        fresh: Optional[Callable] = None,
    ):
        """The one read-through path behind every artifact.

        The memory tier first; on a miss, the (kind, key) build lock
        and a second look; then the npz tier, where ``decode(arrays,
        meta)`` rebuilds the object (a file it cannot decode — a
        member missing or malformed, as in one written by another
        version — counts as a miss, rebuilt and saved over); and only
        then a build.  A build
        resolves ``inputs()`` — the upstream artifacts, which count as
        their own builds or hits — before its clock starts, then runs
        ``compute(*inputs)`` inside a ``build:<kind>`` span.  That one
        ``elapsed`` feeds :attr:`CacheStats.builds`/``build_seconds``,
        ``repro_builds_total``/``repro_build_seconds{stage}`` and the
        saved artifact's ``build_seconds`` meta.  ``encode(value)``
        gives the npz arrays and ``meta(value)`` the kind-specific meta
        fields.  *fresh* rejects a cached object that cannot serve this
        call (the graph's grow-only rule: any ε up to its own)."""

        def usable(value) -> bool:
            return value is not None and (fresh is None or fresh(value))

        value = self.store.get_object(kind, key)
        if usable(value):
            return value
        with self._artifact_lock(kind, key):
            value = self.store.get_object(kind, key)
            if usable(value):
                return value
            value = self.store.load_arrays(kind, key, decode)
            if not usable(value):
                upstream = inputs()
                started = time.perf_counter()
                try:
                    with span(f"build:{kind}"):
                        value = compute(*upstream)
                finally:
                    elapsed = time.perf_counter() - started
                    self.stats.count_build(kind, elapsed)
                    self.metrics.counter(
                        "repro_builds_total",
                        help="Engine builds (cache misses reaching "
                             "compute) by stage.",
                        stage=kind,
                    ).inc()
                    self.metrics.histogram(
                        "repro_build_seconds",
                        help="Wall seconds per engine build by stage.",
                        stage=kind,
                    ).observe(elapsed)
                if self.store.cache_dir is not None:
                    self.store.save_arrays(
                        kind, key, encode(value),
                        {"kind": kind, "corpus": self.corpus_key,
                         **meta(value), "build_seconds": elapsed},
                    )
            self.store.put_object(kind, key, value)
            return value

    def artifact_entries(self) -> List[dict]:
        """Persisted artifacts (the ``repro workspace`` inspector)."""
        return self.store.entries()

    def catalog(self) -> Catalog:
        """A new sqlite catalog over this workspace's directory — canned
        analytics via :meth:`Catalog.query`, guarded raw SQL via
        :meth:`Catalog.sql`, each synced from the npz files first.  The
        caller closes it.  Raises for memory-only workspaces (there is
        nothing on disk to index)."""
        if self.store.cache_dir is None:
            raise WorkspaceError(
                "memory-only workspaces have no catalog; open the "
                "workspace with cache_dir to index its artifacts"
            )
        return Catalog(self.store.cache_dir, metrics=self.metrics)

    # -- keys ----------------------------------------------------------------
    def _distance_parts(self) -> Tuple:
        config = self.config
        return (
            config.w_perp, config.w_par, config.w_theta, config.directed,
        )

    def _partition_key(self) -> str:
        return artifact_key(
            [self.corpus_key, "partition", self.config.suppression]
        )

    def _graph_key(self) -> str:
        return artifact_key(
            [self.corpus_key, "graph", self.config.suppression,
             *self._distance_parts()]
        )

    def _counts_key(self, eps_values: np.ndarray) -> str:
        return artifact_key(
            [self.corpus_key, "counts", self.config.suppression,
             *self._distance_parts(), eps_values]
        )

    def _labels_key(
        self,
        eps_values: np.ndarray,
        min_lns_values: np.ndarray,
        cardinality_threshold: Optional[float],
    ) -> str:
        config = self.config
        return artifact_key(
            [self.corpus_key, "labels", config.suppression,
             *self._distance_parts(), config.use_weights,
             cardinality_threshold, eps_values, min_lns_values]
        )

    def _setting(self, cardinality_threshold: Optional[float]) -> str:
        """The labels key less its corpus and grid, recorded in the meta
        of labels and quality artifacts: the catalog gives a grid cell
        the QMeasure of a quality artifact with the same setting only."""
        config = self.config
        return artifact_key(
            [config.suppression, *self._distance_parts(),
             config.use_weights, cardinality_threshold]
        )

    # -- partition artifact --------------------------------------------------
    def partition(self) -> PartitionArtifact:
        """Phase 1 (Figure 8) over the whole corpus — computed once,
        by :func:`~repro.partition.approximate.partition_all`."""
        return self._materialize(
            "partition", self._partition_key(),
            lambda: PartitionArtifact(*partition_all(
                self.trajectories, self.config.suppression
            )),
            self._partition_to_arrays, self._partition_from_arrays,
            lambda artifact: {
                "suppression": self.config.suppression,
                "n_segments": len(artifact.segments),
                "n_trajectories": len(self.trajectories or ()),
            },
        )

    def _partition_to_arrays(
        self, artifact: PartitionArtifact
    ) -> Dict[str, np.ndarray]:
        cps_flat, cps_offsets = pack_ragged(artifact.characteristic_points)
        return {
            "seg_starts": artifact.segments.starts,
            "seg_ends": artifact.segments.ends,
            "seg_traj_ids": artifact.segments.traj_ids,
            "seg_weights": artifact.segments.weights,
            "cps_flat": cps_flat,
            "cps_offsets": cps_offsets,
        }

    def _partition_from_arrays(
        self, arrays: Dict[str, np.ndarray], meta: dict
    ) -> PartitionArtifact:
        segments = SegmentSet(
            arrays["seg_starts"], arrays["seg_ends"],
            arrays["seg_traj_ids"], arrays["seg_weights"],
        )
        return PartitionArtifact(
            segments,
            [list(map(int, row)) for row in unpack_ragged(
                arrays["cps_flat"], arrays["cps_offsets"])],
        )

    def segments(self) -> SegmentSet:
        """The partition set ``D`` (phase-1 output)."""
        return self.partition().segments

    def characteristic_points(self) -> List[List[int]]:
        """Each trajectory's characteristic points, as fresh lists (a
        caller changing them cannot change the cached artifact)."""
        artifact = self.partition()
        if artifact.characteristic_points is None:
            raise WorkspaceError(
                "segment-bound workspaces have no characteristic points"
            )
        return [list(cps) for cps in artifact.characteristic_points]

    # -- ε-graph artifact ----------------------------------------------------
    def _ensure_graph(self, eps: float) -> NeighborGraph:
        """A neighbor graph built at radius >= *eps* (one per distance
        config; it only ever grows — any smaller ε is served by
        filtering the stored edge distances, bitwise identical to a
        fresh build)."""
        eps = float(eps)

        def build(segments: SegmentSet) -> NeighborGraph:
            graph = NeighborGraph.build(segments, eps, self._distance)
            # Engines hold views of the superseded graph; rebuild from
            # the new one on next use.
            self._engines.clear()
            return graph

        return self._materialize(
            "graph", self._graph_key(), build,
            lambda graph: {"indptr": graph.indptr,
                           "indices": graph.indices, "data": graph.data},
            lambda arrays, meta: NeighborGraph(
                float(meta["eps"]), self._distance, arrays["indptr"],
                arrays["indices"], arrays["data"],
            ),
            lambda graph: {"eps": graph.eps, "n_segments": graph.n_segments,
                           "n_edges": graph.n_edges},
            inputs=lambda: (self.segments(),),
            fresh=lambda graph: graph.eps >= eps,
        )

    def eps_graph(self, eps: float) -> NeighborGraph:
        """The ε-neighborhood CSR graph at exactly *eps* (a filtered
        view when a larger graph is already cached)."""
        graph = self._ensure_graph(float(eps))
        return graph if graph.eps == float(eps) else graph.restrict(float(eps))

    def graph_builds(self) -> int:
        """Distance-kernel graph builds this session (the fig17-style
        warm-grid assertion reads this)."""
        return self.stats.build_count("graph")

    # -- sweep state ---------------------------------------------------------

    #: Engines kept per distinct ε grid (each holds O(E) grouped-edge
    #: arrays and its cardinality tables — the graph itself is shared,
    #: so this only caps the derived views).
    _MAX_ENGINES = 4

    def _engine(self, eps_values: Sequence[float]) -> SweepEngine:
        eps_array = np.asarray(list(eps_values), dtype=np.float64)
        if eps_array.size == 0:
            raise WorkspaceError("eps_values must be non-empty")
        cache_key = eps_array.tobytes()
        engine = self._engines.get(cache_key)
        if engine is not None:
            return engine
        with self._artifact_lock("engine", cache_key.hex()):
            engine = self._engines.get(cache_key)
            if engine is None:
                graph = self._ensure_graph(float(eps_array.max()))
                engine = SweepEngine(
                    self.segments(), eps_array, self._distance, graph=graph,
                    metrics=self.metrics,
                )
                while len(self._engines) >= self._MAX_ENGINES:
                    self._engines.pop(next(iter(self._engines)))
                self._engines[cache_key] = engine
            return engine

    # -- entropy artifact ----------------------------------------------------
    def entropy_counts(self, eps_values: Sequence[float]) -> np.ndarray:
        """``|N_eps(L_i)|`` for every ε in *eps_values* and every
        segment — identical ints to
        :func:`repro.cluster.neighbor_graph.neighborhood_size_counts`,
        served from the shared graph's stored distances."""
        eps_array = np.asarray(list(eps_values), dtype=np.float64)
        return self._materialize(
            "counts", self._counts_key(eps_array),
            lambda engine: _readonly(engine.neighborhood_counts()),
            lambda counts: {"counts": counts, "eps_values": eps_array},
            lambda arrays, meta: _readonly(arrays["counts"]),
            lambda counts: {"n_eps": int(eps_array.size),
                            "eps_max": float(eps_array.max())},
            inputs=lambda: (self._engine(eps_array),),
        )

    def entropy_curve(
        self, eps_values: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(entropies, avg_sizes)`` over *eps_values* — the Figure
        16/19 curves, bitwise equal to
        :func:`repro.params.entropy.entropy_from_counts` over the
        brute-force oracle's counts."""
        return entropy_from_counts(self.entropy_counts(eps_values))

    def recommend_parameters(
        self, eps_values: Optional[Sequence[float]] = None
    ) -> ParameterEstimate:
        """The Section 4.4 heuristic with counts served from the shared
        graph (grid search; annealing is inherently uncacheable — call
        :func:`repro.params.heuristic.recommend_parameters` directly)."""
        segments = self.segments()
        grid = (
            np.asarray(list(eps_values), dtype=np.float64)
            if eps_values is not None
            else default_eps_grid(segments)
        )
        return recommend_parameters(
            segments,
            eps_values=grid,
            distance=self._distance,
            method="grid",
            counts=self.entropy_counts(grid),
        )

    # -- label artifacts -----------------------------------------------------
    def labels_grid(
        self,
        eps_values: Sequence[float],
        min_lns_values: Sequence[float],
        executor: str = "serial",
        n_workers: Optional[int] = None,
        cardinality_threshold: Optional[float] = None,
    ) -> np.ndarray:
        """Figure-12 labels at every grid point:
        ``(n_eps, n_min_lns, n_segments)`` int64, each cell bitwise
        identical to an independent ``TRACLUS.fit`` at those
        parameters.  The executor shards MinLns columns and is not part
        of the key (it cannot change results);
        ``cardinality_threshold`` overrides the config's Step-3
        threshold for this grid only (it *is* part of the key)."""
        eps_array = np.asarray(list(eps_values), dtype=np.float64)
        min_lns_array = np.asarray(list(min_lns_values), dtype=np.float64)
        threshold = (
            self.config.cardinality_threshold
            if cardinality_threshold is None
            else float(cardinality_threshold)
        )
        key = self._labels_key(eps_array, min_lns_array, threshold)
        use_weights = self.config.use_weights
        labels = self._materialize(
            "labels", key,
            lambda engine: _readonly(engine.labels_grid(
                min_lns_array.tolist(),
                cardinality_threshold=threshold,
                use_weights=use_weights,
                executor=executor,
                n_workers=n_workers,
            )),
            lambda labels: {"labels": labels, "eps_values": eps_array,
                            "min_lns_values": min_lns_array},
            lambda arrays, meta: _readonly(arrays["labels"]),
            lambda labels: {
                "use_weights": use_weights,
                "grid": [int(eps_array.size), int(min_lns_array.size)],
                "n_segments": int(labels.shape[2]),
                "cardinality_threshold": threshold,
                "cells": _grid_cells(eps_array, min_lns_array, labels),
                "setting": self._setting(threshold),
            },
            inputs=lambda: (self._engine(eps_array),),
        )
        entry = (
            tuple(eps_array.tolist()), tuple(min_lns_array.tolist()),
            threshold, key,
        )
        with self._build_locks_meta:
            if entry not in self._grid_registry:
                self._grid_registry.append(entry)
        return labels

    def labels(self, eps: float, min_lns: float) -> np.ndarray:
        """Labels at one (ε, MinLns) point (read-only; ``.copy()`` to
        mutate).  Served by slicing any covering grid already
        materialised this session — grid cells are bitwise identical to
        single-point walks — before falling back to a one-cell grid of
        its own."""
        eps = float(eps)
        min_lns = float(min_lns)
        threshold = self.config.cardinality_threshold
        for grid_eps, grid_min_lns, grid_threshold, key in self._grid_registry:
            if (
                grid_threshold == threshold
                and eps in grid_eps
                and min_lns in grid_min_lns
            ):
                grid = self.store.get_object("labels", key)
                if grid is not None:
                    return grid[
                        grid_eps.index(eps), grid_min_lns.index(min_lns)
                    ]
        return self.labels_grid([eps], [min_lns])[0, 0]

    def clusters(self, eps: float, min_lns: float) -> List[Cluster]:
        """:class:`Cluster` objects at one grid point (no
        representatives — see :meth:`representatives`)."""
        return clusters_from_labels(
            self.labels(eps, min_lns), self.segments()
        )

    # -- quality artifact ----------------------------------------------------
    def quality(self, eps: float, min_lns: float) -> QualityBreakdown:
        """QMeasure (Formula 11) at one grid point, from the cached
        labels."""
        eps_array = np.asarray([eps], dtype=np.float64)
        min_lns_array = np.asarray([min_lns], dtype=np.float64)
        threshold = self.config.cardinality_threshold
        key = artifact_key(
            [self._labels_key(eps_array, min_lns_array, threshold),
             "quality"]
        )
        return self._materialize(
            "quality", key,
            lambda segments, labels: quality_measure(
                clusters_from_labels(labels, segments), segments, labels,
                self._distance,
            ),
            lambda breakdown: {
                "total_sse": np.float64(breakdown.total_sse),
                "noise_penalty": np.float64(breakdown.noise_penalty),
            },
            lambda arrays, meta: QualityBreakdown(
                total_sse=float(arrays["total_sse"]),
                noise_penalty=float(arrays["noise_penalty"]),
            ),
            lambda breakdown: {"eps": float(eps), "min_lns": float(min_lns),
                               "qmeasure": breakdown.qmeasure,
                               "setting": self._setting(threshold)},
            inputs=lambda: (self.segments(), self.labels(eps, min_lns)),
        )

    # -- representative artifact ---------------------------------------------
    def representatives(
        self, eps: float, min_lns: float, gamma: Optional[float] = None
    ) -> List[Cluster]:
        """Clusters at one grid point with their Figure-15
        representative trajectories attached."""
        gamma = self.config.gamma if gamma is None else float(gamma)
        eps_array = np.asarray([eps], dtype=np.float64)
        min_lns_array = np.asarray([min_lns], dtype=np.float64)
        key = artifact_key(
            [self._labels_key(eps_array, min_lns_array,
              self.config.cardinality_threshold),
             "representatives", gamma]
        )
        segments = self.segments()
        labels = self.labels(eps, min_lns)

        def build(clusters: List[Cluster]) -> Tuple[np.ndarray, np.ndarray]:
            reps = generate_all_representatives(
                clusters,
                RepresentativeConfig(min_lns=float(min_lns), gamma=gamma),
            )
            row_counts = np.array(
                [rep.shape[0] for rep in reps], dtype=np.int64
            )
            offsets = np.zeros(len(reps) + 1, dtype=np.int64)
            np.cumsum(row_counts, out=offsets[1:])
            flat = (
                np.concatenate([rep for rep in reps if rep.shape[0]])
                if offsets[-1]
                else np.empty((0, segments.dim), dtype=np.float64)
            )
            return _readonly(flat), _readonly(offsets)

        # The cache holds only the immutable polyline arrays; Cluster
        # objects are materialised fresh per call, so a caller mutating
        # one result cannot poison later reads.
        flat, offsets = self._materialize(
            "representatives", key, build,
            lambda cached: {"rep_flat": cached[0], "rep_offsets": cached[1]},
            lambda arrays, meta: (_readonly(arrays["rep_flat"]),
                                  _readonly(arrays["rep_offsets"])),
            lambda cached: {"eps": float(eps), "min_lns": float(min_lns),
                            "gamma": gamma,
                            "n_clusters": int(cached[1].size - 1)},
            inputs=lambda: (clusters_from_labels(labels, segments),),
        )
        clusters = clusters_from_labels(labels, segments)
        for index, cluster in enumerate(clusters):
            cluster.representative = flat[offsets[index]:offsets[index + 1]]
        return clusters

    # -- facades over artifact compositions ------------------------------------
    def fit(self) -> ClusteringResult:
        """The full TRACLUS pipeline (Figure 4) out of cached
        artifacts — what :meth:`TRACLUS.fit
        <repro.core.traclus.TRACLUS.fit>` now wraps."""
        if self.trajectories is None:
            raise WorkspaceError(
                "fit() needs a trajectory-bound workspace (segment-bound "
                "workspaces have no phase-1 provenance)"
            )
        config = self.config
        artifact = self.partition()
        segments = artifact.segments

        eps = config.eps
        min_lns = config.min_lns
        parameters: Dict[str, float] = {}
        if eps is None or min_lns is None:
            if config.eps_search_method == "grid":
                estimate = self.recommend_parameters(config.eps_search_values)
            else:
                # Annealing probes data-dependent ε values; nothing to
                # key a cache on — defer to the raw heuristic.
                estimate = recommend_parameters(
                    segments,
                    eps_values=config.eps_search_values,
                    distance=self._distance,
                    method=config.eps_search_method,
                )
            if eps is None:
                eps = estimate.eps
            if min_lns is None:
                min_lns = estimate.avg_neighborhood_size + 2.0
            parameters["estimated_entropy"] = estimate.entropy
            parameters["estimated_avg_neighborhood"] = (
                estimate.avg_neighborhood_size
            )

        labels = self.labels(eps, min_lns).copy()
        if config.compute_representatives:
            clusters = self.representatives(eps, min_lns)
        else:
            clusters = clusters_from_labels(labels, segments)

        parameters.update({"eps": float(eps), "min_lns": float(min_lns)})
        return ClusteringResult(
            clusters=clusters,
            segments=segments,
            labels=labels,
            trajectories=self.trajectories,
            characteristic_points=artifact.characteristic_points,
            parameters=parameters,
        )

    def sweep(self, sweep: SweepConfig) -> SweepResult:
        """An amortised (ε, MinLns) grid sweep out of cached artifacts —
        what :meth:`TRACLUS.sweep <repro.core.traclus.TRACLUS.sweep>`
        now wraps."""
        if self.trajectories is None:
            raise WorkspaceError(
                "sweep() needs a trajectory-bound workspace; drive the "
                "grid through labels_grid()/entropy_counts() instead"
            )
        artifact = self.partition()
        labels = self.labels_grid(
            sweep.eps_values, sweep.min_lns_values,
            executor=sweep.executor, n_workers=sweep.n_workers,
        )
        counts = self.entropy_counts(sweep.eps_values)
        entropies, avg_sizes = entropy_from_counts(counts)
        # Unordered ε_max-graph edge count straight off the stored
        # distances — no SweepEngine (and hence no edge grouping) on the
        # warm path where labels and counts came from the cache.
        eps_max = float(max(sweep.eps_values))
        graph = self._ensure_graph(eps_max)
        n_edges = (
            int(np.count_nonzero(graph.data <= eps_max))
            - graph.n_segments
        ) // 2
        return SweepResult(
            eps_values=tuple(float(e) for e in sweep.eps_values),
            min_lns_values=tuple(float(m) for m in sweep.min_lns_values),
            segments=artifact.segments,
            characteristic_points=[
                list(cps) for cps in artifact.characteristic_points
            ],
            labels=labels,
            neighborhood_counts=counts,
            entropies=entropies,
            avg_neighborhood_sizes=avg_sizes,
            n_graph_edges=n_edges,
        )

    def __repr__(self) -> str:
        bound = (
            f"{len(self.trajectories)} trajectories"
            if self.trajectories is not None
            else "segments"
        )
        cache = self.store.cache_dir or "memory"
        return f"Workspace({bound}, cache={cache!r})"
