"""Layer spans for the repo benchmark, recorded from the benchmark side.

:func:`install` wraps the public entry point of every measured layer
— patching the name where its caller looks it up, so the program's own
source stays untouched — and records one span per call into a
:class:`Tracer`.  Spans hold a name, a start, an end, a parent and a
work count; they stay in memory and are written out as Chrome
trace-event JSON when the run ends (:meth:`Tracer.write_chrome`).

``repro serve`` computes in a forked pool worker.  The worker inherits
the installed wrappers through the fork; :func:`serve_compute_safe`
(which replaces ``repro.serve.worker.compute_safe``) appends the
worker's spans to a spool file after every request, and the parent
reads them back with :meth:`Tracer.absorb_spool`.  ``perf_counter`` is
the system-wide monotonic clock on Linux, so worker spans share the
parent's time axis.
"""

from __future__ import annotations

import bisect
import functools
import glob
import itertools
import json
import multiprocessing
import os
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span name -> layer.  ``root`` spans are one workload operation (the
#: benchmark's own ``op`` span, or a served request inside the pool
#: worker); every other span is a call into the named layer.
LAYER = {
    "op": "root",
    "serve.compute": "root",
    "partition": "partition",
    "neighbor_graph": "neighbor_graph",
    "distance": "distance",
    "sweep.counts": "sweep",
    "sweep.labels": "sweep",
    "representative": "representative",
    "quality": "quality",
    "fingerprint": "api",
    "cache.get": "api",
    "cache.load": "api",
    "catalog": "api",
    "stream.ingest": "stream.ingest",
    "stream.graph": "stream.graph",
    "stream.insert": "stream.dbscan",
    "stream.evict": "stream.dbscan",
    "stream.flush": "stream.dbscan",
    "stream.labels": "stream.labels",
}

#: A recorded span: (pid, sid, parent sid, name, start, end, n, tid).
#: ``n`` is the call's work count (pairs, edges, cells, ...), 0 if none.
Span = Tuple[int, int, int, str, float, float, float, int]


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (also called by a forked pool worker
        on its first request, so it never re-ships the parent's)."""
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._spooled = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, args, kwargs,
             count: Optional[Callable] = None):
        """Run ``func(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        n = 0
        try:
            result = func(*args, **kwargs)
            if count is not None:
                n = count(args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((
                self.pid, sid, parent, name, start, end, n,
                threading.get_ident(),
            ))

    def event(self, name: str, n: float) -> None:
        """A zero-length span: a count with no duration."""
        stack = self._stack()
        now = time.perf_counter()
        self.spans.append((
            self.pid, next(self._ids), stack[-1] if stack else 0, name,
            now, now, n, threading.get_ident(),
        ))

    # -- the forked serve worker -------------------------------------------
    def spool(self, directory: str) -> None:
        """Append the spans recorded since the last spool to this
        process's file in *directory*."""
        fresh = self.spans[self._spooled:]
        self._spooled = len(self.spans)
        if not fresh:
            return
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for record in fresh:
                handle.write(json.dumps(record) + "\n")

    def absorb_spool(self, directory: str) -> None:
        """Merge every worker's spooled spans into this tracer."""
        for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    self.spans.append(tuple(json.loads(line)))

    # -- output ---------------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
        Zero-length count events are left out: they are not spans."""
        spans = [s for s in self.spans if s[5] > s[4]]
        origin = min((s[4] for s in spans), default=0.0)
        events = [
            {
                "name": name, "cat": LAYER.get(name, name), "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"id": sid, "parent": parent, "n": n},
            }
            for pid, sid, parent, name, start, end, n, tid in spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- work counts ----------------------------------------------------------------

def _quality_pairs(args, result) -> float:
    """Σ m² over the clusters and the noise set: the pair count of
    Formula 11, taken from the labels argument."""
    labels = np.asarray(args[2])
    sizes = np.bincount(labels[labels >= 0])
    n_noise = int(np.count_nonzero(labels < 0))
    return float(np.sum(sizes.astype(np.float64) ** 2) + float(n_noise) ** 2)


class _FirstPartition:
    """Segments of a workspace's partition, counted on its first call
    only (later calls are cache reads of the same artifact)."""

    def __init__(self):
        self._seen = weakref.WeakSet()

    def __call__(self, args, result) -> float:
        workspace = args[0]
        if workspace in self._seen:
            return 0
        self._seen.add(workspace)
        return len(result.segments)


def _layer_table():
    """``(owner, attribute, span name, count)`` for every wrapped entry
    point.  Module-level functions are patched in the module their
    caller reads them from."""
    from repro.api import fingerprint, workspace
    from repro.api.cache import ArtifactStore
    from repro.api.catalog import Catalog
    from repro.cluster.neighbor_graph import NeighborGraph
    from repro.distance.weighted import SegmentDistance
    from repro.stream.dynamic_graph import DynamicNeighborGraph
    from repro.stream.ingest import TrajectoryStream
    from repro.stream.online_dbscan import OnlineDBSCAN
    from repro.stream.view import LabelView
    from repro.sweep.engine import SweepEngine

    return [
        (workspace.Workspace, "partition", "partition", _FirstPartition()),
        (NeighborGraph, "build", "neighbor_graph",
         lambda a, r: (r.n_edges - r.n_segments) // 2),
        (SegmentDistance, "pairs", "distance", lambda a, r: len(r)),
        (SweepEngine, "neighborhood_counts", "sweep.counts", None),
        (SweepEngine, "labels_grid", "sweep.labels",
         lambda a, r: r.shape[0] * r.shape[1]),
        (workspace, "generate_all_representatives", "representative",
         lambda a, r: len(a[0])),
        (workspace, "quality_measure", "quality", _quality_pairs),
        (workspace, "corpus_fingerprint", "fingerprint", None),
        (fingerprint, "corpus_fingerprint", "fingerprint", None),
        (ArtifactStore, "load_arrays", "cache.load",
         lambda a, r: int(r is not None)),
        *[(Catalog, method, "catalog", None)
          for method in ("__init__", "register_corpus", "index_artifact",
                         "touch", "record_eviction", "eviction_candidates")],
        (TrajectoryStream, "append", "stream.ingest",
         lambda a, r: len(r.retracted)),
        (DynamicNeighborGraph, "insert", "stream.graph", None),
        (DynamicNeighborGraph, "insert_batch", "stream.graph", None),
        (DynamicNeighborGraph, "evict", "stream.graph", None),
        (OnlineDBSCAN, "insert", "stream.insert", lambda a, r: 1),
        (OnlineDBSCAN, "insert_batch", "stream.insert", lambda a, r: len(r)),
        (OnlineDBSCAN, "evict", "stream.evict", lambda a, r: 1),
        (OnlineDBSCAN, "flush_diff", "stream.flush", lambda a, r: r.touched),
        (LabelView, "apply", "stream.labels", None),
    ]


def _wrap(tracer: Tracer, name: str, func: Callable, count) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return tracer.call(name, func, args, kwargs, count)

    return wrapper


def _wrap_lookup(tracer: Tracer, func: Callable) -> Callable:
    """``ArtifactStore.get_object``: a hit/miss count, no timing (it is
    a dict lookup called many times per operation)."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        tracer.event("cache.get", int(result is not None))
        return result

    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, tracer: Tracer, spool_dir: str):
        self.tracer = tracer
        self.spool_dir = spool_dir
        self.restore: List[Tuple[object, str, object]] = []
        self.compute_safe: Optional[Callable] = None


#: The live installation.  Module-level because the serve pool pickles
#: :func:`serve_compute_safe` by name, and the forked worker reaches the
#: tracer it inherited through this global.
_ACTIVE: Optional[Installation] = None


def serve_compute_safe(*args, **kwargs):
    """Stand-in for ``repro.serve.worker.compute_safe`` inside the pool
    worker: one root span per served request, spooled home at once."""
    active = _ACTIVE
    tracer = active.tracer
    if tracer.pid != os.getpid():
        tracer.reset()
    try:
        return tracer.call("serve.compute", active.compute_safe, args, kwargs)
    finally:
        tracer.spool(active.spool_dir)


def install(tracer: Tracer, spool_dir: str) -> Installation:
    """Wrap every layer entry point; returns what :func:`uninstall`
    needs to restore them."""
    global _ACTIVE
    from repro.api.cache import ArtifactStore
    from repro.serve import worker

    installation = Installation(tracer, spool_dir)
    for owner, attribute, name, count in _layer_table():
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(tracer, name, raw.__func__, count))
        else:
            patched = _wrap(tracer, name, raw, count)
        installation.restore.append((owner, attribute, raw))
        setattr(owner, attribute, patched)
    raw = vars(ArtifactStore)["get_object"]
    installation.restore.append((ArtifactStore, "get_object", raw))
    ArtifactStore.get_object = _wrap_lookup(tracer, raw)
    # Only a forked pool worker inherits the wrappers and this module;
    # under spawn or forkserver the worker stays untraced.
    if multiprocessing.get_start_method() == "fork":
        installation.compute_safe = worker.compute_safe
        installation.restore.append(
            (worker, "compute_safe", worker.compute_safe)
        )
        worker.compute_safe = serve_compute_safe
    os.makedirs(spool_dir, exist_ok=True)
    _ACTIVE = installation
    return installation


def uninstall(installation: Installation) -> None:
    global _ACTIVE
    for owner, attribute, raw in reversed(installation.restore):
        setattr(owner, attribute, raw)
    _ACTIVE = None


# -- per-layer metrics -------------------------------------------------------

def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = -np.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


class SpanTree:
    """Spans of one time window with parents resolved.

    A span recorded on a thread with no open span (the ε-graph join
    evaluates pair blocks on worker threads) is given the innermost
    span of its process that encloses it."""

    def __init__(self, spans: List[Span], start: float, end: float):
        self.spans = [s for s in spans if start <= s[4] and s[5] <= end]
        keyed = {(s[0], s[1]): s for s in self.spans}
        orphan = lambda s: not s[2] and LAYER.get(s[3]) != "root"  # noqa: E731
        anchors = sorted(
            (s for s in self.spans if s[5] > s[4] and not orphan(s)),
            key=lambda s: s[4],
        )
        starts = [s[4] for s in anchors]
        self.parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        self._by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self._by_name.setdefault(span[3], []).append(span)
            key = (span[0], span[1])
            self.parent[key] = (span[0], span[2]) if span[2] else None
            if not orphan(span):
                continue
            index = bisect.bisect_right(starts, span[4]) - 1
            while index >= 0:
                other = anchors[index]
                if other[0] == span[0] and other[5] >= span[5]:
                    self.parent[key] = (other[0], other[1])
                    break
                index -= 1
        self.children: Dict[Tuple[int, int], List[Span]] = {}
        for span in self.spans:
            parent = self.parent[(span[0], span[1])]
            if parent is not None and parent in keyed:
                self.children.setdefault(parent, []).append(span)
        self._keyed = keyed

    def _nested(self, span: Span) -> bool:
        """Whether an enclosing span has the same name (its time is then
        already counted by the outer call)."""
        parent = self.parent[(span[0], span[1])]
        while parent is not None and parent in self._keyed:
            outer = self._keyed[parent]
            if outer[3] == span[3]:
                return True
            parent = self.parent[parent]
        return False

    def named(self, *names: str) -> List[Span]:
        return [s for name in names for s in self._by_name.get(name, ())]

    def busy(self, *names: str) -> float:
        """Summed duration of the outermost calls (threads add up)."""
        return sum(s[5] - s[4] for s in self.named(*names) if not self._nested(s))

    def self_time(self, *names: str) -> float:
        """Duration minus the part of it the span's children cover."""
        total = 0.0
        for span in self.named(*names):
            if self._nested(span):
                continue
            covered = [
                (max(c[4], span[4]), min(c[5], span[5]))
                for c in self.children.get((span[0], span[1]), [])
                if c[5] > c[4]
            ]
            total += (span[5] - span[4]) - _union_length(covered)
        return total

    def count(self, *names: str) -> float:
        return float(sum(s[6] for s in self.named(*names)))

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def child_count(self, parent_names: Tuple[str, ...], name: str) -> float:
        """Work count of *name* spans whose parent is one of
        *parent_names*."""
        total = 0.0
        for span in self.named(name):
            parent = self.parent[(span[0], span[1])]
            if parent in self._keyed and self._keyed[parent][3] in parent_names:
                total += span[6]
        return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute_layer_metrics(compute: SpanTree, compute_ops: float,
                          api: SpanTree, api_ops: float) -> Dict[str, float]:
    """Per-layer numbers per workload operation.  *compute* covers the
    pipeline and stream layers, *api* the workspace facade; they differ
    only for serve-mixed (cold pass vs warm phase)."""
    c, a = compute, api
    per_c = lambda value: _ratio(value, compute_ops)  # noqa: E731
    per_a = lambda value: _ratio(value, api_ops)  # noqa: E731
    candidates = c.child_count(("neighbor_graph",), "distance")
    edges = c.count("neighbor_graph")
    distance_s = c.busy("distance")
    pairs = c.count("distance")
    quality_s = c.busy("quality")
    quality_pairs = c.count("quality")
    lookups = a.calls("cache.get")
    return {
        "partition.busy_s": per_c(c.busy("partition")),
        "partition.segments": per_c(c.count("partition")),
        "neighbor_graph.busy_s": per_c(c.busy("neighbor_graph")),
        "neighbor_graph.self_s": per_c(c.self_time("neighbor_graph")),
        "neighbor_graph.candidates": per_c(candidates),
        "neighbor_graph.edges": per_c(edges),
        "neighbor_graph.edge_yield": _ratio(edges, candidates),
        "distance.busy_s": per_c(distance_s),
        "distance.pairs": per_c(pairs),
        "distance.ns_per_pair": _ratio(distance_s * 1e9, pairs),
        "sweep.counts_s": per_c(c.busy("sweep.counts")),
        "sweep.labels_s": per_c(c.busy("sweep.labels")),
        "sweep.cells": per_c(c.count("sweep.labels")),
        "representative.busy_s": per_c(c.busy("representative")),
        "representative.clusters": per_c(c.count("representative")),
        "quality.busy_s": per_c(quality_s),
        "quality.pairs": per_c(quality_pairs),
        "quality.ns_per_pair": _ratio(quality_s * 1e9, quality_pairs),
        "api.self_s": per_a(a.self_time("op", "serve.compute")),
        "api.fingerprint_s": per_a(a.busy("fingerprint")),
        "api.object_hit_ratio": _ratio(a.count("cache.get"), lookups),
        "api.disk_loads": per_a(a.count("cache.load")),
        "api.disk_load_s": per_a(a.busy("cache.load")),
        "api.catalog_s": per_a(a.busy("catalog")),
        "stream.ingest_s": per_c(c.busy("stream.ingest")),
        "stream.graph_s": per_c(c.busy("stream.graph")),
        "stream.dbscan_s": per_c(
            c.self_time("stream.insert", "stream.evict", "stream.flush")
        ),
        "stream.labels_s": per_c(c.busy("stream.labels")),
        "stream.inserted": per_c(c.count("stream.insert")),
        "stream.retracted": per_c(c.count("stream.ingest")),
        "stream.evicted": per_c(c.count("stream.evict")),
        "stream.touched_per_append": per_c(c.count("stream.flush")),
    }
