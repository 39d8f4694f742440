"""Streaming TRACLUS: online ingestion, dynamic ε-graph maintenance,
and incremental cluster labels.

The batch pipeline (:mod:`repro.core.traclus`) recomputes everything
from scratch; this subsystem maintains the same outputs under
append-only point streams and sliding-window eviction:

* :mod:`repro.stream.ingest` — per-trajectory point appends are
  re-partitioned only on the affected suffix
  (:class:`~repro.partition.incremental.IncrementalPartitioner`),
  emitting segment insert/retract deltas;
* :mod:`repro.stream.dynamic_graph` — the ε-neighborhood relation is
  maintained under segment insert and evict, with edges bitwise
  identical to a batch :class:`~repro.cluster.neighbor_graph.NeighborGraph`
  rebuild (both run the same pair kernel);
* :mod:`repro.stream.online_dbscan` — DBSCAN labels are maintained
  incrementally (core promotion/demotion, union-by-size merges, a
  local proof that a removal split nothing, reclustering only a
  component that did split) and reproduce a fresh batch
  :class:`~repro.cluster.dbscan.LineSegmentDBSCAN` refit exactly;
* :mod:`repro.stream.view` — every update is described by a
  :class:`LabelDiff` in *stable* cluster ids (O(delta), not O(live));
  a :class:`LabelView` folds diffs back into the dense batch-identical
  label map;
* :mod:`repro.stream.pipeline` — :class:`StreamingTRACLUS` glues the
  pieces together and applies the eviction window;
* :mod:`repro.stream.checkpoint` — snapshot/restore of the whole
  streaming state, stable cluster identities included.

The sharded scale-out (K worker processes, one merger) lives in
:mod:`repro.shard` and is built entirely on these diffs.
"""

from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.dynamic_graph import DynamicNeighborGraph, StreamSegmentStore
from repro.stream.ingest import SegmentRecord, StreamDelta, TrajectoryStream
from repro.stream.online_dbscan import OnlineDBSCAN
from repro.stream.pipeline import StreamingTRACLUS, StreamUpdate
from repro.stream.view import LabelDiff, LabelView

__all__ = [
    "DynamicNeighborGraph",
    "LabelDiff",
    "LabelView",
    "OnlineDBSCAN",
    "SegmentRecord",
    "StreamDelta",
    "StreamSegmentStore",
    "StreamingTRACLUS",
    "StreamUpdate",
    "TrajectoryStream",
    "load_checkpoint",
    "save_checkpoint",
]
