"""Folding shard diffs into one globally consistent label view.

:class:`MergedNeighborGraph` is a
:class:`~repro.stream.dynamic_graph.DynamicNeighborGraph` whose
same-shard edges arrive over the wire: every slot carries its shard of
origin.  Segments enter through the one
:meth:`~repro.stream.dynamic_graph.DynamicNeighborGraph.insert_batch`
path; the merged graph only narrows its candidate pairs to
**cross-shard** mates, and the merger hands the shipped intra-shard
edges to that same call to be spliced in verbatim.  The union is
exactly the ε-graph a single-stream session builds, bitwise:

* *slot ids* — the merger allocates global slots by walking diffs in
  sequence order, which is the order a single-stream session would
  have ingested the same appends, so every segment gets the same id;
* *same-shard distances* — within a shard, local slot order equals
  global slot order restricted to that shard, and the pair kernel's
  equal-length tie-break depends only on relative id order, so worker
  distances are bit-identical to what the merger would recompute;
* *cross-shard distances* — evaluated here, by the same kernel over
  the same endpoint-grid candidates the single-stream graph queries,
  minus the same-shard pairs already covered.

:class:`ShardMerger` drives an
:class:`~repro.stream.online_dbscan.OnlineDBSCAN` over that graph.
Diffs are buffered until contiguous in sequence, then applied as one
batch: all inserts first (one grid join + one kernel call for the
cross-shard pairs), then the retractions.  Deferring a retraction past
later inserts is safe because labels are a pure function of the final
ε-graph and alive set — an edge to a doomed slot is added and then
removed with no trace — while batching keeps the merger's per-segment
cost flat.  One :class:`~repro.stream.view.LabelDiff` is flushed per
drain; the merger's own :class:`~repro.stream.view.LabelView` folds
them into the consistent merged assignment.  Its checkpoint shares the
stream checkpoint's codec and atomic writer
(:mod:`repro.stream.checkpoint`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import StreamConfig
from repro.exceptions import ClusteringError
from repro.obs import NULL_REGISTRY
from repro.stream.checkpoint import (
    decode_clusterer,
    encode_clusterer,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream.dynamic_graph import DynamicNeighborGraph
from repro.stream.online_dbscan import OnlineDBSCAN
from repro.stream.view import LabelDiff, LabelView
from repro.shard.wire import ShardDiff

#: Format marker of :meth:`ShardMerger.save_to` files.
MERGER_CHECKPOINT_FORMAT = "repro-shard-merger-v1"


def validate_sharded_config(config: StreamConfig) -> None:
    """Sharded sessions disallow the sliding windows and compaction:
    count/horizon eviction is a *global* property no shard can decide
    locally, and compaction renames the slot ids the wire protocol
    keys on."""
    for name in ("max_segments", "horizon", "compact_dead_fraction"):
        if getattr(config, name) is not None:
            raise ClusteringError(
                f"sharded streaming does not support {name}; windows "
                f"and compaction need a global view no shard has "
                f"(run a single-stream session for windowed feeds)"
            )


class MergedNeighborGraph(DynamicNeighborGraph):
    """ε-graph whose same-shard edges are spliced in from the wire."""

    def __init__(self, eps: float, distance=None, dim: int = 2):
        super().__init__(eps, distance, dim=dim)
        self._shard_of = np.full(64, -1, dtype=np.int64)

    def _note_shard(self, slot: int, shard: int) -> None:
        if slot >= self._shard_of.size:
            grown = np.full(
                max(self._shard_of.size * 2, slot + 1), -1, dtype=np.int64
            )
            grown[: self._shard_of.size] = self._shard_of
            self._shard_of = grown
        self._shard_of[slot] = shard

    def _keep(self, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Cross-shard pairs only: the workers evaluated every
        same-shard pair, and their edges arrive spliced."""
        return super()._keep(queries, candidates) & (
            self._shard_of[candidates] != self._shard_of[queries]
        )


class ShardMerger:
    """Applies :class:`~repro.shard.wire.ShardDiff` streams in global
    sequence order onto one merged clustering."""

    def __init__(
        self, config: StreamConfig, n_shards: int, metrics=None
    ):
        validate_sharded_config(config)
        self.config = config
        self.n_shards = int(n_shards)
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_diffs = self._metrics.counter(
            "repro_shard_diffs_applied_total",
            help="Shard diffs folded into the merged label view.",
        )
        self._m_records = self._metrics.counter(
            "repro_shard_records_merged_total",
            help="Segment records inserted into the merged store.",
        )
        self._m_shipped_edges = self._metrics.counter(
            "repro_shard_edges_shipped_total",
            help="Intra-shard eps-edges accepted verbatim from workers.",
        )
        self._m_cross_edges = self._metrics.counter(
            "repro_shard_edges_cross_total",
            help="Cross-shard eps-edges evaluated by the merger.",
        )
        self.graph = MergedNeighborGraph(
            config.eps, config.distance(), dim=config.dim
        )
        self.clusterer = OnlineDBSCAN(
            eps=config.eps,
            min_lns=config.min_lns,
            distance=config.distance(),
            cardinality_threshold=config.cardinality_threshold,
            use_weights=config.use_weights,
            dim=config.dim,
            graph=self.graph,
        )
        #: Fold of every merged diff — the consistent global view.
        self.view = LabelView()
        self._local_to_global: List[Dict[int, int]] = [
            {} for _ in range(self.n_shards)
        ]
        self.applied_seq = -1
        self._pending: Dict[int, ShardDiff] = {}
        #: Latest cumulative metrics snapshot shipped by each worker.
        self.worker_metrics: Dict[int, dict] = {}

    @property
    def lag(self) -> int:
        """Diffs received but not yet applicable (sequence holes)."""
        return len(self._pending)

    def offer(self, diff: ShardDiff) -> None:
        """Buffer one diff; apply with :meth:`drain` once contiguous."""
        if diff.seq <= self.applied_seq:
            raise ClusteringError(
                f"diff seq {diff.seq} already applied "
                f"(applied_seq={self.applied_seq})"
            )
        if diff.metrics is not None:
            self.worker_metrics[diff.shard] = diff.metrics
        self._pending[diff.seq] = diff

    def drain(self, max_diffs: Optional[int] = None) -> Optional[LabelDiff]:
        """Apply the longest contiguous run of buffered diffs — at most
        *max_diffs* of them when given; returns the merged label diff
        (``None`` when nothing was applicable).  Capping the run keeps
        the working set of deferred retractions small: a backlog folds
        as several medium batches instead of one huge one whose
        transient slots would bloat every repair."""
        run: List[ShardDiff] = []
        while self.applied_seq + 1 + len(run) in self._pending:
            if max_diffs is not None and len(run) >= max_diffs:
                break
            run.append(self._pending.pop(self.applied_seq + 1 + len(run)))
        if not run:
            return None
        return self._apply_run(run)

    def _apply_run(self, diffs: List[ShardDiff]) -> LabelDiff:
        base = len(self.graph.store)
        next_global = base
        shards: List[int] = []
        starts: List[np.ndarray] = []
        ends: List[np.ndarray] = []
        traj_ids: List[int] = []
        weights: List[float] = []
        stamps: List[float] = []
        shipped: List[List[Tuple[int, float]]] = []
        evictions: List[int] = []
        n_shipped_edges = 0
        for diff in diffs:
            local_to_global = self._local_to_global[diff.shard]
            for local in diff.retracted.tolist():
                evictions.append(local_to_global[local])
            offset = len(shipped)
            for i in range(diff.n_records):
                local_to_global[int(diff.local_slots[i])] = next_global
                next_global += 1
                shards.append(diff.shard)
                starts.append(diff.starts[i])
                ends.append(diff.ends[i])
                traj_ids.append(int(diff.traj_ids[i]))
                weights.append(float(diff.weights[i]))
                stamps.append(float(diff.stamps[i]))
                shipped.append([])
            for pos, mate, dist in zip(
                diff.edge_src.tolist(),
                diff.edge_mate.tolist(),
                diff.edge_dist.tolist(),
            ):
                shipped[offset + pos].append(
                    (local_to_global[mate], float(dist))
                )
                n_shipped_edges += 1
            self.applied_seq = diff.seq
        if shards:
            for offset, shard in enumerate(shards):
                self.graph._note_shard(base + offset, shard)
            inserted = self.graph.insert_batch(
                np.asarray(starts, dtype=np.float64),
                np.asarray(ends, dtype=np.float64),
                np.asarray(traj_ids, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
                np.asarray(stamps, dtype=np.float64),
                spliced=shipped,
            )
            if inserted[0][0] != base:
                raise ClusteringError(
                    "merged store allocation diverged from the sequence "
                    "walk; was the graph mutated outside the merger?"
                )
            self.clusterer.register_inserted(inserted)
            n_edges = sum(mates.size for _, mates in inserted)
            if self._metrics.enabled:
                self._m_records.inc(float(len(shards)))
                self._m_shipped_edges.inc(float(n_shipped_edges))
                self._m_cross_edges.inc(float(n_edges - n_shipped_edges))
        for slot in evictions:
            self.clusterer.evict(slot)
        if self._metrics.enabled:
            self._m_diffs.inc(float(len(diffs)))
        merged = self.clusterer.flush_diff()
        self.view.apply(merged)
        return merged

    # -- checkpointing -----------------------------------------------------
    def save_to(self, path: str) -> str:
        """Write the merged state (store, edges, stable tokens, shard
        origins, local -> global slot maps) to one ``.npz`` file;
        returns the path written."""
        arrays, next_token = encode_clusterer(self.clusterer)
        arrays["shard_of"] = self.graph._shard_of[: len(self.graph.store)].copy()
        for shard, mapping in enumerate(self._local_to_global):
            arrays[f"l2g_{shard}"] = np.array(
                sorted(mapping.items()), dtype=np.int64
            ).reshape(-1, 2)
        meta = {
            "format": MERGER_CHECKPOINT_FORMAT,
            "applied_seq": self.applied_seq,
            "next_token": next_token,
        }
        return write_checkpoint(path, arrays, meta)

    def restore_from(self, path: str) -> None:
        """Refill an *empty* merger from :meth:`save_to` output; labels,
        stable tokens, and future diffs continue identically.  A file
        that is not a merger checkpoint, lacks a member or meta field
        read here, holds a ``next_token`` or ``applied_seq`` that is not
        an integer, or store and edge arrays
        :func:`~repro.stream.checkpoint.decode_clusterer` rejects, raises
        one :class:`~repro.exceptions.ReproError` naming it."""
        arrays, meta = read_checkpoint(
            path, (MERGER_CHECKPOINT_FORMAT,), "shard merger"
        )
        decode_clusterer(self.clusterer, arrays, meta.integer("next_token"))
        for slot, shard in enumerate(arrays["shard_of"].tolist()):
            self.graph._note_shard(slot, shard)
        for shard in range(self.n_shards):
            self._local_to_global[shard] = {
                int(local): int(global_slot)
                for local, global_slot in arrays[f"l2g_{shard}"]
            }
        self.view = self.clusterer.snapshot_view()
        self.applied_seq = meta.integer("applied_seq")

    # -- queries -----------------------------------------------------------
    def labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, labels)`` of the merged clustering — bitwise what a
        single-stream session fed the same appends answers."""
        return self.clusterer.labels()

    @property
    def n_alive(self) -> int:
        return self.graph.store.n_alive

    def __repr__(self) -> str:
        return (
            f"ShardMerger(n_shards={self.n_shards}, "
            f"applied_seq={self.applied_seq}, n_alive={self.n_alive}, "
            f"pending={len(self._pending)})"
        )
