"""One shard worker: a full streaming session over a slice of the feed.

A :class:`ShardWorker` owns a private
:class:`~repro.stream.pipeline.StreamingTRACLUS` — its own slot space,
ε-graph, and label state — and turns every routed
:class:`~repro.shard.wire.AppendTask` into a
:class:`~repro.shard.wire.ShardDiff`: the phase-1 segments the append
produced, the local slots it retracted, and the surviving intra-shard
ε-edges of each inserted slot *at insertion time* (mates with a
smaller local slot), distances included, so the merger never
re-evaluates a same-shard pair.

:func:`shard_worker_main` is the process entry point: a loop over a
duplex pipe carrying raw tagged byte frames (append / checkpoint / stop
in, diffs and acks out — no pickling on the hot path).  It is a
module-level function so the multiprocessing spawn method can import
it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import StreamConfig
from repro.obs import MetricsRegistry
from repro.stream.pipeline import StreamingTRACLUS
from repro.shard.wire import (
    AppendTask,
    ShardDiff,
    decode_task,
    encode_diff,
)


class ShardWorker:
    """Wraps one shard's streaming session; usable in-process or as the
    engine of a worker process."""

    def __init__(
        self,
        shard: int,
        config: StreamConfig,
        metrics: Optional[MetricsRegistry] = None,
        telemetry_every: int = 0,
        pipeline: Optional[StreamingTRACLUS] = None,
    ):
        self.shard = int(shard)
        self.metrics = metrics
        self.telemetry_every = int(telemetry_every)
        self.pipeline = (
            pipeline
            if pipeline is not None
            else StreamingTRACLUS(config, metrics=metrics)
        )
        self._n_diffs = 0

    def process(self, task: AppendTask) -> ShardDiff:
        """Apply one append to the local session and describe it."""
        update = self.pipeline.append(
            task.traj_id, task.points, times=task.times, weight=task.weight
        )
        clusterer = self.pipeline.clusterer
        store = clusterer.store
        graph = clusterer.graph
        inserted = np.asarray(update.inserted, dtype=np.int64)
        edge_src: list = []
        edge_mate: list = []
        edge_dist: list = []
        for pos, slot in enumerate(update.inserted):
            for mate, dist in sorted(graph.neighbor_distances(slot).items()):
                if mate < slot:
                    edge_src.append(pos)
                    edge_mate.append(mate)
                    edge_dist.append(dist)
        self._n_diffs += 1
        snapshot = None
        if (
            self.metrics is not None
            and self.telemetry_every > 0
            and self._n_diffs % self.telemetry_every == 0
        ):
            snapshot = self.metrics.snapshot()
        return ShardDiff(
            shard=self.shard,
            seq=task.seq,
            retracted=np.asarray(update.evicted, dtype=np.int64),
            local_slots=inserted,
            traj_ids=store.traj_ids[inserted].copy(),
            starts=store.starts[inserted].copy(),
            ends=store.ends[inserted].copy(),
            weights=store.weights[inserted].copy(),
            stamps=store.stamps[inserted].copy(),
            edge_src=np.asarray(edge_src, dtype=np.int64),
            edge_mate=np.asarray(edge_mate, dtype=np.int64),
            edge_dist=np.asarray(edge_dist, dtype=np.float64),
            n_changed=len(update.changed),
            touched=update.diff.touched,
            metrics=snapshot,
        )

    def process_bytes(self, payload: bytes) -> bytes:
        """The wire-to-wire path worker processes run."""
        return encode_diff(self.process(decode_task(payload)))


#: One-byte frame tags of the worker control protocol (both ways raw
#: ``send_bytes`` frames -- no pickling on the hot path).
TAG_APPEND = b"A"
TAG_CHECKPOINT = b"C"
TAG_STOP = b"S"
TAG_DIFF = b"D"
TAG_CHECKPOINTED = b"K"
TAG_STOPPED = b"Z"

#: A worker process attaches its metrics snapshot to every this-many-th
#: diff, so the coordinator's fleet view stays fresh between stops.
TELEMETRY_EVERY = 64


def shard_worker_main(
    shard: int,
    config_dict: dict,
    conn,
    checkpoint_path: Optional[str] = None,
) -> None:
    """Worker process entry point.

    *conn* (a duplex :mod:`multiprocessing` connection) carries raw
    tagged byte frames both ways::

        A + task_bytes       -> D + diff_bytes
        C + utf-8 path       -> K + utf-8 path (after checkpointing)
        S                    -> Z + JSON metrics snapshot; exit

    When *checkpoint_path* is given the session resumes from that
    stream checkpoint instead of starting empty.
    """
    import json

    config = StreamConfig(**config_dict)
    metrics = MetricsRegistry(enabled=True)
    if checkpoint_path is not None:
        from repro.stream.checkpoint import load_checkpoint

        worker = ShardWorker(
            shard, config, metrics=metrics,
            telemetry_every=TELEMETRY_EVERY,
            pipeline=load_checkpoint(checkpoint_path, metrics=metrics),
        )
    else:
        worker = ShardWorker(
            shard, config, metrics=metrics, telemetry_every=TELEMETRY_EVERY
        )
    while True:
        message = conn.recv_bytes()
        kind = message[:1]
        if kind == TAG_APPEND:
            conn.send_bytes(TAG_DIFF + worker.process_bytes(message[1:]))
        elif kind == TAG_CHECKPOINT:
            from repro.stream.checkpoint import save_checkpoint

            path = message[1:].decode("utf-8")
            save_checkpoint(worker.pipeline, path)
            conn.send_bytes(TAG_CHECKPOINTED + path.encode("utf-8"))
        elif kind == TAG_STOP:
            conn.send_bytes(
                TAG_STOPPED
                + json.dumps(metrics.snapshot()).encode("utf-8")
            )
            return
        else:
            raise RuntimeError(f"unknown worker frame tag {kind!r}")
