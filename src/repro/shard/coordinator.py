"""The sharded streaming session: router + K workers + one merger.

:class:`ShardedStream` is the user-facing handle.  Appends are routed
by trajectory to one of K shard workers — each a full
:class:`~repro.stream.pipeline.StreamingTRACLUS` over its slice of the
feed — and the :class:`~repro.shard.merge.ShardMerger` folds the
resulting :class:`~repro.shard.wire.ShardDiff` stream, in global
sequence order, into one consistent label view whose dense labels are
bitwise identical to a single-stream session (and hence to a batch
refit) over the union of all shards.

Two execution modes share every code path above the transport:

* ``processes=False`` (default) runs the workers in-process.  Each
  append still round-trips through the wire codec (so the protocol is
  exercised everywhere, including the property tests) and returns the
  merged label diff synchronously.
* ``processes=True`` spawns one OS process per shard
  (:func:`~repro.shard.worker.shard_worker_main`).  Appends are
  dispatched as raw tagged frames over per-worker duplex pipes and
  return immediately; diff frames flow back on the same pipes and are
  folded opportunistically — call :meth:`sync` (or :meth:`drain` with
  ``block=True``) before reading labels.

Checkpointing writes one directory: a standard stream checkpoint per
shard, the merged graph + stable tokens + slot maps, and a JSON
manifest; :meth:`ShardedStream.restore` resumes in either mode and
continues label-identically.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import StreamConfig
from repro.exceptions import ClusteringError, ReproError
from repro.obs import NULL_REGISTRY, MetricsRegistry, aggregate_snapshots
from repro.shard.merge import ShardMerger, validate_sharded_config
from repro.shard.router import ShardRouter
from repro.shard.wire import decode_diff, encode_task
from repro.shard import worker as worker_module
from repro.shard.worker import ShardWorker, shard_worker_main
from repro.stream.view import LabelDiff, LabelView

#: Manifest format marker of a sharded checkpoint directory.
SHARD_CHECKPOINT_FORMAT = "repro-shard-checkpoint-v1"

#: Seconds to wait on worker replies before declaring a shard dead.
_WORKER_TIMEOUT = 60.0

#: Most shard diffs folded into the merged view per batched run.
_MERGE_RUN_CAP = 32


class ShardedStream:
    """Parallel shard ingest with a consistent merged label view."""

    def __init__(
        self,
        config: StreamConfig,
        n_shards: int,
        processes: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        _restore_dir: Optional[str] = None,
        _restore_manifest: Optional[dict] = None,
    ):
        if n_shards < 1:
            raise ClusteringError(
                f"n_shards must be positive, got {n_shards}"
            )
        validate_sharded_config(config)
        self.config = config
        self.n_shards = int(n_shards)
        self.processes = bool(processes)
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_appends = self._metrics.counter(
            "repro_shard_appends_total",
            help="Appends routed into the sharded session.",
        )
        self._m_lag = self._metrics.gauge(
            "repro_shard_lag",
            help="Routed appends whose diff is not yet merged "
                 "(router seq minus merged seq).",
        )
        self.router = ShardRouter(self.n_shards)
        self.merger = ShardMerger(
            config, self.n_shards, metrics=self._metrics
        )
        self._closed = False
        self._workers: List[ShardWorker] = []
        self._procs: List = []
        self._conns: List = []
        self._merged_backlog: List[LabelDiff] = []
        shard_paths: List[Optional[str]] = [None] * self.n_shards
        if _restore_manifest is not None:
            self.router.next_seq = int(_restore_manifest["next_seq"])
            self.merger.restore_from(
                os.path.join(_restore_dir, "merger.npz")
            )
            shard_paths = [
                os.path.join(_restore_dir, f"shard-{k}.npz")
                for k in range(self.n_shards)
            ]
        if self.processes:
            import multiprocessing as mp

            for k in range(self.n_shards):
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=shard_worker_main,
                    args=(
                        k,
                        _config_dict(config),
                        child_conn,
                        shard_paths[k],
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        else:
            for k in range(self.n_shards):
                pipeline = None
                if shard_paths[k] is not None:
                    from repro.stream.checkpoint import load_checkpoint

                    pipeline = load_checkpoint(
                        shard_paths[k], metrics=self._metrics
                    )
                self._workers.append(
                    ShardWorker(
                        k, config, metrics=self._metrics,
                        pipeline=pipeline,
                    )
                )

    # -- ingestion ---------------------------------------------------------
    def append(
        self, traj_id, points, times=None, weight=None
    ) -> Optional[LabelDiff]:
        """Route one append.  In-process mode applies it end to end and
        returns the merged label diff; process mode dispatches and
        returns ``None`` (diffs fold on :meth:`drain`/:meth:`sync`)."""
        self._check_open()
        shard, task = self.router.route(
            traj_id, points, times=times, weight=weight
        )
        if self._metrics.enabled:
            self._m_appends.inc()
        payload = encode_task(task)
        if not self.processes:
            diff_bytes = self._workers[shard].process_bytes(payload)
            self.merger.offer(decode_diff(diff_bytes))
            merged = self.merger.drain()
            self._update_lag()
            return merged
        self._dispatch(shard, worker_module.TAG_APPEND + payload)
        self._absorb_ready()
        self._merge_pending()
        self._update_lag()
        return None

    # -- merging -----------------------------------------------------------
    def _dispatch(self, shard: int, frame: bytes) -> None:
        """Send one task frame without ever stalling on a full pipe:
        while the worker's inbound buffer has no room, absorb and merge
        the diff frames the workers are blocked trying to hand back
        (that is what fills the buffers), then retry — backpressure
        becomes merge time instead of idle time."""
        import select

        conn = self._conns[shard]
        while not select.select([], [conn], [], 0)[1]:
            from multiprocessing.connection import (
                wait as connection_wait,
            )

            if not self._absorb_ready():
                if not connection_wait(
                    self._conns, timeout=_WORKER_TIMEOUT
                ):
                    self._check_workers_alive()
                    continue
                self._absorb_ready()
            self._merge_pending()
        conn.send_bytes(frame)

    def _absorb_ready(self) -> int:
        """Offer every diff frame currently readable to the merger
        (one ``select`` across all worker pipes per round); does not
        drain."""
        import select

        offered = 0
        while True:
            readable = select.select(self._conns, [], [], 0)[0]
            if not readable:
                return offered
            for conn in readable:
                try:
                    frame = conn.recv_bytes()
                except EOFError:
                    self._check_workers_alive()
                    raise
                if frame[:1] != worker_module.TAG_DIFF:
                    raise ReproError(
                        f"unexpected worker frame {frame[:1]!r} "
                        f"while pumping diffs"
                    )
                self.merger.offer(decode_diff(frame[1:]))
                offered += 1

    def _merge_pending(self) -> None:
        """Fold buffered contiguous diffs in capped runs, parking the
        merged label diffs on the backlog the next :meth:`drain` call
        hands out.  Medium runs amortize the grid join and kernel call
        without letting deferred retractions bloat the graph."""
        while True:
            diff = self.merger.drain(max_diffs=_MERGE_RUN_CAP)
            if diff is None:
                return
            self._merged_backlog.append(diff)

    def _pump(self, block: bool) -> List[LabelDiff]:
        """Move diff frames from the worker pipes into the merger;
        returns every merged label diff produced since the last call
        (including those folded opportunistically during appends)."""
        if not self.processes:
            return []
        from multiprocessing.connection import wait as connection_wait

        outstanding = self.router.next_seq - 1 - self.merger.applied_seq
        while outstanding > 0:
            offered = self._absorb_ready()
            if offered:
                self._merge_pending()
            elif block:
                if not connection_wait(
                    self._conns, timeout=_WORKER_TIMEOUT
                ):
                    self._check_workers_alive()
            else:
                break
            outstanding = self.router.next_seq - 1 - self.merger.applied_seq
        merged = self._merged_backlog
        self._merged_backlog = []
        return merged

    def drain(self, block: bool = False) -> List[LabelDiff]:
        """Fold queued shard diffs into the merged view; with *block*
        waits until every routed append has been merged."""
        self._check_open()
        merged = self._pump(block=block)
        self._update_lag()
        return merged

    def sync(self) -> None:
        """Block until the merged view covers every routed append."""
        self.drain(block=True)

    @property
    def lag(self) -> int:
        """Routed appends not yet reflected in the merged view."""
        return self.router.next_seq - 1 - self.merger.applied_seq

    def _update_lag(self) -> None:
        if self._metrics.enabled:
            self._m_lag.set(float(self.lag))

    # -- queries -----------------------------------------------------------
    @property
    def view(self) -> LabelView:
        """The merged label view (synced appends only)."""
        return self.merger.view

    def labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Merged ``(slots, labels)`` — bitwise identical to a
        single-stream session (and a batch refit) over the union."""
        return self.merger.labels()

    @property
    def n_alive(self) -> int:
        return self.merger.n_alive

    def metrics_snapshot(self) -> dict:
        """Fleet-wide metrics: the coordinator/merger registry plus the
        latest snapshot each worker process shipped."""
        own = self._metrics.snapshot()
        return aggregate_snapshots(
            [own] + list(self.merger.worker_metrics.values())
        )

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self, directory: str) -> None:
        """Write the whole sharded session under *directory* (created
        if missing): ``shard-K.npz`` per worker, ``merger.npz``, and a
        ``manifest.json``.  Syncs first so no diff is in flight."""
        self._check_open()
        self.sync()
        os.makedirs(directory, exist_ok=True)
        for k in range(self.n_shards):
            path = os.path.join(directory, f"shard-{k}.npz")
            if self.processes:
                self._conns[k].send_bytes(
                    worker_module.TAG_CHECKPOINT + path.encode("utf-8")
                )
                kind, _ = self._recv(k)
                if kind != worker_module.TAG_CHECKPOINTED:
                    raise ReproError(
                        f"shard {k} failed to checkpoint (got {kind!r})"
                    )
            else:
                from repro.stream.checkpoint import save_checkpoint

                save_checkpoint(self._workers[k].pipeline, path)
        self.merger.save_to(os.path.join(directory, "merger.npz"))
        manifest = {
            "format": SHARD_CHECKPOINT_FORMAT,
            "n_shards": self.n_shards,
            "next_seq": self.router.next_seq,
            "applied_seq": self.merger.applied_seq,
            "config": _config_dict(self.config),
        }
        with open(
            os.path.join(directory, "manifest.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=2)

    @classmethod
    def restore(
        cls,
        directory: str,
        processes: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ShardedStream":
        """Resume a sharded session from :meth:`checkpoint` output; the
        resumed session continues label-identically in either mode."""
        with open(
            os.path.join(directory, "manifest.json"), encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
        if manifest.get("format") != SHARD_CHECKPOINT_FORMAT:
            raise ReproError(
                f"not a sharded stream checkpoint "
                f"(format={manifest.get('format')!r})"
            )
        return cls(
            StreamConfig(**manifest["config"]),
            int(manifest["n_shards"]),
            processes=processes,
            metrics=metrics,
            _restore_dir=directory,
            _restore_manifest=manifest,
        )

    # -- lifecycle ---------------------------------------------------------
    def _recv(self, shard: int):
        """Wait for a control reply frame from *shard*, folding any
        diff frames that are still in flight into the merger."""
        conn = self._conns[shard]
        while True:
            if not conn.poll(_WORKER_TIMEOUT):
                raise ReproError(
                    f"shard {shard} worker is not responding"
                )
            frame = conn.recv_bytes()
            if frame[:1] == worker_module.TAG_DIFF:
                self.merger.offer(decode_diff(frame[1:]))
                continue
            return frame[:1], frame[1:]

    def _check_workers_alive(self) -> None:
        for k, proc in enumerate(self._procs):
            if not proc.is_alive():
                raise ReproError(
                    f"shard {k} worker died (exitcode={proc.exitcode})"
                )

    def _check_open(self) -> None:
        if self._closed:
            raise ClusteringError("sharded stream is closed")

    def close(self) -> None:
        """Drain outstanding work, stop the workers, join the
        processes.  Idempotent."""
        if self._closed:
            return
        if self.processes:
            try:
                self._pump(block=True)
            finally:
                for k, conn in enumerate(self._conns):
                    try:
                        conn.send_bytes(worker_module.TAG_STOP)
                        kind, body = self._recv(k)
                        if kind == worker_module.TAG_STOPPED and body:
                            self.merger.worker_metrics[k] = json.loads(
                                body.decode("utf-8")
                            )
                    except (OSError, EOFError, ReproError):
                        pass
                    conn.close()
                for proc in self._procs:
                    proc.join(timeout=_WORKER_TIMEOUT)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join()
        self._closed = True

    def __enter__(self) -> "ShardedStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedStream(n_shards={self.n_shards}, "
            f"processes={self.processes}, n_alive={self.n_alive}, "
            f"lag={self.lag})"
        )


def _config_dict(config: StreamConfig) -> dict:
    from dataclasses import asdict

    return asdict(config)
