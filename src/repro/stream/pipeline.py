"""The streaming TRACLUS pipeline: ingestion -> graph -> labels.

:class:`StreamingTRACLUS` wires a
:class:`~repro.stream.ingest.TrajectoryStream` (suffix-only MDL
re-partitioning) to an :class:`~repro.stream.online_dbscan.OnlineDBSCAN`
(incremental ε-graph and labels) and applies the configured sliding
window.  Each :meth:`append` returns a :class:`StreamUpdate` describing
what changed — the streaming analogue of one batch
:meth:`TRACLUS.fit <repro.core.traclus.TRACLUS.fit>` call, at the cost
of only the touched neighborhood.

Updates are built from first-class label diffs: the clusterer's
:meth:`~repro.stream.online_dbscan.OnlineDBSCAN.flush_diff` re-derives
only the slots the append could have moved and reports transitions in
*stable* cluster ids (``StreamUpdate.diff``, a
:class:`~repro.stream.view.LabelDiff` carrying merge/split/visibility
events), so per-append label cost is O(delta) rather than O(live).  The
pipeline folds every diff into a :class:`~repro.stream.view.LabelView`;
``StreamUpdate.labels`` derives the dense batch-identical map from that
view lazily, only when a caller asks.

Two scale features complete the picture: :meth:`bulk_load` seeds a
session from a whole corpus through the lock-step batched phase-1
engine (identical end state to sequential appends, at corpus speed),
and slot-store compaction (``StreamConfig.compact_dead_fraction``)
reclaims dead slots via a monotone id remap so unbounded sessions stop
growing with total ingested history.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import StreamConfig
from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster
from repro.model.trajectory import Trajectory
from repro.obs import NULL_REGISTRY
from repro.representative.sweep import RepresentativeConfig
from repro.stream.ingest import TrajectoryStream
from repro.stream.online_dbscan import OnlineDBSCAN
from repro.stream.view import LabelDiff, LabelView

#: Compaction never fires below this slot count — renumbering a tiny
#: store would cost more churn than the dead slots it reclaims.
_COMPACT_MIN_SLOTS = 128


class StreamUpdate:
    """What one append (or bulk load) did to the clustering.

    ``changed`` maps slot -> (old label, new label) in *stable* cluster
    ids (``diff.changed`` verbatim); ``None`` stands for "not in the
    window" on either side and ``-1`` is noise.  ``diff`` is the full
    :class:`~repro.stream.view.LabelDiff`, including merge/split and
    Step-3 visibility events.  ``n_alive``/``n_clusters`` summarize the
    post-update state.

    ``labels`` is the full current slot -> dense label map (-1 noise),
    identical to what a batch refit over the window would produce.  It
    is derived from the pipeline's label view *lazily* — appends no
    longer pay O(live) for it — and therefore must be read before the
    next update is applied (later access raises).

    When slot-store compaction ran after this update
    (``StreamConfig.compact_dead_fraction``), ``remapped`` maps every
    live slot's pre-compaction id to its new id; the other fields keep
    the pre-compaction ids the caller has been seeing (``labels`` is
    materialized eagerly in that case).  ``None`` means no compaction
    happened and all reported ids remain valid.
    """

    __slots__ = (
        "inserted",
        "evicted",
        "changed",
        "diff",
        "n_clusters",
        "n_alive",
        "remapped",
        "_view",
        "_version",
        "_labels",
    )

    def __init__(
        self,
        inserted: Tuple[int, ...],
        evicted: Tuple[int, ...],
        diff: LabelDiff,
        n_clusters: int,
        n_alive: int,
        view: LabelView,
    ):
        self.inserted = inserted
        self.evicted = evicted
        self.diff = diff
        self.changed = diff.changed
        self.n_clusters = n_clusters
        self.n_alive = n_alive
        self.remapped: Optional[Dict[int, int]] = None
        self._view = view
        self._version = view.version
        self._labels: Optional[Dict[int, int]] = None

    @property
    def labels(self) -> Dict[int, int]:
        if self._labels is None:
            if self._view.version != self._version:
                raise ClusteringError(
                    "StreamUpdate.labels read after later updates were "
                    "applied; the dense map is derived lazily from the "
                    "live view — read it before the next append, or "
                    "fold StreamUpdate.diff into your own LabelView"
                )
            self._labels = self._view.dense_map()
        return self._labels

    def __repr__(self) -> str:
        return (
            f"StreamUpdate(inserted={len(self.inserted)}, "
            f"evicted={len(self.evicted)}, changed={len(self.changed)}, "
            f"n_alive={self.n_alive}, n_clusters={self.n_clusters})"
        )


class StreamingTRACLUS:
    """Online partition-and-group over append-only point streams."""

    def __init__(self, config: StreamConfig, metrics=None):
        self.config = config
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_append_seconds = self._metrics.histogram(
            "repro_stream_append_seconds",
            help="Wall seconds per streaming append (ingest + recluster).",
        )
        self._m_diff_changed = self._metrics.counter(
            "repro_stream_diff_changed_total",
            help="Per-slot label transitions emitted across all updates.",
        )
        self._m_flush_touched = self._metrics.histogram(
            "repro_stream_flush_touched",
            help="Slots re-derived per update (the O(delta) label cost).",
        )
        self.stream = TrajectoryStream(
            suppression=config.suppression, dim=config.dim
        )
        self.clusterer = OnlineDBSCAN(
            eps=config.eps,
            min_lns=config.min_lns,
            distance=config.distance(),
            cardinality_threshold=config.cardinality_threshold,
            use_weights=config.use_weights,
            dim=config.dim,
        )
        #: The pipeline's own fold of every emitted diff; consumers can
        #: keep an identical one from the diffs alone.
        self.view = LabelView()
        self._key_to_slot: Dict[int, int] = {}
        self._slot_to_key: Dict[int, int] = {}
        self._evict_cursor = 0
        self._max_stamp = -np.inf

    # -- ingestion ---------------------------------------------------------
    def append(
        self,
        traj_id: int,
        points: Union[Sequence[Sequence[float]], np.ndarray],
        times: Optional[Sequence[float]] = None,
        weight: Optional[float] = None,
    ) -> StreamUpdate:
        """Feed points to one trajectory and update the clustering.

        ``weight`` fixes the trajectory weight at its first append
        (``None`` = default 1.0, or keep the opening weight later)."""
        started = time.perf_counter()
        delta = self.stream.append(traj_id, points, times=times, weight=weight)
        inserted, evicted = self._apply_delta(delta)
        evicted.extend(self._apply_window())
        update = self._build_update(inserted, evicted)
        self._m_append_seconds.observe(time.perf_counter() - started)
        return update

    def bulk_load(self, items, partition=None) -> StreamUpdate:
        """Seed the session with many *new* trajectories at once.

        *items* are :class:`~repro.model.trajectory.Trajectory` objects
        or ``(traj_id, points[, times[, weight]])`` tuples (see
        :meth:`TrajectoryStream.bulk_append
        <repro.stream.ingest.TrajectoryStream.bulk_append>`).  Phase 1
        runs through the lock-step batched engine in one vectorized
        scan, then every emitted segment is inserted in the same order
        per-trajectory appends would have used, so the final labels,
        slot assignments, and resumable per-trajectory scan states are
        identical to sequential ingestion — at corpus speed.  The
        eviction window is applied once at the end (the final alive set
        it produces equals applying it after every append).

        *partition* hands over a
        :class:`~repro.api.workspace.PartitionArtifact` whose scan
        states cover *items* in order (a Workspace over the same corpus
        produces exactly that; ``Workspace.seed_streaming`` is the
        one-call wrapper).  Phase 1 is then skipped — the artifact's
        committed characteristic points and resumable scan positions
        seed the stream bitwise identically to a fresh scan.
        """
        scan = None
        if partition is not None:
            items = list(items)
            # scan_states() raises on artifacts without phase-1
            # provenance (segment-bound workspaces).
            scan = partition.scan_states()
            if partition.suppression != self.config.suppression:
                raise ClusteringError(
                    f"partition artifact was scanned with suppression="
                    f"{partition.suppression} but this stream runs "
                    f"suppression={self.config.suppression}; the scan "
                    f"states would seed an inconsistent session"
                )
            # When the items are Trajectory objects (the Workspace path
            # always passes them), pin the artifact to this exact
            # corpus; tuple items still get the per-row structural
            # checks in bulk_append.
            if partition.corpus_key is not None and all(
                isinstance(item, Trajectory) for item in items
            ):
                from repro.api.fingerprint import corpus_fingerprint

                if corpus_fingerprint(items) != partition.corpus_key:
                    raise ClusteringError(
                        "partition artifact was built over a different "
                        "corpus than the items being bulk-loaded"
                    )
        delta = self.stream.bulk_append(items, scan=scan)
        inserted, evicted = self._apply_delta(delta)
        evicted.extend(self._apply_window())
        return self._build_update(inserted, evicted)

    def _apply_delta(self, delta) -> Tuple[List[int], List[int]]:
        """Retract-then-insert one :class:`StreamDelta` into the
        clusterer; returns the touched ``(inserted, evicted)`` slots.

        Every non-empty delta, one segment or many, enters through the
        clusterer's batched insert (one grid query for the whole delta)
        in record order.
        """
        evicted: List[int] = []
        for key in delta.retracted:
            slot = self._key_to_slot.pop(key, None)
            if slot is None:
                continue  # already evicted by the window
            del self._slot_to_key[slot]
            self.clusterer.evict(slot)
            evicted.append(slot)
        records = delta.inserted
        if not records:
            return [], evicted
        inserted = self.clusterer.insert_batch(
            [record.start for record in records],
            [record.end for record in records],
            [record.traj_id for record in records],
            [record.weight for record in records],
            [record.stamp for record in records],
        )
        for record, slot in zip(records, inserted):
            self._key_to_slot[record.key] = slot
            self._slot_to_key[slot] = record.key
            if record.stamp > self._max_stamp:
                self._max_stamp = record.stamp
        return inserted, evicted

    def _evict_slot(self, slot: int) -> None:
        key = self._slot_to_key.pop(slot)
        self._key_to_slot.pop(key, None)
        self.clusterer.evict(slot)

    def _apply_window(self) -> List[int]:
        """Enforce the configured eviction policies (horizon first, then
        the count cap)."""
        evicted: List[int] = []
        store = self.clusterer.store
        if self.config.horizon is not None and np.isfinite(self._max_stamp):
            cutoff = self._max_stamp - self.config.horizon
            for slot in store.alive_slots().tolist():
                if store.stamps[slot] < cutoff:
                    self._evict_slot(slot)
                    evicted.append(slot)
        if self.config.max_segments is not None:
            # Slots are allocated in stream order, so the oldest live
            # segment is the smallest live slot; the cursor only ever
            # moves forward (amortized O(1) per eviction).
            while store.n_alive > self.config.max_segments:
                while not store.is_alive(self._evict_cursor):
                    self._evict_cursor += 1
                self._evict_slot(self._evict_cursor)
                evicted.append(self._evict_cursor)
        return evicted

    def _build_update(
        self, inserted: List[int], evicted: List[int]
    ) -> StreamUpdate:
        diff = self.clusterer.flush_diff()
        self.view.apply(diff)
        if self._metrics.enabled:
            self._m_diff_changed.inc(float(len(diff.changed)))
            self._m_flush_touched.observe(float(diff.touched))
        update = StreamUpdate(
            inserted=tuple(inserted),
            evicted=tuple(evicted),
            diff=diff,
            n_clusters=self.view.n_clusters,
            n_alive=self.view.n_live,
            view=self.view,
        )
        remapped = self._maybe_compact()
        if remapped is not None:
            # Pin the documented pre-compaction ids before the view
            # follows the remap.
            update.labels
            self.view.remap(remapped)
            update.remapped = remapped
        return update

    # -- compaction --------------------------------------------------------
    def _maybe_compact(self) -> Optional[Dict[int, int]]:
        """Reclaim dead slots once their fraction of the slot space
        exceeds ``config.compact_dead_fraction``.

        The remap is monotone over live slots, so relative slot order —
        and with it the distance kernel's id tie-break, every computed
        distance, and every label — is preserved bitwise; only the ids
        change.  Internal key maps are remapped here (the label view in
        :meth:`_build_update`, which also surfaces the old -> new map
        on the update so callers can follow).
        """
        fraction = self.config.compact_dead_fraction
        store = self.clusterer.store
        if fraction is None or len(store) < _COMPACT_MIN_SLOTS:
            return None
        dead = len(store) - store.n_alive
        if dead <= fraction * len(store):
            return None
        remap = self.clusterer.compact_slots()
        live = {
            old: int(new)
            for old, new in enumerate(remap.tolist())
            if new >= 0
        }
        self._key_to_slot = {
            key: live[slot] for key, slot in self._key_to_slot.items()
        }
        self._slot_to_key = {
            slot: key for key, slot in self._key_to_slot.items()
        }
        # All dead slots are gone: the oldest live slot is found from 0.
        self._evict_cursor = 0
        return live

    # -- queries -----------------------------------------------------------
    def labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(slots, labels)`` (see :meth:`OnlineDBSCAN.labels`)."""
        return self.clusterer.labels()

    def representatives(self) -> List[Cluster]:
        """Current clusters with lazily refreshed representatives."""
        return self.clusterer.representatives(
            RepresentativeConfig(
                min_lns=self.config.min_lns, gamma=self.config.gamma
            )
        )

    @property
    def n_alive(self) -> int:
        return self.clusterer.store.n_alive

    def __repr__(self) -> str:
        return (
            f"StreamingTRACLUS(n_alive={self.n_alive}, "
            f"n_trajectories={len(self.stream.traj_ids)})"
        )
