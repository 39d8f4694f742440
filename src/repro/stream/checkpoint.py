"""Snapshot/restore for a :class:`~repro.stream.pipeline.StreamingTRACLUS`.

One ``.npz`` file holds the whole session: the configuration, every
trajectory's points and committed characteristic points (the whole
resumable Figure 8 state), the segment store (dead slots included —
slot ids are identities), and the ε-graph *edges with their
distances*, so a restore re-evaluates no distance at all.  Each
trajectory's meta entry also carries ``start_index`` and ``length``,
written for format compatibility as ``committed[-1]`` and ``n -
committed[-1]`` (where Figure 8 stopped) and never read back.  Label
state (cardinalities, cores, components) is derived, not stored:
:meth:`OnlineDBSCAN.rebuild_from_graph` recomputes every cardinality
and promotes the cores in ascending slot order through the same
promotion an insert runs, guaranteeing a restored session answers
:meth:`labels` identically and continues identically under further
appends.

The v2 format additionally records the stable cluster tokens (one
``(token, anchor core member)`` pair per component plus the mint
counter): after the rebuild, :meth:`OnlineDBSCAN.adopt_tokens` renames
the reconstructed components back to their checkpointed identities, so
the *label diffs* a restored session emits — not just its labels — are
identical to the original session's.  v1 checkpoints still load; their
sessions get fresh (but internally consistent) tokens.

The clusterer half of that layout — slot store, ε-edges and stable
tokens — is one codec, :func:`encode_clusterer` /
:func:`decode_clusterer`, which the shard merger's checkpoint
(:meth:`ShardMerger.save_to <repro.shard.merge.ShardMerger.save_to>`)
shares, as it shares :func:`write_checkpoint` /
:func:`read_checkpoint` for the file itself.  Writes are atomic
(:func:`repro.io.artifacts.write_npz`): an interrupted write leaves the
previous checkpoint loadable.  Any file that is not a readable
checkpoint of the expected kind, that lacks a member or meta field its
reader reads, or whose trajectories a session cannot resume from,
raises one :class:`~repro.exceptions.ReproError` naming it.

Only NumPy and the standard library are used (``np.savez_compressed``
plus one JSON metadata string) — no pickle, so checkpoints are
portable and inspectable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import StreamConfig
from repro.exceptions import (
    ClusteringError,
    PartitionError,
    ReproError,
    TrajectoryError,
)
from repro.io.artifacts import DAMAGED_NPZ_ERRORS, write_npz
from repro.partition.incremental import IncrementalPartitioner
from repro.stream.ingest import (
    _opening_weight,
    _TrajectoryState,
    _validated_times,
)
from repro.stream.online_dbscan import OnlineDBSCAN
from repro.stream.pipeline import StreamingTRACLUS

#: Format marker written into every checkpoint.
CHECKPOINT_FORMAT = "repro-stream-checkpoint-v2"

#: Formats :func:`load_checkpoint` accepts (v1 lacks stable tokens).
_ACCEPTED_FORMATS = ("repro-stream-checkpoint-v1", CHECKPOINT_FORMAT)

#: The slot store and ε-edge arrays, in the argument order of
#: :meth:`DynamicNeighborGraph.restore_slots
#: <repro.stream.dynamic_graph.DynamicNeighborGraph.restore_slots>`.
_GRAPH_ARRAYS = (
    "store_starts", "store_ends", "store_traj_ids", "store_weights",
    "store_stamps", "store_alive", "edges_u", "edges_v", "edges_d",
)


class _Record(dict):
    """A checkpoint's arrays or meta record: reading an entry the file
    lacks, or one :meth:`checked` rejects, raises one
    :class:`ReproError` naming the file."""

    def __init__(self, entries: dict, path: str, kind: str, what: str):
        super().__init__(entries)
        self._context = f"cannot restore {kind} checkpoint {path}"
        self._what = what

    def __missing__(self, name: str):
        raise self.damaged(f"no {self._what} {name!r}")

    def damaged(self, problem: str) -> ReproError:
        """The error for a file whose contents fail a check."""
        return ReproError(f"{self._context}: {problem}")

    def checked(
        self, name: str, valid: Callable[[object], bool], expected: str
    ):
        """Entry *name*, which *valid* must accept."""
        value = self[name]
        if not valid(value):
            raise self.damaged(f"{self._what} {name!r} is not {expected}")
        return value

    def integer(self, name: str) -> int:
        return self.checked(name, _is_int, "an integer")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_null_or_finite(value) -> bool:
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_pair_table(value: np.ndarray) -> bool:
    """A ``(k, 2)`` integer array, as ``comp_tokens`` and the merger's
    slot maps are."""
    return value.ndim == 2 and value.shape[1] == 2 and value.dtype.kind in "iu"


def encode_clusterer(clusterer: OnlineDBSCAN) -> Tuple[Dict[str, np.ndarray], int]:
    """The checkpoint arrays of *clusterer* — its slot store, ε-edges
    and stable tokens (``comp_tokens``) — plus the token mint counter
    the caller records in its meta."""
    store = clusterer.store
    columns = (
        store.starts, store.ends, store.traj_ids, store.weights,
        store.stamps, store.alive_mask,
    )
    arrays = {name: column.copy() for name, column in zip(_GRAPH_ARRAYS, columns)}
    arrays.update(zip(_GRAPH_ARRAYS[len(columns):], clusterer.graph.edge_arrays()))
    token_pairs, next_token = clusterer.export_tokens()
    arrays["comp_tokens"] = token_pairs
    return arrays, int(next_token)


def decode_clusterer(
    clusterer: OnlineDBSCAN,
    arrays: _Record,
    next_token: Optional[int],
) -> None:
    """Refill an empty *clusterer* from :func:`encode_clusterer` arrays
    (as :func:`read_checkpoint` returns them) without re-evaluating any
    distance: the graph is restored, label state rebuilt from it, and —
    unless *next_token* is ``None`` (a v1 stream checkpoint, written
    before tokens) — components renamed to their checkpointed tokens
    ``comp_tokens``.  Store columns that differ in length, a
    ``store_alive`` that is not boolean, edge arrays that differ in
    length, an edge endpoint that is not a live slot, a column the slot
    store rejects, a ``comp_tokens`` that is not a ``(k, 2)`` integer
    array of distinct tokens in ``[0, next_token)`` anchored at
    distinct live slots, or anchors that do not name the rebuilt
    components one each raise one :class:`ReproError` naming the
    file."""
    columns = [np.asarray(arrays[name]) for name in _GRAPH_ARRAYS]
    alive, (edges_u, edges_v, edges_d) = columns[5], columns[6:]
    if alive.dtype != bool or alive.ndim != 1 or any(
        column.shape[:1] != alive.shape for column in columns[:5]
    ):
        raise arrays.damaged(
            "store columns are not one length with a boolean store_alive"
        )
    if edges_u.ndim != 1 or edges_v.shape != edges_u.shape or (
        edges_d.shape != edges_u.shape
    ):
        raise arrays.damaged("edge arrays are not one length")
    endpoints = np.concatenate([edges_u, edges_v])
    if endpoints.size and not (
        endpoints.dtype.kind in "iu" and endpoints.min() >= 0
        and endpoints.max() < alive.size and alive[endpoints].all()
    ):
        raise arrays.damaged("an edge endpoint is not a live slot")
    if next_token is not None:
        pairs = np.asarray(arrays["comp_tokens"])
        if not _is_pair_table(pairs):
            raise arrays.damaged("comp_tokens is not a (k, 2) integer array")
        # A uint64 value past int64 turns negative here and fails below.
        pairs = pairs.astype(np.int64)
        tokens, anchors = pairs[:, 0], pairs[:, 1]
        if next_token < 0 or tokens.size and not (
            tokens.min() >= 0 and tokens.max() < next_token
            and np.unique(tokens).size == tokens.size
        ):
            raise arrays.damaged(
                "comp_tokens tokens are not distinct and in [0, next_token)"
            )
        if anchors.size and not (
            anchors.min() >= 0 and anchors.max() < alive.size
            and alive[anchors].all()
            and np.unique(anchors).size == anchors.size
        ):
            raise arrays.damaged(
                "comp_tokens anchors are not distinct live slots"
            )
    try:
        clusterer.graph.restore_slots(*columns)
        clusterer.rebuild_from_graph()
        if next_token is not None:
            clusterer.adopt_tokens(pairs, int(next_token))
    except ClusteringError as error:
        raise arrays.damaged(str(error)) from None


def write_checkpoint(path: str, arrays: Dict[str, np.ndarray], meta: dict) -> str:
    """Write *arrays* plus the JSON *meta* record (member ``meta``) as
    one compressed ``.npz``, atomically; returns the path written
    (``.npz`` is appended when *path* lacks it)."""
    arrays["meta"] = np.array(json.dumps(meta))
    return write_npz(path, arrays, compressed=True)


def read_checkpoint(
    path: str, formats: Sequence[str], kind: str
) -> Tuple[_Record, _Record]:
    """Every array of checkpoint *path* and its meta record.  A missing,
    truncated, foreign or non-npz file, or one whose format is not in
    *formats*, raises one :class:`ReproError` naming *path*, and so
    does a later read of an array or meta field the file lacks or that
    :meth:`_Record.checked` rejects."""
    try:
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays.pop("meta")))
    except (OSError, KeyError, *DAMAGED_NPZ_ERRORS) as error:
        raise ReproError(
            f"cannot read {kind} checkpoint {path}: {error}"
        ) from None
    found = meta.get("format") if isinstance(meta, dict) else None
    if found not in formats:
        raise ReproError(
            f"{path} is not a {kind} checkpoint (format={found!r})"
        )
    return (
        _Record(arrays, path, kind, "member"),
        _Record(meta, path, kind, "meta field"),
    )


def save_checkpoint(pipeline: StreamingTRACLUS, path: str) -> str:
    """Write the full streaming state to *path* (an ``.npz`` file);
    returns the path written."""
    arrays, next_token = encode_clusterer(pipeline.clusterer)
    arrays["key_map"] = np.array(
        sorted(pipeline._key_to_slot.items()), dtype=np.int64
    ).reshape(-1, 2)
    trajectories = []
    for traj_id, state in pipeline.stream._trajectories.items():
        partitioner = state.partitioner
        committed = partitioner.committed
        trajectories.append(
            {
                "traj_id": traj_id,
                "weight": state.weight,
                "timed": state.times is not None,
                "committed": committed,
                "start_index": committed[-1],
                "length": partitioner.n_points - committed[-1],
                "trailing_key": (
                    -1 if state.trailing_key is None else state.trailing_key
                ),
            }
        )
        arrays[f"traj_{traj_id}_points"] = partitioner.points.copy()
        if state.times is not None:
            arrays[f"traj_{traj_id}_times"] = np.asarray(
                state.times, dtype=np.float64
            )
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(pipeline.config),
        "next_token": next_token,
        "next_key": pipeline.stream._next_key,
        "evict_cursor": pipeline._evict_cursor,
        "max_stamp": (
            None if not np.isfinite(pipeline._max_stamp)
            else pipeline._max_stamp
        ),
        "trajectories": trajectories,
    }
    return write_checkpoint(path, arrays, meta)


def load_checkpoint(
    path: Union[str, "object"], metrics=None
) -> StreamingTRACLUS:
    """Rebuild a :class:`StreamingTRACLUS` from a checkpoint file.

    Each trajectory resumes from its points and committed
    characteristic points.  A trajectory whose points are not finite
    or not ``config.dim`` wide, whose committed points Figure 8 cannot
    have committed on them, whose weight is not positive and finite,
    or whose timestamps are missing or unfit for its points raises one
    :class:`ReproError` naming *path*, and so does a file that lacks a
    member or meta field read here (``comp_tokens`` and ``next_token``
    are read from v2 files only) or holds one of the wrong type or
    shape: ``config`` a mapping of :class:`StreamConfig` fields,
    ``next_key``, ``evict_cursor`` and ``next_token`` integers,
    ``max_stamp`` null or finite, ``trajectories`` a list of mappings,
    ``key_map`` a ``(k, 2)`` integer array, and the store, edge and token
    arrays as :func:`decode_clusterer` checks them.

    *metrics* optionally hands the restored pipeline a
    :class:`~repro.obs.MetricsRegistry` (restored shard workers keep
    reporting)."""
    arrays, meta = read_checkpoint(path, _ACCEPTED_FORMATS, "stream")
    fields = meta.checked(
        "config", lambda value: isinstance(value, dict), "a mapping"
    )
    try:
        config = StreamConfig(**fields)
    except (TypeError, ValueError, ReproError) as error:
        raise meta.damaged(f"meta field 'config': {error}") from None
    pipeline = StreamingTRACLUS(config, metrics=metrics)
    decode_clusterer(
        pipeline.clusterer, arrays,
        meta.integer("next_token")
        if meta["format"] == CHECKPOINT_FORMAT else None,
    )
    trajectories = meta.checked(
        "trajectories",
        lambda value: isinstance(value, list)
        and all(isinstance(entry, dict) for entry in value),
        "a list of mappings",
    )
    for entry in trajectories:
        try:
            traj_id = int(entry["traj_id"])
            points = pipeline.stream._checked_points(
                traj_id, arrays[f"traj_{traj_id}_points"]
            )
            partitioner = IncrementalPartitioner.restore(
                pipeline.config.suppression, points, entry["committed"]
            )
            weight = _opening_weight(entry["weight"])
            times = None
            if entry["timed"]:
                times = _validated_times(
                    arrays[f"traj_{traj_id}_times"], len(points)
                ).tolist()
            trailing_key = int(entry["trailing_key"])
        except (
            KeyError, TypeError, ValueError, TrajectoryError, PartitionError
        ) as error:
            raise meta.damaged(str(error)) from None
        state = _TrajectoryState(partitioner, weight)
        state.times = times
        if trailing_key >= 0:
            state.trailing_key = trailing_key
        pipeline.stream._trajectories[traj_id] = state
    pipeline.stream._next_key = meta.integer("next_key")
    pipeline._evict_cursor = meta.integer("evict_cursor")
    max_stamp = meta.checked(
        "max_stamp", _is_null_or_finite, "null or a finite number"
    )
    pipeline._max_stamp = -np.inf if max_stamp is None else float(max_stamp)
    key_map = arrays.checked(
        "key_map", _is_pair_table, "a (k, 2) integer array"
    )
    pipeline._key_to_slot = {int(k): int(s) for k, s in key_map}
    pipeline._slot_to_key = {s: k for k, s in pipeline._key_to_slot.items()}
    pipeline.view = pipeline.clusterer.snapshot_view()
    return pipeline
