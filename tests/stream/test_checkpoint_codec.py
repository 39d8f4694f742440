"""The one checkpoint codec shared by stream and shard-merger
checkpoints: committed files restore to their recorded labels and
re-save to the same arrays, writes are atomic, and a file that is not a
checkpoint ends in one ReproError naming it."""

import gc
import json
import os
import re
import warnings

import numpy as np
import pytest

from repro.core.config import StreamConfig
from repro.exceptions import ReproError
from repro.shard import ShardedStream
from repro.shard.merge import ShardMerger
from repro.stream.checkpoint import load_checkpoint, save_checkpoint

#: Checkpoints written before the stream and merger checkpoints shared
#: a codec, with the labels their sessions answered when written.
FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures",
    "checkpoints",
)


def recorded(kind):
    with open(os.path.join(FIXTURES, "labels.json"), encoding="utf-8") as handle:
        entry = json.load(handle)[kind]
    return np.array(entry["slots"]), np.array(entry["labels"])


def assert_labels(actual, kind):
    expected_slots, expected_labels = recorded(kind)
    slots, labels = actual
    assert np.array_equal(slots, expected_slots)
    assert np.array_equal(labels, expected_labels)


def assert_same_checkpoint(path, reference):
    """Member names, dtypes, shapes, array bytes and meta JSON all
    equal (zip members carry write times, so whole files differ)."""
    with np.load(path) as left, np.load(reference) as right:
        assert sorted(left.files) == sorted(right.files)
        for name in left.files:
            a, b = left[name], right[name]
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


class TestCommittedFixtures:
    def test_stream_checkpoint_restores_and_resaves(self, tmp_path):
        reference = os.path.join(FIXTURES, "stream.npz")
        pipeline = load_checkpoint(reference)
        assert_labels(pipeline.labels(), "stream")
        assert_labels(pipeline.view.dense_labels(), "stream")
        written = save_checkpoint(pipeline, str(tmp_path / "again.npz"))
        assert_same_checkpoint(written, reference)

    def test_sharded_directory_restores_and_resaves(self, tmp_path):
        reference = os.path.join(FIXTURES, "sharded")
        directory = str(tmp_path / "again")
        with ShardedStream.restore(reference) as resumed:
            assert_labels(resumed.labels(), "sharded")
            resumed.checkpoint(directory)
        for name in ("merger.npz", "shard-0.npz", "shard-1.npz"):
            assert_same_checkpoint(
                os.path.join(directory, name), os.path.join(reference, name)
            )


def stream_writer(path):
    pipeline = load_checkpoint(os.path.join(FIXTURES, "stream.npz"))
    return (
        lambda: save_checkpoint(pipeline, path),
        lambda: load_checkpoint(path).labels(),
    )


def merger_writer(path):
    merger = ShardMerger(StreamConfig(eps=2.0, min_lns=3), 2)
    merger.restore_from(os.path.join(FIXTURES, "sharded", "merger.npz"))

    def load():
        restored = ShardMerger(StreamConfig(eps=2.0, min_lns=3), 2)
        restored.restore_from(path)
        return restored.labels()

    return lambda: merger.save_to(path), load


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", [stream_writer, merger_writer])
    def test_interrupted_write_keeps_the_old_checkpoint(
        self, tmp_path, monkeypatch, writer
    ):
        path = str(tmp_path / "state.npz")
        save, load = writer(path)
        save()
        before = load()
        write_array = np.lib.format.write_array
        written = []

        def interrupt_after_first_member(*args, **kwargs):
            if written:
                raise KeyboardInterrupt
            written.append(True)
            return write_array(*args, **kwargs)

        monkeypatch.setattr(
            np.lib.format, "write_array", interrupt_after_first_member
        )
        with pytest.raises(KeyboardInterrupt):
            save()
        monkeypatch.undo()
        assert written
        assert os.listdir(tmp_path) == ["state.npz"]
        after = load()
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])

    def test_suffixless_path_gets_npz_and_is_reported(self, tmp_path):
        pipeline = load_checkpoint(os.path.join(FIXTURES, "stream.npz"))
        written = save_checkpoint(pipeline, str(tmp_path / "ck"))
        assert written == str(tmp_path / "ck.npz")
        assert os.listdir(tmp_path) == ["ck.npz"]


def bad_files(tmp_path):
    """A missing file, an empty file, a truncated checkpoint, an npz
    that is not a checkpoint, and a file that is not an npz."""
    truncated = tmp_path / "truncated.npz"
    with open(os.path.join(FIXTURES, "stream.npz"), "rb") as handle:
        payload = handle.read()
    truncated.write_bytes(payload[: len(payload) // 2])
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, x=np.zeros(3))
    text = tmp_path / "text.npz"
    text.write_text("traj_id,x,y\n0,1.0,2.0\n")
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    return [
        str(tmp_path / "missing.npz"), str(empty), str(truncated),
        str(foreign), str(text),
    ]


def restore_merger(path):
    ShardMerger(StreamConfig(eps=2.0, min_lns=3), 2).restore_from(path)


class TestBadFiles:
    @pytest.mark.parametrize("reader", [load_checkpoint, restore_merger])
    def test_each_bad_file_is_one_repro_error_naming_it(self, tmp_path, reader):
        for path in bad_files(tmp_path):
            with pytest.raises(ReproError, match=path.replace(".", r"\.")):
                reader(path)

    @pytest.mark.parametrize("reader", [load_checkpoint, restore_merger])
    def test_truncated_file_is_closed(self, tmp_path, reader):
        truncated = bad_files(tmp_path)[2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ReproError):
                reader(truncated)
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


def damaged_copy(tmp_path, change):
    """The committed stream checkpoint with *change* applied to its
    arrays and to trajectory 2's meta entry (54 timed points, committed
    points ending at 52)."""
    with np.load(os.path.join(FIXTURES, "stream.npz")) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays.pop("meta")))
    [entry] = [e for e in meta["trajectories"] if e["traj_id"] == 2]
    change(arrays, entry)
    arrays["meta"] = np.array(json.dumps(meta))
    path = str(tmp_path / "damaged.npz")
    np.savez_compressed(path, **arrays)
    return path


def append_three(pipeline):
    """Three more points for trajectory 2, after its last one."""
    points = pipeline.stream._trajectories[2].partitioner.points
    last_time = pipeline.stream._trajectories[2].times[-1]
    return pipeline.append(
        2, points[-1] + np.array([[1.0, 0.5], [2.0, 1.5], [3.0, 1.0]]),
        times=last_time + np.arange(1.0, 4.0),
    )


def _past_the_end(arrays, entry):
    entry["committed"].append(59)


def _past_the_end_and_resumed_there(arrays, entry):
    entry["committed"].append(59)
    entry["start_index"] = 59


def _starts_at_three(arrays, entry):
    entry["committed"] = [3] + [c for c in entry["committed"] if c > 3]


def _reversed(arrays, entry):
    entry["committed"].reverse()


def _three_columns(arrays, entry):
    points = arrays["traj_2_points"]
    arrays["traj_2_points"] = np.column_stack([points, points[:, 0]])


def _non_finite_point(arrays, entry):
    arrays["traj_2_points"][5, 1] = np.nan


def _times_missing(arrays, entry):
    del arrays["traj_2_times"]


def _times_cut_short(arrays, entry):
    arrays["traj_2_times"] = arrays["traj_2_times"][:-1]


def _negative_weight(arrays, entry):
    entry["weight"] = -1.0


#: The slot store and ε-edge members both checkpoint kinds carry.
_GRAPH_MEMBERS = (
    "store_starts", "store_ends", "store_traj_ids", "store_weights",
    "store_stamps", "store_alive", "edges_u", "edges_v", "edges_d",
)


def lacking(tmp_path, name, entry):
    """A copy of the committed checkpoint *name* without one member, or
    without one meta field when *entry* reads ``meta.<field>``."""
    with np.load(os.path.join(FIXTURES, name)) as archive:
        arrays = {member: archive[member] for member in archive.files}
    if entry.startswith("meta."):
        meta = json.loads(str(arrays["meta"]))
        del meta[entry[len("meta."):]]
        arrays["meta"] = np.array(json.dumps(meta))
    else:
        del arrays[entry]
    path = str(tmp_path / f"lacking-{entry}.npz")
    np.savez_compressed(path, **arrays)
    return path


def altered(tmp_path, name, change):
    """A copy of the committed checkpoint *name* with *change* applied
    to its arrays and meta record."""
    with np.load(os.path.join(FIXTURES, name)) as archive:
        arrays = {member: archive[member] for member in archive.files}
    meta = json.loads(str(arrays.pop("meta")))
    change(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta))
    path = str(tmp_path / "altered.npz")
    np.savez_compressed(path, **arrays)
    return path


def _next_key_null(arrays, meta):
    meta["next_key"] = None


def _config_a_list(arrays, meta):
    meta["config"] = list(meta["config"].values())


def _config_unknown_field(arrays, meta):
    meta["config"]["radius"] = 2.0


def _key_map_flat(arrays, meta):
    arrays["key_map"] = arrays["key_map"].ravel()


def _trajectories_null(arrays, meta):
    meta["trajectories"] = None


def _trajectory_not_a_mapping(arrays, meta):
    meta["trajectories"].append(2)


def _traj_id_null(arrays, meta):
    meta["trajectories"][0]["traj_id"] = None


def _evict_cursor_a_string(arrays, meta):
    meta["evict_cursor"] = "224"


def _max_stamp_infinite(arrays, meta):
    meta["max_stamp"] = float("inf")


def _next_token_null(arrays, meta):
    meta["next_token"] = None


def _applied_seq_null(arrays, meta):
    meta["applied_seq"] = None


def _edges_u_one_short(arrays, meta):
    arrays["edges_u"] = arrays["edges_u"][:-1]


def _edge_to_a_dead_slot(arrays, meta):
    arrays["edges_u"][0] = np.flatnonzero(~arrays["store_alive"])[0]


def _edge_beyond_the_store(arrays, meta):
    arrays["edges_v"][0] = arrays["store_alive"].size


def _store_alive_not_boolean(arrays, meta):
    arrays["store_alive"] = arrays["store_alive"].astype(np.int64)


def _store_column_one_short(arrays, meta):
    arrays["store_stamps"] = arrays["store_stamps"][:-1]


def _store_weight_not_positive(arrays, meta):
    arrays["store_weights"][0] = 0.0


#: Store and edge damage both checkpoint kinds can carry.
_GRAPH_DAMAGE = (
    _edges_u_one_short, _edge_to_a_dead_slot, _edge_beyond_the_store,
    _store_alive_not_boolean, _store_column_one_short,
    _store_weight_not_positive,
)


class TestDamagedContents:
    @pytest.mark.parametrize("change", [
        _past_the_end, _past_the_end_and_resumed_there, _starts_at_three,
        _reversed, _three_columns, _non_finite_point, _times_missing,
        _times_cut_short, _negative_weight,
    ])
    def test_is_one_repro_error_naming_the_file(self, tmp_path, change):
        """A checkpoint a session cannot resume from fails on load, not
        on a later append."""
        path = damaged_copy(tmp_path, change)
        with pytest.raises(ReproError, match=re.escape(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        *_GRAPH_MEMBERS, "key_map", "comp_tokens", "traj_2_points",
        "meta.config", "meta.trajectories", "meta.next_key",
        "meta.evict_cursor", "meta.max_stamp", "meta.next_token",
    ])
    def test_stream_checkpoint_lacking_an_entry(self, tmp_path, entry):
        """A missing member or meta field — ``comp_tokens`` of a v2 file
        too — is one ReproError naming the file, never a KeyError."""
        path = lacking(tmp_path, "stream.npz", entry)
        with pytest.raises(ReproError, match=re.escape(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        *_GRAPH_MEMBERS, "shard_of", "comp_tokens", "l2g_0", "l2g_1",
        "meta.applied_seq", "meta.next_token",
    ])
    def test_merger_checkpoint_lacking_an_entry(self, tmp_path, entry):
        path = lacking(tmp_path, os.path.join("sharded", "merger.npz"), entry)
        with pytest.raises(ReproError, match=re.escape(path)):
            restore_merger(path)

    @pytest.mark.parametrize("change", [
        _next_key_null, _config_a_list, _config_unknown_field,
        _key_map_flat, _trajectories_null, _trajectory_not_a_mapping,
        _traj_id_null, _evict_cursor_a_string, _max_stamp_infinite,
        _next_token_null, *_GRAPH_DAMAGE,
    ])
    def test_malformed_stream_value_is_one_repro_error(self, tmp_path, change):
        """A member or meta field of the wrong type or shape fails at
        load as one ReproError naming the file: never a bare error, and
        never a session restored from a misread value."""
        path = altered(tmp_path, "stream.npz", change)
        with pytest.raises(ReproError, match=re.escape(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        _next_token_null, _applied_seq_null, *_GRAPH_DAMAGE,
    ])
    def test_malformed_merger_value_is_one_repro_error(self, tmp_path, change):
        path = altered(tmp_path, os.path.join("sharded", "merger.npz"), change)
        with pytest.raises(ReproError, match=re.escape(path)):
            restore_merger(path)

    def test_saved_scan_position_is_not_read(self, tmp_path):
        """``start_index`` and ``length`` are derived when saved: junk
        there restores the same session."""
        def junk(arrays, entry):
            entry["start_index"], entry["length"] = 59, -4

        reference = load_checkpoint(os.path.join(FIXTURES, "stream.npz"))
        restored = load_checkpoint(damaged_copy(tmp_path, junk))
        expected, got = append_three(reference), append_three(restored)
        assert got.labels == expected.labels
        assert restored.stream.characteristic_points(2) == (
            reference.stream.characteristic_points(2)
        )
