"""The one checkpoint codec shared by stream and shard-merger
checkpoints: committed files restore to their recorded labels and
re-save to the same arrays, writes are atomic, and a file that is not a
checkpoint ends in one ReproError naming it."""

import json
import os

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
