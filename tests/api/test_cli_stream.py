"""``repro stream`` CLI: sharded mode agrees with single-stream, a
broken stdout pipe exits quietly (checkpoint still written), and a bad
row tailed after ``--bulk-load`` is named by its line in the file."""

import json
import os
import re
import subprocess
from types import SimpleNamespace

import pytest

from repro.cli import EXIT_REPRO_ERROR, main
from repro.datasets.synthetic import generate_corridor_set
from repro.io import csvio
from repro.io.csvio import write_trajectories_csv

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def tracks_csv(tmp_path):
    path = str(tmp_path / "tracks.csv")
    write_trajectories_csv(
        generate_corridor_set(n_trajectories=10, seed=5), path
    )
    return path


def final_line(output: str) -> str:
    matches = re.findall(r"final: .*", output)
    assert matches, f"no final summary in output:\n{output}"
    return matches[-1]


class TestShardedCli:
    def test_sharded_modes_agree_with_single_stream(
        self, tracks_csv, capsys
    ):
        base = [
            "stream", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--max-deltas", "0",
        ]
        assert main(base) == 0
        single = final_line(capsys.readouterr().out)

        assert main(base + ["--shards", "3", "--inline-shards"]) == 0
        inline = final_line(capsys.readouterr().out)

        assert main(base + ["--shards", "2"]) == 0
        procs = final_line(capsys.readouterr().out)

        prefix = single.split(" merged")[0]
        assert inline.startswith(prefix)
        assert procs.startswith(prefix)
        assert "merged from 3 shards" in inline
        assert "merged from 2 shards" in procs

    def test_sharded_checkpoint_directory(self, tracks_csv, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main([
            "stream", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--shards", "2", "--inline-shards", "--checkpoint", ckpt,
            "--max-deltas", "0",
        ]) == 0
        assert sorted(os.listdir(ckpt)) == [
            "manifest.json", "merger.npz", "shard-0.npz", "shard-1.npz",
        ]
        with open(os.path.join(ckpt, "manifest.json")) as handle:
            assert json.load(handle)["n_shards"] == 2
        capsys.readouterr()

    def test_rejects_windowed_sharded_config(self, tracks_csv, capsys):
        assert main([
            "stream", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--shards", "2", "--inline-shards", "--window", "50",
        ]) == EXIT_REPRO_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("repro stream: error: ")
        assert "does not support max_segments" in err

    def test_rejects_bad_shard_count(self, tracks_csv):
        with pytest.raises(SystemExit):
            main([
                "stream", tracks_csv, "--eps", "5", "--min-lns", "3",
                "--shards", "0",
            ])


class TestBrokenPipe:
    def _run_piped(self, argv, tmp_path):
        """Run ``repro stream`` with stdout piped into ``head -n 1``
        (which exits immediately) and return the CLI's exit status."""
        command = (
            "python -m repro.cli " + " ".join(argv)
            + " | head -n 1 > /dev/null; exit ${PIPESTATUS[0]}"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            ["bash", "-c", command],
            env=env, cwd=str(tmp_path),
            stderr=subprocess.PIPE, timeout=120,
        )

    def _big_csv(self, tmp_path):
        # Enough appends that update lines overflow the stdio + pipe
        # buffers long after head has gone away.
        path = str(tmp_path / "big.csv")
        write_trajectories_csv(
            generate_corridor_set(n_trajectories=40, seed=7), path
        )
        return path

    def test_single_stream_exits_quietly(self, tmp_path):
        csv_path = self._big_csv(tmp_path)
        ckpt = str(tmp_path / "stream.npz")
        result = self._run_piped(
            [
                "stream", csv_path, "--eps", "5", "--min-lns", "3",
                "--batch-points", "2", "--checkpoint", ckpt,
            ],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert b"BrokenPipeError" not in result.stderr
        assert os.path.exists(ckpt)  # --checkpoint honoured anyway

    def test_sharded_stream_exits_quietly(self, tmp_path):
        csv_path = self._big_csv(tmp_path)
        ckpt = str(tmp_path / "ckpt")
        result = self._run_piped(
            [
                "stream", csv_path, "--eps", "5", "--min-lns", "3",
                "--batch-points", "2", "--shards", "2", "--inline-shards",
                "--checkpoint", ckpt,
            ],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert b"BrokenPipeError" not in result.stderr
        assert os.path.exists(os.path.join(ckpt, "manifest.json"))


class TestBulkLoadFollow:
    @pytest.mark.parametrize(
        "extra", [[], ["--shards", "2", "--inline-shards"]],
        ids=["single", "sharded"],
    )
    def test_tail_error_names_the_file_line(
        self, tmp_path, monkeypatch, capsys, extra
    ):
        """The tail read after ``--bulk-load`` resumes mid-file; a bad
        row appended then is named by its line in the file."""
        path = tmp_path / "feed.csv"
        path.write_text("traj_id,c0,c1\n0,0.0,0.0\n0,1.0,1.0\n0,2.0,2.0\n")
        polls = []

        def sleep(seconds):
            # The tail loop reached the end of the file: the feed then
            # writes one malformed row (and stops the run if polled again).
            polls.append(seconds)
            if len(polls) > 1:
                raise KeyboardInterrupt
            with open(path, "a", encoding="utf-8") as feed:
                feed.write("0,north,3.0\n")

        monkeypatch.setattr(csvio, "time", SimpleNamespace(sleep=sleep))
        status = main([
            "stream", str(path), "--eps", "5", "--min-lns", "3",
            "--bulk-load", "--follow", "--poll", "0", *extra,
        ])
        assert status == 3
        assert "error: line 5: 'c0' cell" in capsys.readouterr().err
