"""CLI integration of the artifact workspace: --workspace flags and
the ``workspace`` inspector subcommand."""

import json
import os

import numpy as np
import pytest

from repro.cli import EXIT_REPRO_ERROR, build_parser, main
from repro.io.artifacts import load_artifact
from repro.io.csvio import write_trajectories_csv


@pytest.fixture
def tracks_csv(tmp_path, corridor_trajectories):
    path = str(tmp_path / "tracks.csv")
    write_trajectories_csv(corridor_trajectories, path)
    return path


class TestParser:
    @pytest.mark.parametrize("command", ["cluster", "params", "sweep"])
    def test_workspace_flag_accepted(self, command):
        argv = [command, "in.csv"]
        if command == "sweep":
            argv += ["--eps", "3,5", "--min-lns", "3"]
        args = build_parser().parse_args(argv + ["--workspace", "ws"])
        assert args.workspace == "ws"

    def test_inspector_requires_directory(self):
        args = build_parser().parse_args(["workspace", "inspect", "ws"])
        assert args.workspace_command == "inspect"
        assert args.directory == "ws"

    def test_stats_and_query_subcommands_parse(self):
        args = build_parser().parse_args(["workspace", "stats", "ws"])
        assert args.workspace_command == "stats"
        assert args.directory == "ws"
        args = build_parser().parse_args(
            ["workspace", "query", "ws", "--min-clusters", "3"]
        )
        assert args.workspace_command == "query"
        assert args.min_clusters == 3

    def test_bare_directory_spelling_is_a_usage_error(
        self, tmp_path, capsys
    ):
        """``repro workspace DIR`` is no longer an alias of ``inspect``:
        argparse rejects the unknown subcommand with exit status 2."""
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as exit_info:
            main(["workspace", str(empty)])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["workspace", "inspect", str(empty)]) == 0
        assert "no artifacts" in capsys.readouterr().out


class TestWorkspaceFlow:
    def test_commands_share_artifacts(self, tracks_csv, tmp_path, capsys):
        """params then cluster then sweep over one --workspace DIR:
        exactly one graph file exists afterwards (each later command
        reused the earlier build), and the inspector lists it."""
        ws_dir = str(tmp_path / "ws")
        assert main(["params", tracks_csv, "--workspace", ws_dir]) == 0
        graph_files = [
            name for name in os.listdir(ws_dir) if name.startswith("graph-")
        ]
        assert len(graph_files) == 1
        graph_mtime = os.path.getmtime(os.path.join(ws_dir, graph_files[0]))

        assert main([
            "cluster", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--workspace", ws_dir,
        ]) == 0
        assert main([
            "sweep", tracks_csv, "--eps", "3,5", "--min-lns", "3,4",
            "--workspace", ws_dir,
        ]) == 0
        graph_files_after = [
            name for name in os.listdir(ws_dir) if name.startswith("graph-")
        ]
        # Same single graph artifact, untouched by the later commands
        # (eps=5 and the 3..5 sweep both sit below the params search
        # maximum).
        assert graph_files_after == graph_files
        assert os.path.getmtime(
            os.path.join(ws_dir, graph_files[0])
        ) == graph_mtime

        capsys.readouterr()
        assert main(["workspace", "inspect", ws_dir]) == 0
        out = capsys.readouterr().out
        assert "partition" in out and "graph" in out and "labels" in out

    def test_inspector_json_output(self, tracks_csv, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        main([
            "cluster", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--workspace", ws_dir,
        ])
        index_path = str(tmp_path / "index.json")
        assert main([
            "workspace", "inspect", ws_dir, "--json", index_path,
        ]) == 0
        with open(index_path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)
        kinds = {entry["kind"] for entry in entries}
        assert {"partition", "graph", "labels"} <= kinds

    def test_inspector_rejects_missing_directory(self, tmp_path, capsys):
        assert main([
            "workspace", "inspect", str(tmp_path / "absent"),
        ]) == EXIT_REPRO_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("repro workspace: error: ")
        assert "absent: not a directory" in err

    def test_inspector_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["workspace", "inspect", str(empty)]) == 0
        assert "no artifacts" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["empty", "truncated"])
    def test_damaged_artifact(self, damage, tracks_csv, tmp_path, capsys):
        """An empty or truncated npz: the catalog indexes one found in
        the directory, or a stored one damaged in place, as unreadable
        at its real size, and ``cluster`` counts a damaged stored
        artifact a miss and rebuilds it in place, with unchanged
        output."""
        ws_dir = str(tmp_path / "ws")
        argv = [
            "cluster", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--workspace", ws_dir, "--json", str(tmp_path / "first.json"),
        ]
        assert main(argv) == 0
        [labels] = [n for n in os.listdir(ws_dir) if n.startswith("labels-")]
        path = os.path.join(ws_dir, labels)
        arrays, _ = load_artifact(path)
        with open(path, "rb") as handle:
            payload = handle.read()
        damaged = b"" if damage == "empty" else payload[: len(payload) // 2]

        with open(os.path.join(ws_dir, "labels-x.npz"), "wb") as handle:
            handle.write(damaged)
        index_path = str(tmp_path / "index.json")
        assert main(["workspace", "inspect", ws_dir, "--json", index_path]) == 0
        with open(index_path, "r", encoding="utf-8") as handle:
            entries = {entry["file"]: entry for entry in json.load(handle)}
        assert entries["labels-x.npz"]["meta"] == {"error": "unreadable"}

        with open(path, "wb") as handle:
            handle.write(damaged)
        assert main(["workspace", "inspect", ws_dir, "--json", index_path]) == 0
        with open(index_path, "r", encoding="utf-8") as handle:
            entries = {entry["file"]: entry for entry in json.load(handle)}
        assert entries[labels]["meta"] == {"error": "unreadable"}
        assert entries[labels]["bytes"] == len(damaged)
        argv[-1] = str(tmp_path / "second.json")
        capsys.readouterr()
        assert main(argv) == 0
        rebuilt, _ = load_artifact(path)
        assert rebuilt.keys() == arrays.keys()
        for name, array in arrays.items():
            assert np.array_equal(rebuilt[name], array)
        with open(tmp_path / "first.json", "rb") as first, open(
            tmp_path / "second.json", "rb"
        ) as second:
            assert first.read() == second.read()

    def test_warm_cluster_reuses_partition(self, tracks_csv, tmp_path):
        """Second cluster run over the same workspace leaves every
        artifact file's mtime unchanged (pure reads).  Only the npz
        files carry the invariant — the sqlite catalog sitting next to
        them is bookkeeping, not an artifact."""
        ws_dir = str(tmp_path / "ws")
        argv = [
            "cluster", tracks_csv, "--eps", "5", "--min-lns", "3",
            "--workspace", ws_dir,
        ]

        def npz_mtimes():
            return {
                name: os.path.getmtime(os.path.join(ws_dir, name))
                for name in os.listdir(ws_dir)
                if name.endswith(".npz")
            }

        assert main(argv) == 0
        snapshot = npz_mtimes()
        assert snapshot
        assert main(argv) == 0
        assert npz_mtimes() == snapshot
