"""Unit tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.api.cache import ArtifactStore
from repro.cli import EXIT_REPRO_ERROR, build_parser, main
from repro.io.csvio import read_trajectories_csv, write_trajectories_csv
from repro.model.trajectory import Trajectory


@pytest.fixture
def tracks_csv(tmp_path, corridor_trajectories):
    path = str(tmp_path / "tracks.csv")
    write_trajectories_csv(corridor_trajectories, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "in.csv"])
        assert args.eps is None and args.min_lns is None
        assert args.suppression == 0.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode", "x"])

    def test_stream_requires_eps_and_min_lns(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["stream", "in.csv"])
        assert excinfo.value.code == 2
        assert "--eps" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_with_explicit_params(self, tracks_csv, tmp_path, capsys):
        json_out = str(tmp_path / "result.json")
        svg_out = str(tmp_path / "result.svg")
        code = main([
            "cluster", tracks_csv, "--eps", "10", "--min-lns", "4",
            "--json", json_out, "--svg", svg_out,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "clusters over" in output
        with open(json_out) as handle:
            payload = json.load(handle)
        assert payload["parameters"]["eps"] == 10.0
        assert os.path.getsize(svg_out) > 100

    def test_cluster_auto_params(self, tracks_csv, capsys):
        assert main(["cluster", tracks_csv]) == 0
        assert "eps=" in capsys.readouterr().out

    def test_cluster_undirected_flag(self, tracks_csv):
        assert main([
            "cluster", tracks_csv, "--eps", "10", "--min-lns", "4",
            "--undirected",
        ]) == 0


class TestParamsCommand:
    def test_params_output(self, tracks_csv, capsys):
        assert main(["params", tracks_csv, "--eps-max", "20"]) == 0
        output = capsys.readouterr().out
        assert "entropy-optimal eps" in output
        assert "recommended MinLns" in output

    def test_params_anneal(self, tracks_csv, capsys):
        assert main([
            "params", tracks_csv, "--method", "anneal", "--eps-max", "15",
        ]) == 0
        assert "entropy-optimal" in capsys.readouterr().out

    def test_params_anneal_honours_workspace(self, tracks_csv, tmp_path):
        ws_dir = str(tmp_path / "ws")
        assert main([
            "params", tracks_csv, "--method", "anneal", "--eps-max", "15",
            "--workspace", ws_dir,
        ]) == 0
        kinds = {entry["kind"] for entry in ArtifactStore(ws_dir).entries()}
        assert "partition" in kinds


def _corrupt_row(path, tmp_path, name, edit):
    """Copy the CSV at *path* with its 5th data row (line 6) edited by
    ``edit(cells) -> cells``."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines[5] = ",".join(edit(lines[5].split(",")))
    out = str(tmp_path / name)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return out


class TestErrorContract:
    """A library error ends the run with one stderr line and the
    dedicated exit status — never a traceback."""

    @pytest.fixture
    def nan_csv(self, tracks_csv, tmp_path):
        return _corrupt_row(
            tracks_csv, tmp_path, "nan.csv",
            lambda cells: [cells[0], "nan", *cells[2:]],
        )

    @pytest.fixture
    def short_csv(self, tracks_csv, tmp_path):
        return _corrupt_row(
            tracks_csv, tmp_path, "short.csv", lambda cells: cells[:2]
        )

    def _assert_one_line_error(self, capsys, command):
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"repro {command}: error: ")
        return err

    def test_cluster_non_finite_coordinate(self, nan_csv, capsys):
        code = main(["cluster", nan_csv, "--eps", "10", "--min-lns", "4"])
        assert code == EXIT_REPRO_ERROR
        self._assert_one_line_error(capsys, "cluster")

    def test_cluster_short_row(self, short_csv, capsys):
        code = main(["cluster", short_csv, "--eps", "10", "--min-lns", "4"])
        assert code == EXIT_REPRO_ERROR
        err = self._assert_one_line_error(capsys, "cluster")
        assert "line 6" in err

    def test_stream_non_finite_coordinate(self, nan_csv, capsys):
        code = main(["stream", nan_csv, "--eps", "10", "--min-lns", "4"])
        assert code == EXIT_REPRO_ERROR
        self._assert_one_line_error(capsys, "stream")


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset,n", [
        ("hurricane", 15), ("corridor", 6),
    ])
    def test_generate_datasets(self, tmp_path, capsys, dataset, n):
        out = str(tmp_path / f"{dataset}.csv")
        assert main(["generate", dataset, "--n", str(n), "-o", out]) == 0
        trajectories = read_trajectories_csv(out)
        assert len(trajectories) == n

    def test_generate_starkey_with_points(self, tmp_path):
        out = str(tmp_path / "elk.csv")
        assert main([
            "generate", "elk", "--n", "4", "--points", "80", "-o", out,
        ]) == 0
        trajectories = read_trajectories_csv(out)
        assert len(trajectories) == 4
        assert all(len(t) == 80 for t in trajectories)

    def test_generate_with_noise(self, tmp_path):
        out = str(tmp_path / "noisy.csv")
        assert main([
            "generate", "corridor", "--n", "8", "--noise", "0.25", "-o", out,
        ]) == 0
        trajectories = read_trajectories_csv(out)
        assert len(trajectories) > 8


class TestRenderCommand:
    def test_render(self, tracks_csv, tmp_path):
        out = str(tmp_path / "plot.svg")
        assert main(["render", tracks_csv, "-o", out]) == 0
        with open(out) as handle:
            assert handle.read().startswith("<svg")


class TestStreamCommand:
    def test_stream_over_generated_csv(self, tracks_csv, capsys):
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--batch-points", "5",
        ]) == 0
        output = capsys.readouterr().out
        assert "final:" in output
        assert "clusters over" in output

    def test_stream_with_window_and_checkpoint(self, tracks_csv, tmp_path):
        checkpoint = str(tmp_path / "state.npz")
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--window", "40", "--max-deltas", "0",
            "--checkpoint", checkpoint,
        ]) == 0
        from repro.stream.checkpoint import load_checkpoint

        pipeline = load_checkpoint(checkpoint)
        assert pipeline.n_alive <= 40

    def test_stream_tolerates_weight_drift_within_trajectory(
        self, tmp_path, capsys
    ):
        """Regression: the batch reader's first-row-wins rule applies
        to streaming too — a weight column that drifts mid-trajectory
        must not abort the stream."""
        path = str(tmp_path / "drift.csv")
        with open(path, "w") as handle:
            handle.write("traj_id,c0,c1,weight,label\n")
            for row, weight in enumerate([2.0] * 4 + [3.0] * 4):
                handle.write(f"0,{float(row)},0.0,{weight},\n")
        assert main([
            "stream", path, "--eps", "6", "--min-lns", "2",
            "--batch-points", "3",
        ]) == 0
        assert "final:" in capsys.readouterr().out

    def test_stream_bulk_load_matches_pure_streaming(
        self, tracks_csv, capsys
    ):
        """--bulk-load seeds through the batched engine but must end at
        the same final state as point-by-point streaming."""
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--max-deltas", "0",
        ]) == 0
        streamed_final = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("final:")
        ]
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--bulk-load", "--max-deltas", "0",
        ]) == 0
        output = capsys.readouterr().out
        bulk_final = [
            line for line in output.splitlines()
            if line.startswith("final:")
        ]
        assert "bulk-loaded" in output
        assert bulk_final == streamed_final

    def test_stream_compaction_flag(self, tracks_csv):
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--window", "40", "--compact-dead-fraction", "0.5",
            "--max-deltas", "0",
        ]) == 0

    def test_stream_labels_match_batch_cluster(self, tracks_csv):
        """Unwindowed streaming of a whole CSV ends at the same labels
        the batch `cluster` path computes."""
        from repro.cluster.dbscan import LineSegmentDBSCAN
        from repro.core.config import StreamConfig
        from repro.io.csvio import iter_point_rows
        from repro.stream.pipeline import StreamingTRACLUS

        pipeline = StreamingTRACLUS(StreamConfig(eps=8.0, min_lns=4.0))
        for row in iter_point_rows(tracks_csv):
            pipeline.append(row.traj_id, row.point[None, :], weight=row.weight)
        segments, _ = pipeline.clusterer.store.compact()
        _, expected = LineSegmentDBSCAN(eps=8.0, min_lns=4.0).fit(segments)
        _, labels = pipeline.labels()
        assert np.array_equal(labels, expected)


class TestPipelineViaCli:
    def test_generate_then_cluster_roundtrip(self, tmp_path):
        """End-to-end through files only, as a user would."""
        csv_path = str(tmp_path / "data.csv")
        json_path = str(tmp_path / "result.json")
        assert main(["generate", "corridor", "--n", "10", "-o", csv_path]) == 0
        assert main([
            "cluster", csv_path, "--eps", "10", "--min-lns", "4",
            "--json", json_path,
        ]) == 0
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["summary"]["n_clusters"] >= 1
