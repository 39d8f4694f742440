"""Unit tests for the command-line interface."""

import json
import os
import socket

import numpy as np
import pytest

import repro.serve.server
from repro import cli, kernels
from repro.api.cache import ArtifactStore
from repro.cli import EXIT_REPRO_ERROR, build_parser, main
from repro.core.config import StreamConfig, SweepConfig, TraclusConfig
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

    def test_json_dash_prints_the_file_document(
        self, tracks_csv, tmp_path, capsys
    ):
        json_out = str(tmp_path / "result.json")
        argv = ["cluster", tracks_csv, "--eps", "10", "--min-lns", "4"]
        assert main(argv + ["--json", json_out]) == 0
        capsys.readouterr()
        assert main(argv + ["--json", "-"]) == 0
        with open(json_out, encoding="utf-8") as handle:
            document = handle.read()
        assert capsys.readouterr().out.endswith(document + "\n")


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


def _corrupt_row(path, tmp_path, name, edit, line=6):
    """Copy the CSV at *path* with its *line* (default 6, the 5th data
    row) edited by ``edit(cells) -> cells``."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
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

    @pytest.fixture
    def nan_weight_csv(self, tracks_csv, tmp_path):
        """The first trajectory's weight is read from its first row."""
        return _corrupt_row(
            tracks_csv, tmp_path, "nan-weight.csv",
            lambda cells: [*cells[:3], "nan", *cells[4:]], line=2,
        )

    @pytest.fixture
    def nan_time_csv(self, corridor_trajectories, tmp_path):
        timed = [
            Trajectory(t.points, traj_id=t.traj_id,
                       times=np.arange(len(t), dtype=np.float64))
            for t in corridor_trajectories
        ]
        path = str(tmp_path / "timed.csv")
        write_trajectories_csv(timed, path, include_times=True)
        return _corrupt_row(
            path, tmp_path, "nan-time.csv",
            lambda cells: [*cells[:-1], "nan"],
        )

    @pytest.mark.parametrize("command", ["cluster", "stream"])
    def test_non_finite_weight(self, command, nan_weight_csv, capsys):
        code = main([command, nan_weight_csv, "--eps", "10", "--min-lns",
                     "4", "--use-weights"])
        assert code == EXIT_REPRO_ERROR
        self._assert_one_line_error(capsys, command)

    def test_stream_non_finite_time(self, nan_time_csv, capsys):
        code = main(["stream", nan_time_csv, "--eps", "10", "--min-lns",
                     "4", "--horizon", "1"])
        assert code == EXIT_REPRO_ERROR
        self._assert_one_line_error(capsys, "stream")

    def test_stream_nan_horizon(self, tracks_csv, capsys):
        code = main(["stream", tracks_csv, "--eps", "10", "--min-lns", "4",
                     "--horizon", "nan"])
        assert code == EXIT_REPRO_ERROR
        err = self._assert_one_line_error(capsys, "stream")
        assert "horizon must be" in err

    @pytest.mark.parametrize("option,name", [
        ("--min-lns", "min_lns"),
        ("--suppression", "suppression"),
        ("--gamma", "gamma"),
    ])
    def test_nan_parameter(self, option, name, tracks_csv, capsys):
        argv = ["cluster", tracks_csv, "--eps", "10", "--min-lns", "4"]
        argv += [option, "nan"]
        code = main(argv)
        assert code == EXIT_REPRO_ERROR
        err = self._assert_one_line_error(capsys, "cluster")
        assert f"{name} must be" in err


def _exit_status(argv):
    """What the installed script would exit with: main()'s return value,
    or the status of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exit_info:
        return exit_info.code


@pytest.fixture
def closed_url():
    """A local URL nothing listens on: a port that was bound, then
    closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestExitStatusTable:
    """Every rejected invocation ends in one diagnosis: an option value
    argparse can check exits 2 with its one ``error:`` line after the
    usage; anything else exits 3 with exactly one
    ``repro <command>: error:`` line."""

    @pytest.mark.parametrize("argv,status,command,fragment", [
        pytest.param(
            ["sweep", "{csv}", "--eps", "5:1", "--min-lns", "3"],
            2, "sweep", "argument --eps: invalid grid spec '5:1'",
            id="sweep-eps-grid"),
        pytest.param(
            ["sweep", "{csv}", "--eps", "5", "--min-lns", "a,b"],
            2, "sweep", "argument --min-lns: invalid grid spec",
            id="sweep-min-lns-grid"),
        pytest.param(
            ["stream", "{csv}", "--eps", "5", "--min-lns", "3",
             "--shards", "0"],
            2, "stream", "argument --shards: must be >= 1",
            id="stream-shards-0"),
        pytest.param(
            ["stream", "{csv}", "--eps", "5", "--min-lns", "3",
             "--batch-points", "0"],
            2, "stream", "argument --batch-points: must be >= 1",
            id="stream-batch-points-0"),
        pytest.param(
            ["generate", "corridor", "--n", "0", "-o", "{tmp}/x.csv"],
            2, "generate", "argument --n: must be >= 1",
            id="generate-n-0"),
        pytest.param(
            ["generate", "elk", "--points", "0", "-o", "{tmp}/x.csv"],
            2, "generate", "argument --points: must be >= 1",
            id="generate-points-0"),
        pytest.param(
            ["generate", "corridor", "--n", "x", "-o", "{tmp}/x.csv"],
            2, "generate", "argument --n: invalid int value: 'x'",
            id="generate-n-not-a-number"),
        pytest.param(
            ["params", "{csv}", "--eps-max", "0"],
            2, "params", "argument --eps-max: must be >= 1",
            id="params-eps-max-0"),
        pytest.param(
            ["params", "{csv}", "--eps-max", "0.5"],
            2, "params", "argument --eps-max: must be >= 1",
            id="params-eps-max-half"),
        pytest.param(
            ["workspace", "inspect", "{tmp}/absent"],
            3, "workspace", "absent: not a directory",
            id="inspect-missing-dir"),
        pytest.param(
            ["workspace", "query", "{tmp}/absent"],
            3, "workspace", "absent: not a directory",
            id="query-missing-dir"),
        pytest.param(
            ["workspace", "stats", "{tmp}/absent"],
            3, "workspace", "absent: not a directory",
            id="stats-missing-dir"),
        pytest.param(
            ["workspace", "stats"], 3, "workspace", "DIR or --url",
            id="stats-no-source"),
        pytest.param(
            ["workspace", "stats", "--url", "{url}"],
            3, "workspace", "{url}/v1/stats: ",
            id="stats-unreachable-url"),
        pytest.param(
            ["workspace", "query", "{ws}", "--sql", "SELECT 1",
             "--limit", "3"],
            3, "workspace", "--sql takes the full statement",
            id="query-sql-with-filters"),
        pytest.param(
            ["workspace", "query", "{ws}", "--sql", "DELETE FROM artifacts"],
            3, "workspace", "read-only",
            id="query-rejected-sql"),
        pytest.param(
            ["workspace", "query", "{broken}"],
            3, "workspace", "catalog unavailable",
            id="query-no-catalog"),
        pytest.param(
            ["stream", "{csv}", "--eps", "5", "--min-lns", "3",
             "--shards", "2", "--inline-shards", "--window", "50"],
            3, "stream", "does not support max_segments",
            id="stream-windowed-shards"),
        pytest.param(
            ["serve", "{csv}", "{csv}"],
            3, "serve", "duplicate corpus name 'tracks'",
            id="serve-duplicate-name"),
        pytest.param(
            ["serve", "{tmp}/missing.csv"],
            3, "serve", "missing.csv: no such file",
            id="serve-missing-file"),
    ])
    def test_status_and_one_line(
        self, tracks_csv, tmp_path, closed_url, capsys,
        argv, status, command, fragment,
    ):
        (tmp_path / "ws").mkdir()
        (tmp_path / "broken" / "catalog.sqlite").mkdir(parents=True)
        names = {
            "csv": tracks_csv, "tmp": str(tmp_path), "url": closed_url,
            "ws": str(tmp_path / "ws"), "broken": str(tmp_path / "broken"),
        }
        argv = [arg.format(**names) for arg in argv]
        assert _exit_status(argv) == status
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1, err
        assert errors[0].startswith(f"repro {command}: error: ")
        assert fragment.format(**names) in errors[0]
        if status == EXIT_REPRO_ERROR:
            assert err == errors[0] + "\n"


class _Stop(Exception):
    """Ends a handler once a stand-in has seen what it was built with."""


def _stand_in(monkeypatch, module, name):
    """Replace ``module.name`` by a class that records its constructor
    call and every method call, and stops the handler at the first
    method call."""
    calls = []

    class StandIn:
        def __init__(self, *args, **kwargs):
            calls.append((args, kwargs))

        def __getattr__(self, method):
            def record(*args, **kwargs):
                calls.append((args, kwargs))
                raise _Stop

            return record

    monkeypatch.setattr(module, name, StandIn)
    return calls


SHARED = ["--suppression", "2.5", "--undirected", "--use-weights"]
ENGINE = ["--workspace", "ws"]


class TestConfigMapping:
    """Each option reaches the config field its ``dest`` names: with no
    flags and with every flag, a handler builds exactly the config the
    hand-written constructor calls built."""

    @pytest.mark.parametrize("flags,config,workspace", [
        ([], TraclusConfig(), None),
        (["--eps", "7", "--min-lns", "8", "--gamma", "2", *SHARED, *ENGINE],
         TraclusConfig(eps=7.0, min_lns=8.0, directed=False,
                       suppression=2.5, use_weights=True, gamma=2.0),
         "ws"),
    ], ids=["defaults", "every-flag"])
    def test_cluster(
        self, tracks_csv, monkeypatch, flags, config, workspace
    ):
        calls = _stand_in(monkeypatch, cli, "TRACLUS")
        with pytest.raises(_Stop):
            main(["cluster", tracks_csv, *flags])
        assert calls[0] == ((config,), {"workspace_dir": workspace})

    @pytest.mark.parametrize("flags,config,workspace", [
        ([], TraclusConfig(compute_representatives=False), None),
        (["--suppression", "2.5", *ENGINE],
         TraclusConfig(suppression=2.5, compute_representatives=False),
         "ws"),
    ], ids=["defaults", "every-flag"])
    def test_params(
        self, tracks_csv, monkeypatch, flags, config, workspace
    ):
        calls = _stand_in(monkeypatch, cli, "Workspace")
        with pytest.raises(_Stop):
            main(["params", tracks_csv, *flags])
        (_, built), kwargs = calls[0]
        assert built == config and kwargs == {"cache_dir": workspace}

    @pytest.mark.parametrize("flags,config,sweep_config", [
        (["--eps", "5", "--min-lns", "3"],
         TraclusConfig(compute_representatives=False),
         SweepConfig(eps_values=[5.0], min_lns_values=[3.0])),
        (["--eps", "5:7", "--min-lns", "3,4", "--cardinality-threshold",
          "3", "--executor", "process", "--workers", "2", *SHARED,
          *ENGINE],
         TraclusConfig(directed=False, suppression=2.5, use_weights=True,
                       cardinality_threshold=3.0,
                       compute_representatives=False),
         SweepConfig(eps_values=[5.0, 6.0, 7.0], min_lns_values=[3.0, 4.0],
                     executor="process", n_workers=2)),
    ], ids=["defaults", "every-flag"])
    def test_sweep(
        self, tracks_csv, monkeypatch, flags, config, sweep_config
    ):
        calls = _stand_in(monkeypatch, cli, "TRACLUS")
        with pytest.raises(_Stop):
            main(["sweep", tracks_csv, *flags])
        assert calls[0][0] == (config,)
        assert calls[1][0][1] == sweep_config

    @pytest.mark.parametrize("flags,config", [
        ([], StreamConfig(eps=7.0, min_lns=8.0)),
        ([*SHARED, "--window", "50", "--horizon", "4",
          "--compact-dead-fraction", "0.5"],
         StreamConfig(eps=7.0, min_lns=8.0, directed=False,
                      suppression=2.5, use_weights=True, max_segments=50,
                      horizon=4.0, compact_dead_fraction=0.5)),
    ], ids=["defaults", "every-flag"])
    def test_stream(self, tracks_csv, monkeypatch, flags, config):
        calls = _stand_in(monkeypatch, cli, "StreamingTRACLUS")
        with pytest.raises(_Stop):
            main(["stream", tracks_csv, "--eps", "7", "--min-lns", "8",
                  *flags])
        assert calls[0] == ((config,), {"metrics": None})

    @pytest.mark.parametrize("flags,config,workspace", [
        ([], TraclusConfig(compute_representatives=False), None),
        ([*SHARED, *ENGINE, "--workers", "2"],
         TraclusConfig(directed=False, suppression=2.5, use_weights=True,
                       compute_representatives=False),
         "ws"),
    ], ids=["defaults", "every-flag"])
    def test_serve(self, tracks_csv, monkeypatch, flags, config, workspace):
        seen = {}

        def serve_app(specs, **kwargs):
            seen.update(kwargs, configs=[spec.config for spec in specs])
            raise _Stop

        monkeypatch.setattr(repro.serve.server, "ServeApp", serve_app)
        monkeypatch.setattr(cli, "configure_logging", lambda: None)
        with pytest.raises(_Stop):
            main(["serve", tracks_csv, *flags])
        assert seen["configs"] == [config]
        assert seen["cache_dir"] == workspace


class TestDoctorCommand:
    """``repro doctor`` names the backend this host dispatches to."""

    @pytest.fixture(autouse=True)
    def fresh_detection(self):
        kernels._reset_for_tests()
        yield
        kernels._reset_for_tests()

    @staticmethod
    def report(capsys):
        assert main(["doctor", "--json", "-"]) == 0
        out = capsys.readouterr().out
        return out, json.loads(out[out.index("\n{") + 1:])

    def test_names_the_host_backend(self, capsys):
        out, report = self.report(capsys)
        host = kernels.resolved_name()
        assert report["auto_resolves_to"] == host
        assert f"dispatches to:    {host}\n" in out
        assert set(report["backends"]) == {"numpy", "cext"}

    def test_names_numpy_when_cext_is_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL_DISABLE_CEXT", "1")
        kernels._reset_for_tests()
        out, report = self.report(capsys)
        assert report["auto_resolves_to"] == "numpy"
        assert report["backends"]["cext"].startswith("disabled")
        assert "dispatches to:    numpy\n" in out
        note = out[out.index("note:"):].splitlines()[0]
        assert "REPRO_KERNEL_DISABLE_CEXT" in note
        assert "install a C compiler" not in note


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

    def test_stream_checkpoint_reports_the_file_written(
        self, tracks_csv, tmp_path, capsys
    ):
        # Like np.savez, a suffix-less path gets ".npz"; the report
        # names the file actually written.
        checkpoint = str(tmp_path / "state")
        assert main([
            "stream", tracks_csv, "--eps", "8", "--min-lns", "4",
            "--max-deltas", "0", "--checkpoint", checkpoint,
        ]) == 0
        assert f"wrote {checkpoint}.npz" in capsys.readouterr().out
        assert "state.npz" in os.listdir(tmp_path)
        assert "state" not in os.listdir(tmp_path)

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
