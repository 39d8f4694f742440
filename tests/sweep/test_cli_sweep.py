"""CLI tests for the ``repro sweep`` subcommand."""

import argparse
import csv
import json

import numpy as np
import pytest

from repro.cli import _parse_grid, build_parser, main
from repro.core.config import SweepConfig, TraclusConfig
from repro.core.traclus import TRACLUS
from repro.io.csvio import read_trajectories_csv, write_trajectories_csv


@pytest.fixture
def tracks_csv(tmp_path, corridor_trajectories):
    path = str(tmp_path / "tracks.csv")
    write_trajectories_csv(corridor_trajectories, path)
    return path


class TestGridSpecParser:
    def test_comma_list(self):
        assert _parse_grid("25,27,30") == [25.0, 27.0, 30.0]

    def test_range_with_step(self):
        assert _parse_grid("20:26:2") == [20.0, 22.0, 24.0, 26.0]

    def test_range_defaults_to_unit_step(self):
        assert _parse_grid("3:6") == [3.0, 4.0, 5.0, 6.0]

    def test_fractional_step_keeps_inclusive_hi(self):
        values = _parse_grid("1:2:0.25")
        assert values[0] == 1.0 and values[-1] == 2.0
        assert len(values) == 5

    @pytest.mark.parametrize(
        "spec", ["", "a,b", "5:1", "1:5:-1", "1:2:3:4", "1:2:0"]
    )
    def test_invalid_specs_exit(self, spec):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid(spec)


class TestParser:
    def test_sweep_requires_grids(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "in.csv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--eps" in err

    def test_sweep_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "in.csv", "--eps", "4,8", "--min-lns", "3"]
        )
        assert args.executor == "serial"
        assert args.n_workers is None
        assert args.csv_out is None and args.json_out is None

    def test_executor_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "in.csv", "--eps", "4", "--min-lns", "3",
                 "--executor", "threads"]
            )


class TestCommand:
    def test_writes_csv_and_json(self, tracks_csv, tmp_path, capsys):
        csv_out = str(tmp_path / "sweep.csv")
        json_out = str(tmp_path / "sweep.json")
        rc = main([
            "sweep", tracks_csv, "--eps", "4:8:2", "--min-lns", "3,5",
            "--csv", csv_out, "--json", json_out,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swept 3 x 2 grid points" in out

        with open(csv_out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert {row["eps"] for row in rows} == {"4.0", "6.0", "8.0"}

        with open(json_out) as handle:
            payload = json.load(handle)
        assert payload["eps_values"] == [4.0, 6.0, 8.0]
        assert payload["min_lns_values"] == [3.0, 5.0]
        assert len(payload["cells"]) == 6
        assert "labels" not in payload["cells"][0]

    def test_labels_flag_includes_label_arrays(self, tracks_csv, tmp_path):
        json_out = str(tmp_path / "sweep.json")
        rc = main([
            "sweep", tracks_csv, "--eps", "6", "--min-lns", "3",
            "--json", json_out, "--labels",
        ])
        assert rc == 0
        with open(json_out) as handle:
            payload = json.load(handle)
        labels = payload["cells"][0]["labels"]
        # Compare against a sweep over the round-tripped trajectories —
        # exactly what the command clustered.
        expected = TRACLUS(
            TraclusConfig(compute_representatives=False)
        ).sweep(
            read_trajectories_csv(tracks_csv),
            SweepConfig(eps_values=[6.0], min_lns_values=[3.0]),
        )
        assert np.array_equal(
            np.asarray(labels), expected.labels[0, 0]
        )
