"""Unit tests for CSV trajectory I/O."""

import io
import itertools

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.io.csvio import (
    iter_point_rows,
    read_csv_header,
    read_trajectories_csv,
    write_trajectories_csv,
)
from repro.model.trajectory import Trajectory


@pytest.fixture
def sample_trajectories():
    return [
        Trajectory([[0.0, 0.0], [1.5, 2.5], [3.0, 3.0]], traj_id=0,
                   weight=2.0, label="alpha"),
        Trajectory([[10.0, 10.0], [11.0, 12.0]], traj_id=5, label="beta"),
    ]


def roundtrip(trajectories, **kwargs):
    buffer = io.StringIO()
    write_trajectories_csv(trajectories, buffer, **kwargs)
    buffer.seek(0)
    return read_trajectories_csv(buffer)


class TestRoundTrip:
    def test_points_preserved(self, sample_trajectories):
        back = roundtrip(sample_trajectories)
        assert len(back) == 2
        for original, restored in zip(sample_trajectories, back):
            assert np.array_equal(original.points, restored.points)

    def test_metadata_preserved(self, sample_trajectories):
        back = roundtrip(sample_trajectories)
        assert back[0].traj_id == 0 and back[1].traj_id == 5
        assert back[0].weight == 2.0
        assert back[0].label == "alpha"

    def test_times_preserved(self):
        t = Trajectory(
            [[0.0, 0.0], [1.0, 1.0]], traj_id=0,
            times=np.array([100.0, 200.0]),
        )
        back = roundtrip([t], include_times=True)
        assert back[0].times.tolist() == [100.0, 200.0]

    def test_three_dimensional_points(self):
        t = Trajectory([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]], traj_id=0)
        back = roundtrip([t])
        assert back[0].dim == 3
        assert np.array_equal(back[0].points, t.points)

    def test_file_path_roundtrip(self, sample_trajectories, tmp_path):
        path = str(tmp_path / "tracks.csv")
        write_trajectories_csv(sample_trajectories, path)
        back = read_trajectories_csv(path)
        assert len(back) == 2


class TestErrors:
    def test_write_empty_raises(self):
        with pytest.raises(DatasetError):
            write_trajectories_csv([], io.StringIO())

    def test_write_mixed_dimensions_raises(self):
        mixed = [
            Trajectory([[0.0, 0.0], [1.0, 1.0]], traj_id=0),
            Trajectory([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], traj_id=1),
        ]
        with pytest.raises(DatasetError):
            write_trajectories_csv(mixed, io.StringIO())

    def test_read_empty_raises(self):
        with pytest.raises(DatasetError):
            read_trajectories_csv(io.StringIO(""))

    def test_read_missing_traj_id_column(self):
        with pytest.raises(DatasetError):
            read_trajectories_csv(io.StringIO("a,b\n1,2\n"))

    def test_read_missing_coordinates(self):
        with pytest.raises(DatasetError):
            read_trajectories_csv(io.StringIO("traj_id,weight\n1,1.0\n"))


def _read_all(source):
    return list(iter_point_rows(source))


#: Header on line 1, a blank line 3; the malformed row sits on line 5.
_GOOD_ROWS = "traj_id,c0,c1,t\n0,0.0,0.0,0\n\n0,1.0,1.0,1\n"


@pytest.mark.parametrize("reader", [read_trajectories_csv, _read_all])
class TestMalformedRows:
    def test_short_row_names_its_line(self, reader):
        with pytest.raises(DatasetError, match=r"^line 5: expected at least 4"):
            reader(io.StringIO(_GOOD_ROWS + "0,2.0\n"))

    @pytest.mark.parametrize("row,column", [
        ("x,2.0,2.0,2", "traj_id"),
        ("0,2.0,north,2", "c1"),
        ("0,2.0,2.0,", "t"),
    ])
    def test_non_numeric_cell_names_line_and_column(self, reader, row, column):
        with pytest.raises(DatasetError, match=f"^line 5: '{column}' cell"):
            reader(io.StringIO(_GOOD_ROWS + row + "\n"))


class TestResumedRead:
    """``repro stream --bulk-load --follow`` reads a file's current rows,
    then resumes the same handle: the second read must go on counting
    lines from the top of the file."""

    def test_resumed_read_names_the_file_line(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("traj_id,c0,c1\n0,0.0,0.0\n0,1.0,1.0\n0,2.0,2.0\n")
        lines = itertools.count(2)
        with open(path, "r", encoding="utf-8", newline="") as handle:
            header = read_csv_header(handle)
            bulk = list(iter_point_rows(
                handle, follow=True, poll=0.0, max_polls=0,
                header=header, line_numbers=lines,
            ))
            assert len(bulk) == 3
            with open(path, "a", encoding="utf-8") as feed:
                feed.write("0,north,3.0\n")
            with pytest.raises(DatasetError, match=r"^line 5: 'c0' cell"):
                list(iter_point_rows(
                    handle, follow=True, poll=0.0, max_polls=0,
                    header=header, line_numbers=lines,
                ))
