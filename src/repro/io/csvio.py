"""CSV trajectory I/O.

The on-disk format is long/tidy: one row per point,

    traj_id, x, y[, z, ...][, t]

with a header naming the columns.  ``weight`` and ``label`` are
carried in optional per-trajectory metadata columns (repeated on every
row of the trajectory; the first row wins on read).

A data row that is too short for the header, or whose id, coordinate,
weight or time cell does not parse as a number, raises
:class:`~repro.exceptions.DatasetError` naming the row's line number.
Non-finite values (``nan``, ``inf``) parse as numbers;
:class:`~repro.model.trajectory.Trajectory` and the streaming pipeline
reject them.

:func:`iter_point_rows` reads the same format *incrementally* — one
point per yield, optionally tailing a growing file — for the streaming
pipeline (``repro stream``).
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.exceptions import DatasetError
from repro.model.trajectory import Trajectory


def write_trajectories_csv(
    trajectories: Sequence[Trajectory],
    destination: Union[str, TextIO],
    include_times: bool = False,
) -> None:
    """Write trajectories in the long CSV format."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            write_trajectories_csv(trajectories, handle, include_times)
            return
    trajectories = list(trajectories)
    if not trajectories:
        raise DatasetError("refusing to write an empty dataset")
    dims = {t.dim for t in trajectories}
    if len(dims) != 1:
        raise DatasetError(
            f"all trajectories must share one dimensionality to share a "
            f"CSV header, got dims {sorted(dims)}"
        )
    dim = trajectories[0].dim
    coordinate_names = [f"c{k}" for k in range(dim)]
    header = ["traj_id", *coordinate_names, "weight", "label"]
    if include_times:
        header.append("t")
    writer = csv.writer(destination)
    writer.writerow(header)
    for trajectory in trajectories:
        for row_index, point in enumerate(trajectory.points):
            row: List = [trajectory.traj_id, *point.tolist(),
                         trajectory.weight, trajectory.label]
            if include_times:
                time = (
                    trajectory.times[row_index]
                    if trajectory.times is not None
                    else row_index
                )
                row.append(time)
            writer.writerow(row)


class _Columns:
    """Column positions of a long-format header, and the row parser
    both readers share."""

    __slots__ = ("header", "id_col", "coord_cols", "weight_col",
                 "label_col", "time_col", "width")

    def __init__(self, header: Sequence[str], with_label: bool):
        self.header = list(header)
        try:
            self.id_col = self.header.index("traj_id")
        except ValueError:
            raise DatasetError(
                "CSV header must contain a 'traj_id' column"
            ) from None
        self.coord_cols = [
            k for k, name in enumerate(self.header) if name.startswith("c")
        ]
        if not self.coord_cols:
            raise DatasetError("CSV header has no coordinate (c*) columns")
        self.weight_col = self._find("weight")
        self.label_col = self._find("label") if with_label else None
        self.time_col = self._find("t")
        used = [self.id_col, *self.coord_cols, self.weight_col,
                self.label_col, self.time_col]
        #: Cells a data row needs to reach every column read from it.
        self.width = 1 + max(k for k in used if k is not None)

    def _find(self, name: str) -> Optional[int]:
        return self.header.index(name) if name in self.header else None

    def parse(
        self, row: Sequence[str], line: int
    ) -> Tuple[int, List[float], float, Optional[float]]:
        """``(traj_id, point, weight, time)`` of one data row."""
        try:
            return (
                int(row[self.id_col]),
                [float(row[k]) for k in self.coord_cols],
                float(row[self.weight_col])
                if self.weight_col is not None else 1.0,
                float(row[self.time_col])
                if self.time_col is not None else None,
            )
        except (IndexError, ValueError):
            raise self._row_error(row, line) from None

    def _row_error(self, row: Sequence[str], line: int) -> DatasetError:
        if len(row) < self.width:
            return DatasetError(
                f"line {line}: expected at least {self.width} cells for "
                f"the header's columns, got {len(row)}"
            )
        numeric = [(self.id_col, int)]
        numeric += [(k, float) for k in self.coord_cols]
        numeric += [(k, float) for k in (self.weight_col, self.time_col)
                    if k is not None]
        for k, convert in numeric:
            try:
                convert(row[k])
            except ValueError:
                return DatasetError(
                    f"line {line}: {self.header[k]!r} cell {row[k]!r} is "
                    f"not a number"
                )
        return DatasetError(f"line {line}: malformed row {list(row)!r}")


def read_trajectories_csv(source: Union[str, TextIO]) -> List[Trajectory]:
    """Read trajectories written by :func:`write_trajectories_csv`.

    Grouping is by ``traj_id`` in file order; the coordinate columns
    are every ``c*`` column in header order.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return read_trajectories_csv(handle)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty CSV input") from None
    columns = _Columns(header, with_label=True)
    label_col = columns.label_col

    groups: "dict[int, dict]" = {}
    order: List[int] = []
    for row in reader:
        if not row:
            continue
        traj_id, point, weight, time_ = columns.parse(row, reader.line_num)
        if traj_id not in groups:
            groups[traj_id] = {
                "points": [],
                "times": [],
                "weight": weight,
                "label": row[label_col] if label_col is not None else "",
            }
            order.append(traj_id)
        groups[traj_id]["points"].append(point)
        if time_ is not None:
            groups[traj_id]["times"].append(time_)

    trajectories: List[Trajectory] = []
    for traj_id in order:
        group = groups[traj_id]
        times = np.asarray(group["times"]) if group["times"] else None
        trajectories.append(
            Trajectory(
                np.asarray(group["points"], dtype=np.float64),
                traj_id=traj_id,
                weight=group["weight"],
                times=times,
                label=group["label"],
            )
        )
    return trajectories


def read_csv_header(source: TextIO) -> List[str]:
    """Consume and parse the header line of a long-format CSV handle."""
    header_line = source.readline()
    if not header_line.strip():
        raise DatasetError("empty CSV input")
    return next(csv.reader([header_line]))


@dataclass(frozen=True)
class PointRow:
    """One point of the long CSV format, read incrementally."""

    traj_id: int
    point: np.ndarray
    weight: float
    time: Optional[float]


def iter_point_rows(
    source: Union[str, TextIO],
    follow: bool = False,
    poll: float = 0.5,
    max_polls: Optional[int] = None,
    header: Optional[Sequence[str]] = None,
    line_numbers: Optional[Iterator[int]] = None,
) -> Iterator[PointRow]:
    """Yield the points of a long-format trajectory CSV one at a time.

    With ``follow=True`` the iterator does not stop at end-of-file: it
    sleeps *poll* seconds and retries, tailing a file another process
    is appending to (``tail -f`` semantics; partial trailing lines are
    left in place until their newline arrives).  ``max_polls`` bounds
    the number of consecutive empty polls (``None`` = forever); when it
    exhausts, the handle is left at the last complete-line boundary, so
    a later call can resume exactly where this one stopped.

    ``header`` supplies already-parsed column names for such resumed
    reads: the handle is taken to be positioned at the first unread
    data row and no header line is consumed (used by ``repro stream
    --bulk-load``, which reads a file's current contents once and then
    keeps tailing the same handle).

    A malformed row raises :class:`~repro.exceptions.DatasetError`
    naming its line number, counted with the header as line 1.
    ``line_numbers`` is the source of those numbers (default
    ``itertools.count(2)``): hand the same iterator to a first read and
    to the read that resumes its handle, and the resumed read goes on
    numbering where the first one stopped.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            yield from iter_point_rows(
                handle, follow, poll, max_polls, header, line_numbers
            )
            return
    if header is None:
        header = read_csv_header(source)
    columns = _Columns(header, with_label=False)
    if line_numbers is None:
        line_numbers = itertools.count(2)  # the header is line 1

    idle_polls = 0
    # Text-mode tell() costs more than the readline itself, so track
    # rewind positions only when tailing can actually rewind.
    position = source.tell() if follow else 0
    while True:
        line = source.readline()
        if not line or (follow and not line.endswith("\n")):
            if follow:
                # While tailing, a line may still be mid-write: rewind
                # so the retry — or whoever reads the handle after a
                # max_polls return — sees it whole.
                source.seek(position)
            if not follow or (max_polls is not None and idle_polls >= max_polls):
                return
            idle_polls += 1
            time.sleep(poll)
            continue
        if follow:
            position = source.tell()
        idle_polls = 0
        line_number = next(line_numbers)
        if not line.strip():
            continue
        traj_id, point, weight, time_ = columns.parse(
            next(csv.reader([line])), line_number
        )
        yield PointRow(
            traj_id=traj_id, point=np.array(point), weight=weight, time=time_
        )
