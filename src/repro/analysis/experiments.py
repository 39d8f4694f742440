"""One-call experiment harnesses mirroring the paper's evaluation.

All three harnesses accept either raw trajectories (they will run the
partitioning phase) or an already-partitioned
:class:`~repro.model.segmentset.SegmentSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.dbscan import cluster_segments
from repro.core.config import TraclusConfig
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ParameterSearchError
from repro.model.cluster import clusters_from_labels
from repro.model.segmentset import SegmentSet
from repro.model.trajectory import Trajectory
from repro.partition.approximate import partition_all
from repro.quality.qmeasure import quality_measure

TrajectoriesOrSegments = Union[Sequence[Trajectory], SegmentSet]


def _segment_workspace(
    segments: SegmentSet, distance: Optional[SegmentDistance]
):
    """A segment-bound Workspace carrying *distance*'s weights — the
    experiment harnesses ride the shared artifact graph (one ε_max
    build per grid) instead of per-cell engine calls."""
    from repro.api.workspace import Workspace

    distance = distance if distance is not None else SegmentDistance()
    config = TraclusConfig(
        w_perp=distance.w_perp,
        w_par=distance.w_par,
        w_theta=distance.w_theta,
        directed=distance.directed,
        compute_representatives=False,
    )
    return Workspace.from_segments(segments, config)


def _as_segments(
    data: TrajectoriesOrSegments, suppression: float
) -> SegmentSet:
    if isinstance(data, SegmentSet):
        return data
    segments, _ = partition_all(list(data), suppression=suppression)
    return segments


# ---------------------------------------------------------------------------
# Entropy curve (Figures 16 / 19)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyCurveResult:
    """The Figure-16/19 curve plus its minimum and the derived MinLns
    recommendation."""

    eps_values: Tuple[float, ...]
    entropies: Tuple[float, ...]
    avg_neighborhood_sizes: Tuple[float, ...]
    best_index: int

    @property
    def best_eps(self) -> float:
        return self.eps_values[self.best_index]

    @property
    def best_entropy(self) -> float:
        return self.entropies[self.best_index]

    @property
    def best_avg_neighborhood(self) -> float:
        return self.avg_neighborhood_sizes[self.best_index]

    @property
    def recommended_min_lns(self) -> Tuple[float, float]:
        """The Section 4.4 band: avg + 1 .. avg + 3."""
        avg = self.best_avg_neighborhood
        return (avg + 1.0, avg + 3.0)

    def is_interior_minimum(self) -> bool:
        """True when the minimum is strictly inside the sweep — the
        sanity check the Figure-16/19 shape relies on."""
        return 0 < self.best_index < len(self.eps_values) - 1


def entropy_curve_experiment(
    data: TrajectoriesOrSegments,
    eps_values: Sequence[float],
    distance: Optional[SegmentDistance] = None,
    suppression: float = 0.0,
) -> EntropyCurveResult:
    """Compute the full entropy-vs-ε curve (Formula 10) in one pass
    (served from a shared Workspace graph — bitwise equal to
    :func:`repro.params.entropy.entropy_from_counts` over the
    brute-force oracle's counts)."""
    segments = _as_segments(data, suppression)
    if len(segments) == 0:
        raise ParameterSearchError("no segments to analyse")
    entropies, avg_sizes = _segment_workspace(
        segments, distance
    ).entropy_curve(eps_values)
    return EntropyCurveResult(
        eps_values=tuple(float(e) for e in eps_values),
        entropies=tuple(float(h) for h in entropies),
        avg_neighborhood_sizes=tuple(float(a) for a in avg_sizes),
        best_index=int(np.argmin(entropies)),
    )


# ---------------------------------------------------------------------------
# QMeasure grid (Figures 17 / 20)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QMeasureGridResult:
    """QMeasure over an (ε, MinLns) grid (smaller is better)."""

    eps_values: Tuple[float, ...]
    min_lns_values: Tuple[float, ...]
    qmeasures: Dict[Tuple[float, float], float] = field(repr=False)

    def value(self, eps: float, min_lns: float) -> float:
        return self.qmeasures[(eps, min_lns)]

    def best(self) -> Tuple[float, float, float]:
        """``(eps, min_lns, qmeasure)`` of the grid minimum."""
        key = min(self.qmeasures, key=self.qmeasures.get)
        return key[0], key[1], self.qmeasures[key]

    def row(self, min_lns: float) -> List[float]:
        """QMeasure across ε at one MinLns (a Figure-17 series)."""
        return [self.qmeasures[(e, min_lns)] for e in self.eps_values]


def qmeasure_grid(
    data: TrajectoriesOrSegments,
    eps_values: Sequence[float],
    min_lns_values: Sequence[float],
    distance: Optional[SegmentDistance] = None,
    suppression: float = 0.0,
) -> QMeasureGridResult:
    """Evaluate Formula (11) over the full parameter grid.

    The whole grid rides one Workspace labels artifact (a single
    ε_max-graph build, incremental-ε labeling per cell — labels bitwise
    identical to per-cell :func:`cluster_segments` refits)."""
    segments = _as_segments(data, suppression)
    distance = distance if distance is not None else SegmentDistance()
    workspace = _segment_workspace(segments, distance)
    grid_labels = workspace.labels_grid(eps_values, min_lns_values)
    grid: Dict[Tuple[float, float], float] = {}
    for j, min_lns in enumerate(min_lns_values):
        for i, eps in enumerate(eps_values):
            labels = grid_labels[i, j].copy()
            grid[(float(eps), float(min_lns))] = quality_measure(
                clusters_from_labels(labels, segments), segments, labels,
                distance,
            ).qmeasure
    return QMeasureGridResult(
        eps_values=tuple(float(e) for e in eps_values),
        min_lns_values=tuple(float(m) for m in min_lns_values),
        qmeasures=grid,
    )


# ---------------------------------------------------------------------------
# Parameter sweep (Section 5.4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterSweepRow:
    """Outcome of one (ε, MinLns) setting."""

    eps: float
    min_lns: float
    n_clusters: int
    mean_cluster_size: float
    noise_ratio: float
    total_clustered: int


def parameter_sweep(
    data: TrajectoriesOrSegments,
    settings: Sequence[Tuple[float, float]],
    distance: Optional[SegmentDistance] = None,
    suppression: float = 0.0,
    cardinality_threshold: Optional[float] = None,
) -> List[ParameterSweepRow]:
    """Run the grouping phase for each ``(eps, min_lns)`` pair and
    report the Section 5.4 quantities."""
    segments = _as_segments(data, suppression)
    rows: List[ParameterSweepRow] = []
    for eps, min_lns in settings:
        clusters, labels = cluster_segments(
            segments, eps=float(eps), min_lns=float(min_lns),
            distance=distance, cardinality_threshold=cardinality_threshold,
        )
        sizes = [len(c) for c in clusters]
        rows.append(
            ParameterSweepRow(
                eps=float(eps),
                min_lns=float(min_lns),
                n_clusters=len(clusters),
                mean_cluster_size=float(np.mean(sizes)) if sizes else 0.0,
                noise_ratio=float(np.mean(labels == -1)) if labels.size else 0.0,
                total_clustered=int(np.sum(sizes)),
            )
        )
    return rows
