"""The end-to-end parameter recommendation of Section 4.4.

1. Find the ε minimising neighborhood entropy (grid search by default,
   simulated annealing optionally).
2. Read off ``avg|N_eps(L)|`` at that ε.
3. Recommend ``MinLns in [avg + 1, avg + 3]`` ("this is natural since
   MinLns should be greater than avg|N_eps(L)| to discover meaningful
   clusters").

The estimate "provides a reasonable range where the optimal value is
likely to reside"; the paper's own optima sat within ±2 of the
estimate on both real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.distance.weighted import SegmentDistance
from repro.exceptions import ParameterSearchError
from repro.model.segmentset import SegmentSet
from repro.params.annealing import anneal_epsilon
from repro.params.entropy import entropy_from_counts, neighborhood_size_curve


@dataclass(frozen=True)
class ParameterEstimate:
    """Outcome of the Section 4.4 heuristic."""

    eps: float
    entropy: float
    avg_neighborhood_size: float
    min_lns_low: float
    min_lns_high: float
    eps_values: Tuple[float, ...] = field(default=(), repr=False)
    entropies: Tuple[float, ...] = field(default=(), repr=False)

    @property
    def min_lns(self) -> float:
        """Middle of the recommended MinLns range (avg + 2)."""
        return (self.min_lns_low + self.min_lns_high) / 2.0


def default_eps_grid(segments: SegmentSet) -> np.ndarray:
    """Integer ε grid 1..~2x the mean segment length (the paper sweeps
    1..60 on data whose partitions average a few tens of units).  The
    Workspace facade uses the same grid, so its cached counts serve the
    default heuristic too."""
    mean_length = segments.mean_length()
    hi = max(int(np.ceil(2.0 * mean_length)), 10)
    return np.arange(1.0, hi + 1.0)


def recommend_parameters(
    segments: SegmentSet,
    eps_values: Optional[Sequence[float]] = None,
    distance: Optional[SegmentDistance] = None,
    method: str = "grid",
    rng: Optional[np.random.Generator] = None,
    counts: Optional[np.ndarray] = None,
) -> ParameterEstimate:
    """Run the Section 4.4 heuristic on a partitioned segment set.

    Parameters
    ----------
    segments:
        The trajectory partitions (output of the partitioning phase).
    eps_values:
        Candidate ε grid; defaults to integers from 1 to about twice
        the mean segment length.
    method:
        ``"grid"`` — exhaustive search over *eps_values* (deterministic;
        also returns the full entropy curve for plotting Figures 16/19);
        ``"anneal"`` — the paper's simulated annealing over the same
        bracket.  Either way ``|N_eps|`` is counted by the blocked
        candidate-pair join of :mod:`repro.cluster.neighbor_graph`.
    counts:
        Precomputed ``(n_eps, n_segments)`` neighborhood counts aligned
        with *eps_values* (grid method only) — a
        :class:`~repro.sweep.engine.SweepEngine` serves these from its
        shared ε_max graph, so a parameter sweep never counts twice.
        One row per ε: any other row count raises.
    """
    if len(segments) == 0:
        raise ParameterSearchError("cannot recommend parameters for zero segments")
    if distance is None:
        distance = SegmentDistance()
    grid = (
        np.asarray(eps_values, dtype=np.float64)
        if eps_values is not None
        else default_eps_grid(segments)
    )
    if grid.size == 0:
        raise ParameterSearchError("eps_values must be non-empty")
    if counts is not None and method != "grid":
        raise ParameterSearchError(
            "precomputed counts only apply to the grid method"
        )

    if method == "grid":
        if counts is None:
            counts = neighborhood_size_curve(segments, grid, distance)
        elif counts.shape[0] != grid.size:
            raise ParameterSearchError(
                f"counts has {counts.shape[0]} rows but eps_values has "
                f"{grid.size} entries"
            )
        entropies, avg_sizes = entropy_from_counts(counts)
        best = int(np.argmin(entropies))
        eps = float(grid[best])
        entropy = float(entropies[best])
        avg_size = float(avg_sizes[best])
        curve_eps: Tuple[float, ...] = tuple(float(e) for e in grid)
        curve_entropy: Tuple[float, ...] = tuple(float(h) for h in entropies)
    elif method == "anneal":
        quantum = float(grid[1] - grid[0]) if grid.size > 1 else 1.0
        eps, entropy, avg_size = anneal_epsilon(
            segments,
            (float(grid.min()), float(grid.max())),
            distance=distance,
            quantum=max(quantum, 1e-9),
            rng=rng,
        )
        curve_eps, curve_entropy = (), ()
    else:
        raise ParameterSearchError(
            f"unknown method {method!r}; expected 'grid' or 'anneal'"
        )

    return ParameterEstimate(
        eps=eps,
        entropy=entropy,
        avg_neighborhood_size=avg_size,
        min_lns_low=avg_size + 1.0,
        min_lns_high=avg_size + 3.0,
        eps_values=curve_eps,
        entropies=curve_entropy,
    )
