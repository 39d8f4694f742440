"""Configuration of a TRACLUS run.

Collects every knob the paper exposes — the two clustering parameters
(with ``None`` meaning "estimate with the Section 4.4 heuristic"), the
distance weights of Appendix B, the partitioning suppression of
Section 4.1.3, the cardinality threshold of Figure 12 Step 3, and the
smoothing γ of Figure 15 — into one validated, immutable object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError

#: Executor names accepted by :class:`SweepConfig`: ``"serial"`` runs
#: every grid column in-process; ``"process"`` shards MinLns columns
#: over a :class:`concurrent.futures.ProcessPoolExecutor`.
SWEEP_EXECUTORS = ("serial", "process")


class _SegmentKnobs:
    """The fields :class:`TraclusConfig` and :class:`StreamConfig`
    share: their validation and the distance they configure."""

    def _validate_shared(self) -> None:
        # Written so that NaN fails too.
        if self.eps is not None and not self.eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {self.eps}")
        if self.min_lns is not None and not self.min_lns > 0:
            raise ClusteringError(f"min_lns must be positive, got {self.min_lns}")
        if not self.suppression >= 0:
            raise ClusteringError(
                f"suppression must be non-negative, got {self.suppression}"
            )
        if not self.gamma >= 0:
            raise ClusteringError(f"gamma must be non-negative, got {self.gamma}")
        if self.cardinality_threshold is not None and not (
            self.cardinality_threshold >= 0
        ):
            raise ClusteringError(
                "cardinality_threshold must be non-negative, got "
                f"{self.cardinality_threshold}"
            )

    def distance(self) -> SegmentDistance:
        """The configured :class:`SegmentDistance`."""
        return SegmentDistance(
            w_perp=self.w_perp,
            w_par=self.w_par,
            w_theta=self.w_theta,
            directed=self.directed,
        )


@dataclass(frozen=True)
class TraclusConfig(_SegmentKnobs):
    """Parameters of one TRACLUS run.

    Attributes
    ----------
    eps:
        Neighborhood radius ε; ``None`` estimates it by minimising
        neighborhood entropy (Section 4.4).
    min_lns:
        Density threshold MinLns; ``None`` derives it from the ε
        estimate as ``avg|N_eps| + 2`` (the middle of the paper's
        ``+1 ~ +3`` range).
    w_perp, w_par, w_theta:
        Distance-component weights (Appendix B; default all 1.0).
    directed:
        Use the directed angle distance (Definition 3); ``False`` for
        undirected trajectories (Section 7.1 item 1).
    suppression:
        Constant added to ``cost_nopar`` during partitioning to favour
        longer partitions (Section 4.1.3); 0 reproduces Figure 8
        exactly.
    cardinality_threshold:
        Minimum trajectory cardinality ``|PTR(C)|`` (Figure 12 Step 3);
        ``None`` uses MinLns.
    use_weights:
        Count ε-neighbors by summed trajectory weight instead of
        cardinality (Section 4.2 extension).
    gamma:
        Representative-trajectory smoothing parameter γ (Figure 15).
    eps_search_values:
        Optional explicit ε grid for the heuristic; ``None`` uses a
        data-driven default.
    eps_search_method:
        ``"grid"`` (deterministic exhaustive) or ``"anneal"`` (the
        paper's simulated annealing).
    compute_representatives:
        Disable to stop after the grouping phase (saves time in
        parameter sweeps that only need labels).
    """

    eps: Optional[float] = None
    min_lns: Optional[float] = None
    w_perp: float = 1.0
    w_par: float = 1.0
    w_theta: float = 1.0
    directed: bool = True
    suppression: float = 0.0
    cardinality_threshold: Optional[float] = None
    use_weights: bool = False
    gamma: float = 0.0
    eps_search_values: Optional[Sequence[float]] = None
    eps_search_method: str = "grid"
    compute_representatives: bool = True

    def __post_init__(self):
        self._validate_shared()
        # Delegate weight validation to SegmentDistance.
        self.distance()


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of an amortised (ε, MinLns) grid sweep
    (:meth:`repro.core.traclus.TRACLUS.sweep`).

    The sweep runs phase 1 once, builds one ε-graph at ``max(eps_values)``
    and derives every grid point from it, so the only knobs here are the
    grid itself and the executor; everything else (distance weights,
    suppression, ``use_weights``, the Step-3
    ``cardinality_threshold``) comes from the :class:`TraclusConfig`
    of the ``TRACLUS`` instance running the sweep.

    Attributes
    ----------
    eps_values:
        Candidate ε values (any order, duplicates allowed); results are
        reported in this order.
    min_lns_values:
        Candidate MinLns values (any order).
    executor:
        ``"serial"`` (default) or ``"process"`` — the latter shards
        MinLns columns over a process pool (each column's incremental-ε
        state is independent of the others).
    n_workers:
        Process-pool size; ``None`` lets the pool default to the
        machine's CPU count.  Ignored by the serial executor.
    """

    eps_values: Sequence[float]
    min_lns_values: Sequence[float]
    executor: str = "serial"
    n_workers: Optional[int] = None

    def __post_init__(self):
        eps_values = tuple(float(e) for e in self.eps_values)
        min_lns_values = tuple(float(m) for m in self.min_lns_values)
        object.__setattr__(self, "eps_values", eps_values)
        object.__setattr__(self, "min_lns_values", min_lns_values)
        if not eps_values:
            raise ClusteringError("eps_values must be non-empty")
        if not min_lns_values:
            raise ClusteringError("min_lns_values must be non-empty")
        for eps in eps_values:
            if not eps >= 0:
                raise ClusteringError(
                    f"eps values must be non-negative, got {eps}"
                )
        for min_lns in min_lns_values:
            if not min_lns > 0:
                raise ClusteringError(
                    f"min_lns values must be positive, got {min_lns}"
                )
        if self.executor not in SWEEP_EXECUTORS:
            raise ClusteringError(
                f"unknown sweep executor {self.executor!r}; expected one "
                f"of {SWEEP_EXECUTORS}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ClusteringError(
                f"n_workers must be positive, got {self.n_workers}"
            )

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(n_eps, n_min_lns)``."""
        return (len(self.eps_values), len(self.min_lns_values))


@dataclass(frozen=True)
class StreamConfig(_SegmentKnobs):
    """Parameters of a streaming TRACLUS session.

    Unlike :class:`TraclusConfig`, ``eps`` and ``min_lns`` are required
    — the Section 4.4 entropy heuristic needs the whole segment set,
    which an online session never has.  Two sliding-window eviction
    policies bound the working set (both may be active at once):

    max_segments:
        Count window — after each append the oldest live segments are
        evicted until at most this many remain.
    horizon:
        Timestamp window — segments whose stamp falls more than
        ``horizon`` behind the newest ingested stamp are evicted.
        Stamps come from per-point ``times`` (or the point index on
        untimed feeds), so horizons assume feed-wide comparable clocks.
    compact_dead_fraction:
        Slot-store compaction trigger.  The segment store is
        append-only — evicted slots stay allocated so slot ids remain
        stable — which means an unbounded ``--follow`` session grows
        memory, alive-mask scans, and checkpoint size with *total
        ingested history*.  When the dead fraction of the slot space
        exceeds this threshold (checked after each update), live slots
        are renumbered by a monotone remap (relative order preserved,
        hence every distance and label bitwise unchanged) and the dead
        slots are reclaimed.  ``None`` (default) never compacts —
        matching the pre-compaction behavior where a slot id, once
        issued, stays valid forever.

    The remaining knobs mirror their :class:`TraclusConfig`
    counterparts; ``dim`` fixes the stream's spatial dimensionality up
    front (an online store cannot infer it from data it has not seen).
    """

    eps: float
    min_lns: float
    w_perp: float = 1.0
    w_par: float = 1.0
    w_theta: float = 1.0
    directed: bool = True
    suppression: float = 0.0
    cardinality_threshold: Optional[float] = None
    use_weights: bool = False
    gamma: float = 0.0
    max_segments: Optional[int] = None
    horizon: Optional[float] = None
    compact_dead_fraction: Optional[float] = None
    dim: int = 2

    def __post_init__(self):
        self._validate_shared()
        if self.max_segments is not None and self.max_segments < 1:
            raise ClusteringError(
                f"max_segments must be positive, got {self.max_segments}"
            )
        if self.horizon is not None and not self.horizon >= 0:
            raise ClusteringError(
                f"horizon must be non-negative, got {self.horizon}"
            )
        if self.compact_dead_fraction is not None and not (
            0.0 < self.compact_dead_fraction < 1.0
        ):
            raise ClusteringError(
                "compact_dead_fraction must be in (0, 1), got "
                f"{self.compact_dead_fraction}"
            )
        if self.dim < 1:
            raise ClusteringError(f"dim must be positive, got {self.dim}")
        # Delegate weight validation to SegmentDistance.
        self.distance()
