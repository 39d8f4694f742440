"""The TRACLUS algorithm (Figure 4).

Two phases plus summarisation:

1. **Partitioning** — every trajectory is partitioned at its
   characteristic points by the MDL criterion (Figure 8); all
   partitions accumulate into one segment set ``D``.
2. **Grouping** — ``D`` is clustered by the line-segment DBSCAN of
   Figure 12 (parameters from the Section 4.4 heuristic when not
   given).
3. **Representation** — each surviving cluster receives a
   representative trajectory (Figure 15).

:meth:`TRACLUS.fit` and :meth:`TRACLUS.sweep` are thin wrappers over
the artifact-graph facade (:class:`repro.api.Workspace`), the one
pipeline behind every entry point: one session-scoped cache holds the
partition, the ε-graph, and every derived artifact, so a fit followed
by a sweep (or a parameter search followed by a fit) never recomputes a
stage.  Labels are bitwise identical to running the engines by hand —
:func:`~repro.partition.approximate.partition_all` followed by
:class:`~repro.cluster.dbscan.LineSegmentDBSCAN` over the brute-force
oracle :class:`~repro.cluster.neighborhood.BruteForceNeighborhood` —
which the property suites pin.  Passing ``workspace_dir``
(or reusing an explicit :class:`~repro.api.Workspace`) persists the
artifacts across processes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import SweepConfig, TraclusConfig
from repro.exceptions import TrajectoryError
from repro.model.result import ClusteringResult
from repro.model.trajectory import Trajectory


class TRACLUS:
    """TRAjectory CLUStering (Figure 4).

    >>> from repro import TRACLUS, TraclusConfig
    >>> result = TRACLUS(TraclusConfig(eps=30.0, min_lns=6)).fit(trajectories)
    ... # doctest: +SKIP
    """

    def __init__(
        self,
        config: Optional[TraclusConfig] = None,
        workspace_dir: Optional[str] = None,
    ):
        self.config = config if config is not None else TraclusConfig()
        self.workspace_dir = workspace_dir
        self._workspace_cache = None  # (corpus fp, config, Workspace)

    def _workspace(self, trajectories: Sequence[Trajectory]):
        """The artifact workspace for *trajectories*, memoized on this
        instance: a fit followed by a sweep (or repeated fits) over the
        same corpus shares one in-memory artifact store.  Rebuilt when
        the corpus changes — the fingerprint check is cheap relative to
        any artifact build."""
        from repro.api.fingerprint import corpus_fingerprint
        from repro.api.workspace import Workspace

        fingerprint = corpus_fingerprint(trajectories)
        if (
            self._workspace_cache is not None
            and self._workspace_cache[0] == fingerprint
            # `config` is frozen but the attribute is reassignable;
            # a swapped config must drop the memoized workspace.
            and self._workspace_cache[1] is self.config
        ):
            return self._workspace_cache[2]
        workspace = Workspace(
            trajectories, self.config, cache_dir=self.workspace_dir
        )
        self._workspace_cache = (fingerprint, self.config, workspace)
        return workspace

    def fit(self, trajectories: Sequence[Trajectory]) -> ClusteringResult:
        """Run the full pipeline on *trajectories*."""
        trajectories = list(trajectories)
        if not trajectories:
            raise TrajectoryError("TRACLUS needs at least one trajectory")
        dims = {t.dim for t in trajectories}
        if len(dims) != 1:
            raise TrajectoryError(
                f"all trajectories must share one dimensionality, got {sorted(dims)}"
            )
        return self._workspace(trajectories).fit()

    def sweep(self, trajectories: Sequence[Trajectory], sweep: SweepConfig):
        """Amortised (ε, MinLns) grid sweep over *trajectories*.

        Phase 1 runs once, one ε-graph is built at ``max(eps_values)``,
        and every grid point of *sweep* is derived incrementally from
        it — labels at each point bitwise identical to :meth:`fit` at
        those parameters (see :mod:`repro.sweep.engine`).  This
        instance's config supplies the point-independent knobs
        (distance weights, suppression, ``use_weights``,
        ``cardinality_threshold``); its ``eps``/``min_lns`` are ignored
        in favour of the grid.

        Runs through the artifact workspace, so with ``workspace_dir``
        set a repeated sweep (or a sweep after a fit at ε below the
        grid maximum) reuses the stored graph instead of rebuilding it.

        Returns a :class:`~repro.sweep.engine.SweepResult`.
        """
        return self._workspace(list(trajectories)).sweep(sweep)


def traclus(
    trajectories: Sequence[Trajectory],
    eps: Optional[float] = None,
    min_lns: Optional[float] = None,
    **config_kwargs,
) -> ClusteringResult:
    """One-call TRACLUS.

    ``eps``/``min_lns`` default to the Section 4.4 heuristic estimates;
    any :class:`~repro.core.config.TraclusConfig` field can be given as
    a keyword argument.
    """
    config = TraclusConfig(eps=eps, min_lns=min_lns, **config_kwargs)
    return TRACLUS(config).fit(trajectories)
