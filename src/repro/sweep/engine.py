"""Amortised (ε, MinLns) parameter sweeps — Section 5.4 in one pass.

Every evaluation figure of the paper (16-22) is a sweep over the two
clustering parameters, and the naive way to produce one — a fresh
:meth:`TRACLUS.fit` per grid point — re-runs phase 1 and re-evaluates
every pairwise distance at *every* point.  Neither depends on the grid
point:

* the characteristic points of Figure 8 are parameter-free, so phase 1
  is shared by the **whole grid**;
* the ε-graph at any ε is a sub-graph of the ε-graph at ``max(eps)``,
  so the distance kernel runs **once**, at the largest radius.

What *does* vary per grid point is cheap.  The builder groups the
ε_max-graph's edges by the first grid ε that admits them (one counting
pass; no distance sort, and no reordering at all for a one-ε engine);
walking a MinLns column with ε ascending, each step admits the next
group of edges — cardinalities tick up, cores are promoted, and core
components merge by hooking roots onto smaller roots, so every
component's root stays its smallest core id, the Figure-12 seed.
Labels then follow from :func:`repro.cluster.labeling.figure12_labels`
(border rule + Step-3 filter), the one full-array Figure-12 derivation,
which :meth:`OnlineDBSCAN.labels
<repro.stream.online_dbscan.OnlineDBSCAN.labels>` shares, so every
grid point is **bitwise identical** to an independent ``TRACLUS.fit``
at those parameters — the property tests in
``tests/property/test_sweep_equivalence.py`` assert exactly that,
edge-distance ties and MinLns boundaries included.

Weighted cardinalities (Section 4.2) change only which segments are
core, so one walker serves both: it reads a per-engine ``(n_eps, n)``
cardinality table that every MinLns column shares.  For counts that is
the table :meth:`SweepEngine.neighborhood_counts` serves.  For weights
it is ``np.sum`` over each ascending admitted CSR row — the batch's
own summation tree, so the sums are bitwise the batch's — re-summed
only at the ε steps that admit one of the row's edges.  ``np.sum``
sums pairwise, so a row's weighted sum can round down when the row
grows, and a weighted core can drop out as ε grows; the walker then
restarts its forest (a count core never drops out).  Still no distance
kernel work.

MinLns columns are independent of each other, which is what the
optional process-pool executor shards (``SweepConfig.executor =
"process"``): each worker receives the grouped edge arrays and the
cardinality table once and walks its own columns.

When is a per-point refit still preferable?  When ε_max is so large
that the ε_max-graph's ``O(E)`` edge list approaches n² and blows
memory: ``LineSegmentDBSCAN(eps, min_lns).fit(segments,
engine=BruteForceNeighborhood(segments, eps, distance))`` refits one
point without ever holding an edge list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.labeling import figure12_labels
from repro.cluster.neighbor_graph import DEFAULT_PAIR_BLOCK, NeighborGraph
from repro.core.config import SWEEP_EXECUTORS
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.cluster import Cluster, clusters_from_labels
from repro.model.segmentset import SegmentSet
from repro.obs import NULL_REGISTRY, span
from repro.params.heuristic import ParameterEstimate, recommend_parameters


# ---------------------------------------------------------------------------
# Column walker (module-level so the process-pool executor can ship it)
# ---------------------------------------------------------------------------

def _hook_components(
    parent: np.ndarray, node_a: np.ndarray, node_b: np.ndarray
) -> None:
    """Merge, in place, the core components joined by the core-core
    edges ``node_a[i] -- node_b[i]``.

    ``parent`` arrives and leaves fully compressed: every core points
    at its component's root, the smallest core id in the component.
    Each round hooks the larger root of every edge that still spans two
    roots onto the smallest root it meets, so ``parent[x] <= x`` always
    holds, then pointer jumping flattens the forest again.
    """
    while node_a.size:
        root_a = parent[node_a]
        root_b = parent[node_b]
        split = root_a != root_b
        if not np.any(split):
            return
        node_a, node_b = node_a[split], node_b[split]
        root_a, root_b = root_a[split], root_b[split]
        np.minimum.at(
            parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b)
        )
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent[:] = hop


def _column_labels(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    cuts: np.ndarray,
    cardinality: np.ndarray,
    min_lns: float,
    traj_ids: np.ndarray,
    threshold: Optional[float],
) -> np.ndarray:
    """Labels at every sorted-unique ε for one MinLns.

    The edges arrive grouped by the first ε step that admits them, and
    ``cuts[k]`` is the number admitted at the k-th ε, so the prefix
    ``edge_u[:cuts[k]]`` holds exactly the edges with ``dist <= eps`` —
    the same predicate every engine uses, a distance exactly equal to ε
    included.  The order inside a prefix is free: it is read only
    through order-free reductions (the ``minimum.at`` rounds of
    :func:`_hook_components`, the ``minimum.at``/``maximum.at`` of
    ``figure12_labels``).  ``cardinality[k]`` is every segment's
    ``|N_eps|`` there: a count, or the Section 4.2 weighted sum.  Each
    ε step admits its whole group of edges at once: a vectorized core
    test ``cardinality[k] >= min_lns`` and one :func:`_hook_components` call
    over the admitted core-core edges, then
    :func:`~repro.cluster.labeling.figure12_labels` over the admitted
    edges.  Python loops over ε steps only, never over nodes or edges.
    A core's root is the smallest core id of its component — the
    Figure-12 seed — so clusters rank in root order.

    Counts only grow with ε, so a count core stays core.  A weighted
    ``np.sum`` can round down when its row grows, so a weighted core can
    drop out; the forest then restarts from the identity and the
    admitted core-core edges are hooked again.

    The labels are a pure function of (core set, admitted adjacency,
    core components), so every cell equals an independent
    ``LineSegmentDBSCAN`` fit — the hypothesis suite in
    ``tests/property/test_sweep_equivalence.py`` pins both cardinalities
    against it.
    """
    n = traj_ids.size
    step3 = min_lns if threshold is None else threshold
    out = np.empty((cuts.size, n), dtype=np.int64)

    ids = np.arange(n, dtype=np.int64)
    parent = ids.copy()  # non-cores point at themselves
    core = np.zeros(n, dtype=bool)

    at = 0
    for k, cut in enumerate(cuts.tolist()):
        if cut == at and k > 0:
            out[k] = out[k - 1]  # no edge crossed this ε step
            continue
        was_core = core
        core = cardinality[k] >= min_lns
        if np.any(was_core & ~core):
            parent = ids.copy()  # a weighted core dropped out
        # Every admitted core-core edge joins its endpoints' components;
        # one already inside a component costs a gather.
        u, v = edge_u[:cut], edge_v[:cut]
        both = core[u] & core[v]
        _hook_components(parent, u[both], v[both])
        at = cut
        out[k] = figure12_labels(core, parent, u, v, traj_ids, step3)
    return out


# -- process-pool shards -----------------------------------------------------

_WORKER_PAYLOAD: Optional[dict] = None


def _sweep_worker_init(payload: dict) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _sweep_worker_column(j: int) -> Tuple[int, np.ndarray]:
    p = _WORKER_PAYLOAD
    return j, _run_column(p, float(p["min_lns_values"][j]))


def _run_column(payload: dict, min_lns: float) -> np.ndarray:
    return _column_labels(
        payload["edge_u"], payload["edge_v"], payload["cuts"],
        payload["cardinality"], min_lns, payload["traj_ids"],
        payload["threshold"],
    )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class SweepEngine:
    """Shared sweep state over one segment set: the ε_max neighbor
    graph, its edge list grouped by admitting ε step, and the multi-ε
    neighborhood counts — everything a grid of (ε, MinLns) points can
    be derived from without touching the distance kernel again.
    """

    def __init__(
        self,
        segments: SegmentSet,
        eps_values: Sequence[float],
        distance: Optional[SegmentDistance] = None,
        pair_block: int = DEFAULT_PAIR_BLOCK,
        graph: Optional[NeighborGraph] = None,
        metrics=None,
    ):
        eps_array = np.asarray(list(eps_values), dtype=np.float64)
        if eps_array.ndim != 1 or eps_array.size == 0:
            raise ClusteringError("eps_values must be a non-empty sequence")
        if not np.all(eps_array >= 0):
            raise ClusteringError("eps values must be non-negative")
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.segments = segments
        self.distance = distance if distance is not None else SegmentDistance()
        self.eps_values = eps_array
        # Sorted-unique ε axis; `_unravel` maps it back to user order.
        self._unique_eps, self._unravel = np.unique(
            eps_array, return_inverse=True
        )
        self.eps_max = float(self._unique_eps[-1])
        if graph is not None:
            # Reuse a prebuilt ε-graph (e.g. a Workspace artifact): the
            # graph at any ε <= graph.eps is recovered by filtering the
            # stored distances, and because the pair kernel is
            # elementwise, the filtered CSR is bitwise identical to a
            # fresh build at eps_max.
            if graph.n_segments != len(segments):
                raise ClusteringError(
                    f"graph covers {graph.n_segments} segments but the "
                    f"set has {len(segments)}"
                )
            if graph.eps < self.eps_max:
                raise ClusteringError(
                    f"prebuilt graph at eps={graph.eps} cannot serve "
                    f"eps_max={self.eps_max}; rebuild at the larger radius"
                )
            self.graph = (
                graph
                if graph.eps == self.eps_max
                else graph.restrict(self.eps_max)
            )
        else:
            self.graph = NeighborGraph.build(
                segments, self.eps_max, self.distance, pair_block=pair_block
            )
        n = len(segments)
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.graph.indptr)
        )
        upper = self.graph.indices > rows  # one record per unordered pair
        edge_u, edge_v = rows[upper], self.graph.indices[upper]
        # bins[e]: the first sorted-unique ε step that admits edge e.
        # "left" keeps a distance exactly equal to ε inside — the same
        # ``dist <= eps`` predicate every neighborhood engine applies.
        k = self._unique_eps.size
        bins = np.searchsorted(
            self._unique_eps, self.graph.data[upper], side="left"
        )
        if np.any(bins[1:] < bins[:-1]):
            # Group the edges by step, keeping CSR order within a step;
            # numpy radix-sorts unsigned ints this narrow.
            order = np.argsort(
                bins.astype(np.min_scalar_type(k)), kind="stable"
            )
            edge_u, edge_v = edge_u[order], edge_v[order]
        self._edge_u, self._edge_v = edge_u, edge_v
        # cuts[k]: edges admitted at the k-th sorted-unique ε.  An edge
        # in bin k lies beyond ε_max and is never admitted.
        self._cuts = np.cumsum(np.bincount(bins, minlength=k + 1)[:k])

    # -- basic shape ---------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_edges(self) -> int:
        """Unordered ε_max-graph edges (diagonal excluded)."""
        return int(self._edge_u.size)

    # -- multi-ε neighborhood counts (Formula 10 inputs) ---------------------
    def neighborhood_counts(self) -> np.ndarray:
        """``|N_eps(L_i)|`` for every ε in ``eps_values`` (user order)
        and every segment — identical ints to
        :func:`repro.cluster.neighbor_graph.neighborhood_size_counts`,
        read off the stored distances instead of a fresh kernel pass.
        """
        return self._counts[self._unravel]

    @cached_property
    def _counts(self) -> np.ndarray:
        """``(n_unique_eps, n)`` counts on the sorted-unique ε axis: the
        diagonal at the first step (``dist(L, L) = 0``), each step's
        group of newly admitted edges counted at both endpoints, then a
        running sum along ε."""
        n = self.n_segments
        table = np.zeros((self._cuts.size, n), dtype=np.int64)
        table[0] = 1
        lo = 0
        for k, hi in enumerate(self._cuts.tolist()):
            table[k] += np.bincount(self._edge_u[lo:hi], minlength=n)
            table[k] += np.bincount(self._edge_v[lo:hi], minlength=n)
            lo = hi
        return np.cumsum(table, axis=0, out=table)

    @cached_property
    def _weighted_sums(self) -> np.ndarray:
        """``(n_unique_eps, n)`` Section 4.2 cardinalities: ``np.sum``
        over each ascending admitted CSR row, the summation tree of
        ``LineSegmentDBSCAN(use_weights=True)``, so every float is
        bitwise the batch's.  A row is re-summed only at the ε steps that
        admit one of its entries and carried over unchanged otherwise."""
        ptr = self.graph.indptr.tolist()
        indices, data = self.graph.indices, self.graph.data
        weights = self.segments.weights
        grows = np.diff(self._counts, axis=0, prepend=0) > 0
        table = np.empty(self._counts.shape, dtype=np.float64)
        sums = np.zeros(self.n_segments, dtype=np.float64)
        for k, eps in enumerate(self._unique_eps.tolist()):
            for i in np.flatnonzero(grows[k]).tolist():
                lo, hi = ptr[i], ptr[i + 1]
                sums[i] = np.sum(weights[indices[lo:hi][data[lo:hi] <= eps]])
            table[k] = sums
        return table

    def entropy_curve(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(entropies, avg_sizes)`` over ``eps_values`` (user order) —
        the Figures 16/19 curves, bitwise equal to
        :func:`repro.params.entropy.entropy_from_counts` over the
        brute-force oracle's counts."""
        from repro.params.entropy import entropy_from_counts

        return entropy_from_counts(self.neighborhood_counts())

    def recommend_parameters(self) -> ParameterEstimate:
        """The Section 4.4 heuristic evaluated on the sweep's ε grid,
        with the neighborhood counts served from the shared graph."""
        return recommend_parameters(
            self.segments,
            eps_values=self.eps_values,
            distance=self.distance,
            method="grid",
            counts=self.neighborhood_counts(),
        )

    # -- label grids ---------------------------------------------------------
    def labels_for_min_lns(
        self,
        min_lns: float,
        cardinality_threshold: Optional[float] = None,
        use_weights: bool = False,
    ) -> np.ndarray:
        """One MinLns column: ``(n_eps, n_segments)`` labels in user ε
        order, each row bitwise identical to
        ``LineSegmentDBSCAN(eps, min_lns).fit(segments)``."""
        if not min_lns > 0:  # NaN fails too
            raise ClusteringError(f"min_lns must be positive, got {min_lns}")
        payload = self._payload(cardinality_threshold, use_weights)
        return _run_column(payload, float(min_lns))[self._unravel]

    def labels_grid(
        self,
        min_lns_values: Sequence[float],
        cardinality_threshold: Optional[float] = None,
        use_weights: bool = False,
        executor: str = "serial",
        n_workers: Optional[int] = None,
    ) -> np.ndarray:
        """The full grid: ``(n_eps, n_min_lns, n_segments)`` labels in
        user order.  ``executor="process"`` shards MinLns columns over a
        process pool (columns are mutually independent)."""
        min_lns_list = [float(m) for m in min_lns_values]
        if not min_lns_list:
            raise ClusteringError("min_lns_values must be non-empty")
        for min_lns in min_lns_list:
            if not min_lns > 0:
                raise ClusteringError(
                    f"min_lns values must be positive, got {min_lns}"
                )
        payload = self._payload(cardinality_threshold, use_weights)
        payload["min_lns_values"] = min_lns_list
        columns: Dict[int, np.ndarray] = {}
        grid_started = time.perf_counter()
        column_seconds = self.metrics.histogram(
            "repro_sweep_column_seconds",
            help="Wall seconds per serial MinLns column walk.",
        )
        if executor == "process" and len(min_lns_list) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with span("sweep_grid", executor="process",
                      n_columns=len(min_lns_list)), ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_sweep_worker_init,
                initargs=(payload,),
            ) as pool:
                for j, column in pool.map(
                    _sweep_worker_column, range(len(min_lns_list))
                ):
                    columns[j] = column
        elif executor not in SWEEP_EXECUTORS:
            raise ClusteringError(
                f"unknown sweep executor {executor!r}; expected one of "
                f"{SWEEP_EXECUTORS}"
            )
        else:
            with span("sweep_grid", executor=executor,
                      n_columns=len(min_lns_list)):
                for j, min_lns in enumerate(min_lns_list):
                    column_started = time.perf_counter()
                    columns[j] = _run_column(payload, min_lns)
                    column_seconds.observe(
                        time.perf_counter() - column_started
                    )
        self.metrics.histogram(
            "repro_sweep_grid_seconds",
            help="Wall seconds per full labels_grid walk.",
        ).observe(time.perf_counter() - grid_started)
        out = np.empty(
            (self.eps_values.size, len(min_lns_list), self.n_segments),
            dtype=np.int64,
        )
        for j in range(len(min_lns_list)):
            out[:, j, :] = columns[j][self._unravel]
        return out

    def _payload(
        self, cardinality_threshold: Optional[float], use_weights: bool
    ) -> dict:
        if cardinality_threshold is not None and not cardinality_threshold >= 0:
            raise ClusteringError(
                f"threshold must be non-negative, got {cardinality_threshold}"
            )
        return {
            "edge_u": self._edge_u,
            "edge_v": self._edge_v,
            "cuts": self._cuts,
            "cardinality": self._weighted_sums if use_weights else self._counts,
            "traj_ids": self.segments.traj_ids,
            "threshold": cardinality_threshold,
        }

    def __repr__(self) -> str:
        return (
            f"SweepEngine(n_segments={self.n_segments}, "
            f"n_edges={self.n_edges}, eps_max={self.eps_max}, "
            f"n_eps={self.eps_values.size})"
        )


# ---------------------------------------------------------------------------
# Result container + facade
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Everything a parameter study reads off a sweep.

    ``labels[i, j]`` is the per-segment label array at
    ``(eps_values[i], min_lns_values[j])`` — bitwise identical to an
    independent ``TRACLUS.fit`` at those parameters.  The entropy curve
    and neighborhood counts depend only on ε and ride along for free.
    """

    eps_values: Tuple[float, ...]
    min_lns_values: Tuple[float, ...]
    segments: SegmentSet
    characteristic_points: List[List[int]]
    labels: np.ndarray  # (n_eps, n_min_lns, n_segments) int64
    neighborhood_counts: np.ndarray  # (n_eps, n_segments) int64
    entropies: np.ndarray  # (n_eps,) float64
    avg_neighborhood_sizes: np.ndarray  # (n_eps,) float64
    n_graph_edges: int
    parameters: Dict[str, float] = field(default_factory=dict)

    # -- lookup --------------------------------------------------------------
    def _index(self, eps: float, min_lns: float) -> Tuple[int, int]:
        try:
            i = self.eps_values.index(float(eps))
            j = self.min_lns_values.index(float(min_lns))
        except ValueError:
            raise ClusteringError(
                f"({eps}, {min_lns}) is not a grid point of this sweep"
            ) from None
        return i, j

    def labels_at(self, eps: float, min_lns: float) -> np.ndarray:
        """Per-segment labels at one grid point (by parameter value)."""
        i, j = self._index(eps, min_lns)
        return self.labels[i, j]

    def clusters_at(self, eps: float, min_lns: float) -> List[Cluster]:
        """:class:`Cluster` objects at one grid point (no
        representatives — sweeps are label studies; run ``TRACLUS.fit``
        at the chosen point for the full Figure-15 output)."""
        return clusters_from_labels(self.labels_at(eps, min_lns), self.segments)

    # -- summaries -----------------------------------------------------------
    def point_summary(self, i: int, j: int) -> Dict[str, float]:
        """Scalar metrics of grid cell ``(i, j)`` (positional)."""
        labels = self.labels[i, j]
        clustered = int(np.sum(labels >= 0))
        n_clusters = int(labels.max()) + 1 if labels.size else 0
        n_clusters = max(n_clusters, 0)
        n = labels.size
        return {
            "eps": float(self.eps_values[i]),
            "min_lns": float(self.min_lns_values[j]),
            "n_clusters": n_clusters,
            "n_clustered": clustered,
            "n_noise": n - clustered,
            "noise_ratio": (n - clustered) / n if n else 0.0,
            "mean_cluster_size": clustered / n_clusters if n_clusters else 0.0,
            "entropy": float(self.entropies[i]),
            "avg_neighborhood_size": float(self.avg_neighborhood_sizes[i]),
        }

    def summary_rows(self) -> List[Dict[str, float]]:
        """One summary dict per grid cell, ε-major in user order."""
        return [
            self.point_summary(i, j)
            for i in range(len(self.eps_values))
            for j in range(len(self.min_lns_values))
        ]

    def __repr__(self) -> str:
        return (
            f"SweepResult(grid={len(self.eps_values)}x"
            f"{len(self.min_lns_values)}, "
            f"n_segments={len(self.segments)})"
        )

