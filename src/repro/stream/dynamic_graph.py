"""Dynamic ε-neighborhood graph: the PR-1 batch relation under updates.

:class:`StreamSegmentStore` is the streaming counterpart of
:class:`~repro.model.segmentset.SegmentSet`: an append-only columnar
store with an alive mask.  Slots are never reused — a slot id is a
stable, monotonically increasing identity, so the *relative order* of
any two live slots equals their positional order in a compacted
:class:`SegmentSet`.  That invariant is what keeps the equal-length
tie-break of the distance kernel (smaller id acts as ``Li``) — and
therefore every computed distance — bitwise identical between the
online graph and a batch rebuild on the surviving segments.

:class:`DynamicNeighborGraph` maintains the ε-neighborhood relation
under segment insert and evict:

* **insert** — one path, :meth:`DynamicNeighborGraph.insert_batch`,
  for one segment or many: the batch is validated whole, then the new
  segments' endpoints are registered in a
  :class:`~repro.index.grid.SegmentGrid` over the store; their
  candidate mates are the segments with an endpoint pair within
  :func:`~repro.cluster.neighbor_graph.candidate_radius` — the batch
  builder's endpoint join: same rule, same radius, same
  :func:`~repro.cluster.neighbor_graph.endpoint_pairs` test — and the
  surviving edges are filtered by the same symmetric pair kernel
  (:meth:`SegmentDistance.pairs <repro.distance.weighted.SegmentDistance.pairs>`).
  When :func:`~repro.cluster.neighbor_graph.candidate_radius` has no
  finite radius (a zero ``w_perp``/``w_par``, or an unboundedly large
  ε) there is no grid, exactly as in the batch builder, and the
  candidate set is all live slots.
* **evict** — the segment leaves the grid and its adjacency rows are
  unlinked; neighbors are reported so label maintenance can react.

Inserting a set in any chunks evaluates exactly the pairs the batch
join evaluates, and the kernel is shared, so ``neighbors_of`` answers
are bitwise identical to a fresh
:class:`~repro.cluster.neighbor_graph.NeighborGraph` built over the
compacted survivors — the property tests assert exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.neighbor_graph import candidate_radius
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.index.grid import SegmentGrid
from repro.model.ragged import concatenate_ranges
from repro.model.segmentset import SegmentSet

#: Initial slot capacity of a :class:`StreamSegmentStore`.
_INITIAL_CAPACITY = 64


class StreamSegmentStore:
    """Append-only columnar segment store with an alive mask.

    Exposes the same column attributes the vectorized distance kernels
    read (``starts``, ``ends``, ``traj_ids``, ``weights``, ``lengths``)
    trimmed to the allocated slot count, so a
    :class:`~repro.distance.weighted.SegmentDistance` treats it exactly
    like a :class:`SegmentSet`.  Dead slots keep their (frozen)
    coordinates; they are simply never offered as candidates.
    """

    def __init__(self, dim: int = 2):
        if dim < 1:
            raise ClusteringError(f"dim must be positive, got {dim}")
        self._dim = int(dim)
        self._capacity = _INITIAL_CAPACITY
        self._starts = np.empty((self._capacity, dim), dtype=np.float64)
        self._ends = np.empty((self._capacity, dim), dtype=np.float64)
        self._traj_ids = np.empty(self._capacity, dtype=np.int64)
        self._weights = np.empty(self._capacity, dtype=np.float64)
        self._stamps = np.empty(self._capacity, dtype=np.float64)
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._n = 0
        self._n_alive = 0

    # -- column views (duck-typed SegmentSet) ------------------------------
    def __len__(self) -> int:
        """Allocated slots (dead included) — the index space."""
        return self._n

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def starts(self) -> np.ndarray:
        return self._starts[: self._n]

    @property
    def ends(self) -> np.ndarray:
        return self._ends[: self._n]

    @property
    def traj_ids(self) -> np.ndarray:
        return self._traj_ids[: self._n]

    @property
    def weights(self) -> np.ndarray:
        return self._weights[: self._n]

    @property
    def stamps(self) -> np.ndarray:
        return self._stamps[: self._n]

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.ends - self.starts, axis=1)

    @property
    def alive_mask(self) -> np.ndarray:
        return self._alive[: self._n]

    @property
    def n_alive(self) -> int:
        return self._n_alive

    def alive_slots(self) -> np.ndarray:
        """Live slot ids, ascending."""
        return np.flatnonzero(self._alive[: self._n])

    def is_alive(self, slot: int) -> bool:
        return bool(0 <= slot < self._n and self._alive[slot])

    # -- mutation ----------------------------------------------------------
    def _grow(self) -> None:
        self._capacity *= 2
        for name in ("_starts", "_ends"):
            grown = np.empty((self._capacity, self._dim), dtype=np.float64)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)
        for name, dtype in (
            ("_traj_ids", np.int64),
            ("_weights", np.float64),
            ("_stamps", np.float64),
        ):
            grown = np.empty(self._capacity, dtype=dtype)
            grown[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, grown)
        grown_alive = np.zeros(self._capacity, dtype=bool)
        grown_alive[: self._n] = self._alive[: self._n]
        self._alive = grown_alive

    def append(
        self,
        start: np.ndarray,
        end: np.ndarray,
        traj_id: int,
        weight: float = 1.0,
        stamp: float = 0.0,
    ) -> int:
        """Allocate a live slot; returns its (stable) id."""
        slots = self.extend([start], [end], [traj_id], [weight], [stamp])
        return int(slots[0])

    def extend(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        traj_ids: np.ndarray,
        weights: np.ndarray,
        stamps: np.ndarray,
    ) -> np.ndarray:
        """Allocate one live slot per row; returns their (stable) ids.

        The whole batch is checked before any row is stored (endpoint
        shapes, finite endpoints, positive finite weights), so a
        rejected batch leaves the store as it was."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        stamps = np.asarray(stamps, dtype=np.float64)
        n = len(starts)
        if starts.shape != (n, self._dim) or ends.shape != (n, self._dim):
            raise ClusteringError(
                f"endpoints must be ({self._dim},) vectors, got rows of "
                f"{starts.shape[1:]} and {ends.shape[1:]}"
            )
        if not traj_ids.shape == weights.shape == stamps.shape == (n,):
            raise ClusteringError(
                f"traj_ids, weights and stamps must hold {n} values each"
            )
        if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
            raise ClusteringError("segment endpoints must be finite")
        bad = ~((weights > 0) & (weights < np.inf))
        if bad.any():
            raise ClusteringError(
                f"segment weight must be positive and finite, got "
                f"{weights[bad][0]}"
            )
        while self._n + n > self._capacity:
            self._grow()
        rows = slice(self._n, self._n + n)
        self._starts[rows] = starts
        self._ends[rows] = ends
        self._traj_ids[rows] = traj_ids
        self._weights[rows] = weights
        self._stamps[rows] = stamps
        self._alive[rows] = True
        self._n += n
        self._n_alive += n
        return np.arange(rows.start, rows.stop, dtype=np.int64)

    def kill(self, slot: int) -> None:
        if not self.is_alive(slot):
            raise ClusteringError(f"slot {slot} is not alive")
        self._alive[slot] = False
        self._n_alive -= 1

    def compact_slots(self) -> np.ndarray:
        """Reclaim dead slots: renumber the live slots ``0 ..
        n_alive - 1`` in ascending old-slot order and shrink the
        backing arrays.

        The remap is *monotone* — live slots keep their relative order
        — which is the invariant everything downstream relies on (see
        the class docstring), so distances and labels are bitwise
        unaffected; only the ids change.  Returns an ``(old_n,)``
        array mapping each old slot to its new id (-1 for dead slots).
        Callers holding slot ids (grids, adjacency, label state) must
        remap them; :meth:`DynamicNeighborGraph.compact_slots` does so
        for the whole graph.
        """
        slots = self.alive_slots()
        n_live = int(slots.size)
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[slots] = np.arange(n_live, dtype=np.int64)
        capacity = _INITIAL_CAPACITY
        while capacity < n_live:
            capacity *= 2
        for name in ("_starts", "_ends"):
            fresh = np.empty((capacity, self._dim), dtype=np.float64)
            fresh[:n_live] = getattr(self, name)[slots]
            setattr(self, name, fresh)
        for name, dtype in (
            ("_traj_ids", np.int64),
            ("_weights", np.float64),
            ("_stamps", np.float64),
        ):
            fresh = np.empty(capacity, dtype=dtype)
            fresh[:n_live] = getattr(self, name)[slots]
            setattr(self, name, fresh)
        fresh_alive = np.zeros(capacity, dtype=bool)
        fresh_alive[:n_live] = True
        self._alive = fresh_alive
        self._capacity = capacity
        self._n = n_live
        self._n_alive = n_live
        return remap

    def compact(self) -> Tuple[SegmentSet, np.ndarray]:
        """The survivors as an immutable :class:`SegmentSet` (positional
        ids in ascending slot order) plus the slot array mapping each
        position back to its slot."""
        slots = self.alive_slots()
        segments = SegmentSet(
            self._starts[slots].copy(),
            self._ends[slots].copy(),
            self._traj_ids[slots].copy(),
            self._weights[slots].copy(),
        )
        return segments, slots

    def __repr__(self) -> str:
        return (
            f"StreamSegmentStore(n_slots={self._n}, "
            f"n_alive={self._n_alive}, dim={self._dim})"
        )


class DynamicNeighborGraph:
    """ε-neighborhood adjacency maintained under insert and evict."""

    def __init__(
        self,
        eps: float,
        distance: Optional[SegmentDistance] = None,
        dim: int = 2,
    ):
        if not eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        self.eps = float(eps)
        self.distance = distance if distance is not None else SegmentDistance()
        self.store = StreamSegmentStore(dim=dim)
        self._radius = candidate_radius(self.eps, self.distance)
        self._grid = (
            None if self._radius is None
            else SegmentGrid(self.store, self._radius)
        )
        #: proper neighbors only (no self loop), distance per edge.
        self._adjacency: Dict[int, Dict[int, float]] = {}

    # -- queries -----------------------------------------------------------
    @property
    def n_alive(self) -> int:
        return self.store.n_alive

    @property
    def n_edges(self) -> int:
        """Symmetric edges, each unordered pair counted once."""
        return sum(len(row) for row in self._adjacency.values()) // 2

    def neighbors_of(self, slot: int) -> np.ndarray:
        """``N_eps`` of live *slot*, ascending, self included — the same
        row a batch :class:`NeighborGraph` over the survivors holds."""
        if not self.store.is_alive(slot):
            raise ClusteringError(f"slot {slot} is not alive")
        row = np.fromiter(
            self._adjacency[slot], dtype=np.int64,
            count=len(self._adjacency[slot]),
        )
        return np.sort(np.append(row, slot))

    def neighbor_distances(self, slot: int) -> Dict[int, float]:
        """Proper-neighbor distances of live *slot* (no self entry)."""
        if not self.store.is_alive(slot):
            raise ClusteringError(f"slot {slot} is not alive")
        return dict(self._adjacency[slot])

    def adjacent(self, slot: int):
        """Proper-neighbor slots of live *slot* (unordered view, no
        copy) — the hot path for label maintenance."""
        return self._adjacency[slot].keys()

    # -- updates -----------------------------------------------------------
    def insert(
        self,
        start: np.ndarray,
        end: np.ndarray,
        traj_id: int,
        weight: float = 1.0,
        stamp: float = 0.0,
    ) -> Tuple[int, np.ndarray]:
        """Add one segment; returns ``(slot, proper_neighbors)`` with the
        neighbor slots ascending (a one-row :meth:`insert_batch`)."""
        return self.insert_batch([start], [end], [traj_id], [weight], [stamp])[0]

    def insert_batch(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        traj_ids: np.ndarray,
        weights: Optional[np.ndarray] = None,
        stamps: Optional[np.ndarray] = None,
        spliced: Optional[Sequence[Sequence[Tuple[int, float]]]] = None,
    ) -> List[Tuple[int, np.ndarray]]:
        """Add segments through one grid query and one kernel call — the
        only way a segment enters the graph; returns ``(slot,
        insertion_time_neighbors)`` per segment in input order,
        neighbors ascending.

        The result is *identical* to inserting the rows one at a time in
        array order.  All rows enter the store and grid first, then
        candidates come from one
        :meth:`~repro.index.grid.SegmentGrid.candidates_near_many` query
        (all live slots when :func:`candidate_radius` has no finite
        radius), and :meth:`_keep` narrows them to the live ``candidate
        < slot`` pairs — exactly the set one-at-a-time insertion would
        have evaluated (slot ids are allocation-ordered and nothing is
        evicted mid-batch).  The pair kernel is elementwise, so one call
        over the concatenated pairs produces the same distances, and
        edges are linked query-major with candidates ascending — the
        same adjacency-row order as one-at-a-time inserts.

        *spliced* gives each row's edges evaluated elsewhere, as
        ``(earlier slot, distance)`` pairs linked before the computed
        ones (the shard merger's shipped same-shard edges; its
        :meth:`_keep` drops the pairs they cover).
        """
        n = len(starts)
        if not n:
            return []
        slot_arr = self.store.extend(
            starts, ends, traj_ids,
            np.ones(n) if weights is None else weights,
            np.zeros(n) if stamps is None else stamps,
        )
        slots = slot_arr.tolist()
        if self._grid is not None:
            for slot in slots:
                self._grid.insert(slot)
            query_pos, candidates = self._grid.candidates_near_many(slot_arr)
        else:
            alive = self.store.alive_slots()
            counts = np.searchsorted(alive, slot_arr)
            query_pos = np.repeat(np.arange(n, dtype=np.int64), counts)
            candidates = alive[concatenate_ranges(np.zeros_like(counts), counts)]
        queries = slot_arr[query_pos]
        keep = self._keep(queries, candidates)
        queries = queries[keep]
        candidates = candidates[keep]
        adjacency = self._adjacency
        mates_of: Dict[int, List[int]] = {}
        for slot in slots:
            adjacency[slot] = {}
            mates_of[slot] = []
        for slot, edges in zip(slots, spliced or ()):
            for mate, dist in edges:
                adjacency[slot][mate] = dist
                adjacency[mate][slot] = dist
                mates_of[slot].append(mate)
        if queries.size:
            dists = self.distance.pairs(self.store, queries, candidates)
            mask = dists <= self.eps
            for slot, mate, dist in zip(
                queries[mask].tolist(),
                candidates[mask].tolist(),
                dists[mask].tolist(),
            ):
                adjacency[slot][mate] = dist
                adjacency[mate][slot] = dist
                mates_of[slot].append(mate)
        return [
            (slot, np.sort(np.asarray(mates_of[slot], dtype=np.int64)))
            for slot in slots
        ]

    def _keep(self, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Which ``(query, candidate)`` pairs :meth:`insert_batch`
        evaluates: live candidates allocated before their query."""
        return self.store.alive_mask[candidates] & (candidates < queries)

    def evict(self, slot: int) -> np.ndarray:
        """Remove a live segment; returns its former proper neighbors
        (ascending)."""
        if not self.store.is_alive(slot):
            raise ClusteringError(f"slot {slot} is not alive")
        row = self._adjacency.pop(slot)
        for mate in row:
            del self._adjacency[mate][slot]
        if self._grid is not None:
            self._grid.remove(slot)
        self.store.kill(slot)
        return np.sort(np.fromiter(row, dtype=np.int64, count=len(row)))

    def compact_slots(self) -> np.ndarray:
        """Compact the slot store and remap the adjacency and the grid
        to the new ids; returns the old -> new slot map (-1 = dead).

        Pure renumbering: no distance is re-evaluated, no edge is
        added or dropped, and ``neighbors_of`` answers are the same
        rows under new names."""
        remap = self.store.compact_slots()
        self._adjacency = {
            int(remap[slot]): {
                int(remap[mate]): dist for mate, dist in row.items()
            }
            for slot, row in self._adjacency.items()
        }
        if self._grid is not None:
            # Every slot of the compacted store is live, so a grid that
            # registers the whole store holds exactly the live set.
            self._grid = SegmentGrid(self.store, self._radius)
        return remap

    # -- checkpointing -----------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, dist)`` with ``u < v``, each unordered edge once."""
        us: List[int] = []
        vs: List[int] = []
        ds: List[float] = []
        for u, row in self._adjacency.items():
            for v, dist in row.items():
                if u < v:
                    us.append(u)
                    vs.append(v)
                    ds.append(dist)
        return (
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ds, dtype=np.float64),
        )

    def restore_slots(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        traj_ids: np.ndarray,
        weights: np.ndarray,
        stamps: np.ndarray,
        alive: np.ndarray,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        edges_d: np.ndarray,
    ) -> None:
        """Refill an *empty* graph from checkpointed slot and edge
        arrays without re-evaluating any distance."""
        if len(self.store) or self._adjacency:
            raise ClusteringError("can only restore into an empty graph")
        slots = self.store.extend(starts, ends, traj_ids, weights, stamps)
        alive = np.asarray(alive, dtype=bool)
        for slot in slots[~alive].tolist():
            self.store.kill(slot)
        for slot in slots[alive].tolist():
            self._adjacency[slot] = {}
            if self._grid is not None:
                self._grid.insert(slot)
        for u, v, dist in zip(
            edges_u.tolist(), edges_v.tolist(), edges_d.tolist()
        ):
            self._adjacency[u][v] = dist
            self._adjacency[v][u] = dist

    def __repr__(self) -> str:
        return (
            f"DynamicNeighborGraph(eps={self.eps}, n_alive={self.n_alive}, "
            f"n_edges={self.n_edges})"
        )
