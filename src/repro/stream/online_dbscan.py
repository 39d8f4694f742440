"""Incremental line-segment DBSCAN: Figure 12 labels under updates.

The batch algorithm's output is a *deterministic function of the
ε-graph* — no replay of its scan is needed.  Unwinding Figure 12:

* a segment is **core** iff its ε-cardinality (count, or summed weight
  with the Section 4.2 extension) reaches MinLns; cardinality is fixed
  by the graph, so "previously noise" segments can never expand;
* cores that are ε-neighbors always share a cluster (a core reached by
  an earlier cluster's expansion is itself expanded into it), so the
  clusters' core sets are exactly the **connected components of the
  core subgraph**;
* each cluster is fully expanded before the scan proceeds (Figure 12
  line 09), so clusters *form* in ascending order of their smallest
  core index (their *seed*), and a contested **border** segment
  (non-core with core neighbors) is claimed by the earliest-formed
  component among them — expansion (line 23) never overwrites a
  cluster label — *unless* the border lies in the ε-neighborhood of a
  later-formed cluster's seed: line 07 assigns the whole seed
  neighborhood unconditionally, so the last seed adjacent to the
  border wins;
* Step 3 removes clusters below the trajectory-cardinality threshold
  and the survivors are renumbered densely in formation order.

:class:`OnlineDBSCAN` owns the state those rules need — exact
cardinalities, core flags, the core ε-neighbors of every live slot, and
the core components with their formation keys — and maintains it per
update: one re-test of the core flag of every slot whose cardinality
changed (demotions with their repair first, then promotions), merges
via union-by-size and splits by reclustering bounded to the affected
component.  :meth:`labels` evaluates the rules above through
:func:`~repro.cluster.labeling.figure12_labels`, the full-array
derivation the sweep engine of :mod:`repro.sweep.engine` also runs — and
because slot order equals compacted positional order, the result is
*identical* (not just equivalent up to relabeling) to
``LineSegmentDBSCAN.fit`` on the surviving segments.  Representative
trajectories (Figure 15) are refreshed lazily: clusters whose
membership is unchanged reuse the cached sweep result.

Incremental diffs
-----------------

On top of the batch-identical derivation, the class maintains a
*stable-label view*: every live slot's current assignment in component
tokens (which survive updates) rather than dense ranks (which do not).
Each update records the slots whose assignment **could** have changed —
the inserted/evicted slot, promotions and demotions with their graph
neighborhoods, members moved by a union or split, and the *watchers*
(borders adjacent to a component) of any component whose identity or
formation key moved — where each component event (new, union, keep,
split, drop) happens.
:meth:`flush_diff` re-derives exactly those slots, updates per-cluster
distinct-trajectory counts for the Step-3 visibility flips, and emits a
:class:`~repro.stream.view.LabelDiff` whose cost is O(touched), not
O(live).  ``last_flush_touched`` exposes that count so tests and the
shard benchmark can pin the complexity claim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.labeling import figure12_labels
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError
from repro.model.cluster import NOISE, Cluster
from repro.representative.sweep import (
    RepresentativeConfig,
    generate_representative,
)
from repro.stream.dynamic_graph import DynamicNeighborGraph
from repro.stream.view import LabelDiff, LabelView


class OnlineDBSCAN:
    """Figure 12 labels maintained under segment insert and evict.

    Parameters mirror :class:`~repro.cluster.dbscan.LineSegmentDBSCAN`
    (eps, MinLns, distance, the Step-3 ``cardinality_threshold``
    defaulting to MinLns, and ``use_weights``); ``dim`` fixes the
    spatial dimensionality of the stream.  ``graph`` substitutes a
    caller-owned :class:`DynamicNeighborGraph` (subclasses included —
    the shard merger feeds one whose edges partly arrive over the
    wire); it must carry the same eps and distance.
    """

    # flush_diff and the repair loop read these on every touched slot;
    # a slot read stays fast however many attributes the class holds.
    __slots__ = (
        "eps", "min_lns", "distance", "cardinality_threshold",
        "use_weights", "graph", "_card", "_core", "_core_neighbors",
        "_comp_of", "_comp_members", "_comp_min", "_next_comp",
        "_rep_cache", "_assign", "_members", "_traj_counts", "_visible",
        "_watchers", "_watching", "_touched", "_added", "_removed",
        "_touched_tokens", "_fresh", "_retired", "_merges", "_splits",
        "_redirect", "view_version", "last_flush_touched",
    )

    def __init__(
        self,
        eps: float,
        min_lns: float,
        distance: Optional[SegmentDistance] = None,
        cardinality_threshold: Optional[float] = None,
        use_weights: bool = False,
        dim: int = 2,
        graph: Optional[DynamicNeighborGraph] = None,
    ):
        # Written so that NaN fails too.
        if not eps >= 0:
            raise ClusteringError(f"eps must be non-negative, got {eps}")
        if not min_lns > 0:
            raise ClusteringError(f"min_lns must be positive, got {min_lns}")
        if cardinality_threshold is not None and not cardinality_threshold >= 0:
            raise ClusteringError(
                f"threshold must be non-negative, got {cardinality_threshold}"
            )
        self.eps = float(eps)
        self.min_lns = float(min_lns)
        self.distance = distance if distance is not None else SegmentDistance()
        self.cardinality_threshold = (
            float(cardinality_threshold)
            if cardinality_threshold is not None
            else float(min_lns)
        )
        self.use_weights = bool(use_weights)
        if graph is None:
            graph = DynamicNeighborGraph(self.eps, self.distance, dim=dim)
        elif graph.eps != self.eps:
            raise ClusteringError(
                f"supplied graph has eps={graph.eps}, clusterer wants "
                f"{self.eps}"
            )
        self.graph = graph
        # |N_eps| including self: int count, or the batch-identical
        # weighted sum (recomputed on touch; see _cardinality).
        self._card: Dict[int, float] = {}
        self._core: Set[int] = set()
        # Core ε-neighbors of every live slot (cores adjacent to a core
        # are, by the component invariant, always in the same component).
        self._core_neighbors: Dict[int, Set[int]] = {}
        # Core components: opaque token per core.  Tokens come from a
        # monotone counter, never from slots — a demoted slot can be
        # promoted again later, and a token it minted earlier may still
        # name a surviving component.  _comp_min is the formation key.
        self._comp_of: Dict[int, int] = {}
        self._comp_members: Dict[int, Set[int]] = {}
        self._comp_min: Dict[int, int] = {}
        self._next_comp = 0
        self._rep_cache: Dict[bytes, np.ndarray] = {}
        # -- stable-label view (module docstring, "Incremental diffs") --
        # Last flushed assignment: slot -> component token or NOISE.
        self._assign: Dict[int, int] = {}
        # token -> assigned slots (cores and borders) and their
        # distinct-trajectory counts ({traj_id: n_slots}); len() of the
        # latter is |PTR(C)| for the Step-3 visibility test.
        self._members: Dict[int, Set[int]] = {}
        self._traj_counts: Dict[int, Dict[int, int]] = {}
        # Tokens currently passing Step 3.
        self._visible: Set[int] = set()
        # Border watch index: a border depends on *every* adjacent
        # component (its claim may flip when any of their formation keys
        # move), so token -> watching borders and the reverse.
        self._watchers: Dict[int, Set[int]] = {}
        self._watching: Dict[int, Set[int]] = {}
        # Per-flush accumulators.
        self._touched: Set[int] = set()
        self._added: Set[int] = set()
        self._removed: Dict[int, Optional[int]] = {}
        self._touched_tokens: Set[int] = set()
        self._fresh: Set[int] = set()
        self._retired: List[int] = []
        self._merges: List[Tuple[int, int]] = []
        self._splits: List[Tuple[int, Tuple[int, ...]]] = []
        self._redirect: Dict[int, int] = {}
        #: Bumped by every :meth:`flush_diff`; lets lazy consumers tell
        #: whether a cached dense view is still current.
        self.view_version = 0
        #: Slots re-derived by the last flush — the O(delta) witness.
        self.last_flush_touched = 0

    # -- cardinality -------------------------------------------------------
    @property
    def store(self):
        return self.graph.store

    def _cardinality(self, slot: int) -> float:
        """Exact |N_eps(slot)| as the batch computes it.

        Weighted sums are *recomputed* from the ascending neighbor row
        (never incrementally adjusted): ``np.sum`` over the same-order
        array is bitwise identical to the batch's, so a sum that lands
        exactly on MinLns classifies identically — float drift from
        repeated add/subtract would not.
        """
        if not self.use_weights:
            return float(len(self.graph.adjacent(slot)) + 1)
        neighbors = self.graph.neighbors_of(slot)
        return float(np.sum(self.store.weights[neighbors]))

    def cardinality(self, slot: int) -> float:
        if slot not in self._card:
            raise ClusteringError(f"slot {slot} is not alive")
        return self._card[slot]

    def is_core(self, slot: int) -> bool:
        return slot in self._core

    # -- updates -----------------------------------------------------------
    def insert(
        self,
        start: np.ndarray,
        end: np.ndarray,
        traj_id: int,
        weight: float = 1.0,
        stamp: float = 0.0,
    ) -> int:
        """Add one segment; returns its slot id (a one-row
        :meth:`insert_batch`)."""
        return self.insert_batch([start], [end], [traj_id], [weight], [stamp])[0]

    def insert_batch(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        traj_ids: np.ndarray,
        weights: Optional[np.ndarray] = None,
        stamps: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Insert segments through one vectorized candidate join; returns
        their slot ids in input order.

        Label state afterwards is *identical* to inserting the rows one
        at a time in array order: each slot's insertion-time neighbor
        set (mates with a smaller slot id) is what one-at-a-time
        insertion would have seen, slots are registered in ascending
        order, and :meth:`_register` masks weighted sums to that same
        prefix.  Giving all slots their core-neighbor sets up front is
        safe because a promotion (or demotion) during an earlier slot's
        registration adds itself to (or drops itself from) later slots'
        sets through the graph adjacency — the same end state
        one-at-a-time insertion reaches.
        """
        inserted = self.graph.insert_batch(
            starts, ends, traj_ids, weights, stamps
        )
        self.register_inserted(inserted)
        return [slot for slot, _ in inserted]

    def register_inserted(
        self, inserted: Sequence[Tuple[int, np.ndarray]]
    ) -> None:
        """Label bookkeeping for slots the caller already placed in the
        owned graph — the shard merger path, where edges partly arrive
        over the wire.  *inserted* is ``(slot, mates)`` in ascending
        slot order with each slot's insertion-time proper neighbors
        ascending, exactly what
        :meth:`DynamicNeighborGraph.insert_batch` returns; the
        resulting state matches :meth:`insert_batch` over the same
        segments."""
        core = self._core
        for slot, mates in inserted:
            self._core_neighbors[slot] = {
                int(v) for v in mates if int(v) in core
            }
        for slot, mates in inserted:
            self._register(slot, mates)

    def _register(self, slot: int, mates: np.ndarray) -> None:
        """Cardinality, core re-test, and diff bookkeeping for a newly
        inserted slot whose insertion-time neighbors are *mates*
        (ascending).  In batch mode later batch slots are already in
        the graph, so weighted sums mask neighbor rows to ids <= slot —
        exactly the rows sequential insertion would have summed."""
        mates = [int(v) for v in mates]
        if self.use_weights:
            weights = self.store.weights
            for u in (slot, *mates):
                row = self.graph.neighbors_of(u)
                self._card[u] = float(np.sum(weights[row[row <= slot]]))
        else:
            self._card[slot] = float(len(mates) + 1)
            for v in mates:
                self._card[v] += 1.0
        self._added.add(slot)
        self._touched.add(slot)
        self._retest((slot, *mates), {})

    def evict(self, slot: int) -> None:
        """Remove one live segment (graph, cardinalities, labels)."""
        # The transition the consumer saw last: None if the slot was
        # never flushed (inserted and evicted within one update).
        if slot in self._added:
            old_visible: Optional[int] = None
        else:
            old_visible = self._visible_label(slot)
        core_degree = len(self._core_neighbors.get(slot, ()))
        neighbors = [int(v) for v in self.graph.evict(slot)]
        # Settled first: the slot then sits in no watch set that the
        # component events below release.
        self._settle_retraction(slot, old_visible)
        del self._card[slot]
        del self._core_neighbors[slot]
        if self.use_weights:
            for v in neighbors:
                self._card[v] = self._cardinality(v)
        else:
            for v in neighbors:
                self._card[v] -= 1.0
        removals: Dict[int, List[Tuple[int, int]]] = {}
        if slot in self._core:
            self._demote(slot, neighbors, removals, core_degree)
            self._touched.update(neighbors)
        self._retest(neighbors, removals)

    # -- core set and components -------------------------------------------
    def _retest(
        self,
        slots: Sequence[int],
        removals: Dict[int, List[Tuple[int, int]]],
    ) -> None:
        """Re-test the core flag of *slots*, whose cardinalities changed,
        in both directions: demote the cores below MinLns and repair
        their components together with the *removals* the caller already
        recorded, then promote the non-cores that reach it.

        A count only grows on insert and only shrinks on evict, but a
        weighted ``np.sum`` sums 8 or more terms pairwise, so it can
        round down when its row grows and up when it shrinks."""
        core = self._core
        card = self._card
        min_lns = self.min_lns
        touched = self._touched
        adjacent = self.graph.adjacent
        for v in slots:
            if v in core and card[v] < min_lns:
                adjacent_v = [int(w) for w in adjacent(v)]
                self._demote(
                    v, adjacent_v, removals, len(self._core_neighbors[v])
                )
                touched.add(v)
                touched.update(adjacent_v)
        if removals:
            self._repair(removals)
        promoted = [v for v in slots if v not in core and card[v] >= min_lns]
        if promoted:
            self._promote(promoted)
            for u in promoted:
                touched.add(u)
                touched.update(int(w) for w in adjacent(u))

    def _promote(self, slots: Sequence[int]) -> None:
        """Make *slots* core: flags and singleton components first, then
        unions — order-independent even when two promotions are
        adjacent.  Union order is canonical (ascending neighbor slot),
        so which token survives a merge chain is a function of the state
        alone, not of set iteration history — stable cluster ids stay
        reproducible across checkpoint restores."""
        core_neighbors = self._core_neighbors
        for u in slots:
            self._core.add(u)
            self._new_component({u})
            for w in self.graph.adjacent(u):
                core_neighbors[int(w)].add(u)
        for u in slots:
            for w in sorted(core_neighbors[u]):
                self._union(u, w)

    def _demote(
        self,
        slot: int,
        adjacent: Sequence[int],
        removals: Dict[int, List[Tuple[int, int]]],
        degree: int,
    ) -> None:
        """Remove *slot* from the core set and its component, recording
        ``(slot, degree)`` under the component for :meth:`_repair`;
        *degree* is its core degree at removal time."""
        self._core.discard(slot)
        for w in adjacent:
            self._core_neighbors[w].discard(slot)
        root = self._comp_of.pop(slot)
        self._comp_members[root].discard(slot)
        removals.setdefault(root, []).append((slot, degree))

    def _repair(self, removals: Dict[int, List[Tuple[int, int]]]) -> None:
        """Re-establish connectivity of each component that lost cores.
        A lone removal of core degree <= 1 cannot disconnect the rest,
        so the component keeps its token; any other removal reclusters
        the component from its members in ascending seed order, which
        keeps the token when nothing split and mints the parts' tokens
        in canonical order when something did."""
        for root, removed in removals.items():
            members = self._comp_members[root]
            if not members:
                del self._comp_members[root]
                del self._comp_min[root]
                self._release_watchers(root)
                self._retire(root)
                continue
            if len(removed) == 1 and removed[0][1] <= 1:
                self._touched_tokens.add(root)
                if removed[0][0] == self._comp_min[root]:
                    self._set_min(root, min(members))
                continue
            remaining = set(members)
            parts: List[Set[int]] = []
            for seed in sorted(members):
                if seed not in remaining:
                    continue
                remaining.discard(seed)
                part = {seed}
                stack = [seed]
                while stack:
                    u = stack.pop()
                    for w in self._core_neighbors[u]:
                        if w in remaining:
                            remaining.discard(w)
                            part.add(w)
                            stack.append(w)
                parts.append(part)
            if len(parts) == 1:
                # No split after all: the component keeps its token, so
                # the cluster's stable identity survives the demotion.
                self._touched_tokens.add(root)
                minimum = min(members)
                if minimum != self._comp_min[root]:
                    self._set_min(root, minimum)
                continue
            del self._comp_members[root]
            del self._comp_min[root]
            minted = tuple(self._new_component(part) for part in parts)
            for part in parts:
                self._touched.update(part)
            self._release_watchers(root)
            if self._retire(root):
                self._splits.append((root, minted))

    def _new_component(self, members: Set[int]) -> int:
        """Mint a token for the cores *members*; the consumer first
        sees it at the next flush."""
        token = self._next_comp
        self._next_comp += 1
        for member in members:
            self._comp_of[member] = token
        self._comp_members[token] = members
        self._comp_min[token] = min(members)
        self._fresh.add(token)
        self._touched_tokens.add(token)
        return token

    def _union(self, a: int, b: int) -> None:
        """Merge the components of cores *a* and *b* (union by size):
        the absorbed token retires into the survivor, and the cores it
        held and the borders watching it re-derive."""
        survivor, absorbed = self._comp_of[a], self._comp_of[b]
        if survivor == absorbed:
            return
        if len(self._comp_members[survivor]) < len(self._comp_members[absorbed]):
            survivor, absorbed = absorbed, survivor
        moved = self._comp_members.pop(absorbed)
        for member in moved:
            self._comp_of[member] = survivor
        self._comp_members[survivor].update(moved)
        self._touched.update(moved)
        self._touched_tokens.add(survivor)
        self._release_watchers(absorbed)
        absorbed_min = self._comp_min.pop(absorbed)
        if absorbed_min < self._comp_min[survivor]:
            self._set_min(survivor, absorbed_min)
        if self._retire(absorbed):
            self._merges.append((absorbed, survivor))
        self._redirect[absorbed] = survivor

    def _set_min(self, token: int, minimum: int) -> None:
        """Move the formation key of *token*: every border watching it
        may change its claim."""
        self._comp_min[token] = minimum
        watchers = self._watchers.get(token)
        if watchers:
            self._touched.update(watchers)

    def _release_watchers(self, token: int) -> None:
        """*token* is gone: the borders watching it re-derive."""
        watchers = self._watchers.pop(token, None)
        if watchers:
            self._touched.update(watchers)

    # -- stable-label view maintenance -------------------------------------
    def _visible_label(self, slot: int) -> int:
        """The slot's label as the last flush reported it."""
        token = self._assign.get(slot, NOISE)
        return token if token in self._visible else NOISE

    def _settle_retraction(self, slot: int, old_visible: Optional[int]) -> None:
        if slot in self._added:
            self._added.discard(slot)
        else:
            self._removed[slot] = old_visible
        self._touched.discard(slot)
        token = self._assign.pop(slot, None)
        if token is not None and token >= 0:
            self._unassign(slot, token)
        self._unwatch(slot)

    def _assign_to(self, slot: int, token: int) -> None:
        self._members.setdefault(token, set()).add(slot)
        counts = self._traj_counts.setdefault(token, {})
        traj = int(self.store.traj_ids[slot])
        counts[traj] = counts.get(traj, 0) + 1
        self._touched_tokens.add(token)

    def _unassign(self, slot: int, token: int) -> None:
        members = self._members.get(token)
        if members is not None:
            members.discard(slot)
            if not members:
                del self._members[token]
        counts = self._traj_counts.get(token)
        if counts is not None:
            traj = int(self.store.traj_ids[slot])
            remaining = counts[traj] - 1
            if remaining:
                counts[traj] = remaining
            else:
                del counts[traj]
                if not counts:
                    del self._traj_counts[token]
        self._touched_tokens.add(token)

    def _rewatch(self, slot: int, roots: Set[int]) -> None:
        old = self._watching.get(slot)
        if old == roots:
            return
        fresh_tokens = roots if old is None else roots - old
        if old:
            for token in old - roots:
                watchers = self._watchers.get(token)
                if watchers is not None:
                    watchers.discard(slot)
                    if not watchers:
                        del self._watchers[token]
        for token in fresh_tokens:
            self._watchers.setdefault(token, set()).add(slot)
        self._watching[slot] = roots

    def _unwatch(self, slot: int) -> None:
        old = self._watching.pop(slot, None)
        if old:
            for token in old:
                watchers = self._watchers.get(token)
                if watchers is not None:
                    watchers.discard(slot)
                    if not watchers:
                        del self._watchers[token]

    def _retire(self, token: int) -> bool:
        """Mark *token* gone; returns True if a consumer ever saw it
        (i.e. it predates this flush)."""
        internal = token in self._fresh
        if internal:
            self._fresh.discard(token)
        else:
            self._retired.append(token)
        self._touched_tokens.add(token)
        return not internal

    def _derive(self, slot: int) -> int:
        """Current stable assignment of one slot: the Figure 12 rules of
        :func:`~repro.cluster.labeling.figure12_labels` for this slot
        alone, expressed in component tokens (formation *rank* order
        equals formation *key* order), refreshing the border watch
        index as a side effect."""
        if slot in self._core:
            self._unwatch(slot)
            return self._comp_of[slot]
        adjacent_cores = self._core_neighbors.get(slot)
        if not adjacent_cores:
            self._unwatch(slot)
            return NOISE
        comp_of = self._comp_of
        comp_min = self._comp_min
        roots: Set[int] = set()
        first_claim = NOISE
        first_min: Optional[int] = None
        last_seed = NOISE
        last_min = -1
        for neighbor in adjacent_cores:
            root = comp_of[neighbor]
            minimum = comp_min[root]
            roots.add(root)
            if first_min is None or minimum < first_min:
                first_min = minimum
                first_claim = root
            if minimum == neighbor and minimum > last_min:
                last_min = minimum
                last_seed = root
        self._rewatch(slot, roots)
        return last_seed if last_min >= 0 else first_claim

    def flush_diff(self) -> LabelDiff:
        """Re-derive the touched slots, apply the Step-3 visibility
        flips, and return the stable-label diff since the last flush.
        Cost is O(touched + flipped-cluster members), independent of
        the number of live slots."""
        card = self._card
        visible = self._visible
        self.last_flush_touched = len(self._touched) + len(self._removed)
        # 1) new assignments for the touched live slots (ascending for
        # a deterministic diff).
        pending: Dict[int, Tuple[Optional[int], int]] = {}
        for slot in sorted(self._touched):
            if slot not in card:
                continue  # evicted after being touched; in _removed
            old_token = self._assign.get(slot)
            new_token = self._derive(slot)
            if old_token is None or old_token != new_token:
                if old_token is not None and old_token >= 0:
                    self._unassign(slot, old_token)
                if new_token >= 0:
                    self._assign_to(slot, new_token)
                self._assign[slot] = new_token
                pending[slot] = (old_token, new_token)
        # 2) the labels those slots had *before* visibility moves.
        old_vis: Dict[int, Optional[int]] = {}
        for slot, (old_token, _) in pending.items():
            if old_token is None:
                old_vis[slot] = None
            else:
                old_vis[slot] = old_token if old_token in visible else NOISE
        # 3) Step-3 visibility over the touched tokens (distinct
        # trajectory count vs threshold, as apply_cardinality_filter).
        shown: List[int] = []
        hidden: List[int] = []
        threshold = self.cardinality_threshold
        for token in sorted(self._touched_tokens):
            if token not in self._comp_members:
                # Retired: conveyed by merges/splits/retired, the
                # members' own transitions, not a visibility flip.
                visible.discard(token)
                continue
            now = len(self._traj_counts.get(token, ())) >= threshold
            if now and token not in visible:
                visible.add(token)
                shown.append(token)
            elif not now and token in visible:
                visible.discard(token)
                hidden.append(token)
        # 4) per-slot transitions.
        changed: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        for token in hidden:
            for slot in self._members.get(token, ()):
                if slot not in pending:
                    changed[slot] = (token, NOISE)
        for token in shown:
            for slot in self._members.get(token, ()):
                if slot not in pending:
                    changed[slot] = (NOISE, token)
        for slot, (old_token, new_token) in pending.items():
            old = old_vis[slot]
            new = new_token if new_token in visible else NOISE
            if old is None or old != new:
                changed[slot] = (old, new)
        for slot, old in self._removed.items():
            changed[slot] = (old, None)
        # 5) formation keys for the touched visible clusters.
        minima = {
            token: self._comp_min[token]
            for token in self._touched_tokens
            if token in visible
        }
        # 6) cluster-identity events, with merge chains through tokens
        # the consumer never saw resolved to their final survivor.
        redirect = self._redirect

        def final(token: int) -> int:
            while token in redirect:
                token = redirect[token]
            return token

        merges = tuple(
            (absorbed, final(survivor)) for absorbed, survivor in self._merges
        )
        splits = []
        for root, parts in self._splits:
            resolved = tuple(dict.fromkeys(final(part) for part in parts))
            if len(resolved) >= 2:
                splits.append((root, resolved))
        retired = tuple(self._retired)
        for token in retired:
            self._members.pop(token, None)
            self._traj_counts.pop(token, None)
        diff = LabelDiff(
            changed=changed,
            merges=merges,
            splits=tuple(splits),
            shown=tuple(shown),
            hidden=tuple(hidden),
            minima=minima,
            retired=retired,
            touched=self.last_flush_touched,
        )
        self._touched.clear()
        self._added.clear()
        self._removed.clear()
        self._touched_tokens.clear()
        self._fresh.clear()
        self._retired.clear()
        self._merges.clear()
        self._splits.clear()
        self._redirect.clear()
        self.view_version += 1
        return diff

    # -- labels ------------------------------------------------------------
    def labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, labels)``: live slot ids ascending and their Figure
        12 labels (>= 0 cluster id in formation order after the Step-3
        filter, -1 noise) — exactly what ``LineSegmentDBSCAN.fit`` on
        the compacted survivors returns."""
        slots = self.store.alive_slots()
        n = slots.size
        if n == 0:
            return slots, np.empty(0, dtype=np.int64)
        comp_of, comp_min = self._comp_of, self._comp_min
        cores = np.fromiter(comp_of, dtype=np.int64, count=len(comp_of))
        seeds = np.fromiter(
            (comp_min[token] for token in comp_of.values()),
            dtype=np.int64, count=len(comp_of),
        )
        at = np.searchsorted(slots, cores)
        core = np.zeros(n, dtype=bool)
        core[at] = True
        parent = np.arange(n)
        parent[at] = np.searchsorted(slots, seeds)
        # The core-neighbor sets of the non-cores: the only edges the
        # derivation reads.
        border, mate = [], []
        for slot, mates in self._core_neighbors.items():
            if mates and slot not in self._core:
                border.extend([slot] * len(mates))
                mate.extend(mates)
        return slots, figure12_labels(
            core,
            parent,
            np.searchsorted(slots, border),
            np.searchsorted(slots, mate),
            self.store.traj_ids[slots],
            self.cardinality_threshold,
        )

    # -- representatives ---------------------------------------------------
    def clusters(self) -> Tuple[List[Cluster], np.ndarray, np.ndarray]:
        """``(clusters, labels, slots)`` over the compacted survivors
        (cluster member indices are positions into the compacted set)."""
        segments, slots = self.store.compact()
        _, labels = self.labels()
        clusters = [
            Cluster(cid, np.flatnonzero(labels == cid), segments)
            for cid in range(int(labels.max()) + 1 if labels.size else 0)
        ]
        return clusters, labels, slots

    def representatives(
        self, config: Optional[RepresentativeConfig] = None
    ) -> List[Cluster]:
        """Current clusters with representative trajectories attached.

        Lazily refreshed: a cluster whose member slots are unchanged
        since the last call reuses the cached Figure 15 sweep; the
        cache drops entries for memberships that no longer exist.
        """
        if config is None:
            config = RepresentativeConfig(min_lns=self.min_lns)
        clusters, labels, slots = self.clusters()
        refreshed: Dict[bytes, np.ndarray] = {}
        for cluster in clusters:
            signature = slots[cluster.member_indices].tobytes()
            representative = self._rep_cache.get(signature)
            if representative is None:
                representative = generate_representative(cluster, config)
            refreshed[signature] = representative
            cluster.representative = representative
        self._rep_cache = refreshed
        return clusters

    # -- compaction --------------------------------------------------------
    def compact_slots(self) -> np.ndarray:
        """Compact the underlying graph's slot store and rename every
        slot held in the derived label state; returns the old -> new
        slot map (-1 = dead).

        The remap is monotone, so component formation order, the border
        seed rule, and the Step-3 filter all see the same relative
        order — :meth:`labels` returns the identical label sequence
        over the renumbered slots.  The representative cache keys on
        slot signatures and is dropped (memberships are unchanged, so
        sweeps re-run only on the next :meth:`representatives` call).

        Pending diff state is flushed first: retraction entries key on
        old slot ids of dead slots, which a remap cannot rename.
        """
        if self._touched or self._removed or self._touched_tokens:
            self.flush_diff()
        remap = self.graph.compact_slots()
        self._card = {
            int(remap[slot]): card for slot, card in self._card.items()
        }
        self._core = {int(remap[slot]) for slot in self._core}
        self._core_neighbors = {
            int(remap[slot]): {int(remap[mate]) for mate in mates}
            for slot, mates in self._core_neighbors.items()
        }
        self._comp_of = {
            int(remap[slot]): token for slot, token in self._comp_of.items()
        }
        self._comp_members = {
            token: {int(remap[slot]) for slot in members}
            for token, members in self._comp_members.items()
        }
        self._comp_min = {
            token: int(remap[slot]) for token, slot in self._comp_min.items()
        }
        self._assign = {
            int(remap[slot]): token for slot, token in self._assign.items()
        }
        self._members = {
            token: {int(remap[slot]) for slot in members}
            for token, members in self._members.items()
        }
        self._watching = {
            int(remap[slot]): roots for slot, roots in self._watching.items()
        }
        self._watchers = {
            token: {int(remap[slot]) for slot in watchers}
            for token, watchers in self._watchers.items()
        }
        self._rep_cache.clear()
        return remap

    # -- checkpointing -----------------------------------------------------
    def rebuild_from_graph(self) -> None:
        """Recompute all derived label state from the restored graph —
        one O(V + E) pass: every cardinality, an empty core-neighbor set
        per live slot, then the cores promoted in ascending slot order
        through :meth:`_promote`, so the component partition is the one
        incremental maintenance reached (tokens are fresh until
        :meth:`adopt_tokens`, labels are not), and the stable-label
        view."""
        alive = self.store.alive_slots().tolist()
        self._card = {slot: self._cardinality(slot) for slot in alive}
        self._core = set()
        self._core_neighbors = {slot: set() for slot in alive}
        self._comp_of = {}
        self._comp_members = {}
        self._comp_min = {}
        self._promote(
            [slot for slot in alive if self._card[slot] >= self.min_lns]
        )
        self._reset_view()

    def export_tokens(self) -> Tuple[np.ndarray, int]:
        """``(pairs, next_token)``: each row of *pairs* is ``(token,
        anchor)`` where the anchor is the component's smallest core
        member — enough for a rebuild to re-adopt the same stable
        cluster ids and continue minting where this session stopped."""
        pairs = np.array(
            sorted(self._comp_min.items()), dtype=np.int64
        ).reshape(-1, 2)
        return pairs, self._next_comp

    def adopt_tokens(self, pairs: np.ndarray, next_token: int) -> None:
        """Rename the rebuilt components to checkpointed tokens (each
        anchor core member identifies its component) and restore the
        mint counter: token evolution after restore then continues the
        original session's exactly, because promotion unions and
        repair seeds are processed in canonical order."""
        mapping: Dict[int, int] = {}
        for token, anchor in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            rebuilt = self._comp_of.get(int(anchor))
            if rebuilt is None:
                raise ClusteringError(
                    f"checkpoint anchors token {int(token)} at slot "
                    f"{int(anchor)}, which the rebuild did not make core"
                )
            mapping[rebuilt] = int(token)
        if len(mapping) != len(self._comp_members):
            raise ClusteringError(
                f"checkpoint names {len(mapping)} components, rebuild "
                f"produced {len(self._comp_members)}"
            )
        self._comp_of = {
            slot: mapping[token] for slot, token in self._comp_of.items()
        }
        self._comp_members = {
            mapping[token]: members
            for token, members in self._comp_members.items()
        }
        self._comp_min = {
            mapping[token]: minimum
            for token, minimum in self._comp_min.items()
        }
        self._next_comp = int(next_token)
        self._reset_view()

    def snapshot_view(self) -> LabelView:
        """A fresh :class:`LabelView` equal to what folding every diff
        emitted so far would have produced (checkpoint restores start
        their consumers here instead of replaying history)."""
        view = LabelView()
        for slot, token in self._assign.items():
            label = token if token in self._visible else -1
            view._labels[slot] = label
            if label >= 0:
                view._counts[label] = view._counts.get(label, 0) + 1
        for token in self._visible:
            view._minima[token] = self._comp_min[token]
        return view

    def _reset_view(self) -> None:
        """Recompute the stable-label view from the core components —
        one O(live) pass, used only after a wholesale rebuild."""
        self._assign.clear()
        self._members.clear()
        self._traj_counts.clear()
        self._visible.clear()
        self._watching.clear()
        self._watchers.clear()
        self._touched.clear()
        self._added.clear()
        self._removed.clear()
        self._touched_tokens.clear()
        self._fresh.clear()
        self._retired.clear()
        self._merges.clear()
        self._splits.clear()
        self._redirect.clear()
        for slot in self.store.alive_slots().tolist():
            token = self._derive(slot)
            if token >= 0:
                self._assign_to(slot, token)
            self._assign[slot] = token
        self._touched_tokens.clear()
        threshold = self.cardinality_threshold
        for token, counts in self._traj_counts.items():
            if len(counts) >= threshold:
                self._visible.add(token)

    def __repr__(self) -> str:
        return (
            f"OnlineDBSCAN(eps={self.eps}, min_lns={self.min_lns}, "
            f"n_alive={self.store.n_alive}, "
            f"n_cores={len(self._core)}, "
            f"n_components={len(self._comp_members)})"
        )
