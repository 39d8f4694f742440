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

The state those rules need — core flags, core-neighbor sets, core
components with formation order, and the border/Step-3 derivation — is
:class:`~repro.cluster.labeling.CoreGraphLabeler` (the sweep engine of
:mod:`repro.sweep.engine` walks the ε axis with an array forest of its
own and shares only the Step-3 filter).  :class:`OnlineDBSCAN` maintains,
per update: exact cardinalities, core promotion/demotion, merges via
union-by-size and splits by reclustering bounded to the affected
component.  :meth:`labels` evaluates the rules above — and because slot
order equals compacted positional order, the result is *identical* (not
just equivalent up to relabeling) to ``LineSegmentDBSCAN.fit`` on the
surviving segments.  Representative trajectories (Figure 15) are
refreshed lazily: clusters whose membership is unchanged reuse the
cached sweep result.

Incremental diffs
-----------------

On top of the batch-identical derivation, the class maintains a
*stable-label view*: every live slot's current assignment in component
tokens (which survive updates) rather than dense ranks (which do not).
Each update records the slots whose assignment **could** have changed —
the inserted/evicted slot, promotions and demotions with their graph
neighborhoods, members moved by a union or split, and the *watchers*
(borders adjacent to a component) of any component whose identity or
formation key moved — by draining the labeler's event journal.
:meth:`flush_diff` re-derives exactly those slots, updates per-cluster
distinct-trajectory counts for the Step-3 visibility flips, and emits a
:class:`~repro.stream.view.LabelDiff` whose cost is O(touched), not
O(live).  ``last_flush_touched`` exposes that count so tests and the
shard benchmark can pin the complexity claim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.labeling import CoreGraphLabeler, apply_cardinality_filter
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
        self._labeler = CoreGraphLabeler()
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
        return self._labeler.is_core(slot)

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
        prefix.  Tracking all slots up front is safe because a
        promotion during an earlier slot's registration pushes itself
        into later slots' core-neighbor sets via the adjacency
        callback — the same end state one-at-a-time ``track`` reaches.
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
        labeler = self._labeler
        for slot, mates in inserted:
            labeler.track(slot, (int(v) for v in mates))
        for slot, mates in inserted:
            self._register(slot, mates)

    def _register(self, slot: int, mates: np.ndarray) -> None:
        """Cardinality, promotion, and diff bookkeeping for a newly
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
        labeler = self._labeler
        promoted = [
            u
            for u in (slot, *mates)
            if not labeler.is_core(u) and self._card[u] >= self.min_lns
        ]
        self._added.add(slot)
        self._touched.add(slot)
        if promoted:
            labeler.promote(promoted, self.graph.adjacent)
            touched = self._touched
            for u in promoted:
                touched.add(u)
                touched.update(int(w) for w in self.graph.adjacent(u))
        self._drain_journal()

    def evict(self, slot: int) -> None:
        """Remove one live segment (graph, cardinalities, labels)."""
        labeler = self._labeler
        # The transition the consumer saw last: None if the slot was
        # never flushed (inserted and evicted within one update).
        if slot in self._added:
            old_visible: Optional[int] = None
        else:
            old_visible = self._visible_label(slot)
        was_core = labeler.is_core(slot)
        core_degree = len(labeler.core_neighbors.get(slot, ()))
        neighbors = self.graph.evict(slot)
        del self._card[slot]
        labeler.untrack(slot)
        if self.use_weights:
            for v in neighbors:
                self._card[int(v)] = self._cardinality(int(v))
        else:
            for v in neighbors:
                self._card[int(v)] -= 1.0
        touched = self._touched
        removals_by_root: Dict[int, List[Tuple[int, int]]] = {}
        if was_core:
            labeler.demote(
                slot,
                (int(v) for v in neighbors),
                removals_by_root,
                degree=core_degree,
            )
            touched.update(int(v) for v in neighbors)
        for v in neighbors:
            v = int(v)
            if labeler.is_core(v) and self._card[v] < self.min_lns:
                adjacent_v = [int(w) for w in self.graph.adjacent(v)]
                labeler.demote(v, adjacent_v, removals_by_root)
                touched.add(v)
                touched.update(adjacent_v)
        if removals_by_root:
            labeler.repair(removals_by_root)
        self._settle_retraction(slot, old_visible)
        self._drain_journal()

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

    def _drain_journal(self) -> None:
        """Translate the labeler's component events into the touched
        sets the next :meth:`flush_diff` re-derives."""
        journal = self._labeler.journal
        if not journal:
            return
        touched = self._touched
        watchers = self._watchers
        for event in journal:
            kind = event[0]
            if kind == "new":
                self._fresh.add(event[1])
                self._touched_tokens.add(event[1])
            elif kind == "union":
                _, absorbed, survivor, moved, min_changed = event
                touched.update(moved)
                self._touched_tokens.add(survivor)
                moved_watchers = watchers.pop(absorbed, None)
                if moved_watchers:
                    touched.update(moved_watchers)
                if min_changed:
                    current = watchers.get(survivor)
                    if current:
                        touched.update(current)
                if self._retire(absorbed):
                    self._merges.append((absorbed, survivor))
                self._redirect[absorbed] = survivor
            elif kind == "keep":
                _, token, min_changed = event
                self._touched_tokens.add(token)
                if min_changed:
                    current = watchers.get(token)
                    if current:
                        touched.update(current)
            elif kind == "split":
                _, root, parts = event
                for part in parts:
                    touched.update(self._labeler.component_members(part))
                root_watchers = watchers.pop(root, None)
                if root_watchers:
                    touched.update(root_watchers)
                if self._retire(root):
                    self._splits.append((root, parts))
            else:  # "drop"
                token = event[1]
                root_watchers = watchers.pop(token, None)
                if root_watchers:
                    touched.update(root_watchers)
                self._retire(token)
        journal.clear()

    def _derive(self, slot: int) -> int:
        """Current stable assignment of one slot (the Figure 12 rules
        of :meth:`CoreGraphLabeler.labels_for`, expressed in component
        tokens: formation *rank* order equals formation *key* order),
        refreshing the border watch index as a side effect."""
        labeler = self._labeler
        if labeler.is_core(slot):
            self._unwatch(slot)
            return labeler.component_of(slot)
        adjacent_cores = labeler.core_neighbors.get(slot)
        if not adjacent_cores:
            self._unwatch(slot)
            return NOISE
        comp_of = labeler._comp_of
        comp_min = labeler._comp_min
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
        labeler = self._labeler
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
            if token not in labeler._comp_members:
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
            token: labeler._comp_min[token]
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
        if slots.size == 0:
            return slots, np.empty(0, dtype=np.int64)
        labels, n_clusters = self._labeler.labels_for(slots.tolist())
        return slots, apply_cardinality_filter(
            labels,
            self.store.traj_ids[slots],
            n_clusters,
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
        self._labeler.remap_ids(remap)
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
        """Recompute all derived label state (cardinalities, cores,
        components, the stable-label view) from the restored graph —
        one O(V + E) pass; the partition it produces is the one
        incremental maintenance would have reached (root tokens are
        arbitrary until :meth:`adopt_tokens`, labels are not)."""
        self._card.clear()
        alive = self.store.alive_slots().tolist()
        for slot in alive:
            self._card[slot] = self._cardinality(slot)
        self._labeler.rebuild(
            alive,
            self.graph.adjacent,
            (slot for slot in alive if self._card[slot] >= self.min_lns),
        )
        self._reset_view()

    def export_tokens(self) -> Tuple[np.ndarray, int]:
        """``(pairs, next_token)``: each row of *pairs* is ``(token,
        anchor)`` where the anchor is the component's smallest core
        member — enough for a rebuild to re-adopt the same stable
        cluster ids and continue minting where this session stopped."""
        labeler = self._labeler
        pairs = np.array(
            sorted(labeler._comp_min.items()), dtype=np.int64
        ).reshape(-1, 2)
        return pairs, labeler._next_comp

    def adopt_tokens(self, pairs: np.ndarray, next_token: int) -> None:
        """Rename the rebuilt components to checkpointed tokens (each
        anchor core member identifies its component) and restore the
        mint counter: token evolution after restore then continues the
        original session's exactly, because promotion unions and
        repair seeds are processed in canonical order."""
        labeler = self._labeler
        mapping: Dict[int, int] = {}
        for token, anchor in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            mapping[labeler._comp_of[int(anchor)]] = int(token)
        if len(mapping) != len(labeler._comp_members):
            raise ClusteringError(
                f"checkpoint names {len(mapping)} components, rebuild "
                f"produced {len(labeler._comp_members)}"
            )
        labeler._comp_of = {
            uid: mapping[token] for uid, token in labeler._comp_of.items()
        }
        labeler._comp_members = {
            mapping[token]: members
            for token, members in labeler._comp_members.items()
        }
        labeler._comp_min = {
            mapping[token]: minimum
            for token, minimum in labeler._comp_min.items()
        }
        labeler._next_comp = int(next_token)
        self._reset_view()

    def snapshot_view(self) -> LabelView:
        """A fresh :class:`LabelView` equal to what folding every diff
        emitted so far would have produced (checkpoint restores start
        their consumers here instead of replaying history)."""
        view = LabelView()
        labeler = self._labeler
        for slot, token in self._assign.items():
            label = token if token in self._visible else -1
            view._labels[slot] = label
            if label >= 0:
                view._counts[label] = view._counts.get(label, 0) + 1
        for token in self._visible:
            view._minima[token] = labeler._comp_min[token]
        return view

    def _reset_view(self) -> None:
        """Recompute the stable-label view from the labeler — one
        O(live) pass, used only after a wholesale rebuild."""
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
        self._labeler.journal.clear()
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
            f"n_cores={self._labeler.n_cores}, "
            f"n_components={self._labeler.n_components})"
        )
