"""Figure-12 labels as a pure function of the ε-graph.

The batch scan of :class:`~repro.cluster.dbscan.LineSegmentDBSCAN` is
deterministic in a way that can be *unwound* (the full argument lives in
the :mod:`repro.stream.online_dbscan` docstring):

* a segment is **core** iff its ε-cardinality reaches MinLns;
* the clusters' core sets are the connected **components of the core
  subgraph**, and clusters form in ascending order of their smallest
  core id (their *seed*);
* a **border** (non-core with core neighbors) goes to the
  earliest-formed adjacent component, *unless* it lies in the
  ε-neighborhood of a later-formed cluster's seed — Figure 12 line 07
  assigns the whole seed neighborhood unconditionally, so the last
  adjacent seed wins;
* Step 3 drops clusters whose trajectory cardinality ``|PTR(C)|`` falls
  below a threshold and renumbers survivors densely in formation order.

:class:`CoreGraphLabeler` maintains exactly that state — the core set,
per-id core-neighbor sets, and the core components (union-by-size
merges, bounded-BFS splits) — under promotion, demotion, and removal,
and derives the label array.  Its consumer is
:class:`~repro.stream.online_dbscan.OnlineDBSCAN`, where segments arrive
and leave over *time* (inserts, evictions, compaction remaps).  The
sweep engine of :mod:`repro.sweep.engine`, where ε grows over a fixed
segment set, keeps an array forest instead and shares only
:func:`apply_cardinality_filter`.

Ids are opaque non-negative integers; the only requirement is that
their numeric order equals the batch scan's positional order (slot
order in the stream).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.model.cluster import NOISE


class CoreGraphLabeler:
    """Core flags, core-neighbor sets, and core-subgraph components of
    an ε-graph, with the Figure-12 label derivation on top.

    The caller owns cardinalities and the graph itself; this class owns
    everything derived from "which ids are core and how are they
    connected".  ``adjacent`` callbacks must return the id's current
    graph neighborhood (excluding itself).
    """

    __slots__ = (
        "core",
        "core_neighbors",
        "_comp_of",
        "_comp_members",
        "_comp_min",
        "_next_comp",
        "journal",
    )

    def __init__(self):
        self.core: Set[int] = set()
        # Core ε-neighbors of every tracked id (cores adjacent to a core
        # are, by the component invariant, always in the same component).
        self.core_neighbors: Dict[int, Set[int]] = {}
        # Core components: opaque token per core.  Tokens come from a
        # monotone counter, never from ids — a demoted id can be
        # promoted again later, and an id token it minted earlier may
        # still name a surviving component.
        self._comp_of: Dict[int, int] = {}
        self._comp_members: Dict[int, Set[int]] = {}
        self._comp_min: Dict[int, int] = {}
        self._next_comp = 0
        #: Event sink: every component-level state change appends one
        #: tuple, and the consumer drains and clears the list:
        #:
        #: * ``("new", token, min_member)`` — component minted;
        #: * ``("union", absorbed, survivor, moved, min_changed)`` —
        #:   ``moved`` is the tuple of member ids that switched token;
        #: * ``("keep", token, min_changed)`` — component survived a
        #:   repair intact (possibly with a new minimum);
        #: * ``("split", token, new_tokens)`` — component reclustered
        #:   into two or more parts (each part also emitted "new");
        #: * ``("drop", token)`` — component vanished (last core left).
        self.journal: List[tuple] = []

    # -- introspection -------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return len(self.core)

    @property
    def n_components(self) -> int:
        return len(self._comp_members)

    def is_core(self, uid: int) -> bool:
        return uid in self.core

    def component_of(self, uid: int) -> int:
        """Component token of core *uid*."""
        return self._comp_of[uid]

    def component_members(self, token: int) -> Set[int]:
        """Core members of component *token* (live view, do not mutate)."""
        return self._comp_members[token]

    # -- tracking ------------------------------------------------------------
    def track(self, uid: int, adjacent: Iterable[int]) -> None:
        """Start tracking *uid*: record its currently-core neighbors."""
        self.core_neighbors[uid] = {
            int(v) for v in adjacent if int(v) in self.core
        }

    def untrack(self, uid: int) -> None:
        del self.core_neighbors[uid]

    # -- component machinery -------------------------------------------------
    def new_component(self, members: Set[int]) -> int:
        token = self._next_comp
        self._next_comp += 1
        for member in members:
            self._comp_of[member] = token
        self._comp_members[token] = members
        self._comp_min[token] = min(members)
        self.journal.append(("new", token, self._comp_min[token]))
        return token

    def union(self, a: int, b: int) -> None:
        """Merge the components of cores *a* and *b* (union by size)."""
        ra, rb = self._comp_of[a], self._comp_of[b]
        if ra == rb:
            return
        if len(self._comp_members[ra]) < len(self._comp_members[rb]):
            ra, rb = rb, ra
        small = self._comp_members.pop(rb)
        for member in small:
            self._comp_of[member] = ra
        self._comp_members[ra].update(small)
        small_min = self._comp_min.pop(rb)
        min_changed = small_min < self._comp_min[ra]
        if min_changed:
            self._comp_min[ra] = small_min
        self.journal.append(("union", rb, ra, tuple(small), min_changed))

    def promote(
        self, ids: Sequence[int], adjacent: Callable[[int], Iterable[int]]
    ) -> None:
        """Make *ids* core (flags and singleton components first, then
        unions — order-independent even when two promotions are
        adjacent).  Union order is canonical (ascending neighbor id),
        so which token survives a merge chain is a function of the
        state alone, not of set iteration history — stable cluster
        identities stay reproducible across checkpoint restores."""
        for u in ids:
            self.core.add(u)
            self.new_component({u})
            for w in adjacent(u):
                self.core_neighbors[int(w)].add(u)
        for u in ids:
            for w in sorted(self.core_neighbors[u]):
                self.union(u, w)

    def demote(
        self,
        uid: int,
        adjacent: Iterable[int],
        removals_by_root: Dict[int, List[Tuple[int, int]]],
        degree: Optional[int] = None,
    ) -> None:
        """Remove *uid* from the core set and its component, recording
        the removal for a later :meth:`repair`.  ``degree`` is the
        core degree at removal time; it defaults to the current
        ``len(core_neighbors[uid])`` and must be passed explicitly when
        the caller already untracked the id."""
        if degree is None:
            degree = len(self.core_neighbors[uid])
        self.core.discard(uid)
        for w in adjacent:
            self.core_neighbors[int(w)].discard(uid)
        root = self._comp_of.pop(uid)
        self._comp_members[root].discard(uid)
        removals_by_root.setdefault(root, []).append((uid, degree))

    def repair(
        self, removals_by_root: Dict[int, List[Tuple[int, int]]]
    ) -> None:
        """Re-establish connectivity of each affected component after
        core removals.  ``removals_by_root[root]`` lists ``(id,
        core_degree_at_removal)`` pairs; a lone degree<=1 removal cannot
        disconnect the rest, so the BFS recluster (bounded to the
        component) runs only when a split is possible."""
        for root, removals in removals_by_root.items():
            members = self._comp_members[root]
            if not members:
                del self._comp_members[root]
                del self._comp_min[root]
                self.journal.append(("drop", root))
                continue
            if len(removals) == 1 and removals[0][1] <= 1:
                min_changed = removals[0][0] == self._comp_min[root]
                if min_changed:
                    self._comp_min[root] = min(members)
                self.journal.append(("keep", root, min_changed))
                continue
            # Recluster bounded to the component.  Seeds are taken in
            # ascending id order so that, when the component does
            # split, the parts' token order is canonical.
            remaining = set(members)
            components: List[Set[int]] = []
            for seed in sorted(members):
                if seed not in remaining:
                    continue
                remaining.discard(seed)
                component = {seed}
                stack = [seed]
                while stack:
                    u = stack.pop()
                    for w in self.core_neighbors[u]:
                        if w in remaining:
                            remaining.discard(w)
                            component.add(w)
                            stack.append(w)
                components.append(component)
            if len(components) == 1:
                # No split after all: the component keeps its token
                # (members' _comp_of entries still point at it), so the
                # cluster's stable identity survives the demotion.
                old_min = self._comp_min[root]
                self._comp_min[root] = min(members)
                self.journal.append(
                    ("keep", root, self._comp_min[root] != old_min)
                )
                continue
            del self._comp_members[root]
            del self._comp_min[root]
            minted = tuple(
                self.new_component(component) for component in components
            )
            self.journal.append(("split", root, minted))

    # -- wholesale state changes ---------------------------------------------
    def reset(self) -> None:
        self.core.clear()
        self.core_neighbors.clear()
        self._comp_of.clear()
        self._comp_members.clear()
        self._comp_min.clear()

    def rebuild(
        self,
        ids: Iterable[int],
        adjacent: Callable[[int], Iterable[int]],
        core_ids: Iterable[int],
    ) -> None:
        """Recompute everything from scratch for a known core set — one
        O(V + E) pass.  The component partition is the one incremental
        maintenance would have reached (root tokens are arbitrary,
        labels are not)."""
        self.reset()
        self.core = {int(u) for u in core_ids}
        for uid in ids:
            uid = int(uid)
            self.core_neighbors[uid] = {
                int(v) for v in adjacent(uid) if int(v) in self.core
            }
        unvisited = set(self.core)
        while unvisited:
            seed = unvisited.pop()
            component = {seed}
            stack = [seed]
            while stack:
                u = stack.pop()
                for w in self.core_neighbors[u]:
                    if w in unvisited:
                        unvisited.discard(w)
                        component.add(w)
                        stack.append(w)
            self.new_component(component)

    def remap_ids(self, remap: np.ndarray) -> None:
        """Rename every tracked id through *remap* (old id -> new id).
        The map must be monotone over live ids so that formation order
        (component minima), the border seed rule, and the Step-3 filter
        all see the same relative order."""
        self.core = {int(remap[uid]) for uid in self.core}
        self.core_neighbors = {
            int(remap[uid]): {int(remap[mate]) for mate in mates}
            for uid, mates in self.core_neighbors.items()
        }
        self._comp_of = {
            int(remap[uid]): token for uid, token in self._comp_of.items()
        }
        self._comp_members = {
            token: {int(remap[uid]) for uid in members}
            for token, members in self._comp_members.items()
        }
        self._comp_min = {
            token: int(remap[uid]) for token, uid in self._comp_min.items()
        }

    # -- label derivation ----------------------------------------------------
    def labels_for(self, ids: Sequence[int]) -> Tuple[np.ndarray, int]:
        """Figure-12 labels over *ids* (ascending), before the Step-3
        filter.  Returns ``(labels, n_clusters)``: >= 0 cluster ids in
        formation order, -1 noise."""
        labels = np.full(len(ids), NOISE, dtype=np.int64)
        roots_in_formation_order = sorted(
            self._comp_members, key=self._comp_min.__getitem__
        )
        rank = {root: k for k, root in enumerate(roots_in_formation_order)}
        core = self.core
        comp_of = self._comp_of
        comp_min = self._comp_min
        core_neighbors = self.core_neighbors
        for position, uid in enumerate(ids):
            if uid in core:
                labels[position] = rank[comp_of[uid]]
                continue
            adjacent_cores = core_neighbors[uid]
            if not adjacent_cores:
                continue
            # Figure 12 border rule (module docstring): the last seed
            # whose neighborhood contains the segment wins (line 07
            # overwrites unconditionally); with no adjacent seed, the
            # earliest-formed cluster's expansion claimed it first.
            first_claim = len(rank)
            last_seed = -1
            for neighbor in adjacent_cores:
                root = comp_of[neighbor]
                neighbor_rank = rank[root]
                if neighbor_rank < first_claim:
                    first_claim = neighbor_rank
                if comp_min[root] == neighbor and neighbor_rank > last_seed:
                    last_seed = neighbor_rank
            labels[position] = last_seed if last_seed >= 0 else first_claim
        return labels, len(rank)

    def __repr__(self) -> str:
        return (
            f"CoreGraphLabeler(n_cores={self.n_cores}, "
            f"n_components={self.n_components})"
        )


def apply_cardinality_filter(
    labels: np.ndarray,
    traj_ids: np.ndarray,
    n_clusters: int,
    threshold: float,
) -> np.ndarray:
    """Figure 12 Step 3 in place: drop clusters with ``|PTR(C)| <
    threshold`` and renumber survivors densely in formation order.
    ``traj_ids`` is aligned with *labels*; the (possibly rewritten)
    label array is returned for convenience."""
    if n_clusters == 0:
        return labels
    clustered = labels >= 0
    pairs = np.unique(
        np.stack([labels[clustered], traj_ids[clustered]]), axis=1
    )
    ptr = np.bincount(pairs[0], minlength=n_clusters)
    keep = ptr >= threshold
    dense = np.cumsum(keep) - 1
    labels[clustered] = np.where(
        keep[labels[clustered]], dense[labels[clustered]], NOISE
    )
    return labels
