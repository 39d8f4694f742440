"""Hypothesis property tests: streaming == batch, always.

Three claims are pinned:

1. **Partitioning** — feeding a trajectory's points through
   :class:`IncrementalPartitioner` in arbitrary chunks yields exactly
   the batch Figure 8 characteristic points.
2. **Clustering** — after *any* interleaving of segment inserts and
   evictions (driven through :class:`OnlineDBSCAN` with duplicated
   segments, point segments, weighted cardinalities, and eps = 0), the
   online labels equal a fresh batch
   :class:`~repro.cluster.dbscan.LineSegmentDBSCAN` refit on the
   surviving segments — not merely up to a label permutation but
   *identically*, because the online derivation reproduces the batch
   scan's formation order (see the :mod:`repro.stream.online_dbscan`
   docstring for the argument).
3. **Local repair** — the label upkeep that proves "no split" from the
   removed cores' neighbours and touches only contested borders on a
   formation-key move emits the same diffs (all but their ``touched``
   counts), tokens and checkpoint arrays as one that reclusters every
   component that lost a core and touches every watcher.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.distance.weighted import SegmentDistance
from repro.partition.approximate import approximate_partition
from repro.partition.incremental import IncrementalPartitioner
from repro.stream.checkpoint import encode_clusterer
from repro.stream.online_dbscan import OnlineDBSCAN

# Half-unit lattice coordinates land pair distances exactly on the ε
# boundary — the regime where any asymmetry between the online and
# batch pipelines would flip a membership.
coarse_coordinate = st.integers(min_value=-16, max_value=16).map(
    lambda v: v / 2.0
)

eps_values = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=24).map(lambda v: v / 2.0),
)


#: Trajectory weights whose sums are exact, and uneven ones whose
#: ``np.sum`` rounds: 8 or more terms are summed pairwise, so a row sum
#: can round down when the row grows and up when it shrinks.
EXACT_WEIGHTS = (1.0, 1.0, 2.0, 0.5)
UNEVEN_WEIGHTS = (1.0, 2.0, 0.5, 0.1, 0.3, 1e-17)


@st.composite
def operation_sequences(draw, weights=EXACT_WEIGHTS, max_ops=24):
    """Interleaved insert/evict operations over lattice segments."""
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    operations = []
    n_inserted = 0
    segments = []
    for _ in range(n_ops):
        live = n_inserted - sum(1 for op in operations if op[0] == "evict")
        if live > 0 and draw(st.booleans()) and draw(st.booleans()):
            # Evict a uniformly chosen live slot (resolved at replay).
            operations.append(("evict", draw(st.integers(0, live - 1))))
        else:
            if segments and draw(st.booleans()) and draw(st.booleans()):
                start, end = draw(st.sampled_from(segments))
            else:
                vals = [draw(coarse_coordinate) for _ in range(4)]
                start, end = tuple(vals[0:2]), tuple(vals[2:4])
                if draw(st.booleans()) and draw(st.booleans()):
                    end = start  # zero-length segment
            segments.append((start, end))
            traj_id = draw(st.integers(min_value=0, max_value=3))
            weight = draw(st.sampled_from(weights))
            operations.append(("insert", (start, end, traj_id, weight)))
            n_inserted += 1
    return operations


@st.composite
def lane_sequences(draw):
    """40-120 inserts and evictions of unit segments along three lanes
    half a unit apart: at ε near 1 the cores form chains that split
    when a link leaves, and borders sit between two chains.  A key move
    flips such a border only in feeds of dozens of operations."""
    operations = []
    live = 0
    for _ in range(draw(st.integers(min_value=40, max_value=120))):
        if live and draw(st.integers(min_value=0, max_value=3)) == 0:
            operations.append(("evict", draw(st.integers(0, live - 1))))
            live -= 1
            continue
        x = float(draw(st.integers(min_value=0, max_value=24)))
        y = draw(st.sampled_from([0.0, 0.5, 1.0]))
        traj_id = draw(st.integers(min_value=0, max_value=3))
        weight = draw(st.sampled_from(UNEVEN_WEIGHTS))
        operations.append(("insert", ((x, y), (x + 1.0, y), traj_id, weight)))
        live += 1
    return operations


def replay(operations, clusterer, observe=None):
    """Apply an operation sequence, resolving evict ranks to slots;
    ``observe(clusterer, live_slots)`` runs after every operation."""
    live = []
    for kind, payload in operations:
        if kind == "insert":
            start, end, traj_id, weight = payload
            slot = clusterer.insert(
                np.asarray(start, dtype=np.float64),
                np.asarray(end, dtype=np.float64),
                traj_id,
                weight=weight,
            )
            live.append(slot)
        else:
            slot = live.pop(payload % len(live))
            clusterer.evict(slot)
        if observe is not None:
            observe(clusterer, live)


def assert_online_matches_batch(clusterer):
    segments, slots = clusterer.store.compact()
    batch = LineSegmentDBSCAN(
        eps=clusterer.eps,
        min_lns=clusterer.min_lns,
        distance=clusterer.distance,
        cardinality_threshold=clusterer.cardinality_threshold,
        use_weights=clusterer.use_weights,
    )
    _, expected = batch.fit(segments)
    online_slots, labels = clusterer.labels()
    assert np.array_equal(online_slots, slots)
    assert np.array_equal(labels, expected), (
        f"online {labels.tolist()} != batch {expected.tolist()} "
        f"on slots {slots.tolist()}"
    )


class TestStreamEquivalence:
    @given(
        operation_sequences(),
        eps_values,
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_insert_evict_sequence_matches_batch_refit(
        self, operations, eps, min_lns
    ):
        clusterer = OnlineDBSCAN(eps=eps, min_lns=min_lns)
        replay(operations, clusterer)
        assert_online_matches_batch(clusterer)

    @given(
        # Longer sequences: a row rounds only once it has 8 terms.
        operation_sequences(weights=UNEVEN_WEIGHTS, max_ops=48),
        eps_values,
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_cardinality_matches_batch_refit(
        self, operations, eps, data
    ):
        # Cardinalities do not depend on MinLns, so a first replay
        # records every row sum the second one will see; MinLns is
        # sometimes one of them, which puts a core test on its boundary.
        sums = set()
        replay(
            operations,
            OnlineDBSCAN(eps=eps, min_lns=1.0, use_weights=True),
            observe=lambda clusterer, live: sums.update(
                clusterer.cardinality(slot) for slot in live
            ),
        )
        drawn = st.floats(min_value=0.5, max_value=6.0, allow_nan=False)
        if sums:
            drawn = st.one_of(drawn, st.sampled_from(sorted(sums)))
        min_lns = data.draw(drawn)
        clusterer = OnlineDBSCAN(eps=eps, min_lns=min_lns, use_weights=True)
        replay(operations, clusterer)
        assert_online_matches_batch(clusterer)

    @given(
        operation_sequences(),
        eps_values,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_cardinality_threshold_matches_batch_refit(
        self, operations, eps, min_lns, threshold
    ):
        clusterer = OnlineDBSCAN(
            eps=eps, min_lns=min_lns, cardinality_threshold=threshold
        )
        replay(operations, clusterer)
        assert_online_matches_batch(clusterer)

    @given(operation_sequences(), eps_values)
    @settings(max_examples=30, deadline=None)
    def test_matches_batch_at_every_intermediate_state(self, operations, eps):
        """Not only the final state: every prefix of the sequence
        agrees with a batch refit (catches transiently wrong merges or
        splits that later operations would mask)."""
        clusterer = OnlineDBSCAN(eps=eps, min_lns=3)
        live = []
        for kind, payload in operations:
            if kind == "insert":
                start, end, traj_id, weight = payload
                live.append(
                    clusterer.insert(
                        np.asarray(start, dtype=np.float64),
                        np.asarray(end, dtype=np.float64),
                        traj_id,
                        weight=weight,
                    )
                )
            else:
                clusterer.evict(live.pop(payload % len(live)))
            assert_online_matches_batch(clusterer)

    @given(operation_sequences())
    @settings(max_examples=25, deadline=None)
    def test_undirected_distance_matches_batch_refit(self, operations):
        distance = SegmentDistance(directed=False)
        clusterer = OnlineDBSCAN(eps=3.0, min_lns=2, distance=distance)
        replay(operations, clusterer)
        assert_online_matches_batch(clusterer)


def replay_in_chunks(operations, chunk_sizes, clusterer):
    """Apply an operation sequence with its inserts fed through
    :meth:`OnlineDBSCAN.insert_batch` in chunks of *chunk_sizes*
    (cycled; an evict or the end cuts a chunk short), checking the batch
    refit after every chunk and every evict."""
    live = []
    pending = []
    sizes = itertools.cycle(chunk_sizes)
    size = next(sizes)

    def flush():
        live.extend(
            clusterer.insert_batch(
                np.array([row[0] for row in pending], dtype=np.float64),
                np.array([row[1] for row in pending], dtype=np.float64),
                np.array([row[2] for row in pending], dtype=np.int64),
                np.array([row[3] for row in pending], dtype=np.float64),
            )
        )
        pending.clear()
        assert_online_matches_batch(clusterer)

    for kind, payload in operations:
        if kind == "insert":
            pending.append(payload)
            if len(pending) == size:
                flush()
                size = next(sizes)
        else:
            if pending:
                flush()
            clusterer.evict(live.pop(payload % len(live)))
            assert_online_matches_batch(clusterer)
    if pending:
        flush()


#: Clusterer settings the chunked property runs under: count and
#: weighted cardinality, a zero w_perp (no grid) and undirected.
BATCH_VARIANTS = {
    "count": {},
    "weighted": {"use_weights": True},
    "w_perp=0": {"distance": SegmentDistance(w_perp=0.0)},
    "undirected": {"distance": SegmentDistance(directed=False)},
}


class TestBatchedInsertEquivalence:
    @given(
        operation_sequences(),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
        eps_values,
        st.integers(min_value=1, max_value=4),
        st.sampled_from(sorted(BATCH_VARIANTS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_inserts_match_batch_refit_after_every_step(
        self, operations, chunk_sizes, eps, min_lns, variant
    ):
        clusterer = OnlineDBSCAN(
            eps=eps, min_lns=min_lns, **BATCH_VARIANTS[variant]
        )
        replay_in_chunks(operations, chunk_sizes, clusterer)


class FullRecluster(OnlineDBSCAN):
    """The reference upkeep: every component that lost cores is
    reclustered from its members in ascending seed order, and a
    formation-key move touches every border watching the component."""

    __slots__ = ()

    def _repair(self, removals):
        for root in removals:
            members = self._comp_members[root]
            if not members:
                del self._comp_members[root]
                del self._comp_min[root]
                self._release_watchers(root)
                self._retire(root)
                continue
            remaining = set(members)
            parts = []
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
                self._touched_tokens.add(root)
                if min(members) != self._comp_min[root]:
                    self._set_min(root, min(members))
                continue
            del self._comp_members[root]
            del self._comp_min[root]
            minted = tuple(self._new_component(part) for part in parts)
            for part in parts:
                self._touched.update(part)
            self._release_watchers(root)
            if self._retire(root):
                self._splits.append((root, minted))

    def _set_min(self, token, minimum):
        self._comp_min[token] = minimum
        self._touched.update(self._watchers.get(token, ()))


def diff_fields(diff):
    """Every :class:`LabelDiff` field but ``touched``."""
    return (
        diff.changed, diff.merges, diff.splits, diff.shown, diff.hidden,
        diff.minima, diff.retired,
    )


def assert_label_state(clusterer):
    """The components are the connected components of the core
    subgraph, keyed by their smallest core, and the contested index
    holds exactly the borders that watch two or more of them."""
    adjacent = clusterer.graph.adjacent
    live = clusterer.store.alive_slots().tolist()
    cores = {
        v for v in live
        if clusterer._cardinality(v) >= clusterer.min_lns
    }
    assert cores == clusterer._core
    components = set()
    seen = set()
    for seed in sorted(cores):
        if seed in seen:
            continue
        seen.add(seed)
        part, stack = {seed}, [seed]
        while stack:
            for w in adjacent(stack.pop()):
                if w in cores and w not in seen:
                    seen.add(w)
                    part.add(w)
                    stack.append(w)
        components.add(frozenset(part))
    members = clusterer._comp_members
    assert components == {frozenset(m) for m in members.values()}
    for token, cores_of in members.items():
        assert clusterer._comp_min[token] == min(cores_of)
        assert all(clusterer._comp_of[u] == token for u in cores_of)
    contested = {}
    for v in live:
        if v in cores:
            continue
        roots = {
            clusterer._comp_of[w] for w in adjacent(v) if w in cores
        }
        if len(roots) >= 2:
            for token in roots:
                contested.setdefault(token, set()).add(v)
    assert clusterer._contested == contested


def assert_local_repair_matches(
    operations, eps, min_lns, window, compact_every, use_weights
):
    """Replay *operations* through :class:`OnlineDBSCAN` and
    :class:`FullRecluster`: inserts, evictions of a random slot and of
    the oldest once *window* overflows (several removals in one
    update), and slot compaction every *compact_every* updates, each
    update flushed and compared."""
    local, full = (
        cls(eps=eps, min_lns=min_lns, use_weights=use_weights)
        for cls in (OnlineDBSCAN, FullRecluster)
    )
    live = []
    for step, (kind, payload) in enumerate(operations, 1):
        if kind == "insert":
            start, end, traj_id, weight = payload
            for clusterer in (local, full):
                slot = clusterer.insert(
                    np.asarray(start, dtype=np.float64),
                    np.asarray(end, dtype=np.float64),
                    traj_id,
                    weight=weight,
                )
            live.append(slot)
            while window is not None and len(live) > window:
                oldest = live.pop(0)
                local.evict(oldest)
                full.evict(oldest)
        elif live:
            slot = live.pop(payload % len(live))
            local.evict(slot)
            full.evict(slot)
        got, expected = local.flush_diff(), full.flush_diff()
        assert diff_fields(got) == diff_fields(expected)
        assert got.touched <= expected.touched
        assert local._comp_of == full._comp_of
        assert local._comp_min == full._comp_min
        assert local._assign == full._assign
        assert_label_state(local)
        if compact_every and step % compact_every == 0:
            remap = local.compact_slots()
            assert np.array_equal(full.compact_slots(), remap)
            live = [int(remap[slot]) for slot in live]
            assert_label_state(local)
    (arrays, next_token), (reference, reference_next) = (
        encode_clusterer(local), encode_clusterer(full)
    )
    assert next_token == reference_next
    assert sorted(arrays) == sorted(reference)
    for name, array in arrays.items():
        assert array.dtype == reference[name].dtype, name
        assert array.tobytes() == reference[name].tobytes(), name
    assert_online_matches_batch(local)


class TestLocalRepairEquivalence:
    @given(
        operation_sequences(weights=UNEVEN_WEIGHTS, max_ops=40),
        eps_values,
        st.integers(min_value=1, max_value=4),
        st.sampled_from([None, 3, 6]),
        st.sampled_from([None, 4]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_segments(
        self, operations, eps, min_lns, window, compact_every, use_weights
    ):
        assert_local_repair_matches(
            operations, eps, min_lns, window, compact_every, use_weights
        )

    @given(
        lane_sequences(),
        st.sampled_from([1.0, 1.5]),
        st.integers(min_value=4, max_value=6),
        st.sampled_from([None, 25, 40]),
        st.sampled_from([None, 5]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lane_chains(
        self, operations, eps, min_lns, window, compact_every, use_weights
    ):
        """Chains that split and borders between two of them, under a
        window that evicts their seeds: the regime where the proof and
        the contested index decide."""
        assert_local_repair_matches(
            operations, eps, min_lns, window, compact_every, use_weights
        )


class TestIncrementalPartitionEquivalence:
    @given(
        st.lists(
            st.tuples(coarse_coordinate, coarse_coordinate),
            min_size=2,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0.0, 0.0, 1.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_appends_match_batch_partition(
        self, points, chunk, suppression
    ):
        points = np.asarray(points, dtype=np.float64)
        partitioner = IncrementalPartitioner(suppression=suppression)
        for at in range(0, len(points), chunk):
            partitioner.append(points[at:at + chunk])
        assert partitioner.characteristic_points() == approximate_partition(
            points, suppression=suppression
        )
