"""Hypothesis property tests: streaming == batch, always.

Two claims are pinned:

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
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.distance.weighted import SegmentDistance
from repro.partition.approximate import approximate_partition
from repro.partition.incremental import IncrementalPartitioner
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
