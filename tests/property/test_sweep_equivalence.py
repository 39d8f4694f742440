"""Hypothesis property tests: sweep-engine labels == fresh fits, always.

The claim pinned here is the sweep engine's contract: for *any* segment
set and *any* (ε, MinLns) grid point, the labels the incremental-ε
walker derives from the shared ε_max graph equal a fresh batch
:class:`~repro.cluster.dbscan.LineSegmentDBSCAN` fit at those
parameters — not up to relabeling but *identically*.

The strategies deliberately live on the decision boundaries:

* lattice coordinates make many pair distances collide exactly, and one
  grid ε is drawn from the *realised* edge distances, so admission at
  ``dist == eps`` ties is exercised on every example that has edges;
* one MinLns is drawn from the realised ε-cardinalities, so promotion
  at ``|N_eps| == MinLns`` (``>=`` in Figure 12 line 06) is exercised;
* duplicated segments, zero-length segments, ε = 0, and MinLns <= 1
  (isolated segments become core) all fall out of the generators;
* weighted corpora draw weights from {0.25, 0.5, 1, 2} and MinLns from
  multiples of 0.25 and from realised weighted sums, so sums land
  exactly on MinLns, and most of them hold a crowd that gives some row
  8 or more neighbours — the length from which ``np.sum`` stops adding
  left to right.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighbor_graph import neighborhood_size_counts
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.sweep import SweepEngine

# Half-unit lattice coordinates land pair distances exactly on grid ε
# values — the regime where an asymmetric admission predicate between
# the sweep walker and the batch engines would flip a membership.
coarse_coordinate = st.integers(min_value=-12, max_value=12).map(
    lambda v: v / 2.0
)


@st.composite
def segment_sets(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    segments = []
    pool = []
    for i in range(n):
        if pool and draw(st.booleans()) and draw(st.booleans()):
            start, end = draw(st.sampled_from(pool))  # exact duplicate
        else:
            vals = [draw(coarse_coordinate) for _ in range(4)]
            start, end = vals[0:2], vals[2:4]
            if draw(st.booleans()) and draw(st.booleans()):
                end = start  # zero-length segment
        pool.append((start, end))
        segments.append(
            Segment(
                np.asarray(start, dtype=np.float64),
                np.asarray(end, dtype=np.float64),
                traj_id=draw(st.integers(min_value=0, max_value=4)),
                seg_id=i,
            )
        )
    return SegmentSet.from_segments(segments)


def sorted_edge_distances(graph):
    """The realised distance of every unordered edge of *graph* (its
    stored upper triangle), ascending."""
    rows = np.repeat(np.arange(graph.n_segments), np.diff(graph.indptr))
    return np.sort(graph.data[graph.indices > rows])


eps_grids = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(min_value=0, max_value=20).map(lambda v: v / 2.0),
    ),
    min_size=1,
    max_size=4,
)

min_lns_grids = st.lists(
    st.one_of(
        st.just(1.0),
        st.integers(min_value=1, max_value=12).map(lambda v: v / 2.0),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    segments=segment_sets(),
    eps_values=eps_grids,
    min_lns_values=min_lns_grids,
    edge_pick=st.integers(min_value=0, max_value=10**6),
    card_pick=st.integers(min_value=0, max_value=10**6),
    threshold=st.one_of(st.none(), st.integers(0, 4).map(float)),
)
def test_sweep_labels_equal_fresh_fit_at_every_grid_point(
    segments, eps_values, min_lns_values, edge_pick, card_pick, threshold
):
    probe = SweepEngine(segments, [max(eps_values)])
    # Grow the grid with a realised edge distance (ε exactly at a tie)
    # and a realised cardinality (MinLns exactly at the >= boundary).
    if probe.n_edges:
        eps_values = eps_values + [float(
            sorted_edge_distances(probe.graph)[edge_pick % probe.n_edges]
        )]
    counts = SweepEngine(segments, [max(eps_values)]).neighborhood_counts()
    min_lns_values = min_lns_values + [
        float(counts[0][card_pick % counts.shape[1]])
    ]
    min_lns_values = [m for m in min_lns_values if m > 0] or [1.0]

    engine = SweepEngine(segments, eps_values)
    grid = engine.labels_grid(
        min_lns_values, cardinality_threshold=threshold
    )
    for i, eps in enumerate(eps_values):
        for j, min_lns in enumerate(min_lns_values):
            _, expected = LineSegmentDBSCAN(
                eps=eps, min_lns=min_lns, cardinality_threshold=threshold
            ).fit(segments)
            assert np.array_equal(grid[i, j], expected), (
                f"labels diverge at eps={eps!r}, min_lns={min_lns!r}, "
                f"threshold={threshold!r}"
            )


weight_values = st.sampled_from([0.25, 0.5, 1.0, 2.0])

quarter_min_lns_grids = st.lists(
    st.integers(min_value=1, max_value=48).map(lambda v: v / 4.0),
    min_size=1,
    max_size=3,
)


@st.composite
def weighted_segment_sets(draw):
    """:func:`segment_sets` plus, in most examples, a crowd of 8-12
    segments within half a lattice step of one anchor, shuffled into
    the id order, with lattice weights."""
    base = draw(segment_sets())
    starts, ends = base.starts.tolist(), base.ends.tolist()
    traj_ids = base.traj_ids.tolist()
    if draw(st.integers(min_value=0, max_value=3)):
        anchor = [draw(coarse_coordinate) for _ in range(4)]
        for _ in range(draw(st.integers(min_value=8, max_value=12))):
            moved = [
                v + draw(st.integers(min_value=-1, max_value=1)) / 2.0
                for v in anchor
            ]
            starts.append(moved[0:2])
            ends.append(moved[2:4])
            traj_ids.append(draw(st.integers(min_value=0, max_value=4)))
    order = draw(st.permutations(range(len(starts))))
    weights = draw(
        st.lists(weight_values, min_size=len(order), max_size=len(order))
    )
    return SegmentSet(
        np.asarray(starts, dtype=np.float64)[order],
        np.asarray(ends, dtype=np.float64)[order],
        np.asarray(traj_ids, dtype=np.int64)[order],
        np.asarray(weights, dtype=np.float64),
    )


@settings(max_examples=40, deadline=None)
@given(
    segments=weighted_segment_sets(),
    eps_values=eps_grids,
    crowd_eps=st.integers(min_value=4, max_value=20).map(lambda v: v / 2.0),
    min_lns_values=quarter_min_lns_grids,
    edge_pick=st.integers(min_value=0, max_value=10**6),
    card_pick=st.integers(min_value=0, max_value=10**6),
    threshold=st.one_of(st.none(), st.integers(0, 4).map(float)),
)
def test_weighted_sweep_labels_equal_fresh_fit(
    segments, eps_values, crowd_eps, min_lns_values, edge_pick, card_pick,
    threshold,
):
    # Weighted cardinalities are float sums, the regime where only an
    # identical summation tree stays on the right side of MinLns.  An ε
    # of 2 or more admits a whole crowd.
    eps_values = eps_values + [crowd_eps]
    probe = SweepEngine(segments, [max(eps_values)])
    if probe.n_edges:
        eps_values = eps_values + [float(
            sorted_edge_distances(probe.graph)[edge_pick % probe.n_edges]
        )]
    # MinLns exactly at one row's realised weighted sum at one grid ε.
    graph = probe.graph
    row = card_pick % len(segments)
    lo, hi = graph.indptr[row], graph.indptr[row + 1]
    admitted = graph.data[lo:hi] <= eps_values[card_pick % len(eps_values)]
    min_lns_values = min_lns_values + [
        float(np.sum(segments.weights[graph.indices[lo:hi][admitted]]))
    ]

    engine = SweepEngine(segments, eps_values)
    grid = engine.labels_grid(
        min_lns_values, cardinality_threshold=threshold, use_weights=True
    )
    for i, eps in enumerate(eps_values):
        for j, min_lns in enumerate(min_lns_values):
            _, expected = LineSegmentDBSCAN(
                eps=eps, min_lns=min_lns, cardinality_threshold=threshold,
                use_weights=True,
            ).fit(segments, engine=BruteForceNeighborhood(segments, eps))
            assert np.array_equal(grid[i, j], expected), (
                f"labels diverge at eps={eps!r}, min_lns={min_lns!r}, "
                f"threshold={threshold!r}"
            )


@settings(max_examples=60, deadline=None)
@given(
    segments=segment_sets(),
    eps_values=eps_grids,
    edge_pick=st.integers(min_value=0, max_value=10**6),
)
def test_grouped_edges_admit_exactly_the_pairs_within_each_eps(
    segments, eps_values, edge_pick
):
    """The engine's edges, grouped by the first ε step that admits
    them, hold at every step's prefix exactly the unordered pairs at
    distance <= ε there, each once; the counts read off that grouping
    equal the streaming route's."""
    n = len(segments)
    left, right = np.triu_indices(n, 1)
    distances = SegmentDistance().pairs(segments, left, right)
    realised = np.sort(distances[distances <= max(eps_values)])
    if realised.size:
        # ε exactly at a realised distance, and ε just below every
        # edge (0.0 when some pair is at distance 0).
        eps_values = eps_values + [
            float(realised[edge_pick % realised.size]),
            float(np.nextafter(realised[0], 0.0)),
        ]
    engine = SweepEngine(segments, eps_values)
    admitted_u, admitted_v = engine._edge_u, engine._edge_v
    assert np.all(admitted_u < admitted_v)
    for eps, cut in zip(engine._unique_eps.tolist(), engine._cuts.tolist()):
        admitted = list(zip(admitted_u[:cut].tolist(),
                            admitted_v[:cut].tolist()))
        within = distances <= eps
        expected = set(zip(left[within].tolist(), right[within].tolist()))
        assert len(admitted) == len(set(admitted))
        assert set(admitted) == expected, f"eps={eps!r}"
    assert np.array_equal(
        engine.neighborhood_counts(),
        neighborhood_size_counts(segments, eps_values),
    )
