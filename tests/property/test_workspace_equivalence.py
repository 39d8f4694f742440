"""Hypothesis property tests: Workspace artifacts == direct engine
calls, bitwise, on arbitrary corpora.

The Workspace is the one pipeline behind ``TRACLUS.fit`` and
``TRACLUS.sweep``: for *any* trajectory corpus, distance weighting and
grid point, its cached artifacts — characteristic points, labels,
entropy counts — are **bitwise identical** to calling the underlying
engines directly (:func:`partition_all`, :class:`LineSegmentDBSCAN`
over the brute-force ε-engine, :func:`neighborhood_size_counts`).  The
cache may only remove redundant work, never change a bit.  Zero
``w_perp``/``w_par`` weights are drawn too: there the graph build
falls back to evaluating all pairs.

Strategies mirror ``test_sweep_equivalence``: half-unit lattice
coordinates force exact distance ties, ε is drawn from realised edge
distances, and MinLns from realised cardinalities, so the ``<=`` / ``>=``
decision boundaries are exercised on every example that has edges.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.api.workspace import Workspace
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.cluster.neighbor_graph import neighborhood_size_counts
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.core.config import TraclusConfig
from repro.model.trajectory import Trajectory
from repro.partition.approximate import partition_all

coarse_coordinate = st.integers(min_value=-10, max_value=10).map(
    lambda v: v / 2.0
)


@st.composite
def corpora(draw):
    n_trajectories = draw(st.integers(min_value=1, max_value=5))
    trajectories = []
    for traj_id in range(n_trajectories):
        n_points = draw(st.integers(min_value=2, max_value=7))
        points = np.array(
            [
                [draw(coarse_coordinate), draw(coarse_coordinate)]
                for _ in range(n_points)
            ],
            dtype=np.float64,
        )
        weight = float(draw(st.integers(min_value=1, max_value=3)))
        trajectories.append(
            Trajectory(points, traj_id=traj_id, weight=weight)
        )
    return trajectories


@settings(max_examples=40, deadline=None)
@given(
    trajectories=corpora(),
    eps=st.integers(min_value=0, max_value=16).map(lambda v: v / 2.0),
    min_lns=st.integers(min_value=1, max_value=10).map(lambda v: v / 2.0),
    suppression=st.sampled_from([0.0, 1.0]),
    use_weights=st.booleans(),
    w_perp=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    w_par=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    w_theta=st.sampled_from([0.0, 1.0, 1.5]),
    directed=st.booleans(),
    edge_pick=st.integers(min_value=0, max_value=10**6),
    card_pick=st.integers(min_value=0, max_value=10**6),
)
def test_workspace_artifacts_equal_direct_engine_calls(
    trajectories, eps, min_lns, suppression, use_weights, w_perp, w_par,
    w_theta, directed, edge_pick, card_pick,
):
    assume(w_perp + w_par + w_theta > 0)
    config = TraclusConfig(
        suppression=suppression,
        use_weights=use_weights,
        w_perp=w_perp,
        w_par=w_par,
        w_theta=w_theta,
        directed=directed,
        compute_representatives=False,
    )
    workspace = Workspace(trajectories, config)

    # Characteristic points: bitwise equal to the engine front door.
    segments, expected_cps = partition_all(
        trajectories, suppression=suppression
    )
    assert workspace.characteristic_points() == expected_cps

    if len(segments) == 0:
        return

    # Entropy counts: identical ints to the streaming counting route.
    grid = np.array([0.0, eps, eps + 1.5])
    expected_counts = neighborhood_size_counts(
        segments, grid, config.distance()
    )
    assert np.array_equal(workspace.entropy_counts(grid), expected_counts)

    # Pull ε onto a realised edge distance and MinLns onto a realised
    # cardinality on some examples (the admission/promotion ties).
    graph = workspace.eps_graph(eps)
    off_diagonal = graph.data[graph.data > 0.0]
    if off_diagonal.size and edge_pick % 2:
        eps = float(off_diagonal[edge_pick % off_diagonal.size])
    if card_pick % 2:
        realised = float(expected_counts[1][card_pick % len(segments)])
        if realised > 0:
            min_lns = realised

    # Labels: bitwise equal to a direct Figure-12 fit over the oracle.
    _, expected_labels = LineSegmentDBSCAN(
        eps=eps,
        min_lns=min_lns,
        distance=config.distance(),
        use_weights=use_weights,
    ).fit(
        segments,
        engine=BruteForceNeighborhood(segments, eps, config.distance()),
    )
    assert np.array_equal(workspace.labels(eps, min_lns), expected_labels)
