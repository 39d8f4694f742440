"""Hypothesis property tests: both ε-neighborhood engines answer
Definition 4 identically.

The batched :class:`~repro.cluster.neighbor_graph.PrecomputedNeighborhood`
evaluates each grid-prefiltered unordered pair once and mirrors it;
these tests pin the claim that doing so is indistinguishable from the
brute-force oracle — on coarse coordinates (which land pair distances
*exactly on* the ε boundary), with duplicated and zero-length segments,
at ``eps = 0``, and under degenerate weightings where the geometric
prefilter is unsound and batch must fall back to exact all-pairs
evaluation.  :class:`TestCandidateRadiusBound` places pairs exactly
on the bound the candidate radius is proved from and sets ε to their
computed distance: the batch graph, the streaming counts and the
dynamic graph must all keep the edge, as the brute oracle does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.cluster.neighbor_graph import (
    PrecomputedNeighborhood,
    neighborhood_size_counts,
)
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.stream.dynamic_graph import DynamicNeighborGraph

# Half-unit lattice coordinates make exact eps-boundary collisions
# common — the regime where an engine computing a distance differently
# by even one ulp would disagree on membership.
coarse_coordinate = st.integers(min_value=-20, max_value=20).map(
    lambda v: v / 2.0
)
fine_coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def segment_store(draw, coordinate=coarse_coordinate):
    n = draw(st.integers(min_value=1, max_value=18))
    segments = []
    for i in range(n):
        if segments and draw(st.booleans()) and draw(st.booleans()):
            # Duplicate an earlier segment verbatim (repeated telemetry
            # fixes); ties must break identically in every engine.
            source = draw(st.integers(min_value=0, max_value=len(segments) - 1))
            start, end = segments[source].start, segments[source].end
        else:
            vals = [draw(coordinate) for _ in range(4)]
            start, end = vals[0:2], vals[2:4]
            if draw(st.booleans()) and draw(st.booleans()):
                end = start  # zero-length segment (a point)
        segments.append(Segment(start, end, seg_id=i, traj_id=i % 3))
    return SegmentSet.from_segments(segments)


eps_values = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=30).map(lambda v: v / 2.0),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


def assert_engines_agree(store, eps, distance):
    reference = BruteForceNeighborhood(store, eps, distance)
    batch = PrecomputedNeighborhood(store, eps, distance)
    expected_sizes = reference.neighborhood_sizes()
    assert np.array_equal(expected_sizes, batch.neighborhood_sizes())
    for i in range(len(store)):
        expected = reference.neighbors_of(i)
        assert i in expected  # Definition 4: dist(L, L) = 0
        assert expected.size == expected_sizes[i]
        assert np.array_equal(expected, batch.neighbors_of(i)), (
            f"batch disagrees with brute force at segment {i}, eps={eps}"
        )


class TestEngineEquivalence:
    @given(segment_store(), eps_values)
    @settings(max_examples=60, deadline=None)
    def test_all_engines_identical_on_coarse_lattice(self, store, eps):
        assert_engines_agree(store, eps, SegmentDistance())

    @given(segment_store(coordinate=fine_coordinate), eps_values)
    @settings(max_examples=40, deadline=None)
    def test_all_engines_identical_on_float_coordinates(self, store, eps):
        assert_engines_agree(store, eps, SegmentDistance())

    @given(
        segment_store(),
        eps_values,
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_and_undirected_distances(
        self, store, eps, w_perp, w_par, w_theta, directed
    ):
        distance = SegmentDistance(
            w_perp=w_perp, w_par=w_par, w_theta=w_theta, directed=directed
        )
        assert_engines_agree(store, eps, distance)

    def test_subnormal_gap_at_eps_zero(self):
        """Regression (hypothesis-found): a gap of ~2e-309 squares to
        exactly 0.0 in the kernel, so the pair is a neighbor at eps=0 —
        but the nominal candidate radius is 0, and an exact bbox
        prefilter pruned it before the radius floor was added."""
        store = SegmentSet(
            np.array([[0.0, 0.0], [0.0, -1.0]]),
            np.array([[0.0, 0.0], [0.0, -2.225073858507203e-309]]),
        )
        assert_engines_agree(store, 0.0, SegmentDistance())

    @given(segment_store(), eps_values, st.sampled_from(["perp", "par"]))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_weights_batch_matches_brute(self, store, eps, zeroed):
        """With a zero w_perp/w_par the prefilter bound is vacuous, and
        batch must degrade to exact all-pairs evaluation that still
        matches brute force."""
        distance = SegmentDistance(
            w_perp=0.0 if zeroed == "perp" else 1.0,
            w_par=0.0 if zeroed == "par" else 1.0,
            w_theta=1.0,
        )
        assert_engines_agree(store, eps, distance)


class TestMemberRows:
    """The oracle's rows are pair-kernel rows: ``member_to_all(i)`` is
    bitwise the mirrored batch over every pair ``i < j`` (the order the
    ε-graph evaluates them in), and bitwise the same on every backend."""

    @given(segment_store(coordinate=st.one_of(
        coarse_coordinate, fine_coordinate
    )), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_member_rows_equal_pair_rows(self, pair_backend, store, directed):
        distance = SegmentDistance(w_theta=0.5, directed=directed)
        n = len(store)
        left, right = np.triu_indices(n, 1)

        def member_rows():
            return np.vstack([distance.member_to_all(i, store) for i in range(n)])

        with kernels.use_backend(pair_backend):
            rows = member_rows()
            upper = distance.pairs(store, left, right)
        with kernels.use_backend("numpy"):
            numpy_rows = member_rows()
        mirrored = np.zeros((n, n))
        mirrored[left, right] = upper
        mirrored[right, left] = upper
        assert np.array_equal(rows.view(np.uint64), mirrored.view(np.uint64))
        assert np.array_equal(rows.view(np.uint64), numpy_rows.view(np.uint64))


#: ``t = √2 − 1`` minimises ``(1 + t²) / (1 + t)`` on ``[0, 1]``: two
#: perpendicular offsets ``h`` and ``t·h`` give ``d_perp = c·h``, the
#: least perpendicular distance an endpoint at offset ``h`` allows.
LEHMER_RATIO = np.sqrt(2.0) - 1.0


@st.composite
def pair_on_the_bound(draw):
    """``(store, eps, distance)``: segment 0 (Li) and segment 1 (Lj)
    placed so that Lj's nearest endpoint is as far from Li's endpoints
    as the candidate radius allows, ε set to their computed distance,
    plus distractor segments so the endpoint grid has cells to probe.
    The layout is rotated, scaled by 1e-3 .. 1e3 and translated by up
    to 1e9."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(
        ["perpendicular", "parallel", "points", "point-segment"]
    ))
    distance = SegmentDistance(
        w_perp=draw(st.floats(min_value=0.05, max_value=20.0)),
        w_par=draw(st.floats(min_value=0.05, max_value=20.0)),
        w_theta=draw(st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=20.0)
        )),
        directed=draw(st.booleans()),
    )
    h = draw(st.floats(min_value=0.1, max_value=2.0))
    along = draw(st.floats(min_value=0.1, max_value=4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    li = np.zeros((2, dim))
    li[1, 0] = 10.0
    lj = np.zeros((2, dim))
    if kind == "perpendicular":
        # Lj's near end sits at offset h right above Li's start.
        lj[0, 1] = h
        lj[1, 0], lj[1, 1] = along, LEHMER_RATIO * h
    elif kind == "parallel":
        # Collinear, ending ``along`` short of Li's start.
        lj[0, 0], lj[1, 0] = -along - h, -along
    elif kind == "points":
        li[1] = li[0]
        lj[0, 1] = lj[1, 1] = h
    else:
        lj[0, 1] = lj[1, 1] = h
    if draw(st.booleans()):
        lj = lj[::-1]
    fillers = rng.uniform(-3.0, 13.0, (draw(st.integers(0, 30)), 2, dim))
    local = np.concatenate([li[None], lj[None], fillers])
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scale = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    shift = np.array([
        draw(st.floats(min_value=-1e9, max_value=1e9)) for _ in range(dim)
    ])
    placed = local @ rotation.T * scale + shift
    store = SegmentSet(placed[:, 0].copy(), placed[:, 1].copy())
    eps = float(distance.member_to_all(0, store)[1])
    return store, eps, distance


class TestCandidateRadiusBound:
    @given(pair_on_the_bound())
    @settings(max_examples=300, deadline=None)
    def test_every_engine_keeps_the_pair_on_the_bound(self, case):
        store, eps, distance = case
        reference = BruteForceNeighborhood(store, eps, distance)
        assert 1 in reference.neighbors_of(0)
        assert_engines_agree(store, eps, distance)
        assert np.array_equal(
            neighborhood_size_counts(store, [eps], distance)[0],
            reference.neighborhood_sizes(),
        )
        online = DynamicNeighborGraph(eps, distance, dim=store.dim)
        online.insert_batch(store.starts, store.ends, store.traj_ids)
        for i in range(len(store)):
            assert np.array_equal(
                online.neighbors_of(i), reference.neighbors_of(i)
            )
