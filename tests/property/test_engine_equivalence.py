"""Hypothesis property tests: both ε-neighborhood engines answer
Definition 4 identically.

The batched :class:`~repro.cluster.neighbor_graph.PrecomputedNeighborhood`
evaluates each grid-prefiltered unordered pair once and mirrors it;
these tests pin the claim that doing so is indistinguishable from the
brute-force oracle — on coarse coordinates (which land pair distances
*exactly on* the ε boundary), with duplicated and zero-length segments,
at ``eps = 0``, and under degenerate weightings where the geometric
prefilter is unsound and batch must fall back to exact all-pairs
evaluation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.neighbor_graph import PrecomputedNeighborhood
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet

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
