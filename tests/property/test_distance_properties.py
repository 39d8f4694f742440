"""Hypothesis property tests for the distance function."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance.components import (
    component_distances,
    lehmer_mean_order2,
)
from repro.distance.vectorized import component_distances_pairs
from repro.distance.weighted import SegmentDistance
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet

coordinate = st.floats(
    min_value=-1000.0, max_value=1000.0,
    allow_nan=False, allow_infinity=False,
)


# Integers / 1024 within ±1000: sums of two stay exact, so every
# translated endpoint and displacement vector is exact.  A float draw
# can give a segment ~1e-59 long, which a unit translation collapses
# to a point.
dyadic_coordinate = st.integers(min_value=-1024000, max_value=1024000).map(
    lambda v: v / 1024.0
)


@st.composite
def segment_pair(draw, coordinate=coordinate):
    values = [draw(coordinate) for _ in range(8)]
    a = Segment(values[0:2], values[2:4], seg_id=0)
    b = Segment(values[4:6], values[6:8], seg_id=1)
    return a, b


@st.composite
def segment_store(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    segments = []
    for i in range(n):
        vals = [draw(coordinate) for _ in range(4)]
        segments.append(Segment(vals[0:2], vals[2:4], seg_id=i, traj_id=i % 3))
    return SegmentSet.from_segments(segments)


class TestLehmerProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_between_max_over_two_and_max(self, a, b):
        value = lehmer_mean_order2(a, b)
        biggest = max(a, b)
        assert biggest / 2.0 - 1e-9 <= value <= biggest + 1e-9

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_idempotent_on_equal_inputs(self, a):
        assert lehmer_mean_order2(a, a) == pytest.approx(a)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_symmetric(self, a, b):
        assert lehmer_mean_order2(a, b) == pytest.approx(lehmer_mean_order2(b, a))


class TestDistanceProperties:
    @given(segment_pair())
    @settings(max_examples=150)
    def test_symmetry(self, pair):
        a, b = pair
        forward = component_distances(a, b)
        backward = component_distances(b, a)
        assert forward.perpendicular == pytest.approx(
            backward.perpendicular, abs=1e-9
        )
        assert forward.parallel == pytest.approx(backward.parallel, abs=1e-9)
        assert forward.angle == pytest.approx(backward.angle, abs=1e-9)

    @given(segment_pair())
    @settings(max_examples=150)
    def test_non_negative(self, pair):
        a, b = pair
        comps = component_distances(a, b)
        assert comps.perpendicular >= 0.0
        assert comps.parallel >= 0.0
        assert comps.angle >= 0.0

    @given(segment_pair())
    @settings(max_examples=100)
    def test_angle_bounded_by_shorter_length(self, pair):
        a, b = pair
        shorter = min(a.length, b.length)
        comps = component_distances(a, b)
        assert comps.angle <= shorter + 1e-6

    @given(
        segment_pair(dyadic_coordinate), dyadic_coordinate, dyadic_coordinate
    )
    @settings(max_examples=100)
    def test_translation_invariance(self, pair, dx, dy):
        a, b = pair
        offset = np.array([dx, dy])
        a2 = Segment(a.start + offset, a.end + offset, seg_id=0)
        b2 = Segment(b.start + offset, b.end + offset, seg_id=1)
        original = component_distances(a, b)
        moved = component_distances(a2, b2)
        scale = max(1.0, abs(dx), abs(dy))
        assert original.perpendicular == pytest.approx(
            moved.perpendicular, abs=1e-6 * scale
        )
        assert original.parallel == pytest.approx(moved.parallel, abs=1e-6 * scale)
        assert original.angle == pytest.approx(moved.angle, abs=1e-6 * scale)

    @given(segment_pair())
    @settings(max_examples=100)
    def test_undirected_at_most_directed(self, pair):
        a, b = pair
        directed = component_distances(a, b, directed=True)
        undirected = component_distances(a, b, directed=False)
        assert undirected.angle <= directed.angle + 1e-9


class TestVectorizedAgreement:
    @given(segment_store())
    @settings(max_examples=60, deadline=None)
    def test_scalar_equals_vectorized(self, store):
        n = len(store)
        for qi in range(n):
            query = store.segment(qi)
            comps = component_distances_pairs(
                store, np.full(n, qi), np.arange(n)
            )
            for j in range(n):
                expected = component_distances(query, store.segment(j))
                scale = max(1.0, query.length, store.lengths[j],
                            float(np.abs(store.starts).max()))
                assert comps.perpendicular[j] == pytest.approx(
                    expected.perpendicular, abs=1e-7 * scale
                )
                assert comps.parallel[j] == pytest.approx(
                    expected.parallel, abs=1e-7 * scale
                )
                assert comps.angle[j] == pytest.approx(
                    expected.angle, abs=1e-7 * scale
                )

    @given(segment_store())
    @settings(max_examples=40, deadline=None)
    def test_member_rows_symmetric(self, store):
        d = SegmentDistance()
        n = len(store)
        matrix = np.vstack([d.member_to_all(i, store) for i in range(n)])
        assert np.allclose(matrix, matrix.T, atol=1e-7)
