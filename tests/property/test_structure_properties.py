"""Hypothesis property tests for the substrates: grid candidates equal
to the endpoint pairs within the radius, embedding triangle
inequality, entropy bounds, rotation round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.extensions.embedding import ConstantShiftEmbedding
from repro.geometry.rotation import Rotation2D
from repro.index.grid import SegmentGrid
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.params.entropy import neighborhood_entropy

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def segment_store(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    segments = []
    for i in range(n):
        vals = [draw(coordinate) for _ in range(4)]
        segments.append(Segment(vals[0:2], vals[2:4], seg_id=i))
    return SegmentSet.from_segments(segments)


class TestGridSoundness:
    @given(segment_store(), st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_candidates_are_endpoint_pairs(self, store, radius):
        grid = SegmentGrid(store, radius)
        n = len(store)
        query_pos, candidate = grid.candidates_near_many(np.arange(n))
        ends = np.stack([store.starts, store.ends], axis=1)
        gaps = (ends[:, None, :, None] - ends[None, :, None, :]).reshape(-1, 2)
        near = np.einsum("ij,ij->i", gaps, gaps) <= radius * radius
        i, j = np.nonzero(near.reshape(n, n, 4).any(axis=2))
        assert np.array_equal(query_pos, i)
        assert np.array_equal(candidate, j)


class TestEmbeddingProperties:
    @given(st.integers(min_value=3, max_value=10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality_after_embedding(self, n, rand):
        rng = np.random.default_rng(rand.randint(0, 2**31))
        matrix = rng.uniform(0.1, 20.0, (n, n))
        matrix = (matrix + matrix.T) / 2.0
        np.fill_diagonal(matrix, 0.0)
        cse = ConstantShiftEmbedding()
        cse.fit_transform(matrix)
        embedded = cse.embedded_distance_matrix()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert (
                        embedded[i, k]
                        <= embedded[i, j] + embedded[j, k] + 1e-6
                    )


class TestEntropyProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50)
    )
    def test_bounds(self, sizes):
        h = neighborhood_entropy(np.asarray(sizes, dtype=float))
        assert -1e-12 <= h <= math.log2(len(sizes)) + 1e-9


class TestRotationProperties:
    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20),
    )
    def test_round_trip_and_isometry(self, phi, raw_points):
        rotation = Rotation2D(phi)
        points = np.asarray(raw_points, dtype=np.float64)
        rotated = rotation.forward(points)
        restored = rotation.inverse(rotated)
        assert np.allclose(points, restored, atol=1e-9)
        # Norms preserved.
        assert np.allclose(
            np.linalg.norm(points, axis=1), np.linalg.norm(rotated, axis=1),
            atol=1e-9,
        )
