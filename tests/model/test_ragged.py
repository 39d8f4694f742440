"""Unit tests for the flat-index helpers of :mod:`repro.model.ragged`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TrajectoryError
from repro.model.ragged import sorted_unique, upper_triangle_blocks

INT64 = np.iinfo(np.int64)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [3, 3, 3, 3],
            [-5, 2, -5, 0, -1, 2, -9],
            [INT64.max, INT64.min, 0, INT64.max, -1, INT64.min, 1],
        ],
        ids=["empty", "single", "all-duplicate", "negative", "int64-extremes"],
    )
    def test_equals_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = sorted_unique(keys)
        expected = np.unique(keys)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_random_keys_with_many_duplicates(self):
        keys = np.random.default_rng(3).integers(-500, 500, 20_000)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_input_is_not_modified(self):
        keys = np.array([4, 1, 4, 2], dtype=np.int64)
        sorted_unique(keys)
        assert keys.tolist() == [4, 1, 4, 2]


def _triangle(m, pair_block):
    """The helper's pairs and block sizes, checked block by block."""
    blocks = list(upper_triangle_blocks(m, pair_block))
    for a, b in blocks:
        assert a.dtype == np.int64 and b.dtype == np.int64
        assert a.shape == b.shape
        assert 1 <= a.size <= pair_block
    sizes = [a.size for a, _ in blocks]
    assert all(size == pair_block for size in sizes[:-1])
    if not blocks:
        return np.empty((0, 2), dtype=np.int64), sizes
    pairs = np.column_stack([
        np.concatenate([a for a, _ in blocks]),
        np.concatenate([b for _, b in blocks]),
    ])
    return pairs, sizes


class TestUpperTriangleBlocks:
    @pytest.mark.parametrize(
        "m,pair_block",
        [
            (0, 4), (1, 4), (2, 4), (2, 1),
            # m = 5 has 10 pairs: a triangle of pair_block + 1, of
            # exactly pair_block, and of pair_block - 1 pairs.
            (5, 9), (5, 10), (5, 11),
            (7, 1), (40, 64),
        ],
    )
    def test_every_unordered_pair_once_in_row_major_order(self, m, pair_block):
        pairs, sizes = _triangle(m, pair_block)
        rows, cols = np.triu_indices(m, k=1)
        assert np.array_equal(pairs, np.column_stack([rows, cols]))
        assert sum(sizes) == m * (m - 1) // 2

    def test_block_counts_at_the_block_boundary(self):
        # 10 pairs: 9 + 1, 10, and 10 in one block of 11.
        assert _triangle(5, 9)[1] == [9, 1]
        assert _triangle(5, 10)[1] == [10]
        assert _triangle(5, 11)[1] == [10]

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_pair_exactly_once(self, m, pair_block):
        pairs, _ = _triangle(m, pair_block)
        assert np.all(pairs[:, 0] < pairs[:, 1])
        assert np.all(pairs[:, 1] < max(m, 1))
        keys = pairs[:, 0] * max(m, 1) + pairs[:, 1]
        assert np.unique(keys).size == keys.size == m * (m - 1) // 2

    def test_rejects_empty_blocks(self):
        with pytest.raises(TrajectoryError, match="pair_block"):
            next(upper_triangle_blocks(3, 0))
