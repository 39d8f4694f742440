"""Unit tests for the flat-index helpers of :mod:`repro.model.ragged`."""

import numpy as np
import pytest

from repro.model.ragged import sorted_unique

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
