"""Unit tests for the Formula-10 entropy heuristic."""

import math

import numpy as np
import pytest

from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.exceptions import ParameterSearchError
from repro.model.segmentset import SegmentSet
from repro.params.entropy import (
    entropy_from_counts,
    neighborhood_entropy,
    neighborhood_size_curve,
)


def _brute_curve(segments, eps_values):
    """The Figure 16/19 curve from brute per-segment counts."""
    return entropy_from_counts(np.array([
        BruteForceNeighborhood(segments, eps).neighborhood_sizes()
        for eps in eps_values
    ]))


class TestNeighborhoodEntropy:
    def test_uniform_distribution_is_maximal(self):
        n = 16
        uniform = neighborhood_entropy(np.full(n, 3))
        assert uniform == pytest.approx(math.log2(n))

    def test_skewed_is_lower_than_uniform(self):
        skewed = neighborhood_entropy(np.array([100, 1, 1, 1]))
        uniform = neighborhood_entropy(np.array([1, 1, 1, 1]))
        assert skewed < uniform

    def test_single_element(self):
        assert neighborhood_entropy(np.array([7])) == 0.0

    def test_zero_total_defined_as_zero(self):
        assert neighborhood_entropy(np.zeros(5)) == 0.0

    def test_entropy_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sizes = rng.integers(0, 50, size=20)
            h = neighborhood_entropy(sizes)
            assert 0.0 <= h <= math.log2(20) + 1e-12

    def test_negative_sizes_raise(self):
        with pytest.raises(ParameterSearchError):
            neighborhood_entropy(np.array([-1, 2]))

    def test_empty_raises(self):
        with pytest.raises(ParameterSearchError):
            neighborhood_entropy(np.array([]))


class TestSizeCurve:
    def test_counts_monotone_in_eps(self, random_segments):
        counts = neighborhood_size_curve(random_segments, [1.0, 5.0, 20.0, 100.0])
        assert counts.shape == (4, len(random_segments))
        # For each segment the count is non-decreasing with eps.
        assert np.all(np.diff(counts, axis=0) >= 0)

    def test_tiny_eps_counts_only_self(self, parallel_band_segments):
        counts = neighborhood_size_curve(parallel_band_segments, [0.0])
        assert np.all(counts[0] == 1)

    def test_huge_eps_counts_everything(self, random_segments):
        counts = neighborhood_size_curve(random_segments, [1e9])
        assert np.all(counts[0] == len(random_segments))

    def test_negative_eps_raises(self, random_segments):
        with pytest.raises(ParameterSearchError):
            neighborhood_size_curve(random_segments, [-1.0])

    def test_empty_grid_raises(self, random_segments):
        with pytest.raises(ParameterSearchError):
            neighborhood_size_curve(random_segments, [])

    def test_empty_set_gives_one_empty_row_per_eps(self):
        counts = neighborhood_size_curve(SegmentSet.empty(), [1.0, 2.0])
        assert counts.shape == (2, 0) and counts.dtype == np.int64


class TestEntropyCurve:
    def test_extremes_are_maximal(self, parallel_band_segments):
        """Tiny and huge eps both produce uniform |N_eps| -> maximal
        entropy; a mid-range eps must dip below (the Figure 16/19
        shape)."""
        n = len(parallel_band_segments)
        entropies, _ = _brute_curve(parallel_band_segments, [0.0, 1.5, 1e9])
        maximal = math.log2(n)
        assert entropies[0] == pytest.approx(maximal)
        assert entropies[2] == pytest.approx(maximal)
        assert entropies[1] < maximal - 0.01

    def test_avg_sizes_reported(self, parallel_band_segments):
        _, avg_sizes = _brute_curve(parallel_band_segments, [0.0, 1e9])
        assert avg_sizes[0] == 1.0
        assert avg_sizes[1] == len(parallel_band_segments)
