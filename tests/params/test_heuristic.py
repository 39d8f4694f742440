"""Unit tests for the Section 4.4 parameter recommendation."""

import numpy as np
import pytest

from repro.exceptions import ParameterSearchError
from repro.model.segmentset import SegmentSet
from repro.params.entropy import neighborhood_size_curve
from repro.params.heuristic import ParameterEstimate, recommend_parameters


class TestRecommendParameters:
    def test_grid_returns_curve(self, parallel_band_segments):
        estimate = recommend_parameters(
            parallel_band_segments, eps_values=np.arange(1.0, 20.0)
        )
        assert isinstance(estimate, ParameterEstimate)
        assert len(estimate.eps_values) == 19
        assert len(estimate.entropies) == 19
        assert 1.0 <= estimate.eps <= 19.0

    def test_minimum_is_argmin_of_curve(self, parallel_band_segments):
        estimate = recommend_parameters(
            parallel_band_segments, eps_values=np.arange(1.0, 20.0)
        )
        curve = np.asarray(estimate.entropies)
        assert estimate.entropy == pytest.approx(curve.min())
        assert estimate.eps == estimate.eps_values[int(np.argmin(curve))]

    def test_min_lns_range_is_avg_plus_one_to_three(self, parallel_band_segments):
        estimate = recommend_parameters(
            parallel_band_segments, eps_values=np.arange(1.0, 20.0)
        )
        assert estimate.min_lns_low == estimate.avg_neighborhood_size + 1.0
        assert estimate.min_lns_high == estimate.avg_neighborhood_size + 3.0
        assert estimate.min_lns == estimate.avg_neighborhood_size + 2.0

    def test_default_grid_derived_from_mean_length(self, parallel_band_segments):
        estimate = recommend_parameters(parallel_band_segments)
        assert estimate.eps >= 1.0

    def test_anneal_method_runs(self, parallel_band_segments):
        estimate = recommend_parameters(
            parallel_band_segments,
            eps_values=np.arange(1.0, 16.0),
            method="anneal",
            rng=np.random.default_rng(7),
        )
        assert estimate.eps_values == ()  # no curve in anneal mode
        assert estimate.avg_neighborhood_size >= 1.0

    def test_unknown_method_raises(self, parallel_band_segments):
        with pytest.raises(ParameterSearchError):
            recommend_parameters(parallel_band_segments, method="magic")

    def test_empty_segments_raise(self):
        with pytest.raises(ParameterSearchError):
            recommend_parameters(SegmentSet.empty())

    def test_empty_grid_raises(self, parallel_band_segments):
        with pytest.raises(ParameterSearchError):
            recommend_parameters(parallel_band_segments, eps_values=[])

    def test_counts_rows_must_match_grid(self, parallel_band_segments):
        grid = [1.0, 2.0, 3.0]
        short = neighborhood_size_curve(parallel_band_segments, grid[:2])
        with pytest.raises(
            ParameterSearchError,
            match="counts has 2 rows but eps_values has 3 entries",
        ):
            recommend_parameters(
                parallel_band_segments, eps_values=grid, counts=short
            )
        full = neighborhood_size_curve(parallel_band_segments, grid)
        assert recommend_parameters(
            parallel_band_segments, eps_values=grid, counts=full
        ) == recommend_parameters(parallel_band_segments, eps_values=grid)
