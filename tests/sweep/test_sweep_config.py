"""Validation tests for :class:`repro.core.config.SweepConfig`."""

import pytest

from repro.core.config import SweepConfig
from repro.exceptions import ClusteringError


class TestSweepConfigValidation:
    def test_valid_grid_coerced_to_float_tuples(self):
        config = SweepConfig(eps_values=[1, 2], min_lns_values=[3])
        assert config.eps_values == (1.0, 2.0)
        assert config.min_lns_values == (3.0,)
        assert config.grid_shape == (2, 1)

    def test_empty_eps_rejected(self):
        with pytest.raises(ClusteringError, match="non-empty"):
            SweepConfig(eps_values=[], min_lns_values=[3.0])

    def test_empty_min_lns_rejected(self):
        with pytest.raises(ClusteringError, match="non-empty"):
            SweepConfig(eps_values=[1.0], min_lns_values=[])

    def test_negative_eps_rejected(self):
        with pytest.raises(ClusteringError, match="non-negative"):
            SweepConfig(eps_values=[1.0, -0.5], min_lns_values=[3.0])

    def test_nan_eps_rejected(self):
        with pytest.raises(ClusteringError, match="non-negative"):
            SweepConfig(eps_values=[float("nan")], min_lns_values=[3.0])

    def test_zero_min_lns_rejected(self):
        with pytest.raises(ClusteringError, match="positive"):
            SweepConfig(eps_values=[1.0], min_lns_values=[0.0])

    def test_unknown_executor_rejected(self):
        with pytest.raises(ClusteringError, match="executor"):
            SweepConfig(
                eps_values=[1.0], min_lns_values=[3.0], executor="threads"
            )

    def test_non_positive_workers_rejected(self):
        with pytest.raises(ClusteringError, match="n_workers"):
            SweepConfig(
                eps_values=[1.0], min_lns_values=[3.0],
                executor="process", n_workers=0,
            )

