"""Validation tests for :class:`repro.core.config.SweepConfig` and the
centralized engine auto-selection threshold."""

import pytest

from repro.core.config import (
    NEIGHBORHOOD_AUTO_BATCH_SEGMENTS,
    SweepConfig,
)
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


class TestCentralizedThresholds:
    """The auto-selection number lives in core/config.py; the ε-engine
    module re-exports it and must *dispatch* on the centralized value,
    so changing the config constant moves the actual cutover."""

    def test_neighborhood_reexport_matches_config(self):
        from repro.cluster.neighborhood import AUTO_BATCH_THRESHOLD

        assert AUTO_BATCH_THRESHOLD == NEIGHBORHOOD_AUTO_BATCH_SEGMENTS

    def test_neighborhood_auto_cutover_sits_at_config_constant(self, rng):
        from repro.cluster.neighbor_graph import PrecomputedNeighborhood
        from repro.cluster.neighborhood import (
            BruteForceNeighborhood,
            make_neighborhood_engine,
        )
        from repro.model.segment import Segment
        from repro.model.segmentset import SegmentSet

        def segment_set(n):
            return SegmentSet.from_segments(
                Segment(
                    rng.uniform(0, 100, 2), rng.uniform(0, 100, 2),
                    traj_id=i, seg_id=i,
                )
                for i in range(n)
            )

        at = NEIGHBORHOOD_AUTO_BATCH_SEGMENTS
        assert isinstance(
            make_neighborhood_engine(segment_set(at), 1.0),
            PrecomputedNeighborhood,
        )
        assert isinstance(
            make_neighborhood_engine(segment_set(at - 1), 1.0),
            BruteForceNeighborhood,
        )
