"""Unit tests for TraclusConfig validation."""

import pytest

from repro.core.config import StreamConfig, TraclusConfig
from repro.distance.weighted import SegmentDistance
from repro.exceptions import ClusteringError


class TestValidation:
    def test_defaults_valid(self):
        config = TraclusConfig()
        assert config.eps is None and config.min_lns is None
        assert config.directed is True

    def test_negative_eps_rejected(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(eps=-1.0)

    def test_zero_min_lns_rejected(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(min_lns=0)

    def test_negative_suppression_rejected(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(suppression=-0.1)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(gamma=-1.0)

    def test_negative_cardinality_threshold_rejected(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(cardinality_threshold=-1.0)

    @pytest.mark.parametrize("field", [
        "eps", "min_lns", "suppression", "gamma", "cardinality_threshold",
    ])
    def test_nan_rejected(self, field):
        with pytest.raises(ClusteringError, match=f"{field} must be"):
            TraclusConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", [
        "eps", "min_lns", "suppression", "gamma", "cardinality_threshold",
    ])
    def test_stream_config_nan_rejected(self, field):
        knobs = {"eps": 5.0, "min_lns": 3.0, field: float("nan")}
        with pytest.raises(ClusteringError, match=f"{field} must be"):
            StreamConfig(**knobs)

    def test_bad_weights_rejected_at_construction(self):
        with pytest.raises(ClusteringError):
            TraclusConfig(w_perp=0.0, w_par=0.0, w_theta=0.0)

    @pytest.mark.parametrize("field,value", [
        ("w_perp", float("inf")),
        ("w_par", float("nan")),
        ("w_theta", float("nan")),
    ])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(ClusteringError, match=f"{field} must be"):
            TraclusConfig(**{field: value})
        with pytest.raises(ClusteringError, match=f"{field} must be"):
            StreamConfig(eps=5.0, min_lns=3.0, **{field: value})

    def test_stream_config_horizon(self):
        with pytest.raises(ClusteringError, match="horizon must be"):
            StreamConfig(eps=5.0, min_lns=3.0, horizon=float("nan"))
        with pytest.raises(ClusteringError, match="horizon must be"):
            StreamConfig(eps=5.0, min_lns=3.0, horizon=-1.0)
        # An infinite horizon is legal: it never evicts.
        assert StreamConfig(eps=5.0, min_lns=3.0, horizon=float("inf"))

    def test_frozen(self):
        config = TraclusConfig()
        with pytest.raises(AttributeError):
            config.eps = 5.0


class TestDistanceFactory:
    def test_distance_carries_weights(self):
        config = TraclusConfig(w_perp=2.0, w_par=0.5, w_theta=3.0, directed=False)
        distance = config.distance()
        assert isinstance(distance, SegmentDistance)
        assert distance.w_perp == 2.0
        assert distance.w_par == 0.5
        assert distance.w_theta == 3.0
        assert distance.directed is False
