"""The standalone Prometheus scrape thread for CLI processes."""

import urllib.error
import urllib.request

import pytest

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    start_scrape_server,
)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("repro_shard_appends_total", help="Appends.").inc(7)
    registry.gauge("repro_shard_lag", help="Lag.").set(3.0)
    return registry


class TestScrapeServer:
    def test_serves_versioned_metrics(self, registry):
        with start_scrape_server(registry.snapshot) as server:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/v1/metrics"
            ) as response:
                body = response.read().decode("utf-8")
                assert (
                    response.headers["Content-Type"]
                    == PROMETHEUS_CONTENT_TYPE
                )
        assert "repro_shard_appends_total 7" in body
        assert "repro_shard_lag 3" in body

    def test_unversioned_route_404s(self, registry):
        with start_scrape_server(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/metrics"
                )
            err.value.close()
            assert err.value.code == 404
            assert "Deprecation" not in err.value.headers

    def test_other_paths_404(self, registry):
        with start_scrape_server(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/other"
                )
            assert err.value.code == 404

    def test_provider_is_called_per_scrape(self, registry):
        counter = registry.counter("repro_shard_appends_total", help="x")
        with start_scrape_server(registry.snapshot) as server:
            url = f"http://127.0.0.1:{server.port}/v1/metrics"
            with urllib.request.urlopen(url) as response:
                first = response.read().decode("utf-8")
            counter.inc(5)
            with urllib.request.urlopen(url) as response:
                second = response.read().decode("utf-8")
        assert "repro_shard_appends_total 7" in first
        assert "repro_shard_appends_total 12" in second

    def test_close_releases_the_port(self, registry):
        server = start_scrape_server(registry.snapshot)
        port = server.port
        server.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/metrics", timeout=1.0
            )
