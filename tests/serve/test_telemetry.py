"""Serving-layer telemetry: exact stats under concurrency, the
/metrics scrape surface, admission control, health, and access logs."""

import asyncio
import json

import pytest

from repro.core.config import TraclusConfig
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import OverloadedError
from repro.io.csvio import write_trajectories_csv
from repro.obs import render_prometheus
from repro.serve.registry import CorpusSpec
from repro.serve.server import ServeApp, route_request, start_http_server

PARAMS = {"eps": 2.0, "min_lns": 3.0}


@pytest.fixture
def specs(tmp_path):
    trajectories = generate_corridor_set(n_trajectories=6, seed=7)
    path = str(tmp_path / "corpus.csv")
    write_trajectories_csv(trajectories, path)
    return [CorpusSpec(
        name="corpus", csv_path=path,
        config=TraclusConfig(compute_representatives=False),
    )]


def make_app(specs, tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "ws"))
    kwargs.setdefault("workers", 0)
    return ServeApp(specs, **kwargs)


def parse_prometheus(text):
    """Tiny scrape parser: {(name, labels-tuple): float value}.  Raises
    on any line that is not a comment or a well-formed sample."""
    samples = {}
    types = {}
    for line in text.splitlines():
        if not line:
            raise ValueError("blank line in exposition")
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        labels = ()
        if "{" in name_part:
            name, _, label_body = name_part.partition("{")
            items = []
            for pair in label_body.rstrip("}").split(","):
                key, _, value = pair.partition("=")
                assert value.startswith('"') and value.endswith('"')
                items.append((key, value[1:-1]))
            labels = tuple(sorted(items))
        else:
            name = name_part
        samples[(name, labels)] = float(value_part)
    return samples, types


def sum_family(samples, name, **required):
    """Sum every sample of *name* whose labels include ``required``."""
    total = 0.0
    for (sample_name, labels), value in samples.items():
        if sample_name != name:
            continue
        if all((key, str(val)) in labels for key, val in required.items()):
            total += value
    return total


class TestExactStats:
    def test_warm_stampede_exact_totals(self, specs, tmp_path):
        """1 cold + N concurrent warm requests: every counter is exact
        (no lost updates, no double counting)."""
        app = make_app(specs, tmp_path)
        try:
            async def scenario():
                await app.request("corpus", "labels", PARAMS)
                builds_after_cold = app.stats.build_total()
                await asyncio.gather(*[
                    app.request("corpus", "labels", PARAMS)
                    for _ in range(20)
                ])
                assert app.stats.requests == 21
                assert app.stats.artifact_hits == 20
                assert app.stats.build_total() == builds_after_cold
                # Task 1 of the warm wave dispatches; 2..20 join it.
                assert app.stats.coalesced == 19
                assert app.stats.sheds == 0
                assert app._pending == 0
            asyncio.run(scenario())
        finally:
            app.close()

    def test_request_metrics_match_stats(self, specs, tmp_path):
        """The scrape surface and ServeStats agree exactly when driven
        through the router (which owns observe_request)."""
        app = make_app(specs, tmp_path)
        try:
            async def scenario():
                for _ in range(3):
                    status, _, _ = await route_request(
                        app, "POST", "/v1/corpora/corpus/labels", dict(PARAMS)
                    )
                    assert status == 200
                status, _, _ = await route_request(
                    app, "POST", "/v1/corpora/corpus/labels", {"eps": 2.0}
                )
                assert status == 400
            asyncio.run(scenario())
            samples, _ = parse_prometheus(
                render_prometheus(app.metrics_snapshot())
            )
            assert sum_family(
                samples, "repro_requests_total", op="labels", status="200"
            ) == 3
            assert sum_family(
                samples, "repro_requests_total", op="labels", status="400"
            ) == 1
            assert sum_family(
                samples, "repro_request_seconds_count", op="labels"
            ) == 4
            assert app.stats.requests == 4
            assert app.stats.errors == 1
        finally:
            app.close()

    def test_in_flight_gauge_returns_to_zero(self, specs, tmp_path):
        app = make_app(specs, tmp_path)
        try:
            asyncio.run(app.request("corpus", "labels", PARAMS))
            assert app._m_in_flight.value() == 0.0
        finally:
            app.close()


class TestMetricsScrape:
    def test_scrape_covers_every_layer(self, specs, tmp_path):
        """/metrics after real traffic parses cleanly and carries the
        request, build, and cache families the README documents."""
        app = make_app(specs, tmp_path)
        try:
            async def scenario():
                server = await start_http_server(app)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    status, _, _ = await _http(
                        host, port, "POST", "/v1/corpora/corpus/labels",
                        dict(PARAMS),
                    )
                    assert status == 200
                    status, text, _ = await _http(
                        host, port, "GET", "/v1/metrics", raw=True
                    )
                    assert status == 200
                    return text
                finally:
                    server.close()
                    await server.wait_closed()
            text = asyncio.run(scenario())
            samples, types = parse_prometheus(text)
            assert types["repro_requests_total"] == "counter"
            assert types["repro_request_seconds"] == "histogram"
            assert types["repro_requests_in_flight"] == "gauge"
            assert sum_family(
                samples, "repro_requests_total", op="labels", status="200"
            ) == 1
            # Stage builds reached the scrape (inline worker shares the
            # registry): a cold labels request builds at least
            # partition -> graph -> labels.
            for stage in ("partition", "graph", "labels"):
                assert sum_family(
                    samples, "repro_builds_total", stage=stage
                ) >= 1
                assert sum_family(
                    samples, "repro_build_seconds_count", stage=stage
                ) >= 1
            # Cache lookups were recorded (misses on a cold start).
            assert sum_family(
                samples, "repro_cache_lookups_total", outcome="miss"
            ) >= 1
            # Histogram invariant: +Inf bucket == _count, per family.
            inf = sum_family(
                samples, "repro_request_seconds_bucket",
                op="labels", le="+Inf",
            )
            assert inf == sum_family(
                samples, "repro_request_seconds_count", op="labels"
            )
        finally:
            app.close()

    def test_metrics_404_when_disabled(self, specs, tmp_path):
        app = make_app(specs, tmp_path, telemetry=False)
        try:
            async def scenario():
                status, body, _ = await route_request(
                    app, "GET", "/v1/metrics", {}
                )
                assert status == 404
                assert "telemetry is disabled" in body["error"]
                # And the request path stays fully functional.
                result = await app.request("corpus", "labels", PARAMS)
                assert result["n_segments"] > 0
                assert app.metrics.snapshot()["series"] == {}
            asyncio.run(scenario())
        finally:
            app.close()

    def test_stats_payload_has_latency_quantiles(self, specs, tmp_path):
        app = make_app(specs, tmp_path)
        try:
            async def scenario():
                await route_request(
                    app, "POST", "/v1/corpora/corpus/labels", dict(PARAMS)
                )
            asyncio.run(scenario())
            payload = app.stats_payload()
            assert payload["pending"] == 0
            quantiles = payload["latency"]["repro_request_seconds"]
            entry = quantiles["op=labels"]
            assert entry["count"] == 1
            assert 0.0 <= entry["p50"] <= entry["p99"]
        finally:
            app.close()


class TestAdmissionControl:
    def test_max_pending_sheds_deterministically(self, specs, tmp_path):
        """With max-pending=1, the second of two concurrent distinct
        requests is shed: the first occupies the only slot while its
        compute runs in the executor."""
        app = make_app(specs, tmp_path, max_pending=1)
        try:
            async def scenario():
                results = await asyncio.gather(
                    app.request(
                        "corpus", "labels", {"eps": 2.0, "min_lns": 3.0}
                    ),
                    app.request(
                        "corpus", "labels", {"eps": 2.5, "min_lns": 3.0}
                    ),
                    return_exceptions=True,
                )
                kinds = sorted(type(r).__name__ for r in results)
                assert kinds == ["OverloadedError", "dict"]
            asyncio.run(scenario())
            assert app.stats.sheds == 1
            assert app.stats.requests == 2
            assert app.stats.errors == 0
            assert app._m_sheds.value() == 1.0
        finally:
            app.close()

    def test_shed_maps_to_503_with_retry_after(self, specs, tmp_path):
        app = make_app(specs, tmp_path, max_pending=1)
        try:
            async def scenario():
                results = await asyncio.gather(
                    route_request(
                        app, "POST", "/v1/corpora/corpus/labels",
                        {"eps": 2.0, "min_lns": 3.0},
                    ),
                    route_request(
                        app, "POST", "/v1/corpora/corpus/labels",
                        {"eps": 2.5, "min_lns": 3.0},
                    ),
                )
                statuses = sorted(status for status, _, _ in results)
                assert statuses == [200, 503]
                (shed_headers,) = [
                    headers for status, _, headers in results
                    if status == 503
                ]
                assert shed_headers["Retry-After"] == "1"
            asyncio.run(scenario())
            # Sheds are not client errors.
            assert app.stats.errors == 0
        finally:
            app.close()

    def test_rejects_invalid_max_pending(self, specs, tmp_path):
        from repro.exceptions import ServeError
        with pytest.raises(ServeError, match="max_pending"):
            make_app(specs, tmp_path, max_pending=0)


class TestHealth:
    def test_healthy_roundtrip(self, specs, tmp_path):
        app = make_app(specs, tmp_path)
        try:
            ok, body = asyncio.run(app.health())
            assert ok
            assert body == {
                "ok": True, "workers": 0, "corpora": 1, "pending": 0,
            }
        finally:
            app.close()

    def test_timeout_means_unhealthy(self, specs, tmp_path):
        """A probe that cannot round-trip in time reports 503-shaped
        state — /healthz answers 'can this server serve'."""
        app = make_app(specs, tmp_path)
        try:
            ok, body = asyncio.run(app.health(timeout=0.0))
            assert not ok
            assert body["ok"] is False
        finally:
            app.close()


async def _http(host, port, method, path, body=None, raw=False):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode() + payload
    writer.write(request)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body_bytes = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    decoded = body_bytes.decode() if raw else json.loads(body_bytes)
    return int(lines[0].split()[1]), decoded, headers


class TestHttpTelemetry:
    def test_request_id_echo_and_access_log(self, specs, tmp_path):
        log_path = tmp_path / "access.jsonl"
        app = make_app(specs, tmp_path, access_log=str(log_path))
        try:
            async def scenario():
                server = await start_http_server(app)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    # Client-supplied id is echoed verbatim.
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    body = json.dumps(PARAMS).encode()
                    writer.write(
                        (
                            "POST /v1/corpora/corpus/labels HTTP/1.1\r\n"
                            "Host: t\r\nX-Request-Id: client-id-1\r\n"
                            f"Content-Length: {len(body)}\r\n"
                            "Connection: close\r\n\r\n"
                        ).encode() + body
                    )
                    await writer.drain()
                    data = await reader.read()
                    writer.close()
                    head = data.partition(b"\r\n\r\n")[0].decode()
                    assert "X-Request-Id: client-id-1" in head
                    # Server-generated ids on the rest.
                    _, _, headers = await _http(
                        host, port, "GET",
                        "/v1/corpora/corpus/labels?eps=2.0&min_lns=3.0",
                    )
                    assert headers["x-request-id"]
                    assert headers["x-request-id"] != "client-id-1"
                finally:
                    server.close()
                    await server.wait_closed()
            asyncio.run(scenario())
        finally:
            app.close()
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 2
        cold, warm = records
        for record in records:
            assert {
                "ts", "request_id", "method", "path", "status",
                "duration_ms", "coalesced", "builds", "corpus", "op",
            } <= record.keys()
            assert record["status"] == 200
            assert record["corpus"] == "corpus"
            assert record["op"] == "labels"
            assert record["duration_ms"] > 0
        assert cold["request_id"] == "client-id-1"
        assert cold["builds"]  # cold request recomputed stages
        assert warm["builds"] == {}
        # The span tree made it into the log: http -> dispatch with
        # the worker's op span grafted underneath.
        root = cold["spans"][0]
        assert root["name"] == "http:post"
        child_names = [c["name"] for c in root["children"]]
        assert "dispatch" in child_names
        dispatch = root["children"][child_names.index("dispatch")]
        assert [c["name"] for c in dispatch["children"]][0] == "op:labels"


class TestPoolWorkers:
    def test_pool_metrics_merge_across_processes(self, specs, tmp_path):
        """workers=1: cache/build metrics recorded in the worker
        process ship home per response and appear in the fleet-wide
        scrape next to the server-side request metrics."""
        app = make_app(specs, tmp_path, workers=1)
        try:
            async def scenario():
                for _ in range(2):
                    status, _, _ = await route_request(
                        app, "POST", "/v1/corpora/corpus/labels", dict(PARAMS)
                    )
                    assert status == 200
            asyncio.run(scenario())
            assert app._worker_metrics  # a snapshot arrived, keyed by pid
            samples, _ = parse_prometheus(
                render_prometheus(app.metrics_snapshot())
            )
            # Server-side family...
            assert sum_family(
                samples, "repro_requests_total", op="labels", status="200"
            ) == 2
            # ...and worker-side families in one scrape.
            assert sum_family(
                samples, "repro_builds_total", stage="labels"
            ) == 1
            assert sum_family(samples, "repro_cache_lookups_total") >= 1
            # Cumulative snapshots replace per pid: two requests must
            # not double the single build.
            assert app.stats.builds.get("labels", 0) == 1
        finally:
            app.close()
