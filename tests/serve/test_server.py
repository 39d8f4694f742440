"""ServeApp + HTTP adapter: routing, coalescing, warm-path stats."""

import asyncio
import json

import pytest

from repro.core.config import TraclusConfig
from repro.datasets.synthetic import generate_corridor_set
from repro.exceptions import ServeError
from repro.io.csvio import write_trajectories_csv
from repro.serve.registry import CorpusSpec
from repro.serve.server import ServeApp, route_request, start_http_server


@pytest.fixture
def specs(tmp_path):
    specs = []
    for i in range(3):
        trajectories = generate_corridor_set(n_trajectories=6, seed=40 + i)
        path = str(tmp_path / f"corpus{i}.csv")
        write_trajectories_csv(trajectories, path)
        specs.append(CorpusSpec(
            name=f"corpus{i}", csv_path=path,
            config=TraclusConfig(compute_representatives=False),
        ))
    return specs


@pytest.fixture
def app(specs, tmp_path):
    app = ServeApp(specs, cache_dir=str(tmp_path / "ws"), workers=0)
    yield app
    app.close()


class TestRequests:
    def test_labels_and_warm_repeat(self, app):
        async def scenario():
            params = {"eps": 2.0, "min_lns": 3.0}
            cold = await app.request("corpus0", "labels", params)
            assert app.stats.build_total() > 0
            builds_after_cold = app.stats.build_total()
            warm = await app.request("corpus0", "labels", params)
            assert warm["checksum"] == cold["checksum"]
            assert app.stats.build_total() == builds_after_cold
            assert app.stats.artifact_hits == 1
            assert app.stats.requests == 2
        asyncio.run(scenario())

    def test_all_operations(self, app):
        async def scenario():
            point = {"eps": 2.0, "min_lns": 3.0}
            labels = await app.request("corpus1", "labels", point)
            assert {"n_segments", "n_clusters", "n_noise",
                    "checksum"} <= labels.keys()
            fit = await app.request("corpus1", "fit", point)
            assert fit["checksum"] == labels["checksum"]
            assert len(fit["cluster_sizes"]) == fit["n_clusters"]
            estimate = await app.request("corpus1", "params", {})
            assert estimate["min_lns_low"] < estimate["min_lns_high"]
            sweep = await app.request("corpus1", "sweep", {
                "eps_values": [1.5, 2.0], "min_lns_values": [3.0, 4.0],
            })
            assert sweep["grid"] == [2, 2]
            assert len(sweep["cells"]) == 4
            quality = await app.request("corpus1", "quality", point)
            assert quality["qmeasure"] == pytest.approx(
                quality["total_sse"] + quality["noise_penalty"]
            )
        asyncio.run(scenario())

    def test_unknown_corpus_and_op(self, app):
        async def scenario():
            with pytest.raises(ServeError, match="unknown corpus"):
                await app.request("absent", "labels", {})
            with pytest.raises(ServeError, match="unknown operation"):
                await app.request("corpus0", "explode", {})
        asyncio.run(scenario())

    def test_missing_parameter(self, app):
        async def scenario():
            with pytest.raises(ServeError, match="min_lns"):
                await app.request("corpus0", "labels", {"eps": 2.0})
        asyncio.run(scenario())

    def test_concurrent_identical_requests_coalesce(self, app):
        """A cold stampede on one artifact performs ONE build; every
        waiter shares it (single-writer per fingerprint)."""
        async def scenario():
            params = {"eps": 2.0, "min_lns": 3.0}
            results = await asyncio.gather(*[
                app.request("corpus2", "labels", params) for _ in range(8)
            ])
            assert len({result["checksum"] for result in results}) == 1
            assert app.stats.coalesced == 7
            assert app.stats.builds.get("graph", 0) == 1
            assert app.stats.builds.get("labels", 0) == 1
        asyncio.run(scenario())

    def test_distinct_requests_do_not_coalesce(self, app):
        async def scenario():
            await app.request(
                "corpus0", "labels", {"eps": 2.0, "min_lns": 3.0}
            )
            await app.request(
                "corpus0", "labels", {"eps": 2.5, "min_lns": 3.0}
            )
            # Different params -> different request keys: both executed
            # (each walked its own label column off the shared graph).
            assert app.stats.coalesced == 0
            assert app.stats.builds.get("labels", 0) == 2
        asyncio.run(scenario())


async def _http(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode() + payload
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body_bytes)


class TestHttp:
    def test_end_to_end(self, app):
        async def scenario():
            server = await start_http_server(app)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                status, health = await _http(host, port, "GET", "/v1/healthz")
                assert status == 200 and health["ok"]
                status, listing = await _http(host, port, "GET", "/v1/corpora")
                assert {c["name"] for c in listing["corpora"]} == {
                    "corpus0", "corpus1", "corpus2",
                }
                status, cold = await _http(
                    host, port, "POST", "/v1/corpora/corpus0/labels",
                    {"eps": 2.0, "min_lns": 3.0},
                )
                assert status == 200
                # Query-string flavor hits the same artifact.
                status, warm = await _http(
                    host, port, "GET",
                    "/v1/corpora/corpus0/labels?eps=2.0&min_lns=3.0",
                )
                assert status == 200
                assert warm["result"]["checksum"] == (
                    cold["result"]["checksum"]
                )
                status, stats = await _http(host, port, "GET", "/v1/stats")
                assert stats["requests"] == 2
                assert stats["artifact_hits"] == 1
                status, _ = await _http(
                    host, port, "POST", "/v1/corpora/absent/labels",
                    {"eps": 1.0, "min_lns": 2.0},
                )
                assert status == 404
                status, error = await _http(
                    host, port, "POST", "/v1/corpora/corpus0/labels",
                    {"eps": 2.0},
                )
                assert status == 400 and "min_lns" in error["error"]
                status, _ = await _http(host, port, "GET", "/v1/nope")
                assert status == 404
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(scenario())

    def test_nan_min_lns_is_a_400(self, app):
        """A NaN MinLns used to walk to all-noise labels, and ``fit`` and
        ``sweep`` answered with a bare ``NaN`` token, which is not JSON."""
        async def scenario():
            server = await start_http_server(app)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                for op in ("labels", "quality", "fit"):
                    status, error = await _http(
                        host, port, "GET",
                        f"/v1/corpora/corpus0/{op}?eps=2.0&min_lns=nan",
                    )
                    assert status == 400 and "min_lns" in error["error"], op
                status, error = await _http(
                    host, port, "GET",
                    "/v1/corpora/corpus0/sweep"
                    "?eps_values=2.0&min_lns_values=3.0,nan",
                )
                assert status == 400 and "min_lns" in error["error"]
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(scenario())

    def test_keep_alive_connection_reuse(self, app):
        async def scenario():
            server = await start_http_server(app)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for _ in range(3):
                    writer.write(
                        b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [line.split(b":")[1] for line in head.split(b"\r\n")
                         if line.lower().startswith(b"content-length")][0]
                    )
                    body = await reader.readexactly(length)
                    assert json.loads(body)["ok"]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(scenario())


class TestRouting:
    def test_route_table(self, app):
        async def scenario():
            status, body, _ = await route_request(app, "GET", "/v1/healthz", {})
            assert status == 200
            assert body["ok"] and body["corpora"] == 3
            status, _, _ = await route_request(
                app, "PUT", "/v1/corpora/x/labels", {}
            )
            assert status == 405
            status, _, _ = await route_request(
                app, "GET", "/v1/corpora/x/y/z", {}
            )
            assert status == 404
        asyncio.run(scenario())


class TestVersionedRoutes:
    def test_v1_routes_answer_without_deprecation(self, app):
        async def scenario():
            for path in ("/v1/healthz", "/v1/stats", "/v1/corpora"):
                status, _, headers = await route_request(
                    app, "GET", path, {}
                )
                assert status == 200, path
                assert "Deprecation" not in headers, path
            status, body, headers = await route_request(
                app, "POST", "/v1/corpora/corpus0/labels",
                {"eps": 2.0, "min_lns": 3.0},
            )
            assert status == 200 and "Deprecation" not in headers
            assert body["result"]["n_segments"] > 0
            assert "legacy_requests" not in app.stats_payload()
        asyncio.run(scenario())

    def test_unversioned_routes_404(self, app):
        """The pre-``/v1`` spellings are gone: they 404 like any unknown
        path, reach no corpus and carry no deprecation headers."""
        async def scenario():
            for method, path in (
                ("GET", "/healthz"), ("GET", "/stats"), ("GET", "/metrics"),
                ("GET", "/corpora"), ("POST", "/corpora/corpus0/labels"),
                ("GET", "/v1"), ("GET", "/v1healthz"),
            ):
                status, body, headers = await route_request(
                    app, method, path, {"eps": 2.0, "min_lns": 3.0}
                )
                assert status == 404, path
                assert "/v1/" in body["error"], path
                assert headers == {}, path
            status, _, _ = await route_request(app, "GET", "/v1/nope", {})
            assert status == 404
            assert app.stats_payload()["requests"] == 0
        asyncio.run(scenario())

    def test_query_endpoint_is_versioned_only(self, app):
        async def scenario():
            # Born under /v1: the unversioned spelling never existed.
            status, _, headers = await route_request(app, "GET", "/query", {})
            assert status == 404 and "Deprecation" not in headers
            status, _, _ = await route_request(app, "POST", "/v1/query", {})
            assert status == 405
        asyncio.run(scenario())

    def test_query_end_to_end(self, app):
        async def scenario():
            await app.request("corpus0", "sweep", {
                "eps_values": [4.0, 5.0], "min_lns_values": [3.0, 4.0],
            })
            status, body, _ = await route_request(
                app, "GET", "/v1/query",
                {"query": "cells", "min_clusters": "1", "limit": "10"},
            )
            assert status == 200
            assert body["query"] == "cells"
            assert body["n_rows"] == len(body["rows"]) > 0
            row = body["rows"][0]
            assert {"corpus", "eps", "min_lns", "n_clusters",
                    "noise_fraction"} <= row.keys()
            assert all(r["n_clusters"] >= 1 for r in body["rows"])
            # The registry taught the catalog the corpus's name, so
            # filtering by name (not fingerprint) works over HTTP.
            status, named, _ = await route_request(
                app, "GET", "/v1/query",
                {"query": "cells", "corpus": "corpus0",
                 "min_clusters": "1"},
            )
            assert status == 200 and named["n_rows"] == body["n_rows"]
            status, absent, _ = await route_request(
                app, "GET", "/v1/query",
                {"query": "cells", "corpus": "no-such-corpus"},
            )
            assert status == 200 and absent["n_rows"] == 0
            status, corpora, _ = await route_request(
                app, "GET", "/v1/query", {"query": "corpora"},
            )
            assert status == 200
            assert "corpus0" in {r["name"] for r in corpora["rows"]}
            status, error, _ = await route_request(
                app, "GET", "/v1/query", {"query": "bogus"},
            )
            assert status == 400 and "bogus" in error["error"]
            status, error, _ = await route_request(
                app, "GET", "/v1/query", {"min_clusters": "lots"},
            )
            assert status == 400
        asyncio.run(scenario())

    def test_query_on_memory_only_server_is_clean_400(self, specs):
        app = ServeApp(specs, cache_dir=None, workers=0)
        try:
            async def scenario():
                status, body, _ = await route_request(
                    app, "GET", "/v1/query", {}
                )
                assert status == 400
                assert "memory-only" in body["error"]
            asyncio.run(scenario())
        finally:
            app.close()
