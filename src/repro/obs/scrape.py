"""A standalone Prometheus scrape surface for non-serving processes.

The serving layer exposes ``/v1/metrics`` as one route of its async
HTTP front-end; long-running *CLI* processes — a sharded ``repro
stream --shards K`` session is the motivating one — have no server to
hang that route on.  :func:`start_scrape_server` gives them the same
exposition for the cost of one daemon thread: a provider callable
returns the current metrics snapshot (for a sharded session, the
coordinator registry aggregated with every worker's shipped
snapshot), and the thread answers ``GET /v1/metrics`` with
:func:`~repro.obs.metrics.render_prometheus` over it; any other path
is a 404, as on the serving layer.

Standard library only (:mod:`http.server` on a daemon thread); the
provider is called on the scrape thread, which is safe because
registry snapshots take the registry lock.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.metrics import render_prometheus

#: The exposition content type every scrape stack expects.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ScrapeServer:
    """Handle on a running scrape thread; ``close()`` stops it."""

    def __init__(self, server: ThreadingHTTPServer, thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ScrapeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_scrape_server(
    snapshot_provider: Callable[[], dict],
    port: int = 0,
    host: str = "127.0.0.1",
) -> ScrapeServer:
    """Serve ``GET /v1/metrics`` from a daemon thread; *port* 0 binds an
    ephemeral port (read it back from ``ScrapeServer.port``)."""

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path.split("?", 1)[0] != "/v1/metrics":
                self.send_response(404)
                self.end_headers()
                return
            body = render_prometheus(snapshot_provider()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet: scrapes are periodic
            pass

    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-scrape", daemon=True
    )
    thread.start()
    return ScrapeServer(server, thread)
