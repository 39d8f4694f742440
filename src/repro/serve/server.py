"""The asyncio front-end: many corpora, many clients, one cache.

:class:`ServeApp` is the transport-independent request layer — tests
drive it directly, the HTTP adapter below wraps it for ``repro serve``.
Three mechanisms turn the single-corpus Workspace library into a
service:

* **Process-pool sharding.**  Every operation is CPU-bound numpy work
  (:mod:`repro.serve.worker`); the event loop never runs it.  With
  ``workers > 0`` requests fan out over a ``ProcessPoolExecutor``
  whose workers hold process-local workspace registries over the
  shared npz directory; ``workers == 0`` runs the same code on a
  thread (small deployments, tests).
* **Single-flight coalescing.**  Concurrent requests for the same
  ``(corpus, op, params)`` key collapse into one in-flight build whose
  result every waiter shares — a cold-cache stampede performs each
  expensive build exactly once (the per-artifact single-writer rule).
* **Read-through warm path.**  Workers consult their in-memory object
  tier, then the npz tier, then compute; every response carries which
  stages were actually rebuilt, and :class:`ServeStats` aggregates
  them into the artifact hit rate the load benchmark gates.

Observability (:mod:`repro.obs`) threads through the whole path:

* every request gets an id (client-supplied ``X-Request-Id`` or
  generated) echoed back in the response and stamped on access-log
  lines and span trees;
* with telemetry on (the default; ``--no-telemetry`` opts out) the
  front-end traces accept → dispatch, workers trace their compute and
  ship the spans home to be grafted into one merged tree, and every
  layer records into a :class:`~repro.obs.metrics.MetricsRegistry` —
  pool workers ship cumulative snapshots with each response, keyed by
  pid, and ``GET /v1/metrics`` renders the fleet-wide aggregate as
  Prometheus text;
* ``--max-pending N`` adds admission control: requests beyond N
  pending are shed with ``503`` + ``Retry-After`` instead of growing
  the executor queue without bound.

Endpoints (all under ``/v1``; any other path is a 404)::

    GET  /v1/healthz              liveness: ping round-trip through the
                                  worker pool (503 when it times out)
    GET  /v1/stats                traffic counters + latency quantiles
    GET  /v1/metrics              Prometheus text exposition
    GET  /v1/corpora
    POST /v1/corpora/<name>/<op>  op in {params, labels, fit, sweep,
                                         quality}; JSON params body
    GET  /v1/query                cross-corpus analytics off the sqlite
                                  artifact catalog (?query=cells&
                                  min_clusters=3&...)
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import OverloadedError, ServeError
from repro.obs import (
    AccessLog,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    activate_trace,
    aggregate_snapshots,
    current_trace,
    get_logger,
    histogram_quantile,
    new_request_id,
    render_prometheus,
    span,
)
from repro.serve import worker
from repro.serve.registry import CorpusSpec, WorkspaceRegistry

#: Hard cap on request bodies (a params JSON is tiny; anything bigger
#: is a client error, not a workload).
MAX_BODY_BYTES = 1 << 20

#: Seconds the /healthz probe waits for a pool ping round-trip.
HEALTH_TIMEOUT = 2.0

_LOG = get_logger("serve")


@dataclass
class ServeStats:
    """Aggregated traffic counters of one server instance."""

    requests: int = 0
    #: Requests served without recomputing any pipeline stage (memory
    #: or npz artifacts all the way down) — includes coalesced waiters,
    #: which by construction triggered no build of their own.
    artifact_hits: int = 0
    #: Requests that joined another request's in-flight build.
    coalesced: int = 0
    errors: int = 0
    #: Requests refused by ``--max-pending`` admission control.
    sheds: int = 0
    #: Stage -> total rebuild count across every worker process.
    builds: Dict[str, int] = field(default_factory=dict)

    def hit_rate(self) -> float:
        return self.artifact_hits / self.requests if self.requests else 0.0

    def build_total(self) -> int:
        return sum(self.builds.values())

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "artifact_hits": self.artifact_hits,
            "hit_rate": self.hit_rate(),
            "coalesced": self.coalesced,
            "errors": self.errors,
            "sheds": self.sheds,
            "builds": dict(self.builds),
        }


class ServeApp:
    """Transport-independent request layer over a corpus registry."""

    def __init__(
        self,
        specs: Sequence[CorpusSpec],
        cache_dir: Optional[str] = None,
        workers: int = 0,
        max_workspaces: int = 8,
        max_disk_bytes: Optional[int] = None,
        telemetry: bool = True,
        max_pending: Optional[int] = None,
        access_log: Optional[str] = None,
    ):
        if workers < 0:
            raise ServeError("workers must be >= 0")
        if max_pending is not None and max_pending < 1:
            raise ServeError("max_pending must be >= 1")
        self.specs = list(specs)
        self.cache_dir = cache_dir
        self.workers = workers
        self.max_workspaces = max_workspaces
        self.max_disk_bytes = max_disk_bytes
        self.telemetry = bool(telemetry)
        self.max_pending = max_pending
        self.access_log = AccessLog(access_log) if access_log else None
        self.stats = ServeStats()
        #: Admitted requests currently somewhere between accept and
        #: response (the admission-control watermark).  Only mutated on
        #: the event loop.
        self._pending = 0
        # The front-end's own registry serves only metadata (names,
        # fingerprints); computation happens in the executor — so it
        # deliberately reports no metrics (no double counting).
        self._registry = WorkspaceRegistry(
            specs,
            cache_dir=cache_dir,
            max_workspaces=max_workspaces,
            max_disk_bytes=max_disk_bytes,
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Lazily-opened sqlite catalog over the shared cache_dir — the
        #: ``/v1/query`` analytics surface.  Each query first syncs it
        #: from the npz files the workers save and evict; no worker
        #: writes it on the request path.
        self._catalog = None
        #: pid -> latest cumulative metrics snapshot shipped by that
        #: pool worker.  Replacing (not adding) per pid keeps the sum
        #: correct: each snapshot is cumulative over the worker's life.
        self._worker_metrics: Dict[int, dict] = {}
        if workers > 0:
            # Pool mode: the server holds its own registry for the
            # request-path metrics; workers record cache/build metrics
            # process-locally and ship snapshots home per response.
            self.metrics = MetricsRegistry(enabled=self.telemetry)
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=worker.initialize,
                initargs=(
                    self.specs, cache_dir, max_workspaces, max_disk_bytes,
                    self.telemetry, True,
                ),
            )
            # Force the pool to fork NOW, before any client connection
            # exists: the executor otherwise spawns its workers on the
            # first submit, mid-request, and (with the default fork
            # start method) each long-lived worker would inherit a
            # duplicate of the open client socket — so the client's
            # wait-for-EOF after ``Connection: close`` never returns.
            self._executor.submit(worker.ping).result()
        else:
            # Inline mode: the server process is its own (threaded)
            # worker, so server and worker share one registry object
            # and nothing needs shipping.
            worker.initialize(
                self.specs, cache_dir, max_workspaces, max_disk_bytes,
                telemetry=self.telemetry, ship_metrics=False,
            )
            self.metrics = worker.metrics_registry()
        self._m_in_flight = self.metrics.gauge(
            "repro_requests_in_flight",
            help="Admitted operation requests currently being served.",
        )
        self._m_sheds = self.metrics.counter(
            "repro_requests_shed_total",
            help="Requests refused by --max-pending admission control.",
        )
        self._m_coalesced = self.metrics.counter(
            "repro_coalesced_total",
            help="Requests that joined another request's in-flight build.",
        )
        self._m_queue_seconds = self.metrics.histogram(
            "repro_request_queue_seconds",
            help="Seconds between executor dispatch and compute start "
                 "(executor round-trip minus worker compute).",
        )
        #: (op, status) -> (counter, histogram); saves the registry's
        #: keyed lookup on every finished request.
        self._request_instruments: Dict[Tuple[str, int], tuple] = {}

    # -- metadata ----------------------------------------------------------
    def corpora(self) -> list:
        return [
            {
                "name": name,
                "fingerprint": self._registry.fingerprint(name),
            }
            for name in self._registry.names()
        ]

    def catalog_query(self, params: dict) -> dict:
        """``GET /v1/query``: run one canned catalog query (synchronous
        sqlite work — the router pushes it onto the default thread
        executor).  Raw SQL stays a Python/CLI-local affordance; over
        HTTP only the canned queries are reachable."""
        from repro.api.catalog import Catalog
        from repro.exceptions import CatalogError

        if self.cache_dir is None:
            raise ServeError(
                "this server is memory-only (no --workspace directory); "
                "there is no catalog to query"
            )
        if self._catalog is None:
            try:
                self._catalog = Catalog(self.cache_dir, metrics=self.metrics)
            except CatalogError as error:
                raise ServeError(f"catalog unavailable: {error}") from error
        filters = dict(params)
        name = filters.pop("query", "cells")
        # Query-string values arrive as text; sqlite orders TEXT after
        # every numeric, so comparisons must bind real numbers.
        try:
            for key in ("min_clusters", "limit"):
                if key in filters:
                    filters[key] = int(filters[key])
            for key in ("max_noise", "eps", "min_lns"):
                if key in filters:
                    filters[key] = float(filters[key])
        except (TypeError, ValueError) as error:
            raise ServeError(f"bad query parameter: {error}") from error
        try:
            rows = self._catalog.query(name, **filters)
        except CatalogError as error:
            raise ServeError(str(error)) from error
        return {"query": name, "n_rows": len(rows), "rows": rows}

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._catalog is not None:
            self._catalog.close()
            self._catalog = None
        if self.access_log is not None:
            self.access_log.close()

    # -- telemetry surfaces ------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The fleet-wide metrics view: the server's own registry plus
        the latest cumulative snapshot from every pool worker."""
        own = self.metrics.snapshot() if self.metrics is not None else {}
        return aggregate_snapshots([own] + list(self._worker_metrics.values()))

    def stats_payload(self) -> dict:
        """``/stats``: traffic counters, and — with telemetry on —
        latency quantiles per ``*_seconds`` histogram series."""
        payload = self.stats.snapshot()
        payload["pending"] = self._pending
        payload["workers"] = self.workers
        if self.telemetry:
            payload["latency"] = self._latency_quantiles()
        return payload

    def _latency_quantiles(self) -> dict:
        out: Dict[str, dict] = {}
        for key, value in self.metrics_snapshot().get("series", {}).items():
            if not isinstance(value, dict):
                continue
            name, items = json.loads(key)
            if not name.endswith("_seconds"):
                continue
            count = sum(value["counts"])
            if not count:
                continue
            label = ",".join(f"{k}={v}" for k, v in items) or "all"
            out.setdefault(name, {})[label] = {
                "count": count,
                "p50": histogram_quantile(value, 0.50),
                "p90": histogram_quantile(value, 0.90),
                "p99": histogram_quantile(value, 0.99),
            }
        return out

    def observe_request(self, op: str, status: int, seconds: float) -> None:
        """Record one finished operation request (the HTTP router calls
        this with the final status, errors included)."""
        if not self.telemetry:
            return
        instruments = self._request_instruments.get((op, status))
        if instruments is None:
            instruments = (
                self.metrics.counter(
                    "repro_requests_total",
                    help="Operation requests by op and final HTTP status.",
                    op=op, status=str(status),
                ),
                self.metrics.histogram(
                    "repro_request_seconds",
                    help="End-to-end seconds per operation request "
                         "on the server.",
                    op=op,
                ),
            )
            self._request_instruments[(op, status)] = instruments
        counter, histogram = instruments
        counter.inc()
        histogram.observe(seconds)

    async def health(self, timeout: float = HEALTH_TIMEOUT) -> Tuple[bool, dict]:
        """Real liveness: a ping round-trip through the worker pool
        (inline mode: through the default thread executor).  A pool
        wedged behind long computes fails the probe — that is the
        point; ``/healthz`` answers \"can this server serve\"."""
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(self._executor, worker.ping), timeout
            )
            ok = True
        except Exception:  # noqa: BLE001 - any failure means unhealthy
            ok = False
        return ok, {
            "ok": ok,
            "workers": self.workers,
            "corpora": len(self.specs),
            "pending": self._pending,
        }

    # -- the request path --------------------------------------------------
    @staticmethod
    def request_key(name: str, op: str, params: dict) -> str:
        """Canonical identity of a request — the coalescing key."""
        return json.dumps([name, op, params], sort_keys=True)

    async def request(
        self,
        name: str,
        op: str,
        params: dict,
        request_id: Optional[str] = None,
        info: Optional[dict] = None,
    ) -> dict:
        """Serve one operation; concurrent identical requests coalesce
        into a single build whose result all of them share.  *info*,
        when given, is filled with per-request telemetry for the access
        log (coalesced flag, build deltas, queue/compute split)."""
        if name not in self._registry.specs:
            raise ServeError(
                f"unknown corpus {name!r}; serving {self._registry.names()}"
            )
        if op not in worker.OPERATIONS:
            raise ServeError(
                f"unknown operation {op!r}; one of "
                f"{sorted(worker.OPERATIONS)}"
            )
        key = self.request_key(name, op, params)
        self.stats.requests += 1
        if self.max_pending is not None and self._pending >= self.max_pending:
            self.stats.sheds += 1
            self._m_sheds.inc()
            _LOG.warning(
                "request shed", corpus=name, op=op,
                pending=self._pending, max_pending=self.max_pending,
            )
            raise OverloadedError(
                f"{self._pending} requests pending at "
                f"max-pending={self.max_pending}; retry shortly"
            )
        self._pending += 1
        self._m_in_flight.inc()
        try:
            existing = self._inflight.get(key)
            if existing is not None:
                # Join the in-flight build: by construction this request
                # triggers no redundant work, which is what the hit-rate
                # metric measures.
                self.stats.coalesced += 1
                self._m_coalesced.inc()
                if info is not None:
                    info["coalesced"] = True
                payload = await asyncio.shield(existing)
                if "error" in payload:
                    raise ServeError(payload["error"])
                self.stats.artifact_hits += 1
                return payload["result"]
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[key] = future
            dispatched = time.perf_counter()
            # Worker-side span trees are only worth building when a
            # trace is live to graft them into (the access-log path,
            # or a caller running its own trace).
            want_spans = current_trace() is not None
            try:
                with span("dispatch", op=op, corpus=name):
                    payload = await loop.run_in_executor(
                        self._executor, worker.compute_safe,
                        name, op, params, request_id, want_spans,
                    )
                    # Graft while the dispatch span is still open so
                    # the worker's tree lands underneath it.
                    self._absorb_telemetry(
                        payload, time.perf_counter() - dispatched, info
                    )
                future.set_result(payload)
            except BaseException as error:
                future.set_exception(error)
                # A waiter may never await it; don't warn on teardown.
                future.exception()
                raise
            finally:
                self._inflight.pop(key, None)
            for stage, count in payload.get("builds", {}).items():
                self.stats.builds[stage] = (
                    self.stats.builds.get(stage, 0) + count
                )
            if "error" in payload:
                raise ServeError(payload["error"])
            if not payload.get("builds"):
                self.stats.artifact_hits += 1
            if info is not None:
                info["builds"] = dict(payload.get("builds", {}))
            return payload["result"]
        finally:
            self._pending -= 1
            self._m_in_flight.dec()

    def _absorb_telemetry(
        self, payload: dict, round_trip: float, info: Optional[dict]
    ) -> None:
        """Fold a worker response's telemetry into the server's view:
        queue-wait metric, per-pid snapshot replacement, and grafting
        the worker's span tree into the ambient request trace."""
        telemetry = payload.get("telemetry") if isinstance(payload, dict) else None
        if not telemetry or not self.telemetry:
            return
        compute_seconds = telemetry.get("compute_seconds")
        if compute_seconds is not None:
            queue_seconds = max(0.0, round_trip - compute_seconds)
            self._m_queue_seconds.observe(queue_seconds)
            if info is not None:
                info["queue_ms"] = round(queue_seconds * 1000.0, 3)
                info["compute_ms"] = round(compute_seconds * 1000.0, 3)
        shipped = telemetry.get("metrics")
        if shipped is not None:
            self._worker_metrics[telemetry["pid"]] = shipped
        trace = current_trace()
        spans_ = telemetry.get("spans")
        if trace is not None and spans_:
            # Put the worker's spans on this trace's clock: its trace
            # started compute_seconds before now.
            offset_ms = max(
                0.0,
                (trace.elapsed() - (compute_seconds or 0.0)) * 1000.0,
            )
            trace.graft(spans_, offset_ms=offset_ms)


# -- HTTP adapter -----------------------------------------------------------

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _response_bytes(
    status: int,
    payload,
    keep_alive: bool,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one response.  ``dict`` payloads go out as JSON;
    ``str`` payloads as ``text/plain`` (the Prometheus exposition)."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _coerce_query_params(pairs) -> dict:
    """Query-string params: floats where possible, comma lists for the
    grid parameters (``eps_values=1,2,3``)."""
    params: dict = {}
    for key, value in pairs:
        if key in ("eps_values", "min_lns_values"):
            params[key] = [float(v) for v in value.split(",") if v.strip()]
        else:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, dict, bool, Dict[str, str]]]:
    """Parse one request; ``None`` on clean EOF.  Returns
    ``(method, path, params, keep_alive, headers)``."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ServeError(f"malformed request line {request_line!r}")
    method, target, version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    keep_alive = headers.get(
        "connection", "keep-alive" if version == "HTTP/1.1" else "close"
    ).lower() != "close"
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body of {length} bytes exceeds cap")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    params = _coerce_query_params(parse_qsl(split.query))
    if body:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(f"request body is not JSON: {error}") from None
        if not isinstance(parsed, dict):
            raise ServeError("request body must be a JSON object")
        params.update(parsed)
    return method, split.path, params, keep_alive, headers


def _access_record(
    method: str, path: str, status: int, request_id: str,
    started_wall: float, duration_ms: float, info: dict,
    spans_out: Optional[list],
) -> dict:
    """One access-log line (see :mod:`repro.obs.access_log` for the
    schema)."""
    record = {
        "ts": round(started_wall, 6),
        "request_id": request_id,
        "method": method,
        "path": path,
        "status": status,
        "duration_ms": round(duration_ms, 3),
        "coalesced": bool(info.get("coalesced")),
        "builds": info.get("builds", {}),
    }
    segments = [part for part in path.split("/") if part]
    if segments and segments[0] == "v1":
        segments = segments[1:]
    if len(segments) == 3 and segments[0] == "corpora":
        record["corpus"] = segments[1]
        record["op"] = segments[2]
    for extra in ("queue_ms", "compute_ms"):
        if extra in info:
            record[extra] = info[extra]
    if spans_out:
        record["spans"] = spans_out
    return record


async def handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: serve requests until close/EOF."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ServeError, ValueError, asyncio.IncompleteReadError):
                writer.write(_response_bytes(
                    400, {"error": "malformed request"}, False
                ))
                break
            if request is None:
                break
            method, path, params, keep_alive, req_headers = request
            started_wall = time.time()
            started = time.perf_counter()
            request_id = req_headers.get("x-request-id") or new_request_id()
            info: dict = {}
            spans_out: Optional[list] = None
            if app.telemetry and app.access_log is not None:
                # Tracing exists to be read: the span trees land on
                # access-log lines, so the whole machinery (activate,
                # record, worker graft, serialise) is only paid when a
                # log is configured.  Metrics stay on regardless.
                with activate_trace(request_id=request_id) as trace:
                    with span(f"http:{method.lower()}", path=path):
                        status, payload, extra = await route_request(
                            app, method, path, params,
                            request_id=request_id, info=info,
                        )
                spans_out = trace.span_dicts()
            else:
                status, payload, extra = await route_request(
                    app, method, path, params,
                    request_id=request_id, info=info,
                )
            response_headers = {"X-Request-Id": request_id}
            response_headers.update(extra)
            writer.write(_response_bytes(
                status, payload, keep_alive, response_headers
            ))
            await writer.drain()
            if app.access_log is not None:
                app.access_log.write(_access_record(
                    method, path, status, request_id, started_wall,
                    (time.perf_counter() - started) * 1000.0, info,
                    spans_out,
                ))
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


#: URL prefix of the current API version.
API_PREFIX = "/v1"


async def route_request(
    app: ServeApp,
    method: str,
    path: str,
    params: dict,
    request_id: Optional[str] = None,
    info: Optional[dict] = None,
) -> Tuple[int, object, Dict[str, str]]:
    """Dispatch one parsed request; returns
    ``(status, payload, headers)``.  The payload is a JSON-safe dict,
    except ``/v1/metrics`` which returns the Prometheus text body.
    Every route lives under :data:`API_PREFIX`; any other path is a
    404."""
    headers: Dict[str, str] = {}
    if not path.startswith(API_PREFIX + "/"):
        return 404, {
            "error": f"no route for {path!r}; routes live under "
                     f"{API_PREFIX}/"
        }, headers
    route = path[len(API_PREFIX):]
    segments = [part for part in route.split("/") if part]
    try:
        if route == "/healthz":
            ok, body = await app.health()
            return (200 if ok else 503), body, headers
        if route == "/stats":
            return 200, app.stats_payload(), headers
        if route == "/metrics":
            if not app.telemetry:
                return 404, {
                    "error": "telemetry is disabled on this server "
                             "(started with --no-telemetry)"
                }, headers
            return 200, render_prometheus(app.metrics_snapshot()), headers
        if route == "/query":
            if method != "GET":
                return 405, {"error": f"method {method} not allowed"}, headers
            loop = asyncio.get_running_loop()
            body = await loop.run_in_executor(
                None, app.catalog_query, params
            )
            return 200, body, headers
        if route == "/corpora" and method == "GET":
            return 200, {"corpora": app.corpora()}, headers
        if len(segments) == 3 and segments[0] == "corpora":
            if method not in ("GET", "POST"):
                return 405, {"error": f"method {method} not allowed"}, headers
            _, name, op = segments
            started = time.perf_counter()
            status = 500
            try:
                result = await app.request(
                    name, op, params, request_id=request_id, info=info
                )
                status = 200
                return status, {
                    "corpus": name, "op": op, "result": result
                }, headers
            except OverloadedError as error:
                # Sheds are counted by admission control, not as
                # errors — the client did nothing wrong.
                status = 503
                headers["Retry-After"] = "1"
                return status, {"error": str(error)}, headers
            except ServeError as error:
                app.stats.errors += 1
                message = str(error)
                status = 404 if "unknown corpus" in message else 400
                return status, {"error": message}, headers
            except Exception as error:  # noqa: BLE001 - fault barrier
                app.stats.errors += 1
                status = 500
                _LOG.error(
                    "request failed", corpus=name, op=op,
                    request_id=request_id, error=f"{type(error).__name__}",
                )
                return status, {
                    "error": f"{type(error).__name__}: {error}"
                }, headers
            finally:
                app.observe_request(
                    op, status, time.perf_counter() - started
                )
        return 404, {"error": f"no route for {path!r}"}, headers
    except ServeError as error:
        app.stats.errors += 1
        message = str(error)
        status = 404 if "unknown corpus" in message else 400
        return status, {"error": message}, headers
    except Exception as error:  # noqa: BLE001 - fault barrier
        app.stats.errors += 1
        return 500, {
            "error": f"{type(error).__name__}: {error}"
        }, headers


async def start_http_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the HTTP adapter; ``port=0`` picks an ephemeral port."""
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(app, reader, writer),
        host, port,
    )


async def serve_forever(
    app: ServeApp, host: str, port: int, ready=None
) -> None:
    """Run the HTTP front-end until cancelled (the CLI entry)."""
    server = await start_http_server(app, host, port)
    address = server.sockets[0].getsockname()
    print(
        f"repro serve: {len(app.specs)} corpora on "
        f"http://{address[0]}:{address[1]} "
        f"(workers={app.workers or 'inline'}, "
        f"cache={app.cache_dir or 'memory'}, "
        f"telemetry={'on' if app.telemetry else 'off'})"
    )
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()
