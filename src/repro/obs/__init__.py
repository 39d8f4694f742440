"""Zero-dependency telemetry: metrics, spans, structured logs.

Three pieces, each usable alone:

* :mod:`repro.obs.metrics` — a thread-safe
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms with mergeable JSON snapshots (pool workers
  ship deltas home) and Prometheus text rendering (``GET /v1/metrics``);
* :mod:`repro.obs.trace` — ambient per-request span trees
  (``with span("graph_build"): ...``) activated by the serving layer,
  free when inactive;
* :mod:`repro.obs.logsetup` / :mod:`repro.obs.access_log` — JSON-line
  structured logging on stdlib ``logging`` and the request access log.

Telemetry is **off by default** everywhere in the library: every
instrumented constructor takes ``metrics=None`` which resolves to the
shared disabled :data:`~repro.obs.metrics.NULL_REGISTRY`, whose
instruments are shared no-ops.  ``repro serve`` enables it
(``--no-telemetry`` opts back out); ``benchmarks/bench_serve.py``
gates that the disabled path stays within noise of the enabled run's
warm latency.
"""

from repro.obs.access_log import AccessLog
from repro.obs.logsetup import configure_logging, get_logger
from repro.obs.scrape import (
    PROMETHEUS_CONTENT_TYPE,
    ScrapeServer,
    start_scrape_server,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_SECONDS,
    NULL_REGISTRY,
    SIZE_BUCKETS_BYTES,
    MetricsRegistry,
    aggregate_snapshots,
    histogram_quantile,
    render_prometheus,
)
from repro.obs.trace import (
    Span,
    Trace,
    activate_trace,
    current_trace,
    new_request_id,
    span,
)

__all__ = [
    "AccessLog",
    "LATENCY_BUCKETS_SECONDS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "PROMETHEUS_CONTENT_TYPE",
    "SIZE_BUCKETS_BYTES",
    "ScrapeServer",
    "Span",
    "Trace",
    "activate_trace",
    "aggregate_snapshots",
    "configure_logging",
    "current_trace",
    "get_logger",
    "histogram_quantile",
    "new_request_id",
    "render_prometheus",
    "span",
    "start_scrape_server",
]
