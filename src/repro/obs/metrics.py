"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the single sink every instrumented layer
(:mod:`repro.api.cache`, :mod:`repro.api.workspace`,
:mod:`repro.sweep.engine`, :mod:`repro.stream.pipeline`,
:mod:`repro.serve`) records into.  Three properties shape the design:

* **Default-off is near-free.**  A registry built with
  ``enabled=False`` hands out shared null instruments whose ``inc`` /
  ``observe`` are empty methods — the hot-path cost of instrumentation
  when telemetry is off is one no-op call.  Library entry points
  default to :data:`NULL_REGISTRY`; only ``repro serve`` (and tests)
  turn telemetry on.
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
  plain JSON-safe dict and :func:`aggregate_snapshots` sums any number
  of them — how per-process pool workers ship their counters back to
  the serving front-end, which renders one fleet-wide view.  Counters
  and histogram buckets add; gauges add too (each worker reports its
  own in-flight share).
* **Prometheus text exposition.**  :func:`render_prometheus` turns a
  snapshot into the ``text/plain; version=0.0.4`` format every scrape
  stack ingests — ``GET /v1/metrics`` on the serving layer is exactly
  this over the aggregated snapshot.

Histograms use fixed buckets chosen at creation
(:data:`LATENCY_BUCKETS_SECONDS` / :data:`SIZE_BUCKETS_BYTES` cover
the two families this package records), so merging is index-wise
addition and quantiles (:func:`histogram_quantile`) are the usual
within-bucket linear interpolation.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly 1-2.5-5
#: per decade — the span of a warm cache hit up to a cold corpus build.
LATENCY_BUCKETS_SECONDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default size buckets (bytes): 1 KiB .. 256 MiB in x8 steps — the
#: span of a quality scalar artifact up to a large label grid.
SIZE_BUCKETS_BYTES = (
    1024, 8192, 65536, 524288, 4194304, 33554432, 268435456,
)


def _metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical JSON identity of one (name, labels) series — snapshot
    dict keys stay strings so payloads cross process boundaries as
    plain JSON."""
    return json.dumps([name, sorted(labels.items())])


def _parse_key(key: str) -> Tuple[str, List[Tuple[str, str]]]:
    name, items = json.loads(key)
    return name, [tuple(item) for item in items]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Value that can go up and down (in-flight requests, pool size)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with an implicit +Inf bucket.

    ``_counts[i]`` is the **non-cumulative** count of observations in
    ``(buckets[i-1], buckets[i]]`` (index ``len(buckets)`` is +Inf);
    rendering cumulates, merging adds index-wise.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
    ):
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"buckets must be sorted unique: {buckets}")
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _snapshot(self) -> dict:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
            }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram the disabled registry hands
    out — the entire cost of default-off telemetry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def value(self) -> float:
        return 0.0

    def count(self) -> int:
        return 0

    def sum(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home of every metric series in one process.

    Instruments are identified by ``(name, labels)``; asking twice
    returns the same object, so call sites may either hold a reference
    (hot paths) or re-ask per event (cold paths).  A name keeps the
    type and help text of its first registration.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    def _get_or_create(self, kind: str, name: str, help_text: str,
                       labels: Dict[str, str], factory):
        key = _metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                declared = self._types.get(name)
                if declared is not None and declared != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {declared}"
                    )
                metric = factory()
                self._metrics[key] = metric
                self._types[name] = kind
                if help_text and name not in self._help:
                    self._help[name] = help_text
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._get_or_create(
            "counter", name, help, labels, lambda: Counter(name, labels)
        )

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._get_or_create(
            "gauge", name, help, labels, lambda: Gauge(name, labels)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
        **labels: str,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        metric = self._get_or_create(
            "histogram", name, help, labels,
            lambda: Histogram(name, labels, buckets),
        )
        self._buckets.setdefault(name, metric.buckets)
        return metric

    def snapshot(self) -> dict:
        """JSON-safe state of every series (mergeable, shippable)."""
        if not self.enabled:
            return {"series": {}, "types": {}, "help": {}}
        with self._lock:
            metrics = list(self._metrics.items())
            types = dict(self._types)
            help_text = dict(self._help)
        series: Dict[str, object] = {}
        for key, metric in metrics:
            if isinstance(metric, Histogram):
                series[key] = metric._snapshot()
            else:
                series[key] = metric.value()
        return {"series": series, "types": types, "help": help_text}


#: The shared disabled registry library defaults point at.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def aggregate_snapshots(snapshots: Iterable[dict]) -> dict:
    """Sum any number of :meth:`MetricsRegistry.snapshot` payloads into
    one fleet-wide snapshot (the serving front-end + its pool
    workers)."""
    merged: dict = {"series": {}, "types": {}, "help": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        merged["types"].update(snapshot.get("types", {}))
        for name, text in snapshot.get("help", {}).items():
            merged["help"].setdefault(name, text)
        for key, value in snapshot.get("series", {}).items():
            existing = merged["series"].get(key)
            if existing is None:
                if isinstance(value, dict):
                    value = {
                        "buckets": list(value["buckets"]),
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                    }
                merged["series"][key] = value
            elif isinstance(value, dict):
                if existing["buckets"] != list(value["buckets"]):
                    raise ValueError(
                        f"histogram {key} has mismatched buckets across "
                        f"snapshots"
                    )
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], value["counts"])
                ]
                existing["sum"] += value["sum"]
            else:
                merged["series"][key] = existing + value
    return merged


def histogram_quantile(hist: dict, fraction: float) -> Optional[float]:
    """Estimate a quantile from one snapshot histogram (linear
    interpolation within the winning bucket; ``None`` when empty)."""
    counts = hist["counts"]
    total = sum(counts)
    if total == 0:
        return None
    buckets = hist["buckets"]
    rank = fraction * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        lower = cumulative
        cumulative += count
        if cumulative >= rank:
            low = buckets[index - 1] if index > 0 else 0.0
            high = (
                buckets[index] if index < len(buckets)
                else buckets[-1]  # +Inf bucket: clamp to the last edge
            )
            within = (rank - lower) / count
            return low + (high - low) * min(max(within, 0.0), 1.0)
    return buckets[-1]


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(items: Sequence[Tuple[str, str]]) -> str:
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in items
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _format_le(edge: float) -> str:
    return _format_value(edge)


def render_prometheus(snapshot: dict) -> str:
    """One snapshot as Prometheus text exposition (version 0.0.4)."""
    types = snapshot.get("types", {})
    help_text = snapshot.get("help", {})
    families: Dict[str, List[Tuple[List[Tuple[str, str]], object]]] = {}
    for key, value in snapshot.get("series", {}).items():
        name, labels = _parse_key(key)
        families.setdefault(name, []).append((labels, value))
    lines: List[str] = []
    for name in sorted(families):
        kind = types.get(name, "untyped")
        text = help_text.get(name)
        if text:
            lines.append(f"# HELP {name} {text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in sorted(
            families[name], key=lambda item: item[0]
        ):
            if isinstance(value, dict):
                cumulative = 0
                for edge, count in zip(value["buckets"], value["counts"]):
                    cumulative += count
                    items = labels + [("le", _format_le(edge))]
                    lines.append(
                        f"{name}_bucket{_format_labels(items)} {cumulative}"
                    )
                cumulative += value["counts"][-1]
                items = labels + [("le", "+Inf")]
                lines.append(
                    f"{name}_bucket{_format_labels(items)} {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(value['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {cumulative}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
