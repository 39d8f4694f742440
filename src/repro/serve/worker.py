"""Request execution: the CPU-bound half of the serving layer.

Every operation the front-end serves is a pure function
``(workspace, params) -> JSON-safe dict`` defined here, so the same
code runs inline (``--workers 0``) or sharded over a process pool.
Pool workers are initialised once with the picklable corpus specs and
build a process-local :class:`~repro.serve.registry.WorkspaceRegistry`
over the shared cache directory — the npz tier is the read-through
warm path between processes, the per-process registries are the hot
object tier.  Workers never write the sqlite catalog
(:mod:`repro.api.catalog`) on the request path: the front-end's
``/v1/query`` syncs it from the npz files before each query, so it sees
every save the fleet has made, and each registry writes only a
corpus's name, once per process.

Each call also reports the workspace's *build deltas* (which pipeline
stages actually recomputed), so the front-end can aggregate artifact
hit rates and assert zero redundant graph builds across the whole
worker fleet.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.api.workspace import Workspace
from repro.exceptions import ReproError, ServeError
from repro.obs import MetricsRegistry, activate_trace, span
from repro.serve.registry import CorpusSpec, WorkspaceRegistry

#: Process-local registry of a pool worker (set by :func:`initialize`).
_REGISTRY: Optional[WorkspaceRegistry] = None

#: Process-local metrics registry every workspace this process opens
#: reports into.  Inline mode (``--workers 0``) initialises in the
#: server process, so the front-end reads this registry directly; pool
#: workers ship cumulative snapshots home with each response instead
#: (see :func:`compute`).
_METRICS: Optional[MetricsRegistry] = None

#: Whether :func:`compute` attaches a metrics snapshot to each
#: response (pool mode only — inline mode shares the registry object).
_SHIP_METRICS = False


def initialize(
    specs: Sequence[CorpusSpec],
    cache_dir: Optional[str],
    max_workspaces: int,
    max_disk_bytes: Optional[int],
    telemetry: bool = False,
    ship_metrics: bool = False,
) -> None:
    """Build this process's registry (the pool initializer; the inline
    path calls it once in the server process).

    Also attaches the metrics registry to :mod:`repro.kernels`, so
    ``repro_kernel_backend`` (the backend this host dispatches to) and
    ``repro_kernel_seconds`` appear on ``/v1/metrics``."""
    from repro import kernels

    global _REGISTRY, _METRICS, _SHIP_METRICS
    _METRICS = MetricsRegistry(enabled=telemetry)
    _SHIP_METRICS = bool(ship_metrics and telemetry)
    kernels.set_metrics_registry(_METRICS if telemetry else None)
    _REGISTRY = WorkspaceRegistry(
        specs,
        cache_dir=cache_dir,
        max_workspaces=max_workspaces,
        max_disk_bytes=max_disk_bytes,
        metrics=_METRICS if telemetry else None,
    )


def ping() -> bool:
    """No-op the front-end submits at startup to force the pool to
    spawn its worker processes before any client socket exists — and
    the liveness probe ``/healthz`` round-trips through the pool."""
    return True


def metrics_registry() -> Optional[MetricsRegistry]:
    """This process's registry (the inline front-end reads it)."""
    return _METRICS


def _labels_checksum(labels: np.ndarray) -> str:
    """Content digest of a label array — clients assert repeat requests
    (any worker, any process) serve bitwise-identical clusterings."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(labels.dtype).encode())
    digest.update(str(labels.shape).encode())
    digest.update(np.ascontiguousarray(labels).tobytes())
    return digest.hexdigest()


def _float(params: dict, name: str) -> float:
    if name not in params:
        raise ServeError(f"missing required parameter {name!r}")
    try:
        return float(params[name])
    except (TypeError, ValueError):
        raise ServeError(
            f"parameter {name!r} must be a number, got {params[name]!r}"
        ) from None


def _float_list(params: dict, name: str) -> list:
    values = params.get(name)
    if not isinstance(values, (list, tuple)) or not values:
        raise ServeError(f"parameter {name!r} must be a non-empty list")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ServeError(f"parameter {name!r} must hold numbers") from None


def _label_summary(labels: np.ndarray) -> dict:
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    return {
        "n_segments": int(labels.size),
        "n_clusters": max(n_clusters, 0),
        "n_noise": int(np.sum(labels < 0)),
        "checksum": _labels_checksum(labels),
    }


def _op_params(workspace: Workspace, params: dict) -> dict:
    eps_values = (
        _float_list(params, "eps_values")
        if params.get("eps_values") is not None
        else None
    )
    estimate = workspace.recommend_parameters(eps_values)
    return {
        "eps": float(estimate.eps),
        "entropy": float(estimate.entropy),
        "avg_neighborhood_size": float(estimate.avg_neighborhood_size),
        "min_lns_low": float(estimate.min_lns_low),
        "min_lns_high": float(estimate.min_lns_high),
    }


def _op_labels(workspace: Workspace, params: dict) -> dict:
    labels = workspace.labels(
        _float(params, "eps"), _float(params, "min_lns")
    )
    result = _label_summary(labels)
    if params.get("return_labels"):
        result["labels"] = [int(label) for label in labels]
    return result


def _op_fit(workspace: Workspace, params: dict) -> dict:
    eps = params.get("eps")
    min_lns = params.get("min_lns")
    estimated = {}
    if eps is None or min_lns is None:
        estimate = workspace.recommend_parameters()
        if eps is None:
            eps = estimate.eps
        if min_lns is None:
            min_lns = estimate.avg_neighborhood_size + 2.0
        estimated = {"estimated_entropy": float(estimate.entropy)}
    eps = float(eps)
    min_lns = float(min_lns)
    labels = workspace.labels(eps, min_lns)
    clusters = workspace.clusters(eps, min_lns)
    result = _label_summary(labels)
    result.update(estimated)
    result.update({
        "eps": eps,
        "min_lns": min_lns,
        "cluster_sizes": [len(cluster) for cluster in clusters],
    })
    return result


def _op_sweep(workspace: Workspace, params: dict) -> dict:
    eps_values = _float_list(params, "eps_values")
    min_lns_values = _float_list(params, "min_lns_values")
    labels = workspace.labels_grid(eps_values, min_lns_values)
    entropies, avg_sizes = workspace.entropy_curve(eps_values)
    cells = []
    for i, eps in enumerate(eps_values):
        for j, min_lns in enumerate(min_lns_values):
            cell = labels[i, j]
            n_clusters = int(cell.max()) + 1 if cell.size else 0
            cells.append({
                "eps": eps,
                "min_lns": min_lns,
                "n_clusters": max(n_clusters, 0),
                "n_noise": int(np.sum(cell < 0)),
            })
    return {
        "grid": [len(eps_values), len(min_lns_values)],
        "n_segments": int(labels.shape[2]),
        "cells": cells,
        "entropies": [float(e) for e in entropies],
        "avg_neighborhood_sizes": [float(a) for a in avg_sizes],
        "checksum": _labels_checksum(labels),
    }


def _op_quality(workspace: Workspace, params: dict) -> dict:
    breakdown = workspace.quality(
        _float(params, "eps"), _float(params, "min_lns")
    )
    return {
        "total_sse": float(breakdown.total_sse),
        "noise_penalty": float(breakdown.noise_penalty),
        "qmeasure": float(breakdown.qmeasure),
    }


#: Operation name -> implementation; the HTTP router's whitelist.
OPERATIONS = {
    "params": _op_params,
    "labels": _op_labels,
    "fit": _op_fit,
    "sweep": _op_sweep,
    "quality": _op_quality,
}


def compute(
    name: str, op: str, params: dict, request_id: Optional[str] = None,
    want_spans: bool = False,
) -> dict:
    """Run one operation against this process's registry.

    Returns ``{"result": ..., "builds": {stage: count}}`` where
    ``builds`` holds only the stages this call actually recomputed —
    empty on a fully warm (artifact-served) request.

    With telemetry on the payload also carries ``telemetry``: this
    process's pid, the compute wall time, and — pool mode — a
    cumulative metrics snapshot the front-end merges into the
    fleet-wide scrape.  With ``want_spans`` (the front-end sets it only
    when an access log consumes the trees) the worker additionally runs
    its own trace around the compute (contexts never cross the
    process/executor-thread boundary) and ships its span tree for the
    front-end to graft into the request's.
    """
    if _REGISTRY is None:
        raise ServeError("worker not initialised (no registry)")
    operation = OPERATIONS.get(op)
    if operation is None:
        raise ServeError(
            f"unknown operation {op!r}; one of {sorted(OPERATIONS)}"
        )
    workspace = _REGISTRY.get(name)
    before = workspace.stats.builds_snapshot()
    telemetry = _METRICS is not None and _METRICS.enabled
    if not telemetry:
        result = operation(workspace, params)
        trace = None
        compute_seconds = None
    elif want_spans:
        started = time.perf_counter()
        with activate_trace(request_id=request_id) as trace:
            with span(f"op:{op}", corpus=name):
                result = operation(workspace, params)
        compute_seconds = time.perf_counter() - started
    else:
        trace = None
        started = time.perf_counter()
        result = operation(workspace, params)
        compute_seconds = time.perf_counter() - started
    builds: Dict[str, int] = {}
    for stage, count in workspace.stats.builds_snapshot().items():
        delta = count - before.get(stage, 0)
        if delta:
            builds[stage] = delta
    payload = {"result": result, "builds": builds}
    if telemetry:
        payload["telemetry"] = {
            "pid": os.getpid(),
            "compute_seconds": compute_seconds,
        }
        if trace is not None:
            payload["telemetry"]["spans"] = trace.span_dicts()
        if _SHIP_METRICS:
            payload["telemetry"]["metrics"] = _METRICS.snapshot()
    return payload


def compute_safe(
    name: str, op: str, params: dict, request_id: Optional[str] = None,
    want_spans: bool = False,
) -> dict:
    """:func:`compute`, with library errors flattened to a payload the
    parent can re-raise — a ``ReproError`` crossing the process-pool
    boundary must not kill the worker's future machinery."""
    try:
        return compute(
            name, op, params, request_id=request_id, want_spans=want_spans
        )
    except ReproError as error:
        return {"error": str(error), "error_kind": type(error).__name__}
