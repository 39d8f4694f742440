"""The compiled kernel backend of the four hot paths, chosen by the host.

Every engine in this repo — batch fit, streaming, the amortized sweep,
the Workspace artifact graph, ``repro serve`` — bottoms out in four
pure-numpy kernels: the role-assigned pair-component distance kernel
(:func:`repro.distance.vectorized.component_distances_pairs`, driving
the blocked neighbor-graph join, QMeasure's pairwise sums and
:func:`repro.distance.matrix.pairwise_distance_matrix`), the
endpoint-pair kernel (:func:`repro.cluster.neighbor_graph.endpoint_pairs`,
the neighbor-graph join's candidate test), the MDL window kernel
(:meth:`repro.partition.layout.LockstepLayout.window_costs`, behind
every Figure-8 step of the per-trajectory scan, the incremental
partitioner and the lock-step corpus scan) and the crossing-sum kernel
(:func:`repro.representative.sweep.crossing_sums`, averaging the
segments that cross each Figure-15 sweep position).  This package
dispatches all four to one optional *compiled* backend, detected at
first use, with the numpy path as the always-available reference and
fallback:

``cext``
    A small C library compiled on demand with the system C compiler
    (``cc``/``gcc``/``clang``) and loaded through :mod:`ctypes` — no
    new Python dependency, no build step at install time.  Calls
    release the GIL, so :func:`map_pair_blocks` can thread the pair
    kernel's consumers over blocks of pairs.

Bitwise contract
----------------
The backend is **bitwise-neutral**: the compiled kernels must
reproduce the numpy kernels bit for bit.  Three rules make that
possible:

1. Compiled kernels evaluate **geometry and sequential sums only** —
   every ``log2`` encoding and every per-window ``np.add.reduceat``
   reduction stays in numpy on every backend (numpy's SIMD ``log2`` is
   not bitwise equal to libm's, and ``reduceat`` uses pairwise
   summation no C loop should try to imitate).
2. Reductions replicate numpy's accumulation orders exactly:
   ``np.einsum("ij,ij->i")`` is a zero-initialised two-accumulator
   (even/odd) sum, ``np.sum(..., axis=1)`` a zero-initialised
   sequential sum; both verified for inner dims ≤
   :data:`MAX_COMPILED_DIM`, above which dispatch falls back to numpy.
   ``np.bincount(rows, weights=...)``, and ``mean(axis=0)`` of an
   array with two or more columns, add in input order into zeroed
   outputs.
3. ``cext`` is used only after passing a bitwise **parity self-test**
   against the numpy kernels on a probe corpus (degenerate segments,
   equal-length ties, huge/tiny coordinates included), so a platform
   whose libm/codegen breaks parity silently degrades to numpy instead
   of corrupting caches.

Selection
---------
The host chooses: ``cext`` when it compiles, passes the parity gate
and ``REPRO_KERNEL_DISABLE_CEXT`` is unset, numpy otherwise.  No config
field or command-line option changes that, and no artifact fingerprint
depends on it, so a numpy host and a cext host share one Workspace
cache.  :func:`use_backend` overrides the choice process-wide, for
benches and tests that compare the backends in one process.
``repro doctor`` reports what is usable and what this host dispatches
to.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ClusteringError

if TYPE_CHECKING:
    from repro.kernels.cext import CExtBackend

#: Backend names :func:`use_backend` and :func:`resolve_backend` accept
#: (``auto`` is the host's choice).
KERNEL_BACKENDS = ("auto", "numpy", "cext")

#: Default number of pairs per pair-kernel block.  One block's scratch
#: is ~15 MB on ``cext`` and ~145 MB on the numpy path (its per-pair
#: gathers and temporaries).
DEFAULT_PAIR_BLOCK = 1 << 18

#: The compiled backend replicates numpy's two-accumulator einsum
#: order, verified for inner (spatial) dims up to this; larger dims
#: always take the numpy path.
MAX_COMPILED_DIM = 5

#: Histogram buckets for per-kernel-call timings (seconds) — kernel
#: calls are µs-to-ms, far below the serve-layer latency buckets.
KERNEL_SECONDS_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
)

_lock = threading.Lock()
#: ``(backend or None, status)`` of the ``cext`` detection, once run.
_cext: Optional[Tuple[Optional["CExtBackend"], str]] = None
#: :data:`_override` when no :func:`use_backend` block is open.
_HOST = object()
#: The backend :func:`use_backend` installed (``None`` = numpy).
_override: object = _HOST
_metrics = None  # optional MetricsRegistry for kernel_seconds/gauge


def _detect() -> Tuple[Optional["CExtBackend"], str]:
    """Build, load and parity-check ``cext``, once per process."""
    global _cext
    if _cext is None:
        with _lock:
            if _cext is None:
                from repro.kernels import cext

                _cext = cext.load_backend()
    return _cext


def available_backends() -> Dict[str, str]:
    """Availability report: backend name -> status string (``"ok"``-
    prefixed when usable).  Drives ``repro doctor``."""
    return {"numpy": "ok (always available)", "cext": _detect()[1]}


def resolve_backend(name: str = "auto") -> Optional["CExtBackend"]:
    """The backend object *name* stands for (``None`` = numpy).

    ``auto`` is the host's choice: ``cext`` when usable, else numpy.
    Naming ``cext`` on a host without it raises (an explicit choice
    should not silently degrade)."""
    if name not in KERNEL_BACKENDS:
        raise ClusteringError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    if name == "numpy":
        return None
    backend, status = _detect()
    if backend is None and name == "cext":
        raise ClusteringError(
            f"kernel backend 'cext' is not available on this host "
            f"({status})"
        )
    return backend


def resolved_name(name: str = "auto") -> str:
    """The concrete backend ``name`` resolves to (``"numpy"`` for the
    fallback) — what ``repro doctor`` and the telemetry gauge report."""
    backend = resolve_backend(name)
    return "numpy" if backend is None else backend.name


@contextlib.contextmanager
def use_backend(name: str):
    """Dispatch every kernel call to backend *name* for a dynamic
    extent, then restore the previous choice (blocks nest).

    The override is process-wide: every thread sees it, the workers of
    :func:`map_pair_blocks` included.  It is for benches and tests that
    compare backends in one process, **not for concurrent use** — two
    threads in overlapping blocks overwrite each other's choice.  The
    library itself never calls it."""
    global _override
    backend = resolve_backend(name)
    previous = _override
    _override = backend
    try:
        yield
    finally:
        _override = previous


def active_backend() -> Optional["CExtBackend"]:
    """The backend kernel calls dispatch to right now (``None`` =
    numpy): the :func:`use_backend` override, else the host's choice."""
    backend = _override
    if backend is _HOST:
        return _detect()[0]
    return backend


# ----------------------------------------------------------------------
# Threading the pair kernel over blocks
# ----------------------------------------------------------------------

def kernel_threads() -> int:
    """Worker-thread count for :func:`map_pair_blocks` when the compiled
    backend is active (``REPRO_KERNEL_THREADS`` overrides; 0/1 disables
    threading)."""
    env = os.environ.get("REPRO_KERNEL_THREADS")
    if env is not None:
        try:
            return max(int(env), 0)
        except ValueError:
            return 1
    return min(os.cpu_count() or 1, 8)


def map_pair_blocks(
    stream: Iterator[Tuple[np.ndarray, np.ndarray]],
    evaluate: Callable[[np.ndarray, np.ndarray], object],
) -> Iterator[object]:
    """Apply *evaluate* to every ``(left, right)`` block of pairs,
    threading across blocks when the compiled backend, whose calls drop
    the GIL, is active.

    Results are yielded in **submission order**, so consumers see the
    exact sequence the sequential loop would produce (and a float sum
    over them is the same on every thread count), and the number of
    in-flight blocks is bounded (workers + 2) to keep scratch memory at
    ``O(pair_block)`` per worker.  Workers dispatch to the backend the
    caller does: the choice is process-wide.
    """
    workers = kernel_threads() if active_backend() is not None else 0
    if workers <= 1:
        for left, right in stream:
            yield evaluate(left, right)
        return

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight: deque = deque()
        for left, right in stream:
            in_flight.append(pool.submit(evaluate, left, right))
            if len(in_flight) > workers + 2:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


# ----------------------------------------------------------------------
# Telemetry: kernel_backend gauge + kernel_seconds histograms
# ----------------------------------------------------------------------

def set_metrics_registry(registry) -> None:
    """Attach a :class:`repro.obs.metrics.MetricsRegistry`: kernel
    dispatch starts recording ``repro_kernel_seconds{kernel,backend}``
    histograms, and a ``repro_kernel_backend{backend}`` gauge reports
    the backend this host dispatches to.  Pass ``None`` to detach."""
    global _metrics
    _metrics = registry
    if registry is not None:
        registry.gauge(
            "repro_kernel_backend",
            "Resolved kernel backend (1 on the active backend's label)",
            backend=resolved_name(),
        ).set(1.0)


class _KernelTimer:
    """``with maybe_time("pair_distance", "cext"):`` — records one
    ``repro_kernel_seconds`` observation; zero-allocation no-op when no
    registry is attached."""

    __slots__ = ("kernel", "backend", "t0")

    def __init__(self, kernel: str, backend: str):
        self.kernel = kernel
        self.backend = backend

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        registry = _metrics
        if registry is not None:
            registry.histogram(
                "repro_kernel_seconds",
                "Per-call latency of the hot kernels, by backend",
                buckets=KERNEL_SECONDS_BUCKETS,
                kernel=self.kernel,
                backend=self.backend,
            ).observe(time.perf_counter() - self.t0)
        return False


class _NullTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


def maybe_time(kernel: str, backend: str):
    """Timer context for one kernel call; no-op without a registry."""
    if _metrics is None:
        return _NULL_TIMER
    return _KernelTimer(kernel, backend)


def capability_report() -> Dict[str, object]:
    """The ``repro doctor`` payload: per-backend availability, the
    backend this host dispatches to (``auto_resolves_to``), and the
    numpy/BLAS thread environment serve operators should check before
    trusting a fleet to run compiled."""
    return {
        "backends": available_backends(),
        "auto_resolves_to": resolved_name("auto"),
        "max_compiled_dim": MAX_COMPILED_DIM,
        "numpy_version": np.__version__,
        "thread_env": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
                "REPRO_KERNEL_THREADS",
            )
        },
        "cpu_count": os.cpu_count(),
    }


def _reset_for_tests() -> None:
    """Drop all cached state (test hook — lets a suite re-detect the
    backend under a modified environment)."""
    global _cext, _override, _metrics
    with _lock:
        _cext = None
    _override = _HOST
    _metrics = None
