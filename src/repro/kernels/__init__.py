"""Optional compiled kernel backends for the four hot paths.

Every engine in this repo — batch fit, streaming, the amortized sweep,
the Workspace artifact graph, ``repro serve`` — bottoms out in four
pure-numpy kernels: the role-assigned pair-component distance kernel
(:func:`repro.distance.vectorized.component_distances_pairs`, driving
the blocked neighbor-graph join, QMeasure's pairwise sums and
:func:`repro.distance.matrix.pairwise_distance_matrix`), the
endpoint-pair kernel (:func:`repro.cluster.neighbor_graph.endpoint_pairs`,
the neighbor-graph join's candidate test), the multi-window MDL cost
kernel (:func:`repro.partition.mdl.window_mdl_costs`, driving the
lock-step Figure-8 scanner) and the crossing-sum kernel
(:func:`repro.representative.sweep.crossing_sums`, averaging the
segments that cross each Figure-15 sweep position).  This package
provides an optional *compiled* backend for all four, auto-detected at
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
Backend selection is **bitwise-neutral**: a compiled backend must
reproduce the numpy kernels bit for bit, which is the same contract
that keeps ``auto`` engines cache-compatible.  Three rules make that
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
3. A backend registers only after passing a bitwise **parity
   self-test** against the numpy kernels on a probe corpus (degenerate
   segments, equal-length ties, huge/tiny coordinates included), so a
   platform whose libm/codegen breaks parity silently degrades to
   numpy instead of corrupting caches.

Selection rides ``TraclusConfig.kernel_backend`` (``"auto"``,
``"numpy"``, ``"cext"``), threaded through the CLI and
serve worker config.  The knob is *excluded* from Workspace artifact
fingerprints — flipping it keeps every cache warm.  ``repro doctor``
reports what is importable and what ``auto`` resolves to.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ClusteringError

#: Accepted values of the ``kernel_backend`` knob.
KERNEL_BACKENDS = ("auto", "numpy", "cext")

#: Default number of pairs per pair-kernel block.  One block's scratch
#: is ~15 MB on ``cext`` and ~145 MB on the numpy path (its per-pair
#: gathers and temporaries).
DEFAULT_PAIR_BLOCK = 1 << 18

#: Compiled backends replicate numpy's two-accumulator einsum order,
#: verified for inner (spatial) dims up to this; larger dims always
#: take the numpy path.
MAX_COMPILED_DIM = 5

#: ``auto`` preference order among compiled backends.
_AUTO_ORDER = ("cext",)

#: Histogram buckets for per-kernel-call timings (seconds) — kernel
#: calls are µs-to-ms, far below the serve-layer latency buckets.
KERNEL_SECONDS_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
)

_lock = threading.Lock()
_registry: Optional[Dict[str, object]] = None  # name -> backend (or None)
_status: Optional[Dict[str, str]] = None  # name -> availability string
_default = "auto"
_tls = threading.local()
_metrics = None  # optional MetricsRegistry for kernel_seconds/gauge


class KernelBackend:
    """Interface of a compiled backend.

    Every entry point returns arrays bitwise identical to the
    corresponding numpy expressions: float64 per-element geometry,
    whose ``log2``/``reduceat`` work the callers finish in numpy,
    Figure 15's float64 per-position crossing sums, and the int64
    candidate keys of the neighbor-graph join's endpoint test.  Any
    method may be ``None`` (unsupported); dispatch then falls back.
    """

    name: str = "?"
    #: True when kernel calls release the GIL (enables the thread pool
    #: of :func:`map_pair_blocks`).
    nogil: bool = False

    def pair_components(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        directed: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(perp, par, angle) for aligned stored-segment pairs —
        bitwise equal to ``_pair_components`` on the gathered rows."""
        raise NotImplementedError

    def mdl_geometry(
        self,
        hyp_starts: np.ndarray,
        hyp_ends: np.ndarray,
        sub_starts: np.ndarray,
        sub_ends: np.ndarray,
        window_of: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(hyp_len, perp_input, theta_input, sub_lens) of
        :func:`~repro.partition.mdl.window_mdl_costs`'s geometry."""
        raise NotImplementedError

    def lockstep_geometry(
        self,
        flat: np.ndarray,
        seg_lens: np.ndarray,
        enc_lens: np.ndarray,
        first: np.ndarray,
        counts: np.ndarray,
        hyp_end_idx: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(hyp_len, perp_input, theta_input, enc_gathered) for the
        persistent-layout lock-step scan — windows are contiguous flat
        ranges ``first[w] .. first[w]+counts[w]-1``, so no gather/
        repeat index arrays are materialised at all."""
        raise NotImplementedError

    def crossing_sums(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        xs: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
    ) -> np.ndarray:
        """``(k, d)`` sums of the segments' points interpolated at the
        sweep positions they cross — bitwise equal to
        :func:`repro.representative.sweep.crossing_sums` on numpy."""
        raise NotImplementedError

    def endpoint_pairs(
        self,
        points: np.ndarray,
        owners: np.ndarray,
        at: np.ndarray,
        first: np.ndarray,
        count: np.ndarray,
        n: int,
        r2: float,
    ) -> np.ndarray:
        """Sorted unique int64 ``probing owner * n + owner`` keys of
        the endpoint pairs within ``r2`` — equal to
        :func:`repro.cluster.neighbor_graph.endpoint_pairs` on numpy."""
        raise NotImplementedError


def _init_registry() -> None:
    global _registry, _status
    if _registry is not None:
        return
    with _lock:
        if _registry is not None:
            return
        registry: Dict[str, object] = {"numpy": None}
        status: Dict[str, str] = {"numpy": "ok (always available)"}
        from repro.kernels import cext as _cext

        backend, reason = _cext.load_backend()
        status["cext"] = reason
        if backend is not None:
            registry["cext"] = backend
        _status = status
        _registry = registry


def available_backends() -> Dict[str, str]:
    """Availability report: backend name -> status string (``"ok"``-
    prefixed when usable).  Drives ``repro doctor``."""
    _init_registry()
    return dict(_status)


def resolve_backend(name: str = "auto") -> Optional[KernelBackend]:
    """Resolve a knob value to a backend object (``None`` = numpy).

    ``auto`` prefers the first available compiled backend in
    :data:`_AUTO_ORDER` and silently falls back to numpy; requesting a
    specific unavailable compiled backend raises (an explicit choice
    should not silently degrade)."""
    if name not in KERNEL_BACKENDS:
        raise ClusteringError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    if name == "numpy":
        return None
    _init_registry()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            backend = _registry.get(candidate)
            if backend is not None:
                return backend
        return None
    backend = _registry.get(name)
    if backend is None:
        raise ClusteringError(
            f"kernel backend {name!r} is not available on this host "
            f"({_status[name]}); use kernel_backend='auto' to fall back "
            f"to numpy automatically"
        )
    return backend


def resolved_name(name: str = "auto") -> str:
    """The concrete backend ``name`` resolves to (``"numpy"`` for the
    fallback) — what ``repro doctor`` and the telemetry gauge report."""
    backend = resolve_backend(name)
    return "numpy" if backend is None else backend.name


def set_default_backend(name: str) -> None:
    """Set the process-wide default knob value (validates the name;
    resolution stays lazy so ``auto`` never raises)."""
    global _default
    if name not in KERNEL_BACKENDS:
        raise ClusteringError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    _default = name
    _set_backend_gauge()


def default_backend_name() -> str:
    return _default


@contextlib.contextmanager
def use_backend(name: Optional[str]):
    """Thread-local override of the backend knob for a dynamic extent —
    how ``TraclusConfig.kernel_backend`` is applied around engine runs
    without threading the knob through every call signature.  ``None``
    is a no-op (inherit the surrounding choice)."""
    if name is None:
        yield
        return
    if name not in KERNEL_BACKENDS:
        raise ClusteringError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(name)
    try:
        yield
    finally:
        stack.pop()


def active_backend() -> Optional[KernelBackend]:
    """The backend the *current thread* should dispatch to right now
    (``None`` = numpy path): innermost :func:`use_backend` override,
    else the process default."""
    stack = getattr(_tls, "stack", None)
    name = stack[-1] if stack else _default
    try:
        return resolve_backend(name)
    except ClusteringError:
        # An explicitly-requested backend can be missing in a *worker*
        # process that inherited the knob (e.g. a serve pool on a
        # degraded host); inside the hot path we degrade to numpy —
        # the front-door resolve_backend() call is where users get the
        # loud error.
        return None


# ----------------------------------------------------------------------
# Threading the pair kernel over blocks
# ----------------------------------------------------------------------

def kernel_threads() -> int:
    """Worker-thread count for :func:`map_pair_blocks` when the active
    backend releases the GIL (``REPRO_KERNEL_THREADS`` overrides; 0/1
    disables threading)."""
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
    threading across blocks when the active compiled backend drops the
    GIL.

    Results are yielded in **submission order**, so consumers see the
    exact sequence the sequential loop would produce (and a float sum
    over them is the same on every thread count), and the number of
    in-flight blocks is bounded (workers + 2) to keep scratch memory at
    ``O(pair_block)`` per worker.  The resolved backend is pinned into
    each worker thread (``use_backend`` is thread-local) so workers
    cannot re-resolve differently.
    """
    backend = active_backend()
    workers = kernel_threads() if backend is not None and backend.nogil else 0
    if workers <= 1:
        for left, right in stream:
            yield evaluate(left, right)
        return

    name = backend.name

    def pinned(left: np.ndarray, right: np.ndarray) -> object:
        with use_backend(name):
            return evaluate(left, right)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight: deque = deque()
        for left, right in stream:
            in_flight.append(pool.submit(pinned, left, right))
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
    what the default knob resolves to.  Pass ``None`` to detach."""
    global _metrics
    _metrics = registry
    _set_backend_gauge()


def _set_backend_gauge() -> None:
    if _metrics is None:
        return
    try:
        name = resolved_name(_default)
    except ClusteringError:
        name = "numpy"
    _metrics.gauge(
        "repro_kernel_backend",
        "Resolved kernel backend (1 on the active backend's label)",
        backend=name,
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
    """The ``repro doctor`` payload: per-backend availability, what the
    current default and ``auto`` resolve to, and the numpy/BLAS thread
    environment serve operators should check before trusting a fleet
    to run compiled."""
    _init_registry()
    report: Dict[str, object] = {
        "backends": available_backends(),
        "default": _default,
        "default_resolves_to": resolved_name(_default),
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
    return report


def _reset_for_tests() -> None:
    """Drop all cached state (test hook — lets a suite re-detect
    backends under a modified environment)."""
    global _registry, _status, _default, _metrics
    with _lock:
        _registry = None
        _status = None
    _default = "auto"
    _metrics = None
    if getattr(_tls, "stack", None):
        _tls.stack = []
