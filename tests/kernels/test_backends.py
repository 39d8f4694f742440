"""Detection, dispatch, and degradation behaviour of :mod:`repro.kernels`.

These tests never assume a compiled backend exists: everything here
must pass on a machine with no C compiler.  Bitwise
equivalence of the backends themselves lives in
``test_backend_equivalence.py``.
"""

import threading

import numpy as np
import pytest

from repro import kernels
from repro.exceptions import ClusteringError
from repro.obs import MetricsRegistry


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Each test sees a freshly detected backend and no override, and
    leaves the same for its successors."""
    kernels._reset_for_tests()
    yield
    kernels._reset_for_tests()


def test_backend_names_are_closed_set():
    assert kernels.KERNEL_BACKENDS == ("auto", "numpy", "cext")


def _usable(status):
    return status.startswith("ok")


def test_available_backends_statuses():
    statuses = kernels.available_backends()
    assert set(statuses) == {"numpy", "cext"}
    assert _usable(statuses["numpy"])  # numpy is unconditional


def test_numpy_always_resolves_to_none():
    assert kernels.resolve_backend("numpy") is None
    assert kernels.resolved_name("numpy") == "numpy"


def test_auto_resolves_to_first_available_or_numpy():
    statuses = kernels.available_backends()
    expected = "cext" if _usable(statuses["cext"]) else "numpy"
    assert kernels.resolved_name("auto") == expected


def test_unknown_backend_name_fails_loudly():
    with pytest.raises(ClusteringError, match="unknown kernel backend"):
        kernels.resolve_backend("fortran")
    with pytest.raises(ClusteringError, match="unknown kernel backend"):
        with kernels.use_backend("fortran"):
            pass
    assert kernels.active_backend() is kernels.resolve_backend("auto")


@pytest.fixture
def cext_missing(monkeypatch):
    """A host without the C backend, whatever this host has."""
    monkeypatch.setenv("REPRO_KERNEL_DISABLE_CEXT", "1")
    kernels._reset_for_tests()
    assert not _usable(kernels.available_backends()["cext"])


def test_explicit_missing_backend_fails_loudly(cext_missing):
    with pytest.raises(ClusteringError, match="cext"):
        kernels.resolve_backend("cext")
    with pytest.raises(ClusteringError, match="cext"):
        with kernels.use_backend("cext"):
            pass
    assert kernels.active_backend() is None


def _seen_from_another_thread():
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(kernels.active_backend())
    )
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return seen[0]


def test_use_backend_nests_and_restores():
    """Overrides are process-wide: they nest, every thread sees the
    innermost one, and each block restores the choice it found, also
    when it ends in an error."""
    host = kernels.resolve_backend("auto")
    assert kernels.active_backend() is host
    with kernels.use_backend("numpy"):
        assert kernels.active_backend() is None
        assert _seen_from_another_thread() is None
        with kernels.use_backend("auto"):
            assert kernels.active_backend() is host
            assert _seen_from_another_thread() is host
        assert kernels.active_backend() is None
    assert kernels.active_backend() is host
    assert _seen_from_another_thread() is host
    with pytest.raises(ValueError):
        with kernels.use_backend("numpy"):
            raise ValueError("inside")
    assert kernels.active_backend() is host


def test_capability_report_shape():
    report = kernels.capability_report()
    assert set(report) == {
        "backends", "auto_resolves_to", "max_compiled_dim",
        "numpy_version", "thread_env", "cpu_count",
    }
    assert set(report["backends"]) == {"numpy", "cext"}
    assert report["auto_resolves_to"] == kernels.resolved_name("auto")
    assert report["max_compiled_dim"] == kernels.MAX_COMPILED_DIM
    assert report["numpy_version"] == np.__version__
    assert "REPRO_KERNEL_THREADS" in report["thread_env"]
    assert report["cpu_count"] >= 1


def test_disable_env_degrades_cext_gracefully(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DISABLE_CEXT", "1")
    kernels._reset_for_tests()
    statuses = kernels.available_backends()
    assert not _usable(statuses["cext"])
    assert kernels.resolved_name("auto") == "numpy"
    assert kernels.resolve_backend("auto") is None
    # Library entry points still work on the numpy path.
    from repro.partition.mdl import mdl_costs

    points = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 1.0]])
    part, nopart = mdl_costs(points, 0, 3)
    assert np.isfinite(part) and np.isfinite(nopart)


def test_metrics_gauge_and_timer():
    from repro.obs.metrics import render_prometheus

    registry = MetricsRegistry(enabled=True)
    kernels.set_metrics_registry(registry)
    try:
        host = kernels.resolved_name()
        text = render_prometheus(registry.snapshot())
        assert f'repro_kernel_backend{{backend="{host}"}} 1' in text
        with kernels.maybe_time("pair_distance", "numpy"):
            pass
        text = render_prometheus(registry.snapshot())
        assert "repro_kernel_seconds" in text
        assert 'kernel="pair_distance"' in text
    finally:
        kernels.set_metrics_registry(None)


def test_numpy_kernel_calls_are_timed(corridor_trajectories):
    """The histogram covers every backend: on numpy, a fit records all
    four kernels under ``backend="numpy"``."""
    from repro import TRACLUS, TraclusConfig
    from repro.obs.metrics import render_prometheus

    registry = MetricsRegistry(enabled=True)
    kernels.set_metrics_registry(registry)
    try:
        with kernels.use_backend("numpy"):
            TRACLUS(TraclusConfig(eps=6.0, min_lns=3)).fit(
                corridor_trajectories
            )
        text = render_prometheus(registry.snapshot())
    finally:
        kernels.set_metrics_registry(None)
    for kernel in (
        "pair_distance", "endpoint_pairs", "lockstep_geometry",
        "crossing_sums",
    ):
        assert (
            f'repro_kernel_seconds_count{{backend="numpy",kernel="{kernel}"}}'
            in text
        ), kernel
    assert 'repro_kernel_seconds_count{backend="cext"' not in text


def test_maybe_time_without_registry_is_noop():
    kernels.set_metrics_registry(None)
    with kernels.maybe_time("mdl_geometry", "numpy"):
        pass  # must not raise


class TestMapPairBlocks:
    """The order-preserving mapper behind the graph join, QMeasure and
    the distance matrix."""

    @staticmethod
    def blocks(n):
        return (
            (np.array([k], dtype=np.int64), np.array([k + 1], dtype=np.int64))
            for k in range(n)
        )

    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 9])
    @pytest.mark.parametrize("threads", ["0", "2"])
    def test_results_in_submission_order(
        self, pair_backend, n_blocks, threads, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", threads)
        with kernels.use_backend(pair_backend):
            results = list(kernels.map_pair_blocks(
                self.blocks(n_blocks), lambda a, b: (int(a[0]), int(b[0]))
            ))
        assert results == [(k, k + 1) for k in range(n_blocks)]

    def test_threads_when_the_backend_releases_the_gil(
        self, pair_backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        caller = threading.get_ident()
        with kernels.use_backend(pair_backend):
            where = list(kernels.map_pair_blocks(
                self.blocks(6), lambda a, b: threading.get_ident()
            ))
        if pair_backend == "numpy":
            assert where == [caller] * 6
        else:
            assert caller not in where

    def test_workers_see_the_override(self, pair_backend, monkeypatch):
        """Every block, on whichever thread runs it, dispatches to the
        backend the caller installed."""
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        with kernels.use_backend(pair_backend):
            seen = list(kernels.map_pair_blocks(
                self.blocks(6), lambda a, b: kernels.active_backend()
            ))
        expected = kernels.resolve_backend(pair_backend)
        assert all(backend is expected for backend in seen)
        assert len(seen) == 6

    def test_worker_errors_reach_the_caller(self, pair_backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")

        def fail_on_third(a, b):
            if a[0] == 2:
                raise ValueError("block 2")
            return int(a[0])

        with kernels.use_backend(pair_backend):
            with pytest.raises(ValueError, match="block 2"):
                list(kernels.map_pair_blocks(self.blocks(5), fail_on_third))
