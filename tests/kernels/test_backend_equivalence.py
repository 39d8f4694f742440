"""Bitwise equivalence of the compiled kernel backends vs numpy.

``kernel_backend`` is a pure performance knob: every distance, MDL
cost, characteristic point, and cluster label must be *bitwise*
identical no matter which backend computed it.  These hypothesis suites
pin that claim per available backend (absent backends skip, visibly),
and a cache pin asserts the knob stays outside the artifact
fingerprint — a warm cache written on numpy is served verbatim to a
compiled run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TRACLUS, TraclusConfig, kernels
from repro.api.workspace import Workspace
from repro.cluster.neighbor_graph import NeighborGraph
from repro.distance.vectorized import component_distances_pairs
from repro.model.ragged import RaggedPoints
from repro.model.segment import Segment
from repro.model.segmentset import SegmentSet
from repro.kernels.selftest import parity_check
from repro.partition.batched import _rebuild_step_costs, lockstep_scan
from repro.partition.layout import LockstepLayout


def backend_params():
    """One ``pytest.param`` per compiled backend; unavailable ones are
    skip-marked with the doctor status so the report names the gap."""
    statuses = kernels.available_backends()
    params = []
    for name in ("cext",):
        status = statuses[name]
        marks = []
        if not status.startswith("ok"):
            marks.append(pytest.mark.skip(reason=f"{name}: {status}"))
        params.append(pytest.param(name, marks=marks))
    return params


BACKENDS = backend_params()

# Mix of lattice coordinates (exact ties, shared endpoints) and free
# floats (generic geometry) — the regimes where one-ulp divergence in a
# compiled kernel would show.
lattice_coordinate = st.integers(min_value=-20, max_value=20).map(
    lambda v: v / 2.0
)
float_coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
coordinate = st.one_of(lattice_coordinate, float_coordinate)


@st.composite
def segment_store(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    segments = []
    for i in range(n):
        if segments and draw(st.booleans()) and draw(st.booleans()):
            source = draw(
                st.integers(min_value=0, max_value=len(segments) - 1)
            )
            start, end = segments[source].start, segments[source].end
        else:
            vals = [draw(coordinate) for _ in range(4)]
            start, end = vals[0:2], vals[2:4]
            if draw(st.booleans()) and draw(st.booleans()):
                end = start  # degenerate point segment
        segments.append(Segment(start, end, seg_id=i, traj_id=i % 3))
    return SegmentSet.from_segments(segments)


@st.composite
def ragged_walks(draw):
    """A small ragged corpus of 2-D walks, with repeated points (stalls)
    and single-point rows mixed in."""
    n_rows = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(min_value=1, max_value=12))
        points = [[draw(coordinate), draw(coordinate)]]
        for _ in range(length - 1):
            if draw(st.booleans()) and draw(st.booleans()):
                points.append(list(points[-1]))  # stall
            else:
                points.append([draw(coordinate), draw(coordinate)])
        rows.append(np.asarray(points, dtype=np.float64))
    flat = np.concatenate(rows, axis=0)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return RaggedPoints(flat, offsets)


def _assert_bitwise(label, numpy_value, compiled_value):
    a = np.ascontiguousarray(numpy_value)
    b = np.ascontiguousarray(compiled_value)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    same = a.view(np.uint64) == b.view(np.uint64)
    assert same.all(), (
        f"{label}: {np.count_nonzero(~same)} of {a.size} values differ "
        f"bitwise (max abs diff {np.max(np.abs(a - b))})"
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestPairKernelEquivalence:
    @given(store=segment_store(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_pair_components_bitwise(self, backend, store, data):
        n = len(store)
        pair_index = st.integers(min_value=0, max_value=n - 1)
        n_pairs = data.draw(st.integers(min_value=1, max_value=40))
        left = np.asarray(
            [data.draw(pair_index) for _ in range(n_pairs)], dtype=np.int64
        )
        right = np.asarray(
            [data.draw(pair_index) for _ in range(n_pairs)], dtype=np.int64
        )
        directed = data.draw(st.booleans())
        with kernels.use_backend("numpy"):
            expected = component_distances_pairs(
                store, left, right, directed=directed
            )
        with kernels.use_backend(backend):
            assert kernels.active_backend() is not None
            actual = component_distances_pairs(
                store, left, right, directed=directed
            )
        _assert_bitwise("perpendicular", expected.perpendicular,
                        actual.perpendicular)
        _assert_bitwise("parallel", expected.parallel, actual.parallel)
        _assert_bitwise("angle", expected.angle, actual.angle)

    @given(
        store=segment_store(),
        eps=st.floats(min_value=0.0, max_value=30.0),
        pair_block=st.sampled_from([1, 5, kernels.DEFAULT_PAIR_BLOCK]),
    )
    @settings(max_examples=50, deadline=None)
    def test_neighbor_graph_bitwise(self, backend, store, eps, pair_block):
        """The endpoint join and the pair kernel together: the CSR of
        the ε-graph is identical on both backends."""
        graphs = []
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                graphs.append(
                    NeighborGraph.build(store, eps, pair_block=pair_block)
                )
        expected, actual = graphs
        assert np.array_equal(expected.indptr, actual.indptr)
        assert np.array_equal(expected.indices, actual.indices)
        _assert_bitwise("data", expected.data, actual.data)


def _windows_of(ragged):
    """Every window of span 1-3 over every row of *ragged*, as the
    ``(first, counts)`` of its contiguous flat range."""
    first, counts = [], []
    for t in range(len(ragged.offsets) - 1):
        lo, hi = int(ragged.offsets[t]), int(ragged.offsets[t + 1])
        for i in range(lo, hi - 1):
            for span in (1, 2, 3):
                if i + span >= hi:
                    break
                first.append(i)
                counts.append(span)
    if not first:
        return None
    return (
        np.asarray(first, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestMdlKernelEquivalence:
    @given(ragged=ragged_walks())
    @settings(max_examples=50, deadline=None)
    def test_window_mdl_costs_bitwise(self, backend, ragged):
        """The contiguous window kernel, on numpy and on *backend*,
        equals the reference on the gathered rows."""
        windows = _windows_of(ragged)
        if windows is None:
            return  # all rows single-point: nothing to evaluate
        expected = _rebuild_step_costs(ragged.flat, *windows)
        layout = LockstepLayout(ragged.flat)
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                if name != "numpy":
                    assert kernels.active_backend() is not None
                actual = layout.window_costs(*windows)
            for label, e, a in zip(("lh", "ldh", "nopar"), expected, actual):
                _assert_bitwise(f"{name}/{label}", e, a)

    @given(ragged=ragged_walks(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_lockstep_scan_bitwise(self, backend, ragged, data):
        suppression = data.draw(
            st.sampled_from([0.0, 0.5, 1.0, 2.0])
        )
        with kernels.use_backend("numpy"):
            cps_n, starts_n, ends_n = lockstep_scan(ragged, suppression)
        with kernels.use_backend(backend):
            cps_c, starts_c, ends_c = lockstep_scan(ragged, suppression)
        assert cps_n == cps_c
        _assert_bitwise("starts", starts_n, starts_c)
        _assert_bitwise("ends", ends_n, ends_c)


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_gate_rejects_rows_seeded_from_their_first_term(backend):
    """A crossing-sum kernel that starts each row from its first term,
    not from zero, turns an all -0.0 row into -0.0 where numpy gives
    +0.0: the registration gate must refuse it."""
    real = kernels.resolve_backend(backend)

    class SeededRows(type(real)):
        def crossing_sums(self, starts, ends, xs, first, last):
            sums = np.zeros((xs.shape[0], starts.shape[1]))
            seeded = np.zeros(xs.shape[0], dtype=bool)
            for i in range(starts.shape[0]):
                s, e = starts[i], ends[i]
                span = e[0] - s[0]
                for r in range(first[i], last[i]):
                    t = 0.5
                    if span != 0.0:
                        t = min(max((xs[r] - s[0]) / span, 0.0), 1.0)
                    point = s + t * (e - s)
                    if seeded[r]:
                        sums[r] += point
                    else:
                        sums[r], seeded[r] = point, True
            return sums

    failure = parity_check(SeededRows(real._lib, real.lib_path))
    assert failure is not None and failure.startswith("crossing/"), failure


def endpoint_twin(real, strict):
    """A Python endpoint-pair kernel over *real*'s backend class that
    keeps a pair at ``d2 <= r2``, or only at ``d2 < r2`` when
    *strict*."""

    class Twin(type(real)):
        def endpoint_pairs(self, points, owners, at, first, count, n, r2):
            keys = set()
            for j in range(at.size):
                rows = np.arange(first[j], first[j] + count[j])
                gaps = points[at[j]] - points[rows]
                d2 = np.einsum("ij,ij->i", gaps, gaps)
                near = d2 < r2 if strict else d2 <= r2
                keys.update(owners[at[j]] * n + owners[rows[near]])
            return np.array(sorted(keys), dtype=np.int64)

    return Twin(real._lib, real.lib_path)


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_gate_rejects_an_endpoint_test_that_drops_the_boundary(backend):
    """Squared endpoint distances exactly at ``r2`` must be kept: the
    registration gate passes a twin that keeps them and refuses one
    that tests ``< r2``."""
    real = kernels.resolve_backend(backend)
    assert parity_check(endpoint_twin(real, strict=False)) is None
    failure = parity_check(endpoint_twin(real, strict=True))
    assert failure is not None and failure.startswith("endpoint/"), failure


@pytest.mark.parametrize("backend", BACKENDS)
def test_full_pipeline_labels_bitwise(backend, corridor_trajectories):
    """End to end: characteristic points, labels, and parameters of a
    full fit are identical across backends."""
    def fit(backend_name):
        config = TraclusConfig(
            eps=6.0, min_lns=3,
            compute_representatives=False,
            kernel_backend=backend_name,
        )
        return TRACLUS(config).fit(corridor_trajectories)

    expected = fit("numpy")
    actual = fit(backend)
    assert np.array_equal(expected.labels, actual.labels)
    assert expected.characteristic_points == actual.characteristic_points
    assert expected.parameters == actual.parameters


@pytest.mark.parametrize("backend", BACKENDS)
def test_fingerprint_excludes_kernel_backend(
    backend, corridor_trajectories, tmp_path
):
    """The knob is bitwise-neutral, so artifacts written under one
    backend must be served verbatim to another: flipping the backend on
    a warm cache performs zero builds."""
    cold = Workspace(
        corridor_trajectories,
        TraclusConfig(
            compute_representatives=False, kernel_backend="numpy"
        ),
        cache_dir=str(tmp_path),
    )
    cold_labels = cold.labels(6.0, 3.0)
    assert cold.stats.builds  # the cold run did build artifacts

    warm = Workspace(
        corridor_trajectories,
        TraclusConfig(
            compute_representatives=False, kernel_backend=backend
        ),
        cache_dir=str(tmp_path),
    )
    warm_labels = warm.labels(6.0, 3.0)
    assert np.array_equal(cold_labels, warm_labels)
    assert warm.stats.builds == {}  # nothing recomputed on the flip


def test_fingerprint_neutrality_holds_even_without_compiled_backends(
    corridor_trajectories, tmp_path
):
    """Same pin for the auto knob on any host (no compiled backend
    required): numpy-written cache, auto-read, zero builds."""
    cold = Workspace(
        corridor_trajectories,
        TraclusConfig(
            compute_representatives=False, kernel_backend="numpy"
        ),
        cache_dir=str(tmp_path),
    )
    cold_labels = cold.labels(6.0, 3.0)
    warm = Workspace(
        corridor_trajectories,
        TraclusConfig(compute_representatives=False, kernel_backend="auto"),
        cache_dir=str(tmp_path),
    )
    assert np.array_equal(cold_labels, warm.labels(6.0, 3.0))
    assert warm.stats.builds == {}
