"""Persistent-layout lock-step scan: bitwise regression vs the rebuild
path, on every available backend.

The :class:`~repro.partition.layout.LockstepLayout` fast path must be
invisible: characteristic points and partition segments bit-for-bit
equal to ``lockstep_scan(..., reuse_layout=False)`` (the historical
rebuild-every-step path on the numpy reference), whether the geometry
runs on numpy or a compiled backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.model.ragged import RaggedPoints
from repro.partition.batched import lockstep_scan


def _backend_params():
    statuses = kernels.available_backends()
    params = [pytest.param("numpy")]
    for name in ("cext",):
        status = statuses[name]
        marks = []
        if not status.startswith("ok"):
            marks.append(pytest.mark.skip(reason=f"{name}: {status}"))
        params.append(pytest.param(name, marks=marks))
    return params


BACKENDS = _backend_params()

coordinate = st.one_of(
    st.integers(min_value=-20, max_value=20).map(lambda v: v / 2.0),
    st.floats(
        min_value=-100.0, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    ),
)


@st.composite
def ragged_walks(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(min_value=1, max_value=14))
        points = [[draw(coordinate), draw(coordinate)]]
        for _ in range(length - 1):
            if draw(st.booleans()) and draw(st.booleans()):
                points.append(list(points[-1]))  # stalled point
            else:
                points.append([draw(coordinate), draw(coordinate)])
        rows.append(np.asarray(points, dtype=np.float64))
    flat = np.concatenate(rows, axis=0)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return RaggedPoints(flat, offsets)


def _assert_scans_equal(expected, actual, context):
    cps_e, starts_e, ends_e = expected
    cps_a, starts_a, ends_a = actual
    assert cps_e == cps_a, f"{context}: characteristic points differ"
    assert starts_e.shape == starts_a.shape
    assert (
        np.ascontiguousarray(starts_e).view(np.uint64)
        == np.ascontiguousarray(starts_a).view(np.uint64)
    ).all(), f"{context}: partition starts differ bitwise"
    assert (
        np.ascontiguousarray(ends_e).view(np.uint64)
        == np.ascontiguousarray(ends_a).view(np.uint64)
    ).all(), f"{context}: partition ends differ bitwise"


def _deterministic_corpus():
    rng = np.random.default_rng(20070612)
    rows = []
    for length in (2, 3, 7, 1, 25, 60, 4, 12):
        walk = np.cumsum(rng.normal(scale=3.0, size=(length, 2)), axis=0)
        rows.append(walk)
    # A stalled stretch: repeated identical points (degenerate windows).
    stalled = np.vstack([rows[4][:10], np.repeat(rows[4][9:10], 8, axis=0)])
    rows[4] = stalled
    flat = np.concatenate(rows, axis=0)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return RaggedPoints(flat, offsets)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLayoutBitwise:
    @given(ragged=ragged_walks(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_layout_matches_rebuild(self, backend, ragged, data):
        suppression = data.draw(st.sampled_from([0.0, 1.0, 3.0]))
        with kernels.use_backend(backend):
            rebuilt = lockstep_scan(
                ragged, suppression, reuse_layout=False
            )
            layered = lockstep_scan(ragged, suppression)
        _assert_scans_equal(
            rebuilt, layered, f"backend={backend} s={suppression}"
        )


def test_backends_agree_on_deterministic_corpus():
    """All usable backends produce one identical scan (transitively via
    the rebuild-path comparisons above, but pinned directly here)."""
    ragged = _deterministic_corpus()
    with kernels.use_backend("numpy"):
        reference = lockstep_scan(ragged, 0.9)
    statuses = kernels.available_backends()
    for name in ("cext",):
        if not statuses[name].startswith("ok"):
            continue
        with kernels.use_backend(name):
            _assert_scans_equal(
                reference, lockstep_scan(ragged, 0.9), f"backend={name}"
            )
