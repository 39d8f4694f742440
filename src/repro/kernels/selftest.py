"""Bitwise parity gate for the compiled kernel backend.

``cext`` is used only if :func:`parity_check` passes: every output
of its four entry points must be **bit-for-bit identical** to the
pure-numpy kernels on a deterministic probe corpus that covers the
branchy cases — degenerate (zero-length) segments, equal-length ties
in both id orders, huge and tiny coordinates, anti-parallel pairs
(negative dots), single-segment windows, degenerate hypotheses, both
2-D and 3-D data; for the Figure-15 crossing sums zero X' extents,
signed zeros and every compiled dimension; and for the endpoint-pair
kernel squared distances exactly at ``r2``, signed zeros, zero-length
segments, dense cells and every compiled dimension.

The references are the *undispatched* numpy implementations
(``_pair_components`` / ``_window_mdl_costs_numpy``, on rows gathered
by ``_rebuild_step_costs`` / ``_crossing_sums_numpy`` /
``_endpoint_pairs_numpy``), so the check can run from inside backend
detection without re-entering dispatch.
The MDL windows' geometry goes through the same numpy tail the
dispatcher uses (``repro.partition.mdl._finish_window_costs``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _mismatch(name: str, got: np.ndarray, want: np.ndarray) -> Optional[str]:
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    bad = _bits(got) != _bits(want)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return (
            f"{name}: {int(bad.sum())}/{bad.size} values differ "
            f"(first at [{k}]: {got.flat[k]!r} != {want.flat[k]!r})"
        )
    return None


def _probe_segments(rng: np.random.Generator, d: int) -> np.ndarray:
    """(n, 2, d) start/end probe segments with adversarial cases."""
    n = 257
    pts = rng.standard_normal((n, 2, d))
    pts *= np.exp(rng.uniform(-6.0, 6.0, (n, 1, 1)))
    # Degenerate segments (end == start), incl. exact zero coordinates.
    pts[3, 1] = pts[3, 0]
    pts[17] = 0.0
    # Equal-length pairs for the id tie break: translated copies.
    pts[20] = pts[21] + 1.5
    pts[22] = pts[23] - 0.25
    # Anti-parallel neighbors (negative dots -> angle fallback).
    pts[30, 1] = pts[30, 0] - (pts[31, 1] - pts[31, 0])
    # Huge and tiny magnitudes.
    pts[40] *= 1e150
    pts[41] *= 1e-150
    pts[42, 1] = pts[42, 0] + 1e-160  # subnormal squared length
    return pts


def _check_pairs(backend, rng: np.random.Generator, d: int) -> Optional[str]:
    from repro.distance.vectorized import _pair_components

    pts = _probe_segments(rng, d)
    starts = np.ascontiguousarray(pts[:, 0])
    ends = np.ascontiguousarray(pts[:, 1])
    n = starts.shape[0]
    m = 1024
    left = rng.integers(0, n, m)
    right = rng.integers(0, n, m)
    # Self pairs, tie pairs both ways, degenerate-vs-degenerate.
    left[:4] = (5, 20, 21, 3)
    right[:4] = (5, 21, 20, 17)
    left = np.ascontiguousarray(left, dtype=np.int64)
    right = np.ascontiguousarray(right, dtype=np.int64)
    for directed in (True, False):
        want = _pair_components(
            starts[left], ends[left], left,
            starts[right], ends[right], right,
            directed=directed,
        )
        perp, par, ang = backend.pair_components(
            starts, ends, left, right, directed
        )
        for name, got, ref in (
            ("perp", perp, want.perpendicular),
            ("par", par, want.parallel),
            ("angle", ang, want.angle),
        ):
            bad = _mismatch(f"pair/{name}/d={d}/directed={directed}",
                            got, ref)
            if bad:
                return bad
    return None


def _probe_windows(rng: np.random.Generator, d: int):
    """A ragged multi-window probe (first/counts over a flat walk)."""
    n_pts = 400
    flat = np.cumsum(rng.standard_normal((n_pts, d)), axis=0)
    flat[100:110] = flat[99]  # stalled stretch: degenerate everything
    flat *= np.exp(rng.uniform(-3.0, 3.0))
    counts = np.ascontiguousarray(
        rng.integers(1, 24, 40), dtype=np.int64
    )
    counts[5] = 1  # single-segment window (ldh == 0 fix path)
    first = np.ascontiguousarray(
        rng.integers(0, n_pts - 1 - int(counts.max()), 40), dtype=np.int64
    )
    first[7] = 100  # hypothesis inside the stalled stretch: degenerate
    counts[7] = 8
    return np.ascontiguousarray(flat), first, counts


def _check_mdl(backend, rng: np.random.Generator, d: int) -> Optional[str]:
    """The contiguous window kernel against the reference on the
    gathered rows of the same windows."""
    from repro.partition.batched import _rebuild_step_costs
    from repro.partition.layout import LockstepLayout
    from repro.partition.mdl import _finish_window_costs

    flat, first, counts = _probe_windows(rng, d)
    want = _rebuild_step_costs(flat, first, counts)
    layout = LockstepLayout(flat)
    got = _finish_window_costs(
        *backend.lockstep_geometry(
            layout.flat, layout.seg_lens, layout.enc_lens, first, counts
        ),
        np.cumsum(counts) - counts,
        counts,
    )
    for name, g, w in zip(("lh", "ldh", "nopar"), got, want):
        bad = _mismatch(f"mdl/{name}/d={d}", g, w)
        if bad:
            return bad
    return None


def _probe_crossings(rng: np.random.Generator, d: int):
    """A Figure-15 sweep input: segments in the sweep frame, the sorted
    endpoint positions (so every segment starts and ends on one, and a
    reversed segment starts at ``t = -0.0``) and each segment's range of
    crossed positions."""
    n = 96
    starts = rng.standard_normal((n, d)) * np.exp(
        rng.uniform(-3.0, 3.0, (n, 1))
    )
    ends = starts + rng.standard_normal((n, d))
    ends[:6, 0] = starts[:6, 0]  # zero X' extent: the midpoint branch
    starts[6:12, 1:] = -0.0  # signed zeros
    ends[9:12, 1:] = 0.0
    # Lone segments, forward and reversed, whose first position's row
    # holds only -0.0 terms: it must sum to +0.0 from a zeroed row.
    starts[12], ends[12] = -0.0, -1.0
    starts[12, 0], ends[12, 0] = 1e3, 1e3 + 1.0
    starts[13], ends[13] = -0.0, 1.0
    starts[13, 0], ends[13, 0] = 2e3, 2e3 - 1.0
    xs = np.unique(np.concatenate([starts[:, 0], ends[:, 0], [500.0]]))
    first = np.searchsorted(xs, np.minimum(starts[:, 0], ends[:, 0]), "left")
    last = np.searchsorted(xs, np.maximum(starts[:, 0], ends[:, 0]), "right")
    return starts, ends, xs, first, last


def _check_crossings(backend, rng: np.random.Generator, d: int) -> Optional[str]:
    from repro.representative.sweep import _crossing_sums_numpy

    probe = _probe_crossings(rng, d)
    return _mismatch(
        f"crossing/d={d}",
        backend.crossing_sums(*probe),
        _crossing_sums_numpy(*probe),
    )


def _probe_endpoints(rng: np.random.Generator, d: int):
    """Two endpoint joins over one dense cell, the layout the ε-graph
    join uses when every endpoint shares a cell: rows sorted by owner,
    each endpoint probing the rows of the higher owners, split into two
    overlapping runs so a pair is met twice.  The first has half-unit
    lattice coordinates, so many squared distances equal ``r2 = 1.0``
    exactly, with ``-0.0`` coordinates and zero-length segments (an
    owner twice in the cell); the second has free floats and ``r2``
    set to one pair's computed squared distance."""
    n = 48
    lattice = rng.integers(-2, 3, (2 * n, d)) / 2.0
    lattice[(lattice == 0.0) & (rng.random((2 * n, d)) < 0.5)] = -0.0
    lattice[1:12:2] = lattice[0:12:2]  # segments 0-5 have zero length
    floats = rng.standard_normal((2 * n, d)) * np.exp(rng.uniform(-3.0, 3.0))
    gap = floats[:1] - floats[9:10]
    owners = np.repeat(np.arange(n, dtype=np.int64), 2)
    at = np.repeat(np.arange(2 * n, dtype=np.int64), 2)
    tail = 2 * (owners[at] + 1)  # the first row of a higher owner
    size = 2 * n - tail
    first = np.where(np.arange(at.size) % 2 == 0, tail, tail + size // 3)
    last = np.where(np.arange(at.size) % 2 == 0, tail + 2 * size // 3, 2 * n)
    runs = (owners, at, first, last - first, n)
    return [
        (lattice, *runs, 1.0),
        (floats, *runs, float(np.einsum("ij,ij->i", gap, gap)[0])),
    ]


def _check_endpoints(backend, rng: np.random.Generator, d: int) -> Optional[str]:
    from repro.cluster.neighbor_graph import _endpoint_pairs_numpy

    for k, probe in enumerate(_probe_endpoints(rng, d)):
        got = backend.endpoint_pairs(*probe)
        want = _endpoint_pairs_numpy(*probe)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return (
                f"endpoint/{k}/d={d}: {got.size} keys != {want.size} keys "
                f"(first difference at "
                f"{np.setxor1d(got, want)[:1].tolist()})"
            )
    return None


def parity_check(backend) -> Optional[str]:
    """Run the full bitwise gate; ``None`` on success, else a message
    describing the first divergence (surfaced by ``repro doctor``)."""
    from repro.kernels import MAX_COMPILED_DIM

    rng = np.random.default_rng(20070612)  # SIGMOD'07 vintage
    for d in (2, 3):
        failure = _check_pairs(backend, rng, d)
        if failure:
            return failure
        failure = _check_mdl(backend, rng, d)
        if failure:
            return failure
    for d in range(2, MAX_COMPILED_DIM + 1):
        failure = _check_crossings(backend, rng, d) or _check_endpoints(
            backend, rng, d
        )
        if failure:
            return failure
    return None
