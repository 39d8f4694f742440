"""The MDL cost model for trajectory partitioning (Section 3.2).

Two-part code: ``L(H)`` is the description length of the hypothesis (a
set of trajectory partitions) and ``L(D|H)`` the description length of
the data given the hypothesis.

* Formula (6): ``L(H) = sum_j log2(len(p_cj p_cj+1))`` — the lengths of
  the partitions, *not* their endpoint coordinates, so the cost (and
  hence the partitioning) is invariant under translation (Appendix C).
* Formula (7): ``L(D|H) = sum_j sum_k log2(d_perp(part_j, seg_k)) +
  log2(d_theta(part_j, seg_k))`` over the original segments ``seg_k``
  enclosed by each partition.  The parallel distance is omitted because
  a partition encloses its segments.

Real values are encoded with precision ``delta = 1`` (Section 3.2), so
``L(x) = log2(x)``; values below 1 encode in 0 bits — this clamp is
centralised in :func:`clamped_log2` (array) and its scalar facade
:func:`encoded_cost`.

The distance components inside ``L(D|H)`` treat the *partition* as the
reference line ``Li`` (that is how Formula (7) writes its arguments:
the hypothesis segment first), and use the directed angle distance.

Engine-sharing contract
-----------------------
Every window Figure 8 evaluates is a run of consecutive points, so
every caller — the per-trajectory scan
(:class:`~repro.partition.incremental.IncrementalPartitioner`, which
:func:`~repro.partition.approximate.approximate_partition` drives), the
lock-step corpus scan (:func:`~repro.partition.batched.lockstep_scan`)
and :func:`~repro.partition.exact.exact_partition` through
:func:`mdl_par` — evaluates its costs through the *same* contiguous
kernel, :meth:`LockstepLayout.window_costs
<repro.partition.layout.LockstepLayout.window_costs>`: windows
``first[w] .. first[w] + counts[w]`` of one point array.  The scalar
wrappers below build that layout over ``points[i:j + 1]`` and evaluate
its one window.  Every elementwise operation is an IEEE-exact ufunc
(no BLAS mat-vec, whose FMA use would differ from an explicit
multiply-add) and every per-window sum is a ``np.add.reduceat`` over a
contiguous slice (:func:`_finish_window_costs`), so a window's costs
are bitwise identical whether it is evaluated alone or next to a
thousand other windows.  Identical cost bits mean identical Figure-8
comparisons, which is what lets the lock-step scan promise *exactly*
the characteristic points of the per-trajectory scan.

:func:`_window_mdl_costs_numpy` is the one numpy reference: it
recomputes every quantity from gathered coordinates, and the compiled
backend's parity gate (:mod:`repro.kernels.selftest`) and the
Figure-8 reference tests compare against it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import PartitionError


def clamped_log2(
    values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``L(x)`` in bits at precision delta = 1: ``log2(x)``, clamped to
    0 for ``x < 1`` (such values round to an integer representable in
    zero bits).  Elementwise over any shape; the single clamped-log2
    used by every engine.  ``out=values`` encodes in place."""
    return np.log2(np.maximum(values, 1.0, out=out), out=out)


def encoded_cost(x: float) -> float:
    """Scalar facade over :func:`clamped_log2`."""
    return float(clamped_log2(np.float64(x)))


def _check_indices(points: np.ndarray, i: int, j: int) -> None:
    if points.ndim != 2:
        raise PartitionError(f"points must be (n, d), got shape {points.shape}")
    n = points.shape[0]
    if not (0 <= i < j < n):
        raise PartitionError(
            f"need 0 <= i < j < {n}, got i={i}, j={j}"
        )


def _window_mdl_costs_numpy(
    hyp_starts: np.ndarray,
    hyp_ends: np.ndarray,
    sub_starts: np.ndarray,
    sub_ends: np.ndarray,
    window_of: np.ndarray,
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MDL cost components of many candidate partitions, recomputed
    from gathered coordinates: the bitwise reference of every engine.

    Window ``w`` hypothesises one partition ``hyp_starts[w] ->
    hyp_ends[w]`` over the enclosed original segments
    ``sub_starts[k] -> sub_ends[k]`` for ``k`` in the contiguous flat
    range ``offsets[w] .. offsets[w+1]-1`` (the last window runs to the
    end of the flat arrays).  ``window_of[k]`` maps flat segment ``k``
    back to its window; every window must enclose at least one segment.

    Returns ``(lh, ldh, nopar)`` per window: Formula (6), Formula (7),
    and the no-partitioning cost (the summed encoded lengths of the
    enclosed segments).  ``MDL_par = lh + ldh``; ``MDL_nopar = nopar``.

    A window whose hypothesis has (numerically) zero length falls back
    to encoded point distances with zero angle contribution, and a
    window enclosing exactly one segment — which in Figure-8 use *is*
    the hypothesis — has ``ldh == 0.0`` exactly.
    """
    hyp_vecs = hyp_ends - hyp_starts
    hyp_sq = np.sum(hyp_vecs * hyp_vecs, axis=1)
    lh = clamped_log2(np.sqrt(hyp_sq))

    # Closed-loop (or numerically zero-length: subnormal squared
    # lengths overflow 1/x) hypotheses: no supporting line; fall back
    # to point distances from the hypothesis point, with zero angle
    # contribution (a point has no direction).
    degenerate = hyp_sq < np.finfo(np.float64).tiny
    inv_sq = 1.0 / np.where(degenerate, 1.0, hyp_sq)

    hv = hyp_vecs[window_of]
    hs = hyp_starts[window_of]
    inv = inv_sq[window_of]
    deg = degenerate[window_of]

    sub_vecs = sub_ends - sub_starts
    sub_lens = np.sqrt(np.sum(sub_vecs * sub_vecs, axis=1))
    nopar = np.add.reduceat(clamped_log2(sub_lens), offsets)

    # Perpendicular component (Definition 1) with the partition as Li.
    rel1 = sub_starts - hs
    rel2 = sub_ends - hs
    u1 = np.sum(rel1 * hv, axis=1) * inv
    u2 = np.sum(rel2 * hv, axis=1) * inv
    off1 = sub_starts - (hs + u1[:, None] * hv)
    off2 = sub_ends - (hs + u2[:, None] * hv)
    l_perp1 = np.sqrt(np.sum(off1 * off1, axis=1))
    l_perp2 = np.sqrt(np.sum(off2 * off2, axis=1))
    sums = l_perp1 + l_perp2
    d_perp = np.where(
        sums > 0.0,
        (l_perp1 * l_perp1 + l_perp2 * l_perp2)
        / np.where(sums > 0.0, sums, 1.0),
        0.0,
    )

    # Angle component (Definition 3, directed) with ||Lj|| = enclosed
    # segment length; ||Lj||*sin(theta) via the rejection norm (stable
    # near parallel, matching repro.distance exactly).
    dots = np.sum(sub_vecs * hv, axis=1)
    rejection = sub_vecs - (dots * inv)[:, None] * hv
    sin_term = np.sqrt(np.sum(rejection * rejection, axis=1))
    d_theta = np.where(dots > 0.0, sin_term, sub_lens)
    d_theta = np.where(sub_lens > 0.0, d_theta, 0.0)

    point_dist = np.sqrt(np.sum(rel1 * rel1, axis=1))
    enc_perp = np.where(deg, clamped_log2(point_dist), clamped_log2(d_perp))
    enc_theta = np.where(deg, 0.0, clamped_log2(d_theta))
    ldh = np.add.reduceat(enc_perp, offsets) + np.add.reduceat(
        enc_theta, offsets
    )

    # One enclosed segment identical to the hypothesis: both distances
    # are 0, encoding in 0 bits.
    counts = np.diff(offsets, append=sub_starts.shape[0])
    ldh[counts == 1] = 0.0
    return lh, ldh, nopar


def _finish_window_costs(
    hyp_len: np.ndarray,
    perp_in: np.ndarray,
    theta_in: np.ndarray,
    enc_lens: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lh, ldh, nopar)`` from a window evaluation's geometry: the
    ``log2`` encodings, the per-window ``reduceat`` sums and the
    one-segment ``ldh = 0`` fix, which stay in numpy on every backend.

    ``perp_in``/``theta_in`` hold, per enclosed segment, the value whose
    encoding is its perpendicular/angle bits — on a degenerate
    hypothesis the point distance and ``1.0`` (which encodes in 0
    bits); ``enc_lens`` are the segments' encoded lengths.  The first
    three arrays are encoded in place (every caller passes arrays it
    has just computed), which spares a large evaluation its biggest
    temporaries.
    """
    lh = clamped_log2(hyp_len, out=hyp_len)
    ldh = np.add.reduceat(
        clamped_log2(perp_in, out=perp_in), offsets
    ) + np.add.reduceat(clamped_log2(theta_in, out=theta_in), offsets)
    nopar = np.add.reduceat(enc_lens, offsets)
    ldh[counts == 1] = 0.0
    return lh, ldh, nopar


_ZERO_FIRST = np.zeros(1, dtype=np.int64)


def _single_window(
    points: np.ndarray, i: int, j: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The costs of the one window ``p_i .. p_j``, evaluated through a
    :class:`~repro.partition.layout.LockstepLayout` of exactly its
    points."""
    from repro.partition.layout import LockstepLayout

    _check_indices(points, i, j)
    return LockstepLayout(points[i : j + 1]).window_costs(
        _ZERO_FIRST, np.array([j - i], dtype=np.int64)
    )


def lh_cost(points: np.ndarray, i: int, j: int) -> float:
    """``L(H)`` of the single partition ``p_i p_j`` — Formula (6) for a
    one-segment hypothesis: ``log2(len(p_i p_j))``."""
    lh, _, _ = _single_window(points, i, j)
    return float(lh[0])


def ldh_cost(points: np.ndarray, i: int, j: int) -> float:
    """``L(D|H)`` of the partition ``p_i p_j`` against the enclosed
    original segments ``p_k p_k+1`` for ``i <= k <= j-1`` — Formula (7)."""
    _, ldh, _ = _single_window(points, i, j)
    return float(ldh[0])


def mdl_costs(points: np.ndarray, i: int, j: int) -> Tuple[float, float]:
    """``(MDL_par, MDL_nopar)`` of the window ``p_i .. p_j`` in one
    kernel evaluation — the Figure-8 scan loops compare both every
    step, so fusing them halves the per-step cost."""
    lh, ldh, nopar = _single_window(points, i, j)
    return float(lh[0]) + float(ldh[0]), float(nopar[0])


def mdl_par(points: np.ndarray, i: int, j: int) -> float:
    """``MDL_par(p_i, p_j)`` — the MDL cost when ``p_i`` and ``p_j``
    are the only characteristic points of the stretch: ``L(H) + L(D|H)``
    (Section 3.3)."""
    lh, ldh, _ = _single_window(points, i, j)
    return float(lh[0]) + float(ldh[0])


def mdl_nopar(points: np.ndarray, i: int, j: int) -> float:
    """``MDL_nopar(p_i, p_j)`` — the MDL cost of preserving the original
    trajectory between ``p_i`` and ``p_j``; ``L(D|H)`` is zero there, so
    the cost is the summed encoded length of the original segments."""
    _, _, nopar = _single_window(points, i, j)
    return float(nopar[0])
