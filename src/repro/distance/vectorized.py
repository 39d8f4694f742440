"""The vectorized distance kernel: component distances for many pairs.

The batched neighbor-graph engine (:mod:`repro.cluster.neighbor_graph`)
needs distances for an arbitrary list of candidate *pairs*, QMeasure
(:mod:`repro.quality.qmeasure`) and
:func:`repro.distance.matrix.pairwise_distance_matrix` for every
unordered pair of a segment group, and the brute-force oracle one row
of pairs per query.  All are served by
:func:`component_distances_pairs` over one shared core,
:func:`_pair_components`, which evaluates the three TRACLUS components
for row-aligned pairs of segments in a handful of NumPy operations,
honouring the paper's ordering rule (the longer segment of each pair
acts as ``Li``; equal lengths break the tie by internal id).

Because the core assigns the ``Li``/``Lj`` roles per row and then runs a
single arithmetic path, the computed distance for a pair is *bitwise
identical* no matter which side is presented as the query.  That
exact symmetry is what lets the neighbor graph, QMeasure and the
distance matrix evaluate each unordered pair once (the graph mirrors
it into both CSR rows) while remaining indistinguishable from the
oracle's per-query rows.

The math is identical to :mod:`repro.distance.components`; property
tests assert agreement to 1e-9.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from repro.model.segmentset import SegmentSet


class ComponentArrays(NamedTuple):
    """Per-row component distances (one row per query/pair)."""

    perpendicular: np.ndarray
    parallel: np.ndarray
    angle: np.ndarray

    def weighted_sum(
        self, w_perp: float = 1.0, w_par: float = 1.0, w_theta: float = 1.0
    ) -> np.ndarray:
        return (
            w_perp * self.perpendicular
            + w_par * self.parallel
            + w_theta * self.angle
        )


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def _project_many(
    starts: np.ndarray,
    vectors: np.ndarray,
    inv_sq_lengths: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Project each row of *points* onto the line of the corresponding
    row segment ``(starts[k], starts[k] + vectors[k])``.  Returns the
    projection points, shape like *points*."""
    u = np.einsum("ij,ij->i", points - starts, vectors) * inv_sq_lengths
    return starts + u[:, None] * vectors


def _pair_components(
    a_starts: np.ndarray,
    a_ends: np.ndarray,
    a_ids: np.ndarray,
    b_starts: np.ndarray,
    b_ends: np.ndarray,
    b_ids: np.ndarray,
    directed: bool = True,
) -> ComponentArrays:
    """Component distances for row-aligned segment pairs ``(a_k, b_k)``.

    The ordering rule (Lemma 2) is applied per row: the longer segment
    becomes ``Li``; equal lengths break the tie by id, the smaller id
    becoming ``Li``.  Swapping the ``a`` and ``b`` sides therefore
    selects the same roles and runs the same arithmetic, so the result
    is bitwise symmetric.

    Rows where the designated ``Li`` is numerically degenerate (squared
    length below the smallest normal float, mirroring
    ``Segment.is_degenerate``) fall to the point-distance branch; the
    ordering rule guarantees ``Lj`` is degenerate there too.
    """
    m = a_starts.shape[0]
    perp = np.zeros(m, dtype=np.float64)
    par = np.zeros(m, dtype=np.float64)
    ang = np.zeros(m, dtype=np.float64)
    if m == 0:
        return ComponentArrays(perp, par, ang)

    a_vecs = a_ends - a_starts
    b_vecs = b_ends - b_starts
    # Squared lengths must be *normal* floats for 1/sq to be finite —
    # subnormal squared lengths mark numerically degenerate segments.
    a_sq = np.einsum("ij,ij->i", a_vecs, a_vecs)
    b_sq = np.einsum("ij,ij->i", b_vecs, b_vecs)
    a_len = np.sqrt(a_sq)
    b_len = np.sqrt(b_sq)
    tiny = np.finfo(np.float64).tiny
    a_usable = a_sq >= tiny
    b_usable = b_sq >= tiny

    a_is_li = (a_len > b_len) | ((a_len == b_len) & (a_ids <= b_ids))
    role = a_is_li[:, None]
    li_starts = np.where(role, a_starts, b_starts)
    li_ends = np.where(role, a_ends, b_ends)
    li_vecs = np.where(role, a_vecs, b_vecs)
    li_sq = np.where(a_is_li, a_sq, b_sq)
    li_usable = np.where(a_is_li, a_usable, b_usable)
    lj_starts = np.where(role, b_starts, a_starts)
    lj_ends = np.where(role, b_ends, a_ends)
    lj_vecs = np.where(role, b_vecs, a_vecs)
    lj_len = np.where(a_is_li, b_len, a_len)
    lj_usable = np.where(a_is_li, b_usable, a_usable)

    # ------------------------------------------------------------------
    # Main branch: Li is a real segment; project Lj's endpoints onto it.
    main = li_usable
    if np.any(main):
        s = li_starts[main]
        e = li_ends[main]
        v = li_vecs[main]
        inv_sq = 1.0 / li_sq[main]
        js = lj_starts[main]
        je = lj_ends[main]
        ps = _project_many(s, v, inv_sq, js)
        pe = _project_many(s, v, inv_sq, je)
        l_perp1 = _row_norms(ps - js)
        l_perp2 = _row_norms(pe - je)
        sums = l_perp1 + l_perp2
        with np.errstate(invalid="ignore", divide="ignore"):
            perp_m = np.where(
                sums > 0.0,
                (l_perp1**2 + l_perp2**2) / np.where(sums > 0, sums, 1.0),
                0.0,
            )
        l_par1 = np.minimum(_row_norms(ps - s), _row_norms(ps - e))
        l_par2 = np.minimum(_row_norms(pe - s), _row_norms(pe - e))
        par_m = np.minimum(l_par1, l_par2)
        ang_m = _angle_component(
            v,
            li_sq[main],
            lj_vecs[main],
            lj_len=np.where(lj_usable[main], lj_len[main], 0.0),
            directed=directed,
        )
        perp[main] = perp_m
        par[main] = par_m
        ang[main] = ang_m

    # ------------------------------------------------------------------
    # Degenerate branch: both sides are points; plain point distance.
    deg = ~main
    if np.any(deg):
        perp[deg] = _row_norms(a_starts[deg] - b_starts[deg])
        # parallel and angle stay 0

    return ComponentArrays(perp, par, ang)


def component_distances_pairs(
    segments: SegmentSet,
    left: Union[np.ndarray, "list[int]"],
    right: Union[np.ndarray, "list[int]"],
    directed: bool = True,
) -> ComponentArrays:
    """Component distances for each aligned pair of *stored* segments
    ``(left[k], right[k])``.

    One call evaluates an arbitrary batch of pairs — this is the kernel
    behind the blocked all-candidate-pairs join of
    :mod:`repro.cluster.neighbor_graph` and the brute-force oracle's
    rows.  Results are bitwise symmetric in ``left``/``right``, so a
    pair's distance does not depend on the batch that evaluates it.

    When a compiled kernel backend is active (``repro.kernels``), the
    gathers and per-pair geometry run compiled — bitwise identical to
    the numpy path by the backends' parity contract.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.shape != right.shape or left.ndim != 1:
        raise ValueError(
            f"left/right must be congruent 1-D index arrays, got "
            f"{left.shape} vs {right.shape}"
        )

    from repro import kernels

    backend = kernels.active_backend()
    starts = segments.starts
    if (
        backend is not None
        and starts.shape[1] <= kernels.MAX_COMPILED_DIM
        and starts.flags.c_contiguous
        and segments.ends.flags.c_contiguous
    ):
        with kernels.maybe_time("pair_distance", backend.name):
            perp, par, ang = backend.pair_components(
                starts,
                segments.ends,
                np.ascontiguousarray(left),
                np.ascontiguousarray(right),
                directed,
            )
        return ComponentArrays(perp, par, ang)

    with kernels.maybe_time("pair_distance", "numpy"):
        return _pair_components(
            segments.starts[left],
            segments.ends[left],
            left,
            segments.starts[right],
            segments.ends[right],
            right,
            directed=directed,
        )


def _angle_component(
    li_vectors: np.ndarray,
    li_sq_lengths: np.ndarray,
    lj_vectors: np.ndarray,
    lj_len: np.ndarray,
    directed: bool,
) -> np.ndarray:
    """Angle distance for rows of (Li, Lj) pairs.

    ``||Lj|| * sin(theta)`` is evaluated as the norm of the rejection of
    Lj's vector from Li's direction (numerically stable near parallel;
    identical formula to the scalar reference).  Rows with
    ``li_sq_lengths == 0`` must not occur (the caller's masks route
    those to the degenerate branch).
    """
    dots = np.einsum("ij,ij->i", li_vectors, lj_vectors)
    coeff = dots / li_sq_lengths
    rejection = lj_vectors - coeff[:, None] * li_vectors
    sin_term = _row_norms(rejection)  # == ||Lj|| * sin(theta)
    if directed:
        result = np.where(dots > 0.0, sin_term, lj_len)
    else:
        result = sin_term
    return np.where(lj_len > 0, result, 0.0)

