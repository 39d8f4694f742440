"""The contiguous MDL window kernel behind every Figure-8 scan.

Every window Figure 8 evaluates is a run of consecutive points: the
candidate partition ``p_startIndex .. p_currIndex`` and the original
segments it encloses.  :class:`LockstepLayout` is built once over a
plain ``(N, d)`` point array — a corpus's flat points for
:func:`repro.partition.batched.lockstep_scan`, or ``points[i:j + 1]``
for the one window of the scalar :mod:`repro.partition.mdl` wrappers —
and :meth:`LockstepLayout.window_costs` evaluates windows ``first[w]
.. first[w] + counts[w]`` of it in place:

* Per-segment invariants — ``seg_vecs``, ``seg_lens``, ``enc_lens``
  (the ``clamped_log2`` encodings) — are computed **once** per array
  and gathered per evaluation, instead of being recomputed from
  coordinates for every window.  Elementwise ufuncs on identical
  operands are bitwise-stable, so the gathered values are bit-for-bit
  the values the reference recomputes.
* With a compiled kernel backend active (:mod:`repro.kernels`), the
  backend's ``lockstep_geometry`` walks each window's range in place,
  so only the per-window ``first``/``counts`` vectors (O(windows), not
  O(enclosed segments)) are constructed per evaluation.
* On numpy, the per-element index arrays are built in one fused
  ``np.repeat`` over a packed ``(windows, 2)`` int64 table (window ids
  and range bases together) plus one ``arange``.  Planar data runs a
  column-wise specialisation; other dimensions gather the window rows
  and call the reference.

Bitwise contract: every path produces ``(lh, ldh, nopar)`` bit-for-bit
equal to :func:`repro.partition.mdl._window_mdl_costs_numpy` on the
gathered rows — asserted by the layout and Figure-8 reference suites
and, for the compiled backend, by its parity gate
(:mod:`repro.kernels.selftest`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.partition.mdl import (
    _finish_window_costs,
    _window_mdl_costs_numpy,
    clamped_log2,
)

_TINY = np.finfo(np.float64).tiny


class LockstepLayout:
    """Per-array invariants for evaluating MDL windows in place.

    Build once per point array; the layout is read-only after
    construction, so any number of evaluations may share it.
    """

    __slots__ = ("flat", "seg_vecs", "seg_lens", "enc_lens")

    def __init__(self, points: np.ndarray):
        flat = np.ascontiguousarray(points, dtype=np.float64)
        self.flat = flat
        # Per-segment invariants over the flat points.  In a corpus's
        # flat array, row boundaries produce junk entries
        # (flat[b]-flat[b-1] crosses rows) that no window ever gathers:
        # window w of row t only touches segment indices
        # base[t]+start .. base[t]+start+len-1 <= base[t+1]-2.
        seg_vecs = flat[1:] - flat[:-1]
        self.seg_vecs = seg_vecs
        # np.add.reduce is np.sum without its Python wrapper (the
        # scalar scan builds one layout per Figure-8 step).
        self.seg_lens = np.sqrt(np.add.reduce(seg_vecs * seg_vecs, axis=1))
        self.enc_lens = clamped_log2(self.seg_lens)

    def window_costs(
        self, first: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lh, ldh, nopar)`` of the windows whose hypotheses run
        ``flat[first[w]] -> flat[first[w] + counts[w]]`` over the
        ``counts[w] >= 1`` enclosed segments between them (int64
        arrays)."""
        offsets = np.add.accumulate(counts) - counts

        from repro import kernels

        backend = kernels.active_backend()
        if (
            backend is not None
            and self.flat.shape[1] <= kernels.MAX_COMPILED_DIM
        ):
            with kernels.maybe_time("lockstep_geometry", backend.name):
                geometry = backend.lockstep_geometry(
                    self.flat, self.seg_lens, self.enc_lens,
                    np.ascontiguousarray(first),
                    np.ascontiguousarray(counts),
                )
            return _finish_window_costs(*geometry, offsets, counts)
        with kernels.maybe_time("lockstep_geometry", "numpy"):
            return self._costs_numpy(first, counts, offsets)

    def _costs_numpy(self, first, counts, offsets):
        """The numpy path: one fused ragged expansion, then the planar
        body or, in other dimensions, the reference on gathered rows."""
        total = int(offsets[-1]) + int(counts[-1]) if counts.size else 0
        n_windows = first.shape[0]

        # Fused index-array construction: one np.repeat expands window
        # ids and range bases together; adding an arange turns bases
        # into per-element flat segment indices.
        pack = np.empty((n_windows, 2), dtype=np.int64)
        pack[:, 0] = np.arange(n_windows, dtype=np.int64)
        pack[:, 1] = first - offsets
        rep = np.repeat(pack, counts, axis=0)
        window_of = rep[:, 0]
        gather = rep[:, 1] + np.arange(total, dtype=np.int64)

        if self.flat.shape[1] == 2:
            return self._step_costs_numpy_2d(
                first, counts, offsets, window_of, gather
            )
        flat = self.flat
        return _window_mdl_costs_numpy(
            flat[first], flat[first + counts], flat[gather],
            flat[gather + 1], window_of, offsets,
        )

    def _step_costs_numpy_2d(self, first, counts, offsets, window_of, gather):
        """Planar specialisation of the numpy body: every
        ``np.sum(a * b, axis=1)`` dot over two columns is one add of two
        products — numpy's pairwise reduction degenerates to exactly
        ``a0*b0 + a1*b1`` for a length-2 axis, so column arithmetic on
        1-D views is bitwise identical while skipping the reduction
        dispatch and all (n, 2) temporaries (the dominant per-step cost
        at typical active-window sizes)."""
        flat = self.flat
        fx = flat[:, 0]
        fy = flat[:, 1]

        hsx = fx[first]
        hsy = fy[first]
        last = first + counts
        hvx = fx[last] - hsx
        hvy = fy[last] - hsy
        hyp_sq = hvx * hvx + hvy * hvy

        degenerate = hyp_sq < _TINY
        inv_sq = 1.0 / np.where(degenerate, 1.0, hyp_sq)

        hyp_len = np.sqrt(hyp_sq)
        hvx = hvx[window_of]
        hvy = hvy[window_of]
        hsx = hsx[window_of]
        hsy = hsy[window_of]
        inv = inv_sq[window_of]
        deg = degenerate[window_of]

        ssx = fx[gather]
        ssy = fy[gather]
        end_gather = gather + 1
        sex = fx[end_gather]
        sey = fy[end_gather]
        sub_vecs = self.seg_vecs[gather]
        svx = sub_vecs[:, 0]
        svy = sub_vecs[:, 1]
        sub_lens = self.seg_lens[gather]

        r1x = ssx - hsx
        r1y = ssy - hsy
        r2x = sex - hsx
        r2y = sey - hsy
        u1 = (r1x * hvx + r1y * hvy) * inv
        u2 = (r2x * hvx + r2y * hvy) * inv
        o1x = ssx - (hsx + u1 * hvx)
        o1y = ssy - (hsy + u1 * hvy)
        o2x = sex - (hsx + u2 * hvx)
        o2y = sey - (hsy + u2 * hvy)
        l_perp1 = np.sqrt(o1x * o1x + o1y * o1y)
        l_perp2 = np.sqrt(o2x * o2x + o2y * o2y)
        sums = l_perp1 + l_perp2
        d_perp = np.where(
            sums > 0.0,
            (l_perp1 * l_perp1 + l_perp2 * l_perp2)
            / np.where(sums > 0.0, sums, 1.0),
            0.0,
        )

        dots = svx * hvx + svy * hvy
        scale = dots * inv
        rjx = svx - scale * hvx
        rjy = svy - scale * hvy
        sin_term = np.sqrt(rjx * rjx + rjy * rjy)
        d_theta = np.where(dots > 0.0, sin_term, sub_lens)
        d_theta = np.where(sub_lens > 0.0, d_theta, 0.0)

        point_dist = np.sqrt(r1x * r1x + r1y * r1y)
        return _finish_window_costs(
            hyp_len,
            np.where(deg, point_dist, d_perp),
            np.where(deg, 1.0, d_theta),
            self.enc_lens[gather],
            offsets,
            counts,
        )
