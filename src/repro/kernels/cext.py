"""The ``cext`` kernel backend: C compiled on demand, loaded via ctypes.

No pip-installed dependency and no install-time build step: the first
resolution of the backend compiles :data:`SOURCE` with the system C
compiler (``$REPRO_KERNEL_CC``, else ``cc``/``gcc``/``clang`` on
``PATH``) into a cached shared library keyed by a digest of the source
and compiler, and loads it through :mod:`ctypes`.  Hosts without a
compiler — or with ``REPRO_KERNEL_DISABLE_CEXT=1`` set — simply report
the backend unavailable and every caller falls back to numpy.

Bitwise parity (see the package docstring for the full contract): the
C loops replicate numpy's accumulation orders exactly —
``-ffp-contract=off`` forbids FMA contraction, dots use numpy's
zero-initialised two-accumulator (einsum) or sequential (``np.sum``)
orders, ``sqrt`` is IEEE-correctly-rounded in both worlds, and no
``log2`` is ever computed in C.  :func:`load_backend` still gates
the backend on the bitwise self-test, so a host where any of this
fails degrades to numpy instead of poisoning caches.

ctypes calls release the GIL for the duration of the C loop, which is
what lets the neighbor-graph join thread over candidate-pair blocks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.kernels import MAX_COMPILED_DIM

#: C sources of the four kernels.  Index arrays are int64,
#: coordinates float64, all C-contiguous.  ``double buf[8]`` scratch is
#: safe because dispatch is gated at MAX_COMPILED_DIM (= 5) dims.
SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define TINY 2.2250738585072014e-308  /* DBL_MIN = np.finfo(f64).tiny */
#define MAXD 8

/* np.einsum("ij,ij->i", a, b): zero-initialised two-accumulator
 * (even/odd) sum of products. */
static double dot_einsum(const double *a, const double *b, int64_t d)
{
    double acc0 = 0.0, acc1 = 0.0;
    int64_t k;
    for (k = 0; k < d; k += 2)
        acc0 += a[k] * b[k];
    for (k = 1; k < d; k += 2)
        acc1 += a[k] * b[k];
    return acc0 + acc1;
}

/* np.sum(a * b, axis=1) for rows shorter than numpy's pairwise block:
 * zero-initialised sequential sum of products. */
static double dot_seq(const double *a, const double *b, int64_t d)
{
    double acc = 0.0;
    int64_t k;
    for (k = 0; k < d; k++)
        acc += a[k] * b[k];
    return acc;
}

/* np.minimum: NaN-propagating minimum. */
static double min_np(double a, double b)
{
    if (a != a)
        return a;
    if (b != b)
        return b;
    return (b < a) ? b : a;
}

/* Role-assigned pair-component distances: bitwise equal to
 * repro.distance.vectorized._pair_components on the gathered rows. */
void repro_pair_components(
    const double *starts, const double *ends, int64_t d,
    const int64_t *left, const int64_t *right, int64_t m,
    int directed,
    double *out_perp, double *out_par, double *out_ang)
{
    int64_t k, dd;
    for (k = 0; k < m; k++) {
        const double *as = starts + left[k] * d;
        const double *ae = ends + left[k] * d;
        const double *bs = starts + right[k] * d;
        const double *be = ends + right[k] * d;
        double av[MAXD], bv[MAXD], tmp[MAXD], ps[MAXD], pe[MAXD];
        for (dd = 0; dd < d; dd++) {
            av[dd] = ae[dd] - as[dd];
            bv[dd] = be[dd] - bs[dd];
        }
        double a_sq = dot_einsum(av, av, d);
        double b_sq = dot_einsum(bv, bv, d);
        double a_len = sqrt(a_sq);
        double b_len = sqrt(b_sq);
        int a_usable = a_sq >= TINY;
        int b_usable = b_sq >= TINY;
        int a_is_li = (a_len > b_len)
            || ((a_len == b_len) && (left[k] <= right[k]));

        const double *s, *e, *js, *je;
        const double *v, *jv;
        double li_sq, lj_len;
        int li_usable, lj_usable;
        if (a_is_li) {
            s = as; e = ae; v = av; li_sq = a_sq; li_usable = a_usable;
            js = bs; je = be; jv = bv; lj_len = b_len;
            lj_usable = b_usable;
        } else {
            s = bs; e = be; v = bv; li_sq = b_sq; li_usable = b_usable;
            js = as; je = ae; jv = av; lj_len = a_len;
            lj_usable = a_usable;
        }

        if (li_usable) {
            double inv_sq = 1.0 / li_sq;
            /* ps/pe: projections of Lj's endpoints onto Li's line. */
            for (dd = 0; dd < d; dd++)
                tmp[dd] = js[dd] - s[dd];
            double u1 = dot_einsum(tmp, v, d) * inv_sq;
            for (dd = 0; dd < d; dd++)
                ps[dd] = s[dd] + u1 * v[dd];
            for (dd = 0; dd < d; dd++)
                tmp[dd] = je[dd] - s[dd];
            double u2 = dot_einsum(tmp, v, d) * inv_sq;
            for (dd = 0; dd < d; dd++)
                pe[dd] = s[dd] + u2 * v[dd];

            for (dd = 0; dd < d; dd++)
                tmp[dd] = ps[dd] - js[dd];
            double l_perp1 = sqrt(dot_einsum(tmp, tmp, d));
            for (dd = 0; dd < d; dd++)
                tmp[dd] = pe[dd] - je[dd];
            double l_perp2 = sqrt(dot_einsum(tmp, tmp, d));
            double sums = l_perp1 + l_perp2;
            double perp = 0.0;
            if (sums > 0.0)
                perp = (l_perp1 * l_perp1 + l_perp2 * l_perp2) / sums;

            for (dd = 0; dd < d; dd++)
                tmp[dd] = ps[dd] - s[dd];
            double n1 = sqrt(dot_einsum(tmp, tmp, d));
            for (dd = 0; dd < d; dd++)
                tmp[dd] = ps[dd] - e[dd];
            double n2 = sqrt(dot_einsum(tmp, tmp, d));
            double l_par1 = min_np(n1, n2);
            for (dd = 0; dd < d; dd++)
                tmp[dd] = pe[dd] - s[dd];
            n1 = sqrt(dot_einsum(tmp, tmp, d));
            for (dd = 0; dd < d; dd++)
                tmp[dd] = pe[dd] - e[dd];
            n2 = sqrt(dot_einsum(tmp, tmp, d));
            double l_par2 = min_np(n1, n2);
            double par = min_np(l_par1, l_par2);

            double lj_len_eff = lj_usable ? lj_len : 0.0;
            double dots = dot_einsum(v, jv, d);
            double coeff = dots / li_sq;
            for (dd = 0; dd < d; dd++)
                tmp[dd] = jv[dd] - coeff * v[dd];
            double sin_term = sqrt(dot_einsum(tmp, tmp, d));
            double ang;
            if (directed)
                ang = (dots > 0.0) ? sin_term : lj_len_eff;
            else
                ang = sin_term;
            ang = (lj_len_eff > 0.0) ? ang : 0.0;

            out_perp[k] = perp;
            out_par[k] = par;
            out_ang[k] = ang;
        } else {
            /* Both sides degenerate: plain point distance. */
            for (dd = 0; dd < d; dd++)
                tmp[dd] = as[dd] - bs[dd];
            out_perp[k] = sqrt(dot_einsum(tmp, tmp, d));
            out_par[k] = 0.0;
            out_ang[k] = 0.0;
        }
    }
}

/* Per-element MDL geometry given one window's hypothesis.  Mirrors
 * repro.partition.mdl._window_mdl_costs_numpy's elementwise section
 * (np.sum accumulation order). */
static inline void mdl_element(
    const double *ss, const double *se, const double *hs,
    const double *hv, double inv, int deg, double sub_len, int64_t d,
    double *perp_in, double *theta_in)
{
    double rel1[MAXD], rel2[MAXD], off[MAXD], sub_vec[MAXD];
    int64_t dd;
    for (dd = 0; dd < d; dd++) {
        rel1[dd] = ss[dd] - hs[dd];
        rel2[dd] = se[dd] - hs[dd];
        sub_vec[dd] = se[dd] - ss[dd];
    }
    double u1 = dot_seq(rel1, hv, d) * inv;
    double u2 = dot_seq(rel2, hv, d) * inv;
    for (dd = 0; dd < d; dd++)
        off[dd] = ss[dd] - (hs[dd] + u1 * hv[dd]);
    double l_perp1 = sqrt(dot_seq(off, off, d));
    for (dd = 0; dd < d; dd++)
        off[dd] = se[dd] - (hs[dd] + u2 * hv[dd]);
    double l_perp2 = sqrt(dot_seq(off, off, d));
    double sums = l_perp1 + l_perp2;
    double d_perp = 0.0;
    if (sums > 0.0)
        d_perp = (l_perp1 * l_perp1 + l_perp2 * l_perp2) / sums;

    double dots = dot_seq(sub_vec, hv, d);
    double coeff = dots * inv;
    for (dd = 0; dd < d; dd++)
        off[dd] = sub_vec[dd] - coeff * hv[dd];
    double sin_term = sqrt(dot_seq(off, off, d));
    double d_theta = (dots > 0.0) ? sin_term : sub_len;
    d_theta = (sub_len > 0.0) ? d_theta : 0.0;

    double point_dist = sqrt(dot_seq(rel1, rel1, d));
    /* clamped_log2 of these inputs (in numpy) reproduces enc_perp /
     * enc_theta exactly: theta_in = 1.0 encodes the degenerate zero
     * contribution because log2(max(1, 1)) == 0.0. */
    *perp_in = deg ? point_dist : d_perp;
    *theta_in = deg ? 1.0 : d_theta;
}

/* The MDL window kernel: window w's enclosed segments are the
 * contiguous point range first[w] .. first[w]+counts[w]-1, its
 * hypothesis runs flat[first[w]] -> flat[first[w]+counts[w]].
 * seg_lens / enc_lens are the per-segment invariants the layout
 * precomputes (in numpy); enc values are copied out in window-major
 * order so numpy can reduceat them for MDL_nopar. */
static inline void mdl_windows(
    const double *flat, int64_t d,
    const double *seg_lens, const double *enc_lens,
    const int64_t *first, const int64_t *counts, int64_t n_windows,
    double *out_hyp_len, double *out_perp_in, double *out_theta_in,
    double *out_enc_gath)
{
    double hv[MAXD];
    int64_t w, k, dd;
    int64_t j = 0;
    for (w = 0; w < n_windows; w++) {
        int64_t stop = first[w] + counts[w];
        const double *hs = flat + first[w] * d;
        const double *he = flat + stop * d;
        for (dd = 0; dd < d; dd++)
            hv[dd] = he[dd] - hs[dd];
        double hyp_sq = dot_seq(hv, hv, d);
        out_hyp_len[w] = sqrt(hyp_sq);
        int deg = hyp_sq < TINY;
        double inv = 1.0 / (deg ? 1.0 : hyp_sq);
        for (k = first[w]; k < stop; k++, j++) {
            const double *ss = flat + k * d;
            const double *se = flat + (k + 1) * d;
            mdl_element(ss, se, hs, hv, inv, deg, seg_lens[k], d,
                        out_perp_in + j, out_theta_in + j);
            out_enc_gath[j] = enc_lens[k];
        }
    }
}

/* The d == 2 call lets the compiler unroll the coordinate loops for
 * planar trajectories. */
void repro_lockstep_geometry(
    const double *flat, int64_t d,
    const double *seg_lens, const double *enc_lens,
    const int64_t *first, const int64_t *counts, int64_t n_windows,
    double *out_hyp_len, double *out_perp_in, double *out_theta_in,
    double *out_enc_gath)
{
    if (d == 2)
        mdl_windows(flat, 2, seg_lens, enc_lens, first, counts, n_windows,
                    out_hyp_len, out_perp_in, out_theta_in, out_enc_gath);
    else
        mdl_windows(flat, d, seg_lens, enc_lens, first, counts, n_windows,
                    out_hyp_len, out_perp_in, out_theta_in, out_enc_gath);
}

/* Figure-15 crossing sums: bitwise equal to
 * repro.representative.sweep._crossing_sums_numpy.  Segment i crosses
 * rows first[i] .. last[i]-1 of the sweep positions xs and adds its
 * point interpolated at X' = xs[r] to row r.  Rows must arrive zeroed
 * and are summed in ascending segment order, as np.bincount and
 * points.mean(axis=0) sum: seeding a row from its first term instead
 * would turn an all -0.0 row into -0.0 where numpy gives +0.0. */
void repro_crossing_sums(
    const double *starts, const double *ends, int64_t n, int64_t d,
    const double *xs, const int64_t *first, const int64_t *last,
    double *out_sums)
{
    int64_t i, r, dd;
    for (i = 0; i < n; i++) {
        const double *s = starts + i * d;
        const double *e = ends + i * d;
        double span = e[0] - s[0];
        for (r = first[i]; r < last[i]; r++) {
            double t = 0.5;  /* zero X' extent: the midpoint */
            if (span != 0.0) {
                t = (xs[r] - s[0]) / span;
                /* np.clip: keeps -0.0 and NaN */
                if (t < 0.0)
                    t = 0.0;
                if (t > 1.0)
                    t = 1.0;
            }
            double *row = out_sums + r * d;
            for (dd = 0; dd < d; dd++)
                row[dd] += s[dd] + t * (e[dd] - s[dd]);
        }
    }
}

/* Endpoint join of the ε-graph: the keys of
 * repro.cluster.neighbor_graph._endpoint_pairs_numpy, unsorted.  Run j
 * probes points first[j] .. first[j]+count[j]-1 from point at[j]; an
 * owner within r2 (squared distance in einsum order) is written once
 * per probing owner.  stamp (n entries, arriving at -1) records the
 * last probing owner that wrote each owner, which dedups because runs
 * arrive grouped by probing owner.  Branch-free: every test writes a
 * key slot (one past the last kept key; there is one slot per test)
 * and only a kept key advances m. */
static inline int64_t endpoint_runs(
    const double *points, const int64_t *owners, int64_t d,
    const int64_t *at, const int64_t *first, const int64_t *count,
    int64_t runs, int64_t n, double r2, int64_t *stamp,
    int64_t *out_keys)
{
    double diff[MAXD];
    int64_t j, k, dd, m = 0;
    for (j = 0; j < runs; j++) {
        const double *a = points + at[j] * d;
        int64_t q = owners[at[j]];
        int64_t stop = first[j] + count[j];
        for (k = first[j]; k < stop; k++) {
            int64_t o = owners[k];
            const double *b = points + k * d;
            for (dd = 0; dd < d; dd++)
                diff[dd] = a[dd] - b[dd];
            int64_t keep = (dot_einsum(diff, diff, d) <= r2)
                & (stamp[o] != q);
            out_keys[m] = q * n + o;
            stamp[o] = keep ? q : stamp[o];
            m += keep;
        }
    }
    return m;
}

/* Returns the number of keys written.  The d == 2 call lets the
 * compiler unroll the coordinate loops for planar trajectories. */
int64_t repro_endpoint_pairs(
    const double *points, const int64_t *owners, int64_t d,
    const int64_t *at, const int64_t *first, const int64_t *count,
    int64_t runs, int64_t n, double r2, int64_t *stamp,
    int64_t *out_keys)
{
    if (d == 2)
        return endpoint_runs(points, owners, 2, at, first, count, runs,
                             n, r2, stamp, out_keys);
    return endpoint_runs(points, owners, d, at, first, count, runs, n,
                         r2, stamp, out_keys);
}
"""

#: Compiler flags.  ``-ffp-contract=off`` is the load-bearing one (no
#: FMA contraction — numpy's elementwise ufuncs never fuse);
#: ``-fno-math-errno`` only drops the errno side channel of sqrt (its
#: rounding is unchanged).
CFLAGS = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno",
)


def _find_compiler() -> Optional[str]:
    explicit = os.environ.get("REPRO_KERNEL_CC")
    if explicit:
        return explicit if shutil.which(explicit) else None
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-traclus", "kernels")


def build_library() -> str:
    """Compile :data:`SOURCE` (once per source/compiler digest) and
    return the shared-library path.  Raises ``RuntimeError`` with the
    compiler diagnostics on failure."""
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (cc/gcc/clang)")
    digest = hashlib.sha256(
        ("\x00".join([SOURCE, cc, *CFLAGS])).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(SOURCE)
        tmp_lib = lib_path + f".tmp{os.getpid()}"
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_lib, src_path, "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        os.replace(tmp_lib, lib_path)  # atomic under concurrent builds
    finally:
        if os.path.exists(src_path):
            os.unlink(src_path)
    return lib_path


def _as_c(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


_I64 = ctypes.c_int64


class CExtBackend:
    """ctypes facade over the compiled library: one method per hot
    path, each returning arrays bitwise identical to its numpy
    reference — float64 per-element geometry, whose ``log2``/``reduceat``
    work the callers finish in numpy, Figure 15's float64 per-position
    crossing sums, and the int64 candidate keys of the neighbor-graph
    join's endpoint test.  Its calls release the GIL."""

    name = "cext"

    def __init__(self, lib: ctypes.CDLL, lib_path: str):
        self._lib = lib
        self.lib_path = lib_path
        for fn in (
            lib.repro_pair_components,
            lib.repro_lockstep_geometry,
            lib.repro_crossing_sums,
        ):
            fn.restype = None
        lib.repro_crossing_sums.argtypes = (
            [ctypes.c_void_p] * 2 + [_I64] * 2 + [ctypes.c_void_p] * 4
        )
        lib.repro_endpoint_pairs.restype = _I64
        lib.repro_endpoint_pairs.argtypes = (
            [ctypes.c_void_p] * 2 + [_I64] + [ctypes.c_void_p] * 3
            + [_I64] * 2 + [ctypes.c_double] + [ctypes.c_void_p] * 2
        )

    def pair_components(self, starts, ends, left, right, directed):
        """(perp, par, angle) for aligned stored-segment pairs —
        bitwise equal to ``_pair_components`` on the gathered rows."""
        m = left.shape[0]
        d = starts.shape[1]
        perp = np.empty(m, dtype=np.float64)
        par = np.empty(m, dtype=np.float64)
        ang = np.empty(m, dtype=np.float64)
        self._lib.repro_pair_components(
            _as_c(starts), _as_c(ends), _I64(d),
            _as_c(left), _as_c(right), _I64(m),
            ctypes.c_int(1 if directed else 0),
            _as_c(perp), _as_c(par), _as_c(ang),
        )
        return perp, par, ang

    def lockstep_geometry(self, flat, seg_lens, enc_lens, first, counts):
        """(hyp_len, perp_input, theta_input, enc_gathered) of the MDL
        windows ``flat[first[w]] .. flat[first[w] + counts[w]]``, each
        walked in place; the numpy tail
        ``repro.partition.mdl._finish_window_costs`` turns them into
        ``(lh, ldh, nopar)``."""
        n_windows = first.shape[0]
        n_flat = int(counts.sum())
        d = flat.shape[1]
        hyp_len = np.empty(n_windows, dtype=np.float64)
        perp_in = np.empty(n_flat, dtype=np.float64)
        theta_in = np.empty(n_flat, dtype=np.float64)
        enc_gath = np.empty(n_flat, dtype=np.float64)
        self._lib.repro_lockstep_geometry(
            _as_c(flat), _I64(d),
            _as_c(seg_lens), _as_c(enc_lens),
            _as_c(first), _as_c(counts), _I64(n_windows),
            _as_c(hyp_len), _as_c(perp_in), _as_c(theta_in),
            _as_c(enc_gath),
        )
        return hyp_len, perp_in, theta_in, enc_gath

    def crossing_sums(self, starts, ends, xs, first, last):
        """``(k, d)`` sums of the segments' points interpolated at the
        sweep positions they cross — bitwise equal to
        :func:`repro.representative.sweep.crossing_sums` on numpy."""
        n, d = starts.shape
        sums = np.zeros((xs.shape[0], d), dtype=np.float64)
        self._lib.repro_crossing_sums(
            _as_c(starts), _as_c(ends), _I64(n), _I64(d),
            _as_c(xs), _as_c(first), _as_c(last), _as_c(sums),
        )
        return sums

    def endpoint_pairs(self, points, owners, at, first, count, n, r2):
        """Sorted unique int64 ``probing owner * n + owner`` keys of
        the endpoint pairs within ``r2`` — equal to
        :func:`repro.cluster.neighbor_graph.endpoint_pairs` on numpy."""
        keys = np.empty(int(count.sum()), dtype=np.int64)
        stamp = np.full(n, -1, dtype=np.int64)
        m = self._lib.repro_endpoint_pairs(
            _as_c(points), _as_c(owners), points.shape[1],
            _as_c(at), _as_c(first), _as_c(count), at.shape[0],
            n, r2, _as_c(stamp), _as_c(keys),
        )
        return np.sort(keys[:m])


def load_backend() -> Tuple[Optional[CExtBackend], str]:
    """Build/load the library and bitwise-verify it against numpy.

    Returns ``(backend, status)`` — ``(None, reason)`` on any failure,
    so dispatch degrades to numpy with a ``repro doctor``-visible
    explanation instead of an exception."""
    if os.environ.get("REPRO_KERNEL_DISABLE_CEXT"):
        return None, "disabled via REPRO_KERNEL_DISABLE_CEXT"
    try:
        lib_path = build_library()
        backend = CExtBackend(ctypes.CDLL(lib_path), lib_path)
    except Exception as exc:  # missing compiler, build failure, ...
        return None, f"unavailable: {exc}"
    from repro.kernels.selftest import parity_check

    failure = parity_check(backend)
    if failure is not None:
        return None, f"parity check failed: {failure}"
    return backend, (
        f"ok (compiled, dims<={MAX_COMPILED_DIM}, {lib_path})"
    )
