"""Phase-1 engine comparison: per-trajectory scan vs lock-step batched.

The acceptance bar of the batched-partitioning PR: on a corpus of at
least 1,000 trajectories of ~100 points, the lock-step engine
(``partition/batched.py``) must partition at least 5x faster than the
per-trajectory scalar Figure-8 loop (``approximate_partition`` once per
trajectory) — while producing *exactly* (bitwise) the same
characteristic points.

Run under pytest (``pytest benchmarks/bench_partition.py``) for the
asserted comparison, or standalone for the full trajectory-count /
trajectory-length grid::

    PYTHONPATH=src python benchmarks/bench_partition.py [--smoke] \
        [--json out.json]
"""

import time

import numpy as np
import pytest

from conftest import print_table
from repro import kernels
from repro.model.ragged import RaggedPoints
from repro.partition.approximate import approximate_partition
from repro.partition.batched import batched_partition_arrays, lockstep_scan
from repro.partition.layout import LockstepLayout


def random_walk_corpus(n_trajectories, n_points, seed):
    """Smooth random-walk tracks (the workload Figure 8 sees: long
    near-straight stretches punctuated by turns)."""
    rng = np.random.default_rng(seed)
    arrays = []
    for _ in range(n_trajectories):
        headings = np.cumsum(rng.normal(0.0, 0.25, n_points))
        steps = np.stack(
            [np.cos(headings), np.sin(headings)], axis=1
        ) * rng.uniform(0.5, 2.0, (n_points, 1))
        arrays.append(np.cumsum(steps, axis=0))
    return arrays


def compare_engines(n_trajectories, n_points, seed=11, suppression=0.0):
    """Time both engines on one corpus; asserts identical output.

    Returns ``(python_seconds, batched_seconds)``.
    """
    arrays = random_walk_corpus(n_trajectories, n_points, seed)
    start = time.perf_counter()
    expected = [
        approximate_partition(a, suppression=suppression) for a in arrays
    ]
    python_time = time.perf_counter() - start
    start = time.perf_counter()
    got = batched_partition_arrays(arrays, suppression=suppression)
    batched_time = time.perf_counter() - start
    assert got == expected, (
        f"engines disagree at {n_trajectories}x{n_points}"
    )
    return python_time, batched_time


def test_batched_partition_speedup(benchmark):
    """Acceptance: >= 5x over the per-trajectory scan at 1,000
    trajectories x ~100 points, with bitwise-equal output."""
    python_time, batched_time = benchmark.pedantic(
        compare_engines, args=(1000, 100), rounds=1, iterations=1
    )
    print_table(
        "Phase-1 engines at 1,000 x 100",
        [
            ("python (per-trajectory scan)", f"{python_time * 1000:.0f} ms"),
            ("batched (lock-step)", f"{batched_time * 1000:.0f} ms"),
            ("speedup", f"{python_time / batched_time:.1f}x"),
        ],
        ("engine", "time"),
    )
    assert python_time >= 5.0 * batched_time, (
        f"batched ({batched_time * 1000:.0f} ms) not 5x faster than "
        f"python ({python_time * 1000:.0f} ms)"
    )


#: The speedup bar exported to the CI regression gate (``--json``): it
#: is measured at the *largest* grid point of the run.  The full-scale
#: floor matches the asserted pytest bar at 1,000 x 100 (measured
#: ~70-100x); the smoke floor is looser because the reduced 250 x 100
#: point runs on a noisy shared runner.
SPEEDUP_FLOOR_FULL = 5.0
SPEEDUP_FLOOR_SMOKE = 3.0

#: Compiled MDL-kernel bar (``--kernel-json``): the contiguous window
#: kernel (``LockstepLayout.window_costs``) with a compiled backend vs
#: numpy at 10^5 enclosed segments (measured ~7.5-8x with the C
#: extension).  Smoke runs a reduced batch on a noisy shared runner,
#: hence the looser floor.
KERNEL_SPEEDUP_FLOOR_FULL = 5.0
KERNEL_SPEEDUP_FLOOR_SMOKE = 3.0

#: Persistent-layout bar (``--layout-json``): ``lockstep_scan`` with the
#: reused :class:`~repro.partition.layout.LockstepLayout` vs the
#: historical rebuild-every-step path, both on pure numpy (measured
#: ~1.8-1.9x at 1,000 x 100).
LAYOUT_SPEEDUP_FLOOR_FULL = 1.3
LAYOUT_SPEEDUP_FLOOR_SMOKE = 1.15


def compiled_backends():
    """Names of the usable compiled kernel backends on this host."""
    return [
        name for name in ("cext",)
        if kernels.available_backends()[name].startswith("ok")
    ]


def random_window_batch(total_segments, seed):
    """One large MDL window-kernel input: a random walk and windows
    spanning 1-8 of its consecutive segments until *total_segments*
    are enclosed — the kernel-level workload the compiled backends
    exist for.  Returns ``(layout, first, counts)``."""
    rng = np.random.default_rng(seed)
    n_windows = max(1, total_segments // 5)
    counts = rng.integers(1, 9, n_windows)
    first = np.zeros(n_windows, dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    total = int(counts.sum())
    points = rng.uniform(0, 100, (1, 2)) + np.cumsum(
        np.vstack([np.zeros((1, 2)), rng.uniform(-5, 5, (total, 2))]),
        axis=0,
    )
    return LockstepLayout(points), first, counts


def compare_mdl_kernel(total_segments, backend, seed=3, reps=3):
    """Time the contiguous window kernel on numpy vs *backend*; asserts
    bitwise equality.  Returns ``(numpy_seconds, backend_seconds)``."""
    layout, first, counts = random_window_batch(total_segments, seed)
    timings = {}
    results = {}
    for name in ("numpy", backend):
        with kernels.use_backend(name):
            # warm (the first cext call maps the .so)
            layout.window_costs(first, counts)
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                results[name] = layout.window_costs(first, counts)
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    for expected, got in zip(results["numpy"], results[backend]):
        assert (
            np.ascontiguousarray(expected).view(np.uint64)
            == np.ascontiguousarray(got).view(np.uint64)
        ).all(), f"{backend} disagrees bitwise with numpy"
    return timings["numpy"], timings[backend]


def corpus_ragged(n_trajectories, n_points, seed=11):
    return RaggedPoints.from_arrays(
        random_walk_corpus(n_trajectories, n_points, seed)
    )


def compare_layout_vs_rebuild(
    n_trajectories, n_points, backend="numpy", seed=11, reps=3
):
    """Time ``lockstep_scan`` with the persistent layout vs the
    rebuild-every-step path under *backend*; asserts identical output.
    Returns ``(rebuild_seconds, layout_seconds)``."""
    ragged = corpus_ragged(n_trajectories, n_points, seed)
    timings = {}
    results = {}
    with kernels.use_backend(backend):
        for reuse in (False, True):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                results[reuse] = lockstep_scan(
                    ragged, reuse_layout=reuse
                )
                best = min(best, time.perf_counter() - start)
            timings[reuse] = best
    assert results[False][0] == results[True][0], (
        "layout path changed the characteristic points"
    )
    return timings[False], timings[True]


def kernel_backend_grid(grid, backends, seed=11):
    """``lockstep_scan`` wall time per (corpus size, backend) — the
    scan-level view of the compiled kernels (bounded by the Python
    global-step loop, unlike the kernel-level bars)."""
    rows = []
    for n_trajectories, n_points in grid:
        ragged = corpus_ragged(n_trajectories, n_points, seed)
        expected = None
        timing = {}
        for name in ["numpy"] + backends:
            with kernels.use_backend(name):
                start = time.perf_counter()
                got = lockstep_scan(ragged)
                timing[name] = time.perf_counter() - start
            if expected is None:
                expected = got[0]
            else:
                assert got[0] == expected, f"{name} diverged"
        for name in backends:
            rows.append(
                (
                    n_trajectories, n_points, name,
                    f"{timing['numpy'] * 1000:.1f} ms",
                    f"{timing[name] * 1000:.1f} ms",
                    f"{timing['numpy'] / timing[name]:.1f}x",
                )
            )
    return rows


def test_lockstep_layout_speedup(benchmark):
    """Acceptance (persistent-layout PR-3 follow-up): the reused layout
    beats the per-step rebuild >= 1.3x on pure numpy at 1,000 x 100,
    with identical characteristic points."""
    rebuild_time, layout_time = benchmark.pedantic(
        compare_layout_vs_rebuild, args=(1000, 100), rounds=1, iterations=1
    )
    print_table(
        "Lock-step scan at 1,000 x 100 (numpy)",
        [
            ("rebuild per step", f"{rebuild_time * 1000:.0f} ms"),
            ("persistent layout", f"{layout_time * 1000:.0f} ms"),
            ("speedup", f"{rebuild_time / layout_time:.2f}x"),
        ],
        ("path", "time"),
    )
    assert rebuild_time >= LAYOUT_SPEEDUP_FLOOR_FULL * layout_time, (
        f"layout ({layout_time * 1000:.0f} ms) not "
        f"{LAYOUT_SPEEDUP_FLOOR_FULL}x faster than rebuild "
        f"({rebuild_time * 1000:.0f} ms)"
    )


def test_mdl_kernel_compiled_speedup(benchmark):
    """Acceptance (compiled-kernels PR): a compiled backend evaluates
    the contiguous MDL window kernel >= 5x faster than numpy at 10^5
    enclosed segments, bitwise-identically."""
    backends = compiled_backends()
    if not backends:
        pytest.skip("no compiled kernel backend available on this host")
    numpy_time, compiled_time = benchmark.pedantic(
        compare_mdl_kernel, args=(100_000, backends[0]),
        rounds=1, iterations=1,
    )
    print_table(
        f"MDL window kernel at 10^5 enclosed segments ({backends[0]})",
        [
            ("numpy", f"{numpy_time * 1000:.1f} ms"),
            (backends[0], f"{compiled_time * 1000:.1f} ms"),
            ("speedup", f"{numpy_time / compiled_time:.1f}x"),
        ],
        ("backend", "time"),
    )
    assert numpy_time >= KERNEL_SPEEDUP_FLOOR_FULL * compiled_time, (
        f"{backends[0]} ({compiled_time * 1000:.1f} ms) not "
        f"{KERNEL_SPEEDUP_FLOOR_FULL}x faster than numpy "
        f"({numpy_time * 1000:.1f} ms)"
    )


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid, prints the comparison without asserting "
             "the speedup factor (equivalence is always asserted)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the measured speedup bar (at the largest grid "
             "point) as JSON for benchmarks/check_speedup_bars.py",
    )
    parser.add_argument(
        "--kernel-backend", default="auto", choices=kernels.KERNEL_BACKENDS,
        help="which compiled backend the kernel grid compares against "
             "numpy (auto = every backend available on this host)",
    )
    parser.add_argument(
        "--kernel-json", dest="kernel_json", default=None, metavar="PATH",
        help="write the compiled MDL window-kernel speedup bars (one per "
             "backend; empty on hosts with no compiled backend) as JSON "
             "for benchmarks/check_speedup_bars.py",
    )
    parser.add_argument(
        "--layout-json", dest="layout_json", default=None, metavar="PATH",
        help="write the persistent-layout vs rebuild speedup bar "
             "(numpy path) as JSON for benchmarks/check_speedup_bars.py",
    )
    args = parser.parse_args(argv)
    if args.kernel_backend == "auto":
        backends = compiled_backends()
    elif args.kernel_backend == "numpy":
        backends = []
    else:
        backends = [
            b for b in compiled_backends() if b == args.kernel_backend
        ]
        if not backends:
            parser.error(
                f"kernel backend {args.kernel_backend!r} is not available "
                f"on this host (see `repro doctor`)"
            )
    if args.smoke:
        grid = [(1, 100), (10, 50), (100, 50), (250, 100)]
    else:
        grid = [
            (1, 100), (10, 100), (100, 100), (1000, 100),
            (100, 30), (100, 300), (1000, 30), (2000, 100),
        ]
    rows = []
    timings = {}
    for n_trajectories, n_points in grid:
        python_time, batched_time = compare_engines(n_trajectories, n_points)
        timings[(n_trajectories, n_points)] = (python_time, batched_time)
        rows.append(
            (
                n_trajectories,
                n_points,
                f"{python_time * 1000:.1f} ms",
                f"{batched_time * 1000:.1f} ms",
                f"{python_time / batched_time:.1f}x",
            )
        )
    print_table(
        f"Phase-1 engine grid ({'smoke' if args.smoke else 'full'} scale, "
        f"outputs bitwise-verified equal)",
        rows,
        ("trajectories", "points", "python", "batched", "speedup"),
    )

    # --- Kernel-backend dimension -------------------------------------
    # Scan-level grid (bounded by the Python global-step loop) plus the
    # kernel-level bars at the 10^5-segment size point.
    mdl_total = 20_000 if args.smoke else 100_000
    layout_point = (250, 100) if args.smoke else (1000, 100)
    if backends:
        scan_rows = kernel_backend_grid(
            grid[-2:] if args.smoke else [(100, 100), (1000, 100)],
            backends,
        )
        print_table(
            "Lock-step scan by kernel backend (vs numpy, same corpus)",
            scan_rows,
            ("trajectories", "points", "backend", "numpy", "compiled",
             "speedup"),
        )
    kernel_bars = []
    for backend in backends:
        numpy_time, compiled_time = compare_mdl_kernel(mdl_total, backend)
        speedup = numpy_time / compiled_time
        print_table(
            f"MDL window kernel at {mdl_total} enclosed segments",
            [
                ("numpy", f"{numpy_time * 1000:.1f} ms"),
                (backend, f"{compiled_time * 1000:.1f} ms"),
                ("speedup", f"{speedup:.1f}x"),
            ],
            ("backend", "time"),
        )
        kernel_bars.append(
            {
                "name": f"window_mdl_costs_{backend}_vs_numpy_{mdl_total}",
                "speedup": speedup,
                "floor": (
                    KERNEL_SPEEDUP_FLOOR_SMOKE if args.smoke
                    else KERNEL_SPEEDUP_FLOOR_FULL
                ),
            }
        )
    if not backends:
        print(
            "no compiled kernel backend available on this host; "
            "kernel bars skipped (see `repro doctor`)"
        )
    rebuild_time, layout_time = compare_layout_vs_rebuild(*layout_point)
    layout_speedup = rebuild_time / layout_time
    print_table(
        f"Lock-step scan at {layout_point[0]} x {layout_point[1]} (numpy)",
        [
            ("rebuild per step", f"{rebuild_time * 1000:.0f} ms"),
            ("persistent layout", f"{layout_time * 1000:.0f} ms"),
            ("speedup", f"{layout_speedup:.2f}x"),
        ],
        ("path", "time"),
    )
    if args.kernel_json:
        payload = {
            "benchmark": "mdl_kernels",
            "mode": "smoke" if args.smoke else "full",
            "bars": kernel_bars,
        }
        with open(args.kernel_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.kernel_json}")
    if args.layout_json:
        payload = {
            "benchmark": "lockstep_layout",
            "mode": "smoke" if args.smoke else "full",
            "bars": [
                {
                    "name": (
                        f"layout_vs_rebuild_numpy_"
                        f"{layout_point[0]}x{layout_point[1]}"
                    ),
                    "speedup": layout_speedup,
                    "floor": (
                        LAYOUT_SPEEDUP_FLOOR_SMOKE if args.smoke
                        else LAYOUT_SPEEDUP_FLOOR_FULL
                    ),
                }
            ],
        }
        with open(args.layout_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.layout_json}")

    if args.json_out:
        # The bar point: the largest corpus of the run — the scale the
        # batched engine exists for.
        bar_point = max(grid, key=lambda g: g[0] * g[1])
        python_time, batched_time = timings[bar_point]
        payload = {
            "benchmark": "partition",
            "mode": "smoke" if args.smoke else "full",
            "bars": [
                {
                    "name": (
                        f"batched_vs_python_{bar_point[0]}x{bar_point[1]}"
                    ),
                    "speedup": python_time / batched_time,
                    "floor": (
                        SPEEDUP_FLOOR_SMOKE if args.smoke
                        else SPEEDUP_FLOOR_FULL
                    ),
                }
            ],
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
