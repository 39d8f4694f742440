"""Lemmas 1 and 3 — complexity of the two phases.

Lemma 1: Approximate Trajectory Partitioning is O(n) in the number of
trajectory points (the number of MDL evaluations equals the number of
segments; each evaluation spans one candidate partition).

Lemma 3: Line Segment Clustering is O(n^2) without an index and
O(n log n) with one.  We measure the grid index's per-query *candidate
count* against brute force on growing corridor datasets — the
:class:`~repro.index.grid.SegmentGrid` query returns the segments with
an endpoint within the candidate radius of the query's, a set that
stays roughly constant while brute force examines all n.
"""

import time

import numpy as np
import pytest

from conftest import print_table
from repro import kernels
from repro.cluster.dbscan import LineSegmentDBSCAN
from repro.distance.vectorized import component_distances_pairs
from repro.model.segmentset import SegmentSet
from repro.cluster.neighbor_graph import (
    NeighborGraph,
    PrecomputedNeighborhood,
    _endpoint_join,
    candidate_radius,
    endpoint_pairs,
)
from repro.cluster.neighborhood import BruteForceNeighborhood
from repro.datasets.synthetic import generate_corridor_set
from repro.distance.weighted import SegmentDistance
from repro.index.grid import SegmentGrid
from repro.partition.approximate import approximate_partition
from repro.representative.sweep import crossing_sums


def random_walk_points(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [np.linspace(0, 3.0 * n, n), np.cumsum(rng.normal(0, 2.0, n))]
    )


def run_lemma1():
    """Partitioning wall time at doubling trajectory lengths."""
    rows = []
    for n in (250, 500, 1000, 2000):
        points = random_walk_points(n, seed=n)
        start = time.perf_counter()
        approximate_partition(points)
        rows.append((n, time.perf_counter() - start))
    return rows


def constant_density_segments(n_traj, seed):
    """Corridor sets tiled over a domain that grows with n, keeping the
    local density constant — the regime where an index pays off (a
    single corridor, by contrast, concentrates all n segments in one
    neighborhood and nothing can prune them)."""
    from repro.model.segmentset import SegmentSet
    from repro.partition.approximate import partition_all

    import numpy as np

    tiles = max(1, n_traj // 20)
    pieces = []
    rng = np.random.default_rng(seed)
    for tile in range(tiles):
        offset = rng.uniform(0, 300.0 * tiles, 2)
        trajectories = generate_corridor_set(
            n_trajectories=min(20, n_traj - 20 * tile) or 20,
            corridor_start=offset + [40.0, 50.0],
            corridor_end=offset + [80.0, 50.0],
            seed=seed + tile,
            points_per_leg=10,
        )
        segments, _ = partition_all(trajectories)
        pieces.append(segments)
    starts = np.vstack([p.starts for p in pieces])
    ends = np.vstack([p.ends for p in pieces])
    return SegmentSet(starts, ends)


def run_lemma3():
    """Candidate counts per epsilon-query: brute vs the grid index's
    endpoint candidates."""
    rows = []
    for n_traj in (20, 80, 320):
        segments = constant_density_segments(n_traj, seed=17)
        eps = 8.0
        radius = candidate_radius(eps, SegmentDistance())
        brute = BruteForceNeighborhood(segments, eps)
        grid = SegmentGrid(segments, radius)
        sample = np.arange(0, len(segments), max(1, len(segments) // 50))
        query_pos, found = grid.candidates_near_many(sample)
        # Soundness spot-check while we are here: the candidates
        # contain every brute neighbor.
        for q in range(10):
            assert np.isin(
                brute.neighbors_of(int(sample[q])), found[query_pos == q]
            ).all()
        rows.append(
            (len(segments), len(segments), found.size / sample.size)
        )
    return rows


def run_engine_comparison(min_segments=5000):
    """Full neighbor-graph construction: per-query brute vs the batched
    CSR builder, on one constant-density set of at least
    *min_segments* segments."""
    n_traj = 20
    segments = constant_density_segments(n_traj, seed=23)
    while len(segments) < min_segments:
        n_traj *= 2
        segments = constant_density_segments(n_traj, seed=23)
    eps = 8.0

    start = time.perf_counter()
    brute_sizes = BruteForceNeighborhood(segments, eps).neighborhood_sizes()
    brute_time = time.perf_counter() - start

    start = time.perf_counter()
    batch_sizes = PrecomputedNeighborhood(segments, eps).neighborhood_sizes()
    batch_time = time.perf_counter() - start

    assert np.array_equal(brute_sizes, batch_sizes)
    return segments, eps, [
        ("brute", len(segments), brute_time),
        ("batch", len(segments), batch_time),
    ]


#: Compiled pair-kernel bar (``--kernel-json``): the role-assigned
#: component-distance kernel behind the candidate-pair join, compiled
#: vs numpy at a 10^5-segment store (measured ~6-7x with the C
#: extension).  Smoke runs a reduced batch, hence the looser floor.
PAIR_KERNEL_FLOOR_FULL = 5.0
PAIR_KERNEL_FLOOR_SMOKE = 3.0


def compiled_backends():
    """Names of the usable compiled kernel backends on this host."""
    return [
        name for name in ("cext",)
        if kernels.available_backends()[name].startswith("ok")
    ]


def random_pair_workload(n_segments, n_pairs, seed=7):
    """A segment store plus pre-materialized candidate pairs — the
    blocked join's exact kernel input (what the per-backend bars time,
    independent of candidate generation)."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, 1000.0, (n_segments, 2))
    ends = starts + rng.uniform(-20.0, 20.0, (n_segments, 2))
    left = rng.integers(0, n_segments, n_pairs)
    right = rng.integers(0, n_segments, n_pairs)
    return SegmentSet(starts, ends), left, right


def compare_pair_kernel(n_segments, n_pairs, backend, seed=7, reps=3):
    """Time ``component_distances_pairs`` on numpy vs *backend*;
    asserts bitwise equality.  Returns ``(numpy_seconds,
    backend_seconds)``."""
    store, left, right = random_pair_workload(n_segments, n_pairs, seed)
    timings = {}
    results = {}
    for name in ("numpy", backend):
        with kernels.use_backend(name):
            component_distances_pairs(store, left[:64], right[:64])  # warm
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                results[name] = component_distances_pairs(
                    store, left, right
                )
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    for expected, got in zip(results["numpy"], results[backend]):
        assert (
            np.ascontiguousarray(expected).view(np.uint64)
            == np.ascontiguousarray(got).view(np.uint64)
        ).all(), f"{backend} disagrees bitwise with numpy"
    return timings["numpy"], timings[backend]


def run_pair_kernel_grid(backends, sizes):
    """Per-backend pair-kernel timings across store sizes (the last
    size is the 10^5-segment bar point)."""
    rows = []
    bars = {}
    for n_segments in sizes:
        n_pairs = 2 * n_segments
        for backend in backends:
            numpy_time, compiled_time = compare_pair_kernel(
                n_segments, n_pairs, backend
            )
            speedup = numpy_time / compiled_time
            bars[(backend, n_segments)] = speedup
            rows.append(
                (
                    n_segments, n_pairs, backend,
                    f"{numpy_time * 1000:.1f} ms",
                    f"{compiled_time * 1000:.1f} ms",
                    f"{speedup:.1f}x",
                )
            )
    return rows, bars


#: Compiled crossing-sum bar (``--kernel-json``, same floors as the pair
#: kernel): Figure 15's per-position sums of interpolated points, compiled
#: vs numpy.  Smoke runs a cluster shaped like fit-dense's (3.5k members,
#: ~0.6M crossing pairs), full runs one shaped like the whole elk1993
#: cluster (29.5k members, ~25M pairs).
CROSSING_SHAPES = {"smoke": (3_500, 170), "full": (29_500, 860)}


def crossing_workload(n_members, mean_crossed, seed=7):
    """A Figure-15 sweep input: *n_members* segments along X' whose
    extents hold about *mean_crossed* of the 2n endpoint positions each,
    plus those positions and each segment's range of crossed ones."""
    rng = np.random.default_rng(seed)
    extent = 1000.0
    starts = rng.uniform(0.0, extent, (n_members, 2))
    ends = starts + np.column_stack([
        rng.exponential(extent * mean_crossed / (2 * n_members), n_members),
        rng.normal(0.0, 5.0, n_members),
    ])
    xs = np.unique(np.concatenate([starts[:, 0], ends[:, 0]]))
    first = np.searchsorted(xs, starts[:, 0], "left")
    last = np.searchsorted(xs, ends[:, 0], "right")
    return starts, ends, xs, first, last


def compare_crossing_sums(n_members, mean_crossed, backend, reps=3):
    """Time ``crossing_sums`` on numpy vs *backend*; asserts bitwise
    equality.  Returns ``(numpy_seconds, backend_seconds, n_pairs)``."""
    workload = crossing_workload(n_members, mean_crossed)
    timings = {}
    results = {}
    for name in ("numpy", backend):
        with kernels.use_backend(name):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                results[name] = crossing_sums(*workload)
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    assert np.array_equal(
        results["numpy"].view(np.uint64), results[backend].view(np.uint64)
    ), f"{backend} disagrees bitwise with numpy"
    _, _, _, first, last = workload
    return timings["numpy"], timings[backend], int((last - first).sum())


def endpoint_join_corpus(mode):
    """The ε-graph join's input: a fit-dense-sized elk corpus (200
    points per animal, smoke) or the whole elk1993 corpus (full),
    partitioned at suppression 2, with ε = 27."""
    from repro.datasets.starkey import generate_elk1993
    from repro.partition.approximate import partition_all

    if mode == "smoke":
        trajectories = generate_elk1993(points_per_animal=200, seed=7)
    else:
        trajectories = generate_elk1993()
    segments, _ = partition_all(trajectories, suppression=2.0)
    return segments, 27.0


def compare_endpoint_pairs(mode, backend, reps=3):
    """Time the join's :func:`endpoint_pairs` calls on numpy vs
    *backend*; asserts equal keys.  Returns ``(numpy_seconds,
    backend_seconds, n_segments, n_candidates)``."""
    segments, eps = endpoint_join_corpus(mode)
    radius = candidate_radius(eps, SegmentDistance())
    calls = list(_endpoint_join(segments, radius, kernels.DEFAULT_PAIR_BLOCK))
    timings = {}
    results = {}
    for name in ("numpy", backend):
        with kernels.use_backend(name):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                results[name] = [endpoint_pairs(*args) for args in calls]
                best = min(best, time.perf_counter() - start)
            timings[name] = best
    for expected, got in zip(results["numpy"], results[backend]):
        assert np.array_equal(expected, got), (
            f"{backend} disagrees with numpy"
        )
    n_candidates = sum(keys.size for keys in results["numpy"])
    return timings["numpy"], timings[backend], len(segments), n_candidates


def test_endpoint_pairs_compiled_speedup(benchmark):
    """A compiled backend runs the ε-graph join's endpoint test >= 5x
    faster than numpy on the whole elk1993 corpus, with equal keys."""
    backends = compiled_backends()
    if not backends:
        pytest.skip("no compiled kernel backend available on this host")
    numpy_time, compiled_time, n, n_candidates = benchmark.pedantic(
        compare_endpoint_pairs, args=("full", backends[0]),
        rounds=1, iterations=1,
    )
    print_table(
        f"endpoint_pairs over {n} segments, {n_candidates} candidates "
        f"({backends[0]})",
        [
            ("numpy", f"{numpy_time * 1000:.1f} ms"),
            (backends[0], f"{compiled_time * 1000:.1f} ms"),
            ("speedup", f"{numpy_time / compiled_time:.1f}x"),
        ],
        ("backend", "time"),
    )
    assert numpy_time >= PAIR_KERNEL_FLOOR_FULL * compiled_time


def test_crossing_sums_compiled_speedup(benchmark):
    """A compiled backend sums Figure 15's crossing points >= 5x faster
    than numpy on a cluster shaped like the whole elk1993 one,
    bitwise-identically."""
    backends = compiled_backends()
    if not backends:
        pytest.skip("no compiled kernel backend available on this host")
    numpy_time, compiled_time, n_pairs = benchmark.pedantic(
        compare_crossing_sums, args=(*CROSSING_SHAPES["full"], backends[0]),
        rounds=1, iterations=1,
    )
    print_table(
        f"crossing_sums over {n_pairs} pairs ({backends[0]})",
        [
            ("numpy", f"{numpy_time * 1000:.1f} ms"),
            (backends[0], f"{compiled_time * 1000:.1f} ms"),
            ("speedup", f"{numpy_time / compiled_time:.1f}x"),
        ],
        ("backend", "time"),
    )
    assert numpy_time >= PAIR_KERNEL_FLOOR_FULL * compiled_time


def test_pair_kernel_compiled_speedup(benchmark):
    """Acceptance (compiled-kernels PR): a compiled backend evaluates
    the pair-component distance kernel >= 5x faster than numpy on a
    10^5-segment store, bitwise-identically."""
    backends = compiled_backends()
    if not backends:
        pytest.skip("no compiled kernel backend available on this host")
    numpy_time, compiled_time = benchmark.pedantic(
        compare_pair_kernel, args=(100_000, 200_000, backends[0]),
        rounds=1, iterations=1,
    )
    print_table(
        f"component_distances_pairs at 10^5 segments ({backends[0]})",
        [
            ("numpy", f"{numpy_time * 1000:.1f} ms"),
            (backends[0], f"{compiled_time * 1000:.1f} ms"),
            ("speedup", f"{numpy_time / compiled_time:.1f}x"),
        ],
        ("backend", "time"),
    )
    assert numpy_time >= PAIR_KERNEL_FLOOR_FULL * compiled_time, (
        f"{backends[0]} ({compiled_time * 1000:.1f} ms) not "
        f"{PAIR_KERNEL_FLOOR_FULL}x faster than numpy "
        f"({numpy_time * 1000:.1f} ms)"
    )


def test_engine_comparison_batch_speedup(benchmark):
    """The acceptance bar of the batched-engine PR: building the full
    ε-neighborhood relation with the blocked CSR builder is >= 5x
    faster than n per-query brute-force passes at >= 5000 segments,
    and DBSCAN output is unchanged."""
    segments, eps, rows = benchmark.pedantic(
        run_engine_comparison, rounds=1, iterations=1
    )
    table = [(m, n, f"{t * 1000:.0f} ms") for m, n, t in rows]
    print_table(
        "Engine comparison: full neighbor-graph build "
        "(per-query vs batched)",
        table, ("engine", "n segments", "build+sizes time"),
    )
    times = {m: t for m, _, t in rows}
    assert rows[0][1] >= 5000
    assert times["brute"] >= 5.0 * times["batch"], (
        f"batch ({times['batch']:.3f}s) not 5x faster than "
        f"brute ({times['brute']:.3f}s)"
    )

    # Label equality across engines on the same workload (the batch
    # engine is handed to DBSCAN as a prebuilt shared graph).
    graph = NeighborGraph.build(segments, eps)
    dbscan = LineSegmentDBSCAN(eps=eps, min_lns=4)
    _, labels_batch = dbscan.fit(
        segments, engine=PrecomputedNeighborhood(segments, eps, graph=graph)
    )
    _, labels_brute = dbscan.fit(
        segments, engine=BruteForceNeighborhood(segments, eps)
    )
    assert np.array_equal(labels_brute, labels_batch)


def test_lemma1_partitioning_linear(benchmark):
    rows = benchmark.pedantic(run_lemma1, rounds=1, iterations=1)
    table = [(n, f"{t * 1000:.1f} ms") for n, t in rows]
    print_table(
        "Lemma 1: partitioning time vs trajectory length (paper: O(n))",
        table, ("n points", "time"),
    )
    # Doubling n should scale time far below quadratically: an 8x point
    # increase must cost well under 64x (allow generous slack for the
    # varying candidate-partition spans).
    assert rows[-1][1] / max(rows[0][1], 1e-9) < 40.0


def test_lemma3_index_prunes_candidates(benchmark):
    rows = benchmark.pedantic(run_lemma3, rounds=1, iterations=1)
    table = [(n, brute, f"{g:.1f}") for n, brute, g in rows]
    print_table(
        "Lemma 3: mean candidates per eps-query (paper: O(n^2) brute vs "
        "O(n log n) indexed)",
        table, ("n segments", "brute candidates", "grid"),
    )
    # The index examines a vanishing fraction as n grows.
    first_ratio = rows[0][2] / rows[0][0]
    last_ratio = rows[-1][2] / rows[-1][0]
    assert last_ratio < first_ratio
    assert rows[-1][2] < rows[-1][0] * 0.5


def main(argv=None):
    """Non-asserting entry point (``--smoke`` for CI: reduced scale)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced scale, prints every comparison without asserting",
    )
    parser.add_argument(
        "--kernel-json", dest="kernel_json", default=None, metavar="PATH",
        help="write the compiled pair-kernel speedup bars (one per "
             "backend; empty on hosts with no compiled backend) as JSON "
             "for benchmarks/check_speedup_bars.py",
    )
    args = parser.parse_args(argv)
    min_segments = 1500 if args.smoke else 5000
    backends = compiled_backends()

    rows = run_lemma1()
    print_table(
        "Lemma 1: partitioning time vs trajectory length",
        [(n, f"{t * 1000:.1f} ms") for n, t in rows],
        ("n points", "time"),
    )
    _, _, engine_rows = run_engine_comparison(min_segments=min_segments)
    print_table(
        "Engine comparison: full neighbor-graph build",
        [(m, n, f"{t * 1000:.0f} ms") for m, n, t in engine_rows],
        ("engine", "n segments", "build+sizes time"),
    )

    # --- Kernel-backend dimension: the pair-distance kernel ----------
    sizes = [5_000, 20_000] if args.smoke else [10_000, 100_000]
    bar_size = sizes[-1]
    mode = "smoke" if args.smoke else "full"
    floor = PAIR_KERNEL_FLOOR_SMOKE if args.smoke else PAIR_KERNEL_FLOOR_FULL
    crossing_members, mean_crossed = CROSSING_SHAPES[mode]
    crossing_bars = {}
    endpoint_bars = {}
    if backends:
        rows, bars = run_pair_kernel_grid(backends, sizes)
        print_table(
            "component_distances_pairs by kernel backend (vs numpy, "
            "pre-materialized candidate pairs)",
            rows,
            ("n segments", "n pairs", "backend", "numpy", "compiled",
             "speedup"),
        )
        rows = []
        for backend in backends:
            numpy_time, compiled_time, n_pairs = compare_crossing_sums(
                crossing_members, mean_crossed, backend
            )
            crossing_bars[backend] = numpy_time / compiled_time
            rows.append((
                crossing_members, n_pairs, backend,
                f"{numpy_time * 1000:.1f} ms",
                f"{compiled_time * 1000:.1f} ms",
                f"{crossing_bars[backend]:.1f}x",
            ))
        print_table(
            "crossing_sums (Figure 15) by kernel backend (vs numpy)",
            rows,
            ("n members", "n pairs", "backend", "numpy", "compiled",
             "speedup"),
        )
        rows = []
        for backend in backends:
            numpy_time, compiled_time, n_endpoint, n_candidates = (
                compare_endpoint_pairs(mode, backend)
            )
            endpoint_bars[backend] = numpy_time / compiled_time
            rows.append((
                n_endpoint, n_candidates, backend,
                f"{numpy_time * 1000:.1f} ms",
                f"{compiled_time * 1000:.1f} ms",
                f"{endpoint_bars[backend]:.1f}x",
            ))
        print_table(
            "endpoint_pairs (ε-graph join) by kernel backend (vs numpy)",
            rows,
            ("n segments", "candidates", "backend", "numpy", "compiled",
             "speedup"),
        )
    else:
        bars = {}
        print(
            "no compiled kernel backend available on this host; "
            "pair-kernel, crossing-sum and endpoint-pair bars skipped "
            "(see `repro doctor`)"
        )
    if args.kernel_json:
        payload = {
            "benchmark": "pair_kernels",
            "mode": mode,
            "bars": [
                {
                    "name": (
                        f"component_distances_pairs_{backend}_vs_numpy_"
                        f"{bar_size}"
                    ),
                    "speedup": bars[(backend, bar_size)],
                    "floor": floor,
                }
                for backend in backends
            ] + [
                {
                    "name": (
                        f"crossing_sums_{backend}_vs_numpy_{crossing_members}"
                    ),
                    "speedup": crossing_bars[backend],
                    "floor": floor,
                }
                for backend in backends
            ] + [
                {
                    "name": (
                        f"endpoint_pairs_{backend}_vs_numpy_{n_endpoint}"
                    ),
                    "speedup": endpoint_bars[backend],
                    "floor": floor,
                }
                for backend in backends
            ],
        }
        with open(args.kernel_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.kernel_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
