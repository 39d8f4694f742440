"""Warehouse analytics: catalog query vs loading every payload.

The acceptance bar of the queryable-warehouse PR: a cross-corpus grid
question — "which (ε, MinLns) cells across every cached corpus
clustered at all, and at what noise fraction?" — asked of a directory
holding **three** corpora's label grids must answer from the sqlite
catalog at least **10x faster** than the pre-catalog route of loading
every npz payload and recomputing the per-cell stats from the label
arrays.  Each catalog answer opens the catalog, queries it (the query
first syncs the index from the npz files) and closes it.  Across all
repeats it must decode no npz member but ``__meta__`` (pinned by
recording every decoded member) and agree cell-for-cell with the
recomputed baseline.

Run under pytest (``pytest benchmarks/bench_query.py``) for the
asserted comparison, or standalone::

    PYTHONPATH=src python benchmarks/bench_query.py [--smoke] [--json out.json]
"""

import os
import shutil
import tempfile
import time
from contextlib import closing, contextmanager

import numpy as np
from numpy.lib.npyio import NpzFile

from conftest import print_table
from repro.api.catalog import Catalog
from repro.api.workspace import Workspace
from repro.core.config import TraclusConfig
from repro.io.artifacts import load_artifact
from bench_sweep import corpus_with_min_segments

#: Committed floors, exported to the CI regression gate via ``--json``
#: and cross-checked against benchmarks/check_speedup_bars.py's
#: registry.  The catalog answers in one indexed sqlite scan; the
#: baseline decompresses every label grid — measured gaps are far
#: above 10x even at smoke scale.
SPEEDUP_FLOOR_FULL = 10.0
SPEEDUP_FLOOR_SMOKE = 10.0

N_CORPORA = 3


def build_warehouse(cache_dir, min_segments, n_eps, n_min_lns):
    """Fill one directory with ``N_CORPORA`` corpora's label grids and
    per-cell quality artifacts; returns the total grid cell count."""
    cells = 0
    for index in range(N_CORPORA):
        trajectories, _ = corpus_with_min_segments(
            min_segments, seed=23 + index
        )
        workspace = Workspace(
            trajectories,
            TraclusConfig(compute_representatives=False),
            cache_dir=cache_dir,
        )
        eps_values = [float(e) for e in np.linspace(4.0, 10.0, n_eps)]
        min_lns_values = [float(m) for m in range(3, 3 + n_min_lns)]
        workspace.labels_grid(eps_values, min_lns_values)
        for eps in eps_values:
            for min_lns in min_lns_values:
                workspace.quality(eps, min_lns)
        cells += n_eps * n_min_lns
    return cells


def catalog_answer(cache_dir):
    """The warehouse route: open the sqlite catalog, run one canned
    query (which syncs the index from the npz files first), close it."""
    with closing(Catalog(cache_dir)) as catalog:
        return catalog.query("cells", min_clusters=1)


@contextmanager
def decoded_members():
    """Record the name of every npz member decoded inside the block."""
    names = set()
    original = NpzFile.__getitem__

    def recording(archive, name):
        names.add(name)
        return original(archive, name)

    NpzFile.__getitem__ = recording
    try:
        yield names
    finally:
        NpzFile.__getitem__ = original


def baseline_answer(cache_dir):
    """The pre-catalog route: load every labels payload, recompute each
    cell's cluster/noise counts from the raw label arrays."""
    rows = []
    for name in sorted(os.listdir(cache_dir)):
        if not name.endswith(".npz"):
            continue
        arrays, meta = load_artifact(os.path.join(cache_dir, name))
        if meta.get("kind") != "labels" or "cells" not in meta:
            continue
        labels = arrays["labels"]
        eps_values = arrays["eps_values"]
        min_lns_values = arrays["min_lns_values"]
        for i, eps in enumerate(eps_values):
            for j, min_lns in enumerate(min_lns_values):
                cell = labels[i, j]
                n_clusters = int(cell.max()) + 1 if cell.size else 0
                if n_clusters < 1:
                    continue
                rows.append({
                    "corpus": meta.get("corpus"),
                    "eps": float(eps),
                    "min_lns": float(min_lns),
                    "n_clusters": n_clusters,
                    "n_noise": int((cell < 0).sum()),
                })
    return rows


def _cell_set(rows):
    return {
        (row["corpus"], row["eps"], row["min_lns"], row["n_clusters"],
         row["n_noise"])
        for row in rows
    }


def run_query_comparison(min_segments=800, n_eps=4, n_min_lns=2, repeats=5):
    """Time the catalog query against the load-everything baseline on
    one warehouse; asserts agreement and that the catalog route decodes
    only ``__meta__`` members.

    Returns ``(grid_cells, catalog_seconds, baseline_seconds,
    n_matching)``."""
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-query-")
    try:
        grid_cells = build_warehouse(
            cache_dir, min_segments, n_eps, n_min_lns
        )
        # Best-of-N for both routes: the question is steady-state
        # analytics latency, not page-cache warmup.
        catalog_time = float("inf")
        with decoded_members() as members:
            for _ in range(repeats):
                start = time.perf_counter()
                rows = catalog_answer(cache_dir)
                catalog_time = min(catalog_time, time.perf_counter() - start)
        assert members == {"__meta__"}, (
            f"catalog query decoded npz members {sorted(members)}"
        )
        baseline_time = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            baseline = baseline_answer(cache_dir)
            baseline_time = min(
                baseline_time, time.perf_counter() - start
            )
        assert len(rows) > 0, "no clustered cells in the warehouse"
        assert {row["corpus"] for row in rows} == {
            row["corpus"] for row in baseline
        }
        assert len({row["corpus"] for row in rows}) == N_CORPORA
        assert _cell_set(rows) == _cell_set(baseline), (
            "catalog cells disagree with recomputed baseline"
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return grid_cells, catalog_time, baseline_time, len(rows)


def test_catalog_query_speedup(benchmark):
    """Acceptance: the cross-corpus grid query answers >= 10x faster
    from the catalog than by loading every payload, touching zero npz
    payloads, over 3 cached corpora."""
    grid_cells, catalog_time, baseline_time, n_rows = benchmark.pedantic(
        run_query_comparison, rounds=1, iterations=1
    )
    print_table(
        f"Cross-corpus cells query ({N_CORPORA} corpora, {grid_cells} "
        f"grid cells, {n_rows} clustered, answers verified equal, "
        f"0 payload loads)",
        [
            ("catalog (sqlite)", f"{catalog_time * 1000:.2f} ms"),
            ("baseline (load every npz)", f"{baseline_time * 1000:.2f} ms"),
            ("speedup", f"{baseline_time / catalog_time:.1f}x"),
        ],
        ("route", "time"),
    )
    assert baseline_time >= SPEEDUP_FLOOR_FULL * catalog_time, (
        f"catalog query ({catalog_time * 1000:.2f} ms) not "
        f"{SPEEDUP_FLOOR_FULL:.0f}x faster than payload loads "
        f"({baseline_time * 1000:.2f} ms)"
    )


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced corpora and grid (the CI bench-smoke job)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the measured speedup bars as JSON (consumed by "
             "benchmarks/check_speedup_bars.py in CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        scale = dict(min_segments=600, n_eps=3, n_min_lns=2)
        floor = SPEEDUP_FLOOR_SMOKE
    else:
        scale = dict(min_segments=2500, n_eps=5, n_min_lns=3)
        floor = SPEEDUP_FLOOR_FULL
    grid_cells, catalog_time, baseline_time, n_rows = run_query_comparison(
        **scale
    )
    speedup = baseline_time / catalog_time
    print_table(
        f"Cross-corpus cells query ({'smoke' if args.smoke else 'full'} "
        f"scale: {N_CORPORA} corpora, {grid_cells} grid cells, {n_rows} "
        f"clustered, answers verified equal, 0 payload loads)",
        [
            ("catalog (sqlite)", f"{catalog_time * 1000:.2f} ms"),
            ("baseline (load every npz)", f"{baseline_time * 1000:.2f} ms"),
            ("speedup", f"{speedup:.1f}x"),
        ],
        ("route", "time"),
    )
    assert speedup >= floor, (
        f"catalog query only {speedup:.2f}x over payload loads "
        f"(floor {floor:.1f}x)"
    )
    if args.json_out:
        payload = {
            "benchmark": "query",
            "mode": "smoke" if args.smoke else "full",
            "bars": [
                {
                    "name": f"catalog_vs_payload_loads_{N_CORPORA}corpora",
                    "speedup": speedup,
                    "floor": floor,
                }
            ],
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
