"""Command-line interface.

Eight subcommands, composable through CSV/JSON files:

* ``cluster``   — run TRACLUS on a trajectory CSV, write JSON/SVG results;
* ``params``    — run the Section 4.4 heuristic and print the estimates;
* ``sweep``     — run an amortised (ε, MinLns) grid sweep (one phase-1
  pass, one ε-graph) and emit per-cell metrics as CSV/JSON;
* ``workspace`` — inspect a persistent artifact cache directory;
* ``generate``  — write one of the built-in synthetic datasets to CSV;
* ``render``    — render a trajectory CSV (optionally with a result JSON)
  to SVG;
* ``stream``    — tail a trajectory CSV through the online pipeline and
  print label deltas as points arrive;
* ``serve``     — run the asyncio HTTP front-end: many corpora, one
  shared artifact store, CPU work sharded over a process pool;
* ``doctor``    — report kernel-backend availability (compiled vs
  numpy) and the numpy/BLAS thread environment.

``cluster``, ``params``, ``sweep``, and ``serve`` accept
``--kernel-backend`` (``auto``/``numpy``/``cext``) selecting the
hot-kernel dispatch of :mod:`repro.kernels` — bitwise-neutral, so
results and caches are unaffected.

``cluster``, ``params``, and ``sweep`` all accept ``--workspace DIR``:
expensive artifacts (the phase-1 partition, the ε-neighborhood graph,
labels, entropy counts) are then persisted as fingerprint-keyed npz
files, so repeated invocations — estimate parameters first, cluster
second, sweep a grid third — reuse each other's work instead of
recomputing it.  Results are bitwise independent of the cache.

Error contract: a library error that escapes a subcommand (any
:class:`~repro.exceptions.ReproError`, e.g. a malformed CSV row or a
non-finite coordinate) ends the run with one
``repro <command>: error: <message>`` line on stderr and exit status
:data:`EXIT_REPRO_ERROR` — distinct from argparse's usage errors (2)
and from the status 1 of an unexpected traceback.

Examples
--------
::

    python -m repro generate hurricane --n 200 -o tracks.csv
    python -m repro params tracks.csv --workspace ws/
    python -m repro cluster tracks.csv --eps 6 --min-lns 8 \
        --workspace ws/ --json result.json --svg result.svg
    python -m repro sweep tracks.csv --eps 20:40:2 --min-lns 5,6,7 \
        --workspace ws/ --csv sweep.csv
    python -m repro workspace inspect ws/
    python -m repro render tracks.csv -o tracks.svg
    python -m repro stream tracks.csv --eps 6 --min-lns 8 --window 5000
    python -m repro serve elk.csv deer.csv hurricane.csv \
        --workspace ws/ --workers 4 --max-disk-mb 256 --port 8765
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.api.workspace import Workspace
from repro.core.config import (
    SWEEP_EXECUTORS,
    StreamConfig,
    SweepConfig,
    TraclusConfig,
)
from repro.exceptions import ReproError
from repro.kernels import KERNEL_BACKENDS
from repro.core.traclus import TRACLUS
from repro.datasets.hurricane import generate_hurricane_tracks
from repro.datasets.starkey import generate_deer1995, generate_elk1993
from repro.datasets.synthetic import (
    add_noise_trajectories,
    generate_corridor_set,
)
from repro.io.csvio import (
    iter_point_rows,
    read_csv_header,
    read_trajectories_csv,
    write_trajectories_csv,
)
from repro.io.jsonio import result_to_dict
from repro.params.heuristic import recommend_parameters
from repro.stream.pipeline import StreamingTRACLUS
from repro.viz.svg import render_result_svg, render_trajectories_svg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRACLUS trajectory clustering (SIGMOD 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="run TRACLUS on a trajectory CSV")
    cluster.add_argument("input", help="trajectory CSV (see repro.io.csvio)")
    cluster.add_argument("--eps", type=float, default=None,
                         help="neighborhood radius (default: estimate)")
    cluster.add_argument("--min-lns", type=float, default=None,
                         help="density threshold (default: estimate)")
    cluster.add_argument("--suppression", type=float, default=0.0,
                         help="partitioning suppression constant (Sec 4.1.3)")
    cluster.add_argument("--undirected", action="store_true",
                         help="use the undirected angle distance")
    cluster.add_argument("--use-weights", action="store_true",
                         help="weighted eps-neighborhood cardinality")
    cluster.add_argument("--gamma", type=float, default=0.0,
                         help="representative smoothing gamma (Fig 15)")
    cluster.add_argument("--kernel-backend", default="auto",
                         choices=KERNEL_BACKENDS,
                         help="hot-kernel dispatch (bitwise-neutral; "
                              "auto = first available compiled backend)")
    cluster.add_argument("--workspace", default=None, metavar="DIR",
                         help="persistent artifact cache: reuse/store the "
                              "partition, eps-graph, and labels as npz "
                              "files under DIR")
    cluster.add_argument("--json", dest="json_out", default=None,
                         help="write the full result JSON here")
    cluster.add_argument("--svg", dest="svg_out", default=None,
                         help="write the visual-inspection SVG here")

    params = sub.add_parser(
        "params", help="estimate (eps, MinLns) with the entropy heuristic"
    )
    params.add_argument("input", help="trajectory CSV")
    params.add_argument("--method", choices=("grid", "anneal"), default="grid")
    params.add_argument("--eps-max", type=float, default=None,
                        help="upper end of the eps search grid")
    params.add_argument("--suppression", type=float, default=0.0)
    params.add_argument("--kernel-backend", default="auto",
                        choices=KERNEL_BACKENDS,
                        help="hot-kernel dispatch (bitwise-neutral)")
    params.add_argument("--workspace", default=None, metavar="DIR",
                        help="persistent artifact cache: the partition "
                             "(and, for the grid method, the neighborhood "
                             "counts) are stored for later cluster/sweep "
                             "runs")

    sweep = sub.add_parser(
        "sweep",
        help="amortised (eps, MinLns) grid sweep: one phase-1 pass, one "
             "eps-graph, every grid point derived incrementally",
    )
    sweep.add_argument("input", help="trajectory CSV")
    sweep.add_argument("--eps", required=True, metavar="GRID",
                       help="eps grid: comma list ('25,27,30') or "
                            "inclusive range 'lo:hi:step' ('20:40:2')")
    sweep.add_argument("--min-lns", required=True, metavar="GRID",
                       help="MinLns grid, same syntax as --eps")
    sweep.add_argument("--suppression", type=float, default=0.0,
                       help="partitioning suppression constant (Sec 4.1.3)")
    sweep.add_argument("--undirected", action="store_true",
                       help="use the undirected angle distance")
    sweep.add_argument("--use-weights", action="store_true",
                       help="weighted eps-neighborhood cardinality")
    sweep.add_argument("--cardinality-threshold", type=float, default=None,
                       help="fixed Step-3 trajectory-cardinality threshold "
                            "(default: each grid point's MinLns)")
    sweep.add_argument("--executor", default="serial",
                       choices=SWEEP_EXECUTORS,
                       help="'process' shards MinLns columns over a "
                            "process pool")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: CPU count)")
    sweep.add_argument("--csv", dest="csv_out", default=None,
                       help="write per-grid-cell metrics CSV here")
    sweep.add_argument("--json", dest="json_out", default=None,
                       help="write the sweep summary JSON here")
    sweep.add_argument("--labels", action="store_true",
                       help="include per-segment label arrays in the JSON "
                            "output (one row per grid cell)")
    sweep.add_argument("--kernel-backend", default="auto",
                       choices=KERNEL_BACKENDS,
                       help="hot-kernel dispatch (bitwise-neutral)")
    sweep.add_argument("--workspace", default=None, metavar="DIR",
                       help="persistent artifact cache: the phase-1 "
                            "partition, the eps_max graph, and the label "
                            "grid are stored/reused as npz files")

    workspace = sub.add_parser(
        "workspace",
        help="inspect, aggregate, or query a persistent artifact cache "
             "directory (what cluster/params/sweep --workspace wrote)",
    )
    ws_sub = workspace.add_subparsers(
        dest="workspace_command", required=True, metavar="SUBCOMMAND"
    )

    ws_inspect = ws_sub.add_parser(
        "inspect", help="list every artifact with its metadata"
    )
    ws_inspect.add_argument(
        "directory", help="the --workspace DIR to inspect"
    )
    ws_inspect.add_argument("--json", dest="json_out", default=None,
                            help="write the artifact index JSON here")

    ws_stats = ws_sub.add_parser(
        "stats",
        help="per-kind aggregate of a DIR, or — with --url — of a "
             "running 'repro serve' instance",
    )
    ws_stats.add_argument(
        "directory", nargs="?", default=None,
        help="the workspace DIR to aggregate",
    )
    ws_stats.add_argument(
        "--url", default=None, metavar="URL",
        help="scrape a running 'repro serve' instance "
             "(GET /v1/stats and /v1/metrics) instead of reading a "
             "directory",
    )
    ws_stats.add_argument("--json", dest="json_out", default=None,
                          help="write the aggregate JSON here")

    ws_query = ws_sub.add_parser(
        "query",
        help="cross-corpus analytics straight off the sqlite catalog "
             "(never opens an npz payload)",
    )
    ws_query.add_argument(
        "directory", help="the workspace DIR whose catalog to query"
    )
    ws_query.add_argument(
        "--query", dest="query_name", default=None,
        choices=("artifacts", "cells", "corpora", "kinds"),
        help="canned query to run (default: 'cells', or 'artifacts' "
             "when --kind is given)",
    )
    ws_query.add_argument("--corpus", default=None,
                          help="filter to one corpus (fingerprint or "
                               "registered name)")
    ws_query.add_argument("--kind", default=None,
                          help="filter artifacts to one kind "
                               "(implies --query artifacts)")
    ws_query.add_argument("--min-clusters", dest="min_clusters", type=int,
                          default=None,
                          help="cells: only grid cells with at least "
                               "this many clusters")
    ws_query.add_argument("--max-noise", dest="max_noise", type=float,
                          default=None,
                          help="cells: only grid cells at or below this "
                               "noise fraction (0..1)")
    ws_query.add_argument("--eps", type=float, default=None,
                          help="cells: filter to one ε value")
    ws_query.add_argument("--min-lns", dest="min_lns", type=float,
                          default=None,
                          help="cells: filter to one MinLns value")
    ws_query.add_argument("--limit", type=int, default=None,
                          help="cap the number of rows returned")
    ws_query.add_argument("--sql", default=None, metavar="SELECT",
                          help="run one raw read-only SELECT/WITH "
                               "statement instead of a canned query")
    ws_query.add_argument("--json", dest="json_out", default=None,
                          metavar="FILE",
                          help="write rows as JSON ('-' for stdout)")
    ws_query.add_argument("--csv", dest="csv_out", default=None,
                          metavar="FILE",
                          help="write rows as CSV ('-' for stdout)")

    generate = sub.add_parser("generate", help="write a synthetic dataset CSV")
    generate.add_argument(
        "dataset", choices=("hurricane", "elk", "deer", "corridor"),
    )
    generate.add_argument("--n", type=int, default=None,
                          help="number of trajectories (dataset default)")
    generate.add_argument("--points", type=int, default=None,
                          help="points per trajectory where applicable")
    generate.add_argument("--noise", type=float, default=0.0,
                          help="noise trajectory fraction to mix in")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("-o", "--output", required=True)

    render = sub.add_parser("render", help="render trajectories to SVG")
    render.add_argument("input", help="trajectory CSV")
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--width", type=int, default=900)
    render.add_argument("--height", type=int, default=650)

    stream = sub.add_parser(
        "stream",
        help="tail a trajectory CSV through the online pipeline and "
             "print label deltas",
    )
    stream.add_argument("input", help="trajectory CSV (long format)")
    stream.add_argument("--eps", type=float, required=True,
                        help="neighborhood radius (required: the entropy "
                             "heuristic needs the whole dataset)")
    stream.add_argument("--min-lns", type=float, required=True,
                        help="density threshold MinLns")
    stream.add_argument("--window", type=int, default=None,
                        help="sliding-window cap on live segments")
    stream.add_argument("--horizon", type=float, default=None,
                        help="evict segments more than this far behind the "
                             "newest timestamp")
    stream.add_argument("--suppression", type=float, default=0.0,
                        help="partitioning suppression constant (Sec 4.1.3)")
    stream.add_argument("--undirected", action="store_true",
                        help="use the undirected angle distance")
    stream.add_argument("--use-weights", action="store_true",
                        help="weighted eps-neighborhood cardinality")
    stream.add_argument("--batch-points", type=int, default=25,
                        help="points buffered per trajectory before a "
                             "clustering update (1 = update per point)")
    stream.add_argument("--bulk-load", action="store_true",
                        help="seed the session from the file's current "
                             "contents in one batched phase-1 pass, then "
                             "continue streaming (same labels as pure "
                             "streaming, much faster ingest)")
    stream.add_argument("--compact-dead-fraction", type=float, default=None,
                        metavar="FRAC",
                        help="compact the slot store when more than this "
                             "fraction of slots is dead (bounds memory and "
                             "checkpoint growth of long --follow sessions)")
    stream.add_argument("--follow", action="store_true",
                        help="keep tailing the file after EOF (tail -f)")
    stream.add_argument("--poll", type=float, default=0.5,
                        help="seconds between polls with --follow")
    stream.add_argument("--max-deltas", type=int, default=12,
                        help="label changes printed per update (0 = quiet)")
    stream.add_argument("--checkpoint", default=None,
                        help="write a stream checkpoint here on exit "
                             "(a directory with --shards > 1)")
    stream.add_argument("--shards", type=int, default=1, metavar="K",
                        help="shard ingestion across K worker processes "
                             "(trajectory-hash routed, one merged label "
                             "view); labels stay bitwise identical to "
                             "--shards 1, but windows/compaction are "
                             "unsupported")
    stream.add_argument("--inline-shards", action="store_true",
                        help="with --shards: run the shard workers "
                             "in-process over the same wire protocol "
                             "(debugging/CI)")
    stream.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="expose Prometheus metrics (append latency, "
                             "diff rates, shard lag) on "
                             "http://127.0.0.1:PORT/v1/metrics")

    serve = sub.add_parser(
        "serve",
        help="serve many corpora over HTTP from one shared artifact "
             "store (async front-end, process-pool workers)",
    )
    serve.add_argument("inputs", nargs="+", metavar="CSV",
                       help="trajectory CSVs; each becomes a corpus "
                            "named by its file stem")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workspace", default=None, metavar="DIR",
                       help="shared persistent artifact cache; omit for "
                            "per-process memory-only caches")
    serve.add_argument("--workers", type=int, default=0,
                       help="process-pool size for CPU-bound work "
                            "(0 = run inline on a thread)")
    serve.add_argument("--max-workspaces", type=int, default=8,
                       help="open corpus workspaces kept per process "
                            "(LRU-evicted beyond this)")
    serve.add_argument("--max-disk-mb", type=float, default=None,
                       metavar="MB",
                       help="byte budget for the npz tier: coldest "
                            "artifacts are evicted once the workspace "
                            "directory exceeds this (default: grow-only)")
    serve.add_argument("--suppression", type=float, default=0.0,
                       help="partitioning suppression constant (Sec 4.1.3)")
    serve.add_argument("--undirected", action="store_true",
                       help="use the undirected angle distance")
    serve.add_argument("--use-weights", action="store_true",
                       help="weighted eps-neighborhood cardinality")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="admission control: shed requests with 503 + "
                            "Retry-After once N are pending (default: "
                            "unbounded)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="append one JSONL record per request here "
                            "(request id, status, latency, build deltas, "
                            "span tree)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable metrics and tracing (/v1/metrics returns "
                            "404; /v1/stats loses latency quantiles)")
    serve.add_argument("--kernel-backend", default="auto",
                       choices=KERNEL_BACKENDS,
                       help="hot-kernel dispatch in every worker "
                            "(bitwise-neutral; surfaces as the "
                            "repro_kernel_backend gauge on /v1/metrics)")

    doctor = sub.add_parser(
        "doctor",
        help="capability report: importable kernel backends, what "
             "'auto' resolves to, numpy/BLAS thread settings",
    )
    doctor.add_argument("--json", dest="json_out", default=None,
                        help="write the capability report JSON here "
                             "('-' for stdout)")

    return parser


def _apply_kernel_backend(name: str) -> None:
    """Validate and install the ``--kernel-backend`` choice: an
    explicitly requested compiled backend fails loudly here (at the
    front door) when the host cannot provide it, instead of silently
    degrading mid-run."""
    from repro import kernels

    try:
        kernels.resolve_backend(name)
    except Exception as error:
        raise SystemExit(f"--kernel-backend {name}: {error}") from None
    kernels.set_default_backend(name)


def _cmd_cluster(args: argparse.Namespace) -> int:
    _apply_kernel_backend(args.kernel_backend)
    trajectories = read_trajectories_csv(args.input)
    config = TraclusConfig(
        eps=args.eps,
        min_lns=args.min_lns,
        directed=not args.undirected,
        suppression=args.suppression,
        use_weights=args.use_weights,
        gamma=args.gamma,
        kernel_backend=args.kernel_backend,
    )
    result = TRACLUS(config, workspace_dir=args.workspace).fit(trajectories)
    summary = result.summary()
    print(
        f"{int(summary['n_clusters'])} clusters over "
        f"{int(summary['n_segments'])} segments "
        f"({summary['noise_ratio']:.0%} noise); parameters: "
        f"eps={result.parameters['eps']:.3g}, "
        f"min_lns={result.parameters['min_lns']:.3g}"
    )
    for cluster in result:
        print(
            f"  cluster {cluster.cluster_id}: {len(cluster)} segments, "
            f"{cluster.trajectory_cardinality()} trajectories"
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result_to_dict(result), handle, indent=2)
        print(f"wrote {args.json_out}")
    if args.svg_out:
        render_result_svg(result, args.svg_out)
        print(f"wrote {args.svg_out}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    _apply_kernel_backend(args.kernel_backend)
    trajectories = read_trajectories_csv(args.input)
    eps_values = (
        np.arange(1.0, args.eps_max + 1.0) if args.eps_max else None
    )
    # The partition (and, for the grid method, the neighborhood
    # counts) are computed once and, with --workspace, persisted for
    # later cluster/sweep runs.
    workspace = Workspace(
        trajectories,
        TraclusConfig(
            suppression=args.suppression,
            compute_representatives=False,
            kernel_backend=args.kernel_backend,
        ),
        cache_dir=args.workspace,
    )
    segments = workspace.segments()
    if args.method == "grid":
        estimate = workspace.recommend_parameters(eps_values)
    else:
        # Annealing probes data-dependent ε values: nothing to cache.
        estimate = recommend_parameters(
            segments, eps_values=eps_values, method=args.method
        )
    print(f"segments:            {len(segments)}")
    print(f"entropy-optimal eps: {estimate.eps:.3g}")
    print(f"entropy at optimum:  {estimate.entropy:.4f} bits")
    print(f"avg |N_eps|:         {estimate.avg_neighborhood_size:.2f}")
    print(
        f"recommended MinLns:  {estimate.min_lns_low:.1f} .. "
        f"{estimate.min_lns_high:.1f}"
    )
    return 0


def _parse_grid(spec: str, option: str) -> List[float]:
    """Parse a parameter-grid spec: ``'a,b,c'`` or inclusive
    ``'lo:hi:step'`` (step defaults to 1)."""
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1.0
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError("expected lo:hi[:step]")
            if step <= 0:
                raise ValueError("step must be positive")
            if hi < lo:
                raise ValueError("hi must be >= lo")
            # Half-step slack keeps hi inside despite float accumulation.
            return [float(v) for v in np.arange(lo, hi + step / 2.0, step)]
        values = [float(p) for p in spec.split(",") if p.strip() != ""]
        if not values:
            raise ValueError("empty grid")
        return values
    except ValueError as error:
        raise SystemExit(
            f"{option}: invalid grid spec {spec!r} ({error}); expected "
            f"'a,b,c' or 'lo:hi:step'"
        ) from None


_SWEEP_CSV_COLUMNS = (
    "eps", "min_lns", "n_clusters", "n_clustered", "n_noise",
    "noise_ratio", "mean_cluster_size", "entropy", "avg_neighborhood_size",
)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _apply_kernel_backend(args.kernel_backend)
    trajectories = read_trajectories_csv(args.input)
    config = TraclusConfig(
        directed=not args.undirected,
        suppression=args.suppression,
        use_weights=args.use_weights,
        cardinality_threshold=args.cardinality_threshold,
        compute_representatives=False,
        kernel_backend=args.kernel_backend,
    )
    sweep_config = SweepConfig(
        eps_values=_parse_grid(args.eps, "--eps"),
        min_lns_values=_parse_grid(args.min_lns, "--min-lns"),
        executor=args.executor,
        n_workers=args.workers,
    )
    result = TRACLUS(config, workspace_dir=args.workspace).sweep(
        trajectories, sweep_config
    )
    rows = result.summary_rows()
    n_eps, n_min_lns = sweep_config.grid_shape
    print(
        f"swept {n_eps} x {n_min_lns} grid points over "
        f"{len(result.segments)} segments "
        f"({result.n_graph_edges} graph edges at eps_max="
        f"{max(sweep_config.eps_values):g})"
    )
    header = "  ".join(f"{c:>9}" for c in ("eps", "min_lns", "clusters",
                                           "noise", "mean_size"))
    print(header)
    for row in rows:
        print(
            f"{row['eps']:>9.3g}  {row['min_lns']:>9.3g}  "
            f"{row['n_clusters']:>9d}  {row['n_noise']:>9d}  "
            f"{row['mean_cluster_size']:>9.1f}"
        )
    if args.csv_out:
        import csv

        with open(args.csv_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=_SWEEP_CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(
                {column: row[column] for column in _SWEEP_CSV_COLUMNS}
                for row in rows
            )
        print(f"wrote {args.csv_out}")
    if args.json_out:
        payload = {
            "eps_values": list(result.eps_values),
            "min_lns_values": list(result.min_lns_values),
            "n_segments": len(result.segments),
            "n_graph_edges": result.n_graph_edges,
            "cells": rows,
        }
        if args.labels:
            for row, (i, j) in zip(
                payload["cells"],
                (
                    (i, j)
                    for i in range(n_eps)
                    for j in range(n_min_lns)
                ),
            ):
                row["labels"] = result.labels[i, j].tolist()
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_workspace_stats(args: argparse.Namespace) -> int:
    """``repro workspace stats``: aggregate view of an artifact
    directory (per-kind count/bytes/share) or — with ``--url`` — of a
    running ``repro serve`` instance's /v1/stats and /v1/metrics."""
    import os

    from repro.api.cache import ARTIFACT_KINDS, ArtifactStore

    if args.url is not None:
        from urllib.request import urlopen

        base = args.url.rstrip("/")
        with urlopen(base + "/v1/stats", timeout=10) as response:
            stats = json.loads(response.read().decode("utf-8"))
        print(f"{base}: {stats['requests']} requests, "
              f"hit rate {stats['hit_rate']:.1%}, "
              f"{stats['coalesced']} coalesced, "
              f"{stats.get('sheds', 0)} shed, {stats['errors']} errors, "
              f"{stats.get('pending', 0)} pending")
        if stats.get("builds"):
            builds = ", ".join(
                f"{stage}={count}"
                for stage, count in sorted(stats["builds"].items())
            )
            print(f"builds: {builds}")
        for name, series in sorted(stats.get("latency", {}).items()):
            for label, q in sorted(series.items()):
                print(f"{name}{{{label}}}: "
                      f"p50={q['p50'] * 1000:.2f}ms "
                      f"p90={q['p90'] * 1000:.2f}ms "
                      f"p99={q['p99'] * 1000:.2f}ms "
                      f"(n={q['count']})")
        with urlopen(base + "/v1/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        samples = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        print(f"/metrics: {len(samples)} samples")
        for line in samples:
            if line.startswith("repro_kernel_backend{"):
                print(f"kernel backend: {line}")
        kernel_counts = [
            line for line in samples
            if line.startswith("repro_kernel_seconds_count{")
        ]
        for line in kernel_counts:
            print(f"kernel calls:   {line}")
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump({"stats": stats, "metrics_samples": len(samples)},
                          handle, indent=2)
            print(f"wrote {args.json_out}")
        return 0

    directory = args.directory
    if directory is None:
        raise SystemExit(
            "repro workspace stats: pass a workspace DIR or --url"
        )
    if not os.path.isdir(directory):
        raise SystemExit(f"{directory}: not a directory")
    store = ArtifactStore(directory)
    by_kind: "dict[str, dict]" = {}
    if store.catalog is not None:
        # One aggregate query off the sqlite catalog — no stat calls,
        # no npz opens.
        for row in store.catalog.query("kinds"):
            by_kind[row["kind"]] = {
                "count": row["n_artifacts"], "bytes": row["bytes"],
            }
    else:
        for entry in store.entries():
            bucket = by_kind.setdefault(
                entry["kind"], {"count": 0, "bytes": 0}
            )
            bucket["count"] += 1
            bucket["bytes"] += entry["bytes"]
    if not by_kind:
        print(f"{directory}: no artifacts")
        return 0
    total = sum(bucket["bytes"] for bucket in by_kind.values())
    n_artifacts = sum(bucket["count"] for bucket in by_kind.values())
    print(f"{directory}: {n_artifacts} artifacts, {total / 1024:.1f} KiB")
    header = f"{'kind':<16}{'count':>7}{'bytes':>12}{'share':>8}"
    print(header)
    print("-" * len(header))
    order = {kind: rank for rank, kind in enumerate(ARTIFACT_KINDS)}
    for kind in sorted(by_kind, key=lambda k: order.get(k, 99)):
        bucket = by_kind[kind]
        share = bucket["bytes"] / total if total else 0.0
        print(f"{kind:<16}{bucket['count']:>7}{bucket['bytes']:>12}"
              f"{share:>8.1%}")
    if args.json_out:
        payload = {
            "directory": directory,
            "total_bytes": total,
            "n_artifacts": n_artifacts,
            "by_kind": by_kind,
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def run_workspace_query(
    directory: str,
    name: Optional[str] = None,
    filters: Optional[dict] = None,
    sql: Optional[str] = None,
):
    """Run one catalog query over a workspace directory.

    Returns ``(rows, stats)`` where *stats* is the backing store's
    :class:`~repro.api.cache.CacheStats` — every counter stays zero,
    because analytics answer from the sqlite index without touching an
    npz payload (a test pins this)."""
    import os

    from repro.api.cache import ArtifactStore

    if not os.path.isdir(directory):
        raise SystemExit(f"{directory}: not a directory")
    store = ArtifactStore(directory)
    if store.catalog is None:
        raise SystemExit(
            f"{directory}: catalog unavailable (sqlite could not open "
            f"{directory}/catalog.sqlite)"
        )
    if sql is not None:
        rows = store.catalog.sql(sql)
    else:
        rows = store.catalog.query(name or "cells", **(filters or {}))
    return rows, store.stats


def _cmd_workspace_query(args: argparse.Namespace) -> int:
    import csv

    from repro.exceptions import CatalogError

    filters = {}
    name = args.query_name
    if args.kind is not None:
        filters["kind"] = args.kind
        if name is None:
            name = "artifacts"
    if name is None:
        name = "cells"
    for option in ("corpus", "min_clusters", "max_noise", "eps",
                   "min_lns", "limit"):
        value = getattr(args, option)
        if value is not None:
            filters[option] = value
    if args.sql is not None and filters:
        raise SystemExit(
            "repro workspace query: --sql takes the full statement; "
            "drop the canned-query filters"
        )
    try:
        rows, _ = run_workspace_query(
            args.directory, name=name, filters=filters, sql=args.sql
        )
    except CatalogError as exc:
        raise SystemExit(f"repro workspace query: {exc}")
    if args.json_out:
        if args.json_out == "-":
            json.dump(rows, sys.stdout, indent=2)
            print()
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(rows, handle, indent=2)
            print(f"wrote {args.json_out}")
        return 0
    if args.csv_out:
        handle = (
            sys.stdout if args.csv_out == "-"
            else open(args.csv_out, "w", encoding="utf-8", newline="")
        )
        try:
            writer = csv.writer(handle)
            if rows:
                writer.writerow(rows[0].keys())
                for row in rows:
                    writer.writerow(row.values())
        finally:
            if handle is not sys.stdout:
                handle.close()
                print(f"wrote {args.csv_out}")
        return 0
    if not rows:
        print("no rows")
        return 0
    columns = list(rows[0].keys())
    rendered = [
        ["" if row[column] is None else _render_cell(row[column])
         for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for line in rendered:
        print("  ".join(v.ljust(w) for v, w in zip(line, widths)))
    print(f"({len(rows)} rows)")
    return 0


def _render_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_workspace(args: argparse.Namespace) -> int:
    handlers = {
        "inspect": _cmd_workspace_inspect,
        "stats": _cmd_workspace_stats,
        "query": _cmd_workspace_query,
    }
    return handlers[args.workspace_command](args)


def _cmd_workspace_inspect(args: argparse.Namespace) -> int:
    import os

    from repro.api.cache import ArtifactStore

    if not os.path.isdir(args.directory):
        raise SystemExit(f"{args.directory}: not a directory")
    entries = ArtifactStore(args.directory).entries()
    if not entries:
        print(f"{args.directory}: no artifacts")
        return 0
    total = sum(entry["bytes"] for entry in entries)
    print(
        f"{args.directory}: {len(entries)} artifacts, "
        f"{total / 1024:.1f} KiB"
    )
    header = f"{'kind':<16}{'size':>10}  {'key':<12}  details"
    print(header)
    print("-" * len(header))
    for entry in entries:
        meta = entry["meta"]
        details = ", ".join(
            f"{name}={meta[name]}"
            for name in sorted(meta)
            if name != "kind"
        )
        print(
            f"{entry['kind']:<16}{entry['bytes']:>10}  "
            f"{entry['key'][:12]:<12}  {details}"
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(entries, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "hurricane":
        trajectories = generate_hurricane_tracks(
            n_storms=args.n or 570, seed=args.seed
        )
    elif args.dataset == "elk":
        trajectories = generate_elk1993(
            n_animals=args.n or 33,
            points_per_animal=args.points or 1430,
            seed=args.seed,
        )
    elif args.dataset == "deer":
        trajectories = generate_deer1995(
            n_animals=args.n or 32,
            points_per_animal=args.points or 627,
            seed=args.seed,
        )
    else:  # corridor
        trajectories = generate_corridor_set(
            n_trajectories=args.n or 12, seed=args.seed
        )
    if args.noise > 0:
        trajectories = add_noise_trajectories(
            trajectories, noise_fraction=args.noise, seed=args.seed + 1
        )
    write_trajectories_csv(trajectories, args.output)
    total = sum(len(t) for t in trajectories)
    print(f"wrote {len(trajectories)} trajectories / {total} points "
          f"to {args.output}")
    return 0


def _format_label(label: Optional[int]) -> str:
    if label is None:
        return "out"
    return "noise" if label < 0 else f"c{label}"


def _print_deltas(changed, max_deltas: int) -> None:
    if max_deltas <= 0:
        return
    for slot in sorted(changed)[:max_deltas]:
        old, new = changed[slot]
        print(f"        seg {slot}: {_format_label(old)} -> {_format_label(new)}")
    if len(changed) > max_deltas:
        print(f"        ... {len(changed) - max_deltas} more")


def _print_update(update, event: int, max_deltas: int) -> None:
    # n_alive, not len(update.labels): the dense map is lazy and
    # materializing it would put an O(live) cost back on every append.
    print(
        f"[{event:>5}] live={update.n_alive:>5} "
        f"clusters={update.n_clusters:>3} "
        f"+{len(update.inserted)} -{len(update.evicted)} segs, "
        f"{len(update.changed)} label changes"
    )
    if update.remapped is not None:
        print(f"        compacted: {len(update.remapped)} live slots "
              f"renumbered")
    _print_deltas(update.changed, max_deltas)


def _silence_stdout() -> None:
    """Point stdout at devnull after a broken pipe so later prints and
    the interpreter's shutdown flush stay quiet."""
    import os

    try:
        sys.stdout.flush()
    except (BrokenPipeError, OSError):
        pass
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.batch_points < 1:
        raise SystemExit("--batch-points must be >= 1")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    config = StreamConfig(
        eps=args.eps,
        min_lns=args.min_lns,
        directed=not args.undirected,
        suppression=args.suppression,
        use_weights=args.use_weights,
        max_segments=args.window,
        horizon=args.horizon,
        compact_dead_fraction=args.compact_dead_fraction,
    )
    if args.shards > 1:
        return _cmd_stream_sharded(args, config)
    metrics = None
    scrape = None
    if args.metrics_port is not None:
        from repro.obs import MetricsRegistry, start_scrape_server

        metrics = MetricsRegistry(enabled=True)
        scrape = start_scrape_server(
            metrics.snapshot, port=args.metrics_port
        )
        print(f"metrics on http://127.0.0.1:{scrape.port}/v1/metrics")
    pipeline = StreamingTRACLUS(config, metrics=metrics)
    pending: "dict[int, list]" = {}
    opened: "set[int]" = set()
    event = 0

    def flush(traj_id: int) -> None:
        nonlocal event
        rows = pending.pop(traj_id)
        points = np.array([r.point for r in rows])
        times = [r.time for r in rows]
        # First row wins on weight (matching read_trajectories_csv);
        # later batches keep the opening weight even if the column
        # drifts mid-trajectory.
        weight = None if traj_id in opened else rows[0].weight
        opened.add(traj_id)
        update = pipeline.append(
            traj_id,
            points,
            times=None if times[0] is None else times,
            weight=weight,
        )
        event += 1
        if update.changed or update.inserted or update.evicted:
            _print_update(update, event, args.max_deltas)

    try:
        with open(args.input, "r", encoding="utf-8", newline="") as handle:
            header = read_csv_header(handle)
            # One line counter across the bulk read and the tail read,
            # so a bad row's line number counts from the top of the file.
            lines = itertools.count(2)
            if args.bulk_load:
                # One batched phase-1 pass over everything already in
                # the file.  When also following, only complete lines
                # are consumed (max_polls=0 leaves a partial trailing
                # line in place), so the tail loop below resumes the
                # same handle mid-file with no re-read.
                groups: "dict[int, list]" = {}
                n_rows = 0
                for row in iter_point_rows(
                    handle, follow=args.follow, poll=0.0, max_polls=0,
                    header=header, line_numbers=lines,
                ):
                    groups.setdefault(row.traj_id, []).append(row)
                    n_rows += 1
                if groups:
                    items = []
                    for traj_id, rows in groups.items():  # file order
                        times = [r.time for r in rows]
                        items.append((
                            traj_id,
                            np.array([r.point for r in rows]),
                            None if times[0] is None else times,
                            rows[0].weight,
                        ))
                    update = pipeline.bulk_load(items)
                    opened.update(groups)
                    event += 1
                    print(f"bulk-loaded {n_rows} points / {len(groups)} "
                          f"trajectories")
                    _print_update(update, event, args.max_deltas)
            if not args.bulk_load or args.follow:
                for row in iter_point_rows(
                    handle, follow=args.follow, poll=args.poll,
                    header=header, line_numbers=lines,
                ):
                    pending.setdefault(row.traj_id, []).append(row)
                    if len(pending[row.traj_id]) >= args.batch_points:
                        flush(row.traj_id)
            for traj_id in sorted(pending):
                flush(traj_id)
    except KeyboardInterrupt:
        print("\ninterrupted — final state below")
    except BrokenPipeError:
        # Downstream pager/head went away: stop streaming quietly but
        # still honour --checkpoint below.
        _silence_stdout()
    finally:
        if scrape is not None:
            scrape.close()
    slots, labels = pipeline.labels()
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    noise = int(np.sum(labels < 0))
    print(
        f"final: {max(n_clusters, 0)} clusters over {slots.size} live "
        f"segments ({noise} noise)"
    )
    if args.checkpoint:
        from repro.stream.checkpoint import save_checkpoint

        save_checkpoint(pipeline, args.checkpoint)
        print(f"wrote {args.checkpoint}")
    return 0


def _cmd_stream_sharded(args: argparse.Namespace, config) -> int:
    """``repro stream --shards K``: parallel shard ingest with the
    merged label view (bitwise identical to ``--shards 1``)."""
    from repro.exceptions import ClusteringError
    from repro.shard import ShardedStream

    metrics = None
    scrape = None
    if args.metrics_port is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry(enabled=True)
    try:
        stream = ShardedStream(
            config,
            args.shards,
            processes=not args.inline_shards,
            metrics=metrics,
        )
    except ClusteringError as error:
        raise SystemExit(str(error))
    if metrics is not None:
        from repro.obs import start_scrape_server

        scrape = start_scrape_server(
            stream.metrics_snapshot, port=args.metrics_port
        )
        print(f"metrics on http://127.0.0.1:{scrape.port}/v1/metrics")
    pending: "dict[int, list]" = {}
    opened: "set[int]" = set()
    event = 0

    def report(merged) -> None:
        nonlocal event
        for diff in merged:
            event += 1
            if not diff.changed:
                continue
            print(
                f"[{event:>5}] live={stream.view.n_live:>5} "
                f"clusters={stream.view.n_clusters:>3} "
                f"{len(diff.changed)} label changes, lag={stream.lag}"
            )
            _print_deltas(diff.changed, args.max_deltas)

    def flush(traj_id: int) -> None:
        rows = pending.pop(traj_id)
        points = np.array([r.point for r in rows])
        times = [r.time for r in rows]
        weight = None if traj_id in opened else rows[0].weight
        opened.add(traj_id)
        merged = stream.append(
            traj_id,
            points,
            times=None if times[0] is None else times,
            weight=weight,
        )
        report([merged] if merged is not None else stream.drain())

    try:
        try:
            with open(args.input, "r", encoding="utf-8", newline="") as handle:
                header = read_csv_header(handle)
                lines = itertools.count(2)  # shared by both reads
                if args.bulk_load:
                    # Sharded sessions have no batched bulk path; the
                    # equivalent seed is one whole-trajectory append
                    # each, routed and merged like any other (labels
                    # are append-order independent per trajectory).
                    groups: "dict[int, list]" = {}
                    n_rows = 0
                    for row in iter_point_rows(
                        handle, follow=args.follow, poll=0.0, max_polls=0,
                        header=header, line_numbers=lines,
                    ):
                        groups.setdefault(row.traj_id, []).append(row)
                        n_rows += 1
                    for traj_id, rows in groups.items():  # file order
                        pending[traj_id] = rows
                        flush(traj_id)
                    if groups:
                        print(f"seeded {n_rows} points / {len(groups)} "
                              f"trajectories across {args.shards} shards")
                if not args.bulk_load or args.follow:
                    for row in iter_point_rows(
                        handle, follow=args.follow, poll=args.poll,
                        header=header, line_numbers=lines,
                    ):
                        pending.setdefault(row.traj_id, []).append(row)
                        if len(pending[row.traj_id]) >= args.batch_points:
                            flush(row.traj_id)
                for traj_id in sorted(pending):
                    flush(traj_id)
        except KeyboardInterrupt:
            print("\ninterrupted — final state below")
        except BrokenPipeError:
            _silence_stdout()
        stream.sync()
        slots, labels = stream.labels()
        n_clusters = int(labels.max()) + 1 if labels.size else 0
        noise = int(np.sum(labels < 0))
        print(
            f"final: {max(n_clusters, 0)} clusters over {slots.size} live "
            f"segments ({noise} noise) merged from {args.shards} shards"
        )
        if args.checkpoint:
            stream.checkpoint(args.checkpoint)
            print(f"wrote {args.checkpoint}/ (sharded checkpoint)")
    finally:
        if scrape is not None:
            scrape.close()
        stream.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve.registry import CorpusSpec
    from repro.serve.server import ServeApp, serve_forever

    _apply_kernel_backend(args.kernel_backend)
    config = TraclusConfig(
        directed=not args.undirected,
        suppression=args.suppression,
        use_weights=args.use_weights,
        compute_representatives=False,
        kernel_backend=args.kernel_backend,
    )
    specs = []
    seen = set()
    for path in args.inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in seen:
            raise SystemExit(
                f"duplicate corpus name {name!r} (from {path}); rename "
                f"the file or serve it from a distinct stem"
            )
        seen.add(name)
        if not os.path.exists(path):
            raise SystemExit(f"{path}: no such file")
        specs.append(CorpusSpec(name=name, csv_path=path, config=config))
    max_disk_bytes = (
        int(args.max_disk_mb * 1024 * 1024)
        if args.max_disk_mb is not None
        else None
    )
    from repro.obs import configure_logging

    configure_logging()
    app = ServeApp(
        specs,
        cache_dir=args.workspace,
        workers=args.workers,
        max_workspaces=args.max_workspaces,
        max_disk_bytes=max_disk_bytes,
        telemetry=not args.no_telemetry,
        max_pending=args.max_pending,
        access_log=args.access_log,
        kernel_backend=args.kernel_backend,
    )
    try:
        asyncio.run(serve_forever(app, args.host, args.port))
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        app.close()
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """``repro doctor``: the :func:`repro.kernels.capability_report`
    rendered for operators — is this host actually running compiled?"""
    from repro import kernels

    report = kernels.capability_report()
    print("kernel backends:")
    for name in kernels.KERNEL_BACKENDS:
        if name == "auto":
            continue
        status = report["backends"].get(name, "unknown")
        mark = "+" if status.startswith("ok") else "-"
        print(f"  [{mark}] {name:<6} {status}")
    print(f"default knob:     {report['default']} -> "
          f"{report['default_resolves_to']}")
    print(f"auto resolves to: {report['auto_resolves_to']}")
    print(f"max compiled dim: {report['max_compiled_dim']}")
    print(f"numpy:            {report['numpy_version']}")
    thread_env = ", ".join(
        f"{var}={value if value is not None else 'unset'}"
        for var, value in sorted(report["thread_env"].items())
    )
    print(f"thread env:       {thread_env}")
    print(f"cpu count:        {report['cpu_count']}")
    if report["auto_resolves_to"] == "numpy":
        print("note: no compiled backend available — hot kernels run "
              "on the numpy fallback (install a C compiler for cext)")
    if args.json_out:
        if args.json_out == "-":
            json.dump(report, sys.stdout, indent=2)
            print()
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
            print(f"wrote {args.json_out}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    trajectories = read_trajectories_csv(args.input)
    render_trajectories_svg(
        trajectories, args.output, width=args.width, height=args.height
    )
    print(f"wrote {args.output}")
    return 0


_COMMANDS = {
    "cluster": _cmd_cluster,
    "params": _cmd_params,
    "sweep": _cmd_sweep,
    "workspace": _cmd_workspace,
    "generate": _cmd_generate,
    "render": _cmd_render,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "doctor": _cmd_doctor,
}


#: Exit status of a run ended by a library error (:class:`ReproError`):
#: not 1, which an uncaught traceback also returns, and not argparse's 2.
EXIT_REPRO_ERROR = 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also used by ``python -m repro``)."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        message = " ".join(str(error).splitlines())
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early: not an
        # error worth a traceback.  Point the fd at devnull so the
        # interpreter's shutdown flush does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
