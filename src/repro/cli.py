"""Command-line interface.

Nine subcommands, composable through CSV/JSON files:

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
  numpy), the backend this host dispatches to, and the numpy/BLAS
  thread environment.

``cluster``, ``params``, ``sweep``, and ``serve`` accept ``--workspace
DIR``: expensive artifacts (the phase-1 partition, the ε-neighborhood
graph, labels, entropy counts) are then persisted as fingerprint-keyed
npz files, so repeated invocations — estimate parameters first,
cluster second, sweep a grid third — reuse each other's work instead
of recomputing it.  Results are bitwise independent of the cache.

Every option shared by several subcommands is defined once, on an
argparse parent parser; an option whose ``dest`` names a config field
sets it through :func:`config_from_args`.  ``--json -`` is stdout.

Exit status: 0 on success; 2 for a usage error, including an option
value argparse rejects (a malformed grid spec, or ``--n``,
``--points``, ``--eps-max``, ``--shards`` or ``--batch-points`` below
1); 3 (:data:`EXIT_REPRO_ERROR`) when a
:class:`~repro.exceptions.ReproError` escapes a subcommand — a
malformed CSV row, a missing workspace directory, an unreachable
``--url`` — reported as one ``repro <command>: error: <message>`` line
on stderr; 1 only for an unexpected traceback.

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
import csv
import dataclasses
import itertools
import json
import os
import sys
from contextlib import closing
from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.api.cache import ARTIFACT_KINDS, ArtifactStore
from repro.api.catalog import Catalog
from repro.api.workspace import Workspace
from repro.core.config import (
    SWEEP_EXECUTORS,
    StreamConfig,
    SweepConfig,
    TraclusConfig,
)
from repro.exceptions import CatalogError, ReproError, ServeError, WorkspaceError
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
from repro.obs import MetricsRegistry, configure_logging, start_scrape_server
from repro.params.heuristic import recommend_parameters
from repro.stream.pipeline import StreamingTRACLUS
from repro.viz.svg import render_result_svg, render_trajectories_svg


def _at_least_one(kind):
    """An argparse ``type=`` parsing *kind* (``int`` or ``float``) that
    rejects values below 1 as a usage error."""

    def parse(text: str):
        value = kind(text)
        if not value >= 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = kind.__name__
    return parse


def _parse_grid(spec: str) -> List[float]:
    """argparse ``type=`` for a parameter grid: ``'a,b,c'`` or inclusive
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
        raise argparse.ArgumentTypeError(
            f"invalid grid spec {spec!r} ({error}); expected "
            f"'a,b,c' or 'lo:hi:step'"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRACLUS trajectory clustering (SIGMOD 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each option shared by several subcommands, once.
    csv_input = argparse.ArgumentParser(add_help=False)
    csv_input.add_argument("input", help="trajectory CSV (long format, "
                                         "see repro.io.csvio)")
    suppression = argparse.ArgumentParser(add_help=False)
    suppression.add_argument("--suppression", type=float, default=0.0,
                             help="partitioning suppression constant "
                                  "(Sec 4.1.3)")
    distance = argparse.ArgumentParser(add_help=False, parents=[suppression])
    distance.add_argument("--undirected", dest="directed",
                          action="store_false",
                          help="use the undirected angle distance")
    distance.add_argument("--use-weights", action="store_true",
                          help="weighted eps-neighborhood cardinality")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--workspace", default=None, metavar="DIR",
                       help="persistent artifact cache: reuse/store the "
                            "partition, eps-graph, counts, and labels as "
                            "npz files under DIR (default: memory only)")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", dest="json_out", default=None,
                          metavar="FILE",
                          help="write the JSON output here ('-' for stdout)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", required=True)
    ws_dir = argparse.ArgumentParser(add_help=False)
    ws_dir.add_argument("directory", help="the workspace DIR to read")

    cluster = sub.add_parser(
        "cluster", parents=[csv_input, distance, cache, json_out],
        help="run TRACLUS on a trajectory CSV",
    )
    cluster.set_defaults(handler=_cmd_cluster)
    cluster.add_argument("--eps", type=float, default=None,
                         help="neighborhood radius (default: estimate)")
    cluster.add_argument("--min-lns", type=float, default=None,
                         help="density threshold (default: estimate)")
    cluster.add_argument("--gamma", type=float, default=0.0,
                         help="representative smoothing gamma (Fig 15)")
    cluster.add_argument("--svg", dest="svg_out", default=None,
                         help="write the visual-inspection SVG here")

    params = sub.add_parser(
        "params", parents=[csv_input, suppression, cache],
        help="estimate (eps, MinLns) with the entropy heuristic",
    )
    params.set_defaults(handler=_cmd_params)
    params.add_argument("--method", choices=("grid", "anneal"), default="grid")
    params.add_argument("--eps-max", type=_at_least_one(float), default=None,
                        help="upper end of the eps search grid (>= 1)")

    sweep = sub.add_parser(
        "sweep", parents=[csv_input, distance, cache, json_out],
        help="amortised (eps, MinLns) grid sweep: one phase-1 pass, one "
             "eps-graph, every grid point derived incrementally",
    )
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument("--eps", dest="eps_values", type=_parse_grid,
                       required=True, metavar="GRID",
                       help="eps grid: comma list ('25,27,30') or "
                            "inclusive range 'lo:hi:step' ('20:40:2')")
    sweep.add_argument("--min-lns", dest="min_lns_values", type=_parse_grid,
                       required=True, metavar="GRID",
                       help="MinLns grid, same syntax as --eps")
    sweep.add_argument("--cardinality-threshold", type=float, default=None,
                       help="fixed Step-3 trajectory-cardinality threshold "
                            "(default: each grid point's MinLns)")
    sweep.add_argument("--executor", default="serial",
                       choices=SWEEP_EXECUTORS,
                       help="'process' shards MinLns columns over a "
                            "process pool")
    sweep.add_argument("--workers", dest="n_workers", type=int, default=None,
                       help="process-pool size (default: CPU count)")
    sweep.add_argument("--csv", dest="csv_out", default=None,
                       help="write per-grid-cell metrics CSV here")
    sweep.add_argument("--labels", action="store_true",
                       help="include per-segment label arrays in the JSON "
                            "output (one row per grid cell)")

    workspace = sub.add_parser(
        "workspace",
        help="inspect, aggregate, or query a persistent artifact cache "
             "directory (what cluster/params/sweep --workspace wrote)",
    )
    ws_sub = workspace.add_subparsers(
        dest="workspace_command", required=True, metavar="SUBCOMMAND"
    )

    ws_inspect = ws_sub.add_parser(
        "inspect", parents=[ws_dir, json_out],
        help="list every artifact with its metadata",
    )
    ws_inspect.set_defaults(handler=_cmd_workspace_inspect)

    ws_stats = ws_sub.add_parser(
        "stats", parents=[json_out],
        help="per-kind aggregate of a DIR, or — with --url — of a "
             "running 'repro serve' instance",
    )
    ws_stats.set_defaults(handler=_cmd_workspace_stats)
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

    ws_query = ws_sub.add_parser(
        "query", parents=[ws_dir, json_out],
        help="cross-corpus analytics off the sqlite catalog, synced "
             "from the artifacts' metadata (never opens an npz payload)",
    )
    ws_query.set_defaults(handler=_cmd_workspace_query)
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
    ws_query.add_argument("--csv", dest="csv_out", default=None,
                          metavar="FILE",
                          help="write rows as CSV ('-' for stdout)")

    generate = sub.add_parser(
        "generate", parents=[output], help="write a synthetic dataset CSV"
    )
    generate.set_defaults(handler=_cmd_generate)
    generate.add_argument(
        "dataset", choices=("hurricane", "elk", "deer", "corridor"),
    )
    generate.add_argument("--n", type=_at_least_one(int), default=None,
                          help="number of trajectories (dataset default)")
    generate.add_argument("--points", type=_at_least_one(int), default=None,
                          help="points per trajectory where applicable")
    generate.add_argument("--noise", type=float, default=0.0,
                          help="noise trajectory fraction to mix in")
    generate.add_argument("--seed", type=int, default=7)

    render = sub.add_parser(
        "render", parents=[csv_input, output],
        help="render trajectories to SVG",
    )
    render.set_defaults(handler=_cmd_render)
    render.add_argument("--width", type=int, default=900)
    render.add_argument("--height", type=int, default=650)

    stream = sub.add_parser(
        "stream", parents=[csv_input, distance],
        help="tail a trajectory CSV through the online pipeline and "
             "print label deltas",
    )
    stream.set_defaults(handler=_cmd_stream)
    stream.add_argument("--eps", type=float, required=True,
                        help="neighborhood radius (required: the entropy "
                             "heuristic needs the whole dataset)")
    stream.add_argument("--min-lns", type=float, required=True,
                        help="density threshold MinLns")
    stream.add_argument("--window", dest="max_segments", type=int,
                        default=None,
                        help="sliding-window cap on live segments")
    stream.add_argument("--horizon", type=float, default=None,
                        help="evict segments more than this far behind the "
                             "newest timestamp")
    stream.add_argument("--batch-points", type=_at_least_one(int),
                        default=25,
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
    stream.add_argument("--shards", type=_at_least_one(int), default=1,
                        metavar="K",
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
        "serve", parents=[distance, cache],
        help="serve many corpora over HTTP from one shared artifact "
             "store (async front-end, process-pool workers)",
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("inputs", nargs="+", metavar="CSV",
                       help="trajectory CSVs; each becomes a corpus "
                            "named by its file stem")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = ephemeral)")
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

    doctor = sub.add_parser(
        "doctor", parents=[json_out],
        help="capability report: usable kernel backends, the one "
             "this host dispatches to, numpy/BLAS thread settings",
    )
    doctor.set_defaults(handler=_cmd_doctor)

    return parser


def config_from_args(cls, args: argparse.Namespace, **fixed):
    """Build the config dataclass *cls* from every parsed option whose
    ``dest`` is one of its fields; *fixed* sets fields no option sets."""
    names = {field.name for field in dataclasses.fields(cls)}
    options = {name: value for name, value in vars(args).items()
               if name in names}
    return cls(**options, **fixed)


def _write_json(path: str, payload) -> None:
    """Write *payload* as indented JSON to *path*; ``-`` is stdout."""
    if path == "-":
        json.dump(payload, sys.stdout, indent=2)
        print()
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")


def _cmd_cluster(args: argparse.Namespace) -> int:
    trajectories = read_trajectories_csv(args.input)
    config = config_from_args(TraclusConfig, args)
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
        _write_json(args.json_out, result_to_dict(result))
    if args.svg_out:
        render_result_svg(result, args.svg_out)
        print(f"wrote {args.svg_out}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    trajectories = read_trajectories_csv(args.input)
    eps_values = (
        None if args.eps_max is None
        else np.arange(1.0, args.eps_max + 1.0)
    )
    # The partition (and, for the grid method, the neighborhood
    # counts) are computed once and, with --workspace, persisted for
    # later cluster/sweep runs.
    workspace = Workspace(
        trajectories,
        config_from_args(TraclusConfig, args, compute_representatives=False),
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


_SWEEP_CSV_COLUMNS = (
    "eps", "min_lns", "n_clusters", "n_clustered", "n_noise",
    "noise_ratio", "mean_cluster_size", "entropy", "avg_neighborhood_size",
)


def _cmd_sweep(args: argparse.Namespace) -> int:
    trajectories = read_trajectories_csv(args.input)
    config = config_from_args(
        TraclusConfig, args, compute_representatives=False
    )
    sweep_config = config_from_args(SweepConfig, args)
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
            # Cells run ε-major, as the (n_eps, n_min_lns) label planes do.
            for row, labels in zip(
                rows, itertools.chain.from_iterable(result.labels)
            ):
                row["labels"] = labels.tolist()
        _write_json(args.json_out, payload)
    return 0


def _existing_dir(directory: str) -> str:
    """*directory*, which must be an existing workspace directory."""
    if not os.path.isdir(directory):
        raise WorkspaceError(f"{directory}: not a directory")
    return directory


def _fetch(url: str) -> str:
    """GET *url* from a running ``repro serve``; an unreachable server
    is a :class:`WorkspaceError`, not a traceback."""
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=10) as response:
            return response.read().decode("utf-8")
    except OSError as error:
        raise WorkspaceError(f"{url}: {error}") from None


def _cmd_workspace_stats(args: argparse.Namespace) -> int:
    """``repro workspace stats``: aggregate view of an artifact
    directory (per-kind count/bytes/share) or — with ``--url`` — of a
    running ``repro serve`` instance's /v1/stats and /v1/metrics."""
    if args.url is not None:
        base = args.url.rstrip("/")
        stats = json.loads(_fetch(base + "/v1/stats"))
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
        text = _fetch(base + "/v1/metrics")
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
            _write_json(args.json_out,
                        {"stats": stats, "metrics_samples": len(samples)})
        return 0

    directory = args.directory
    if directory is None:
        raise WorkspaceError("stats needs a workspace DIR or --url")
    by_kind: "dict[str, dict]" = {}
    for entry in ArtifactStore(_existing_dir(directory)).entries():
        bucket = by_kind.setdefault(entry["kind"], {"count": 0, "bytes": 0})
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
        _write_json(args.json_out, {
            "directory": directory,
            "total_bytes": total,
            "n_artifacts": n_artifacts,
            "by_kind": dict(sorted(by_kind.items())),
        })
    return 0


def run_workspace_query(
    directory: str,
    name: Optional[str] = None,
    filters: Optional[dict] = None,
    sql: Optional[str] = None,
) -> List[dict]:
    """Run one catalog query over a workspace directory; returns its
    rows.  The catalog syncs from the npz files first, reading only
    their ``__meta__`` members, never a payload."""
    try:
        catalog = Catalog(_existing_dir(directory))
    except CatalogError as error:
        raise CatalogError(
            f"{directory}: catalog unavailable ({error})"
        ) from None
    with closing(catalog):
        if sql is not None:
            return catalog.sql(sql)
        return catalog.query(name or "cells", **(filters or {}))


def _cmd_workspace_query(args: argparse.Namespace) -> int:
    filters = {
        option: getattr(args, option)
        for option in ("kind", "corpus", "min_clusters", "max_noise",
                       "eps", "min_lns", "limit")
        if getattr(args, option) is not None
    }
    name = args.query_name or (
        "artifacts" if args.kind is not None else "cells"
    )
    if args.sql is not None and filters:
        raise WorkspaceError(
            "--sql takes the full statement; drop the canned-query filters"
        )
    rows = run_workspace_query(
        args.directory, name=name, filters=filters, sql=args.sql
    )
    if args.json_out:
        _write_json(args.json_out, rows)
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


def _cmd_workspace_inspect(args: argparse.Namespace) -> int:
    entries = ArtifactStore(_existing_dir(args.directory)).entries()
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
        _write_json(args.json_out, entries)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "hurricane":
        trajectories = generate_hurricane_tracks(
            n_storms=570 if args.n is None else args.n, seed=args.seed
        )
    elif args.dataset == "elk":
        trajectories = generate_elk1993(
            n_animals=33 if args.n is None else args.n,
            points_per_animal=1430 if args.points is None else args.points,
            seed=args.seed,
        )
    elif args.dataset == "deer":
        trajectories = generate_deer1995(
            n_animals=32 if args.n is None else args.n,
            points_per_animal=627 if args.points is None else args.points,
            seed=args.seed,
        )
    else:  # corridor
        trajectories = generate_corridor_set(
            n_trajectories=12 if args.n is None else args.n, seed=args.seed
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


def _silence_stdout() -> None:
    """Point stdout at devnull after a broken pipe so later prints and
    the interpreter's shutdown flush stay quiet."""
    try:
        sys.stdout.flush()
    except (BrokenPipeError, OSError):
        pass
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _batch(rows):
    """``(points, times)`` of buffered CSV rows; ``times`` is ``None``
    on an untimed feed."""
    times = [row.time for row in rows]
    return np.array([row.point for row in rows]), (
        None if times[0] is None else times
    )


class _SingleFeed:
    """``repro stream`` into one :class:`StreamingTRACLUS` session."""

    final_suffix = ""

    def __init__(self, args: argparse.Namespace, config, metrics):
        self.pipeline = StreamingTRACLUS(config, metrics=metrics)
        self.metrics_snapshot = None if metrics is None else metrics.snapshot
        self.max_deltas = args.max_deltas
        self.event = 0

    def append(self, traj_id, points, times, weight) -> None:
        update = self.pipeline.append(
            traj_id, points, times=times, weight=weight
        )
        self.event += 1
        if update.changed or update.inserted or update.evicted:
            self._report(update)

    def bulk(self, groups, n_rows: int) -> None:
        # One batched phase-1 pass over everything already in the file.
        update = self.pipeline.bulk_load([
            (traj_id, *_batch(rows), rows[0].weight)
            for traj_id, rows in groups.items()  # file order
        ])
        self.event += 1
        print(f"bulk-loaded {n_rows} points / {len(groups)} trajectories")
        self._report(update)

    def _report(self, update) -> None:
        # n_alive, not len(update.labels): the dense map is lazy and
        # materializing it would put an O(live) cost back on every append.
        print(
            f"[{self.event:>5}] live={update.n_alive:>5} "
            f"clusters={update.n_clusters:>3} "
            f"+{len(update.inserted)} -{len(update.evicted)} segs, "
            f"{len(update.changed)} label changes"
        )
        if update.remapped is not None:
            print(f"        compacted: {len(update.remapped)} live slots "
                  f"renumbered")
        _print_deltas(update.changed, self.max_deltas)

    def labels(self):
        return self.pipeline.labels()

    def checkpoint(self, path: str) -> str:
        from repro.stream.checkpoint import save_checkpoint

        return save_checkpoint(self.pipeline, path)

    def close(self) -> None:
        pass


class _ShardedFeed:
    """``repro stream --shards K``: parallel shard ingest with the
    merged label view (bitwise identical to ``--shards 1``)."""

    def __init__(self, args: argparse.Namespace, config, metrics):
        from repro.shard import ShardedStream

        self.stream = ShardedStream(
            config, args.shards, processes=not args.inline_shards,
            metrics=metrics,
        )
        self.metrics_snapshot = self.stream.metrics_snapshot
        self.final_suffix = f" merged from {args.shards} shards"
        self.max_deltas = args.max_deltas
        self.event = 0

    def append(self, traj_id, points, times, weight) -> None:
        merged = self.stream.append(
            traj_id, points, times=times, weight=weight
        )
        for diff in [merged] if merged is not None else self.stream.drain():
            self.event += 1
            if not diff.changed:
                continue
            print(
                f"[{self.event:>5}] live={self.stream.view.n_live:>5} "
                f"clusters={self.stream.view.n_clusters:>3} "
                f"{len(diff.changed)} label changes, lag={self.stream.lag}"
            )
            _print_deltas(diff.changed, self.max_deltas)

    def bulk(self, groups, n_rows: int) -> None:
        # Sharded sessions have no batched bulk path; the equivalent
        # seed is one whole-trajectory append each, routed and merged
        # like any other (labels are append-order independent per
        # trajectory).
        for traj_id, rows in groups.items():  # file order
            self.append(traj_id, *_batch(rows), rows[0].weight)
        print(f"seeded {n_rows} points / {len(groups)} trajectories "
              f"across {self.stream.n_shards} shards")

    def labels(self):
        self.stream.sync()
        return self.stream.labels()

    def checkpoint(self, path: str) -> str:
        self.stream.checkpoint(path)
        return f"{path}/ (sharded checkpoint)"

    def close(self) -> None:
        self.stream.close()


def _feed_csv(args: argparse.Namespace, feed) -> None:
    """Read ``args.input`` into *feed*: with ``--bulk-load`` the file's
    current contents in one seed, then batched appends of the rest
    (tailing it with ``--follow``), then every partial batch.  An
    interrupt or a closed stdout ends the read early."""
    pending: "dict[int, list]" = {}
    opened: "set[int]" = set()

    def flush(traj_id: int) -> None:
        rows = pending.pop(traj_id)
        # First row wins on weight (matching read_trajectories_csv);
        # later batches keep the opening weight even if the column
        # drifts mid-trajectory.
        weight = None if traj_id in opened else rows[0].weight
        opened.add(traj_id)
        feed.append(traj_id, *_batch(rows), weight)

    try:
        with open(args.input, "r", encoding="utf-8", newline="") as handle:
            header = read_csv_header(handle)
            # One line counter across the bulk read and the tail read,
            # so a bad row's line number counts from the top of the file.
            lines = itertools.count(2)
            if args.bulk_load:
                # When also following, only complete lines are consumed
                # (max_polls=0 leaves a partial trailing line in place),
                # so the tail loop below resumes the same handle
                # mid-file with no re-read.
                groups: "dict[int, list]" = {}
                n_rows = 0
                for row in iter_point_rows(
                    handle, follow=args.follow, poll=0.0, max_polls=0,
                    header=header, line_numbers=lines,
                ):
                    groups.setdefault(row.traj_id, []).append(row)
                    n_rows += 1
                if groups:
                    feed.bulk(groups, n_rows)
                    opened.update(groups)
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
        # still report the final state and honour --checkpoint.
        _silence_stdout()


def _cmd_stream(args: argparse.Namespace) -> int:
    config = config_from_args(StreamConfig, args)
    metrics = (
        None if args.metrics_port is None else MetricsRegistry(enabled=True)
    )
    feed = (_ShardedFeed if args.shards > 1 else _SingleFeed)(
        args, config, metrics
    )
    scrape = None
    try:
        if metrics is not None:
            scrape = start_scrape_server(
                feed.metrics_snapshot, port=args.metrics_port
            )
            print(f"metrics on http://127.0.0.1:{scrape.port}/v1/metrics")
        _feed_csv(args, feed)
        slots, labels = feed.labels()
        n_clusters = int(labels.max()) + 1 if labels.size else 0
        noise = int(np.sum(labels < 0))
        print(
            f"final: {max(n_clusters, 0)} clusters over {slots.size} live "
            f"segments ({noise} noise){feed.final_suffix}"
        )
        if args.checkpoint:
            print(f"wrote {feed.checkpoint(args.checkpoint)}")
    finally:
        if scrape is not None:
            scrape.close()
        feed.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.registry import CorpusSpec
    from repro.serve.server import ServeApp, serve_forever

    config = config_from_args(
        TraclusConfig, args, compute_representatives=False
    )
    specs = []
    for path in args.inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        if any(spec.name == name for spec in specs):
            raise ServeError(
                f"duplicate corpus name {name!r} (from {path}); rename "
                f"the file or serve it from a distinct stem"
            )
        if not os.path.exists(path):
            raise ServeError(f"{path}: no such file")
        specs.append(CorpusSpec(name=name, csv_path=path, config=config))
    max_disk_bytes = (
        int(args.max_disk_mb * 1024 * 1024)
        if args.max_disk_mb is not None
        else None
    )
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
    report = kernels.capability_report()
    print("kernel backends:")
    for name, status in report["backends"].items():
        mark = "+" if status.startswith("ok") else "-"
        print(f"  [{mark}] {name:<6} {status}")
    print(f"dispatches to:    {report['auto_resolves_to']}")
    print(f"max compiled dim: {report['max_compiled_dim']}")
    print(f"numpy:            {report['numpy_version']}")
    thread_env = ", ".join(
        f"{var}={value if value is not None else 'unset'}"
        for var, value in sorted(report["thread_env"].items())
    )
    print(f"thread env:       {thread_env}")
    print(f"cpu count:        {report['cpu_count']}")
    if report["auto_resolves_to"] == "numpy":
        print("note: hot kernels run on the numpy fallback — cext "
              f"{report['backends']['cext']}")
    if args.json_out:
        _write_json(args.json_out, report)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    trajectories = read_trajectories_csv(args.input)
    render_trajectories_svg(
        trajectories, args.output, width=args.width, height=args.height
    )
    print(f"wrote {args.output}")
    return 0


#: Exit status of a run ended by a library error (:class:`ReproError`):
#: not 1, which an uncaught traceback also returns, and not argparse's 2.
EXIT_REPRO_ERROR = 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also used by ``python -m repro``)."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except ReproError as error:
        message = " ".join(str(error).splitlines())
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early: not an
        # error worth a traceback.
        _silence_stdout()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
