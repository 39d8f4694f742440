"""Workspace artifact-graph walkthrough.

One corpus, one configuration, many consumers: the parameter
heuristic, a labels grid and QMeasure all read from the same cached
artifacts — the ε-graph is built exactly once, and a second "process"
over the same cache directory starts warm (zero engine builds).  The
same corpus then seeds a streaming session through its bulk load.

Run with:  python examples/workspace_quickstart.py
"""

import tempfile
import time

import numpy as np

from repro import StreamConfig, StreamingTRACLUS, TraclusConfig, Workspace
from repro.datasets.synthetic import generate_corridor_set


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    print(f"  {label:<44} {1000 * (time.perf_counter() - start):7.1f} ms")
    return result


def analyse(trajectories, cache_dir):
    workspace = Workspace(
        trajectories, TraclusConfig(compute_representatives=False),
        cache_dir=cache_dir,
    )
    estimate = timed(
        "recommend_parameters (builds graph once)",
        lambda: workspace.recommend_parameters(np.arange(1.0, 13.0)),
    )
    eps, min_lns = estimate.eps, round(estimate.min_lns)
    grid = timed(
        f"labels_grid around eps*={eps:g} (reuses graph)",
        lambda: workspace.labels_grid(
            [eps - 1, eps, eps + 1], [min_lns - 1, min_lns]
        ),
    )
    quality = timed(
        "quality at the estimate (reuses labels)",
        lambda: workspace.quality(eps, min_lns),
    )
    print(f"  -> grid {grid.shape[0]}x{grid.shape[1]}, "
          f"QMeasure {quality.qmeasure:.0f}, "
          f"engine builds this session: {dict(workspace.stats.builds)}")
    return workspace, eps, min_lns


def main() -> None:
    trajectories = generate_corridor_set(n_trajectories=20, seed=7)
    with tempfile.TemporaryDirectory() as cache_dir:
        print("cold session (computes every artifact):")
        workspace, eps, min_lns = analyse(trajectories, cache_dir)

        print("warm session (same cache directory, fresh Workspace):")
        warm, _, _ = analyse(trajectories, cache_dir)
        assert warm.graph_builds() == 0, "warm run must not rebuild the graph"

        print("seeding a streaming session from the same corpus:")
        pipeline = StreamingTRACLUS(
            StreamConfig(eps=eps, min_lns=float(min_lns))
        )
        timed(
            "bulk_load (one lock-step phase-1 scan)",
            lambda: pipeline.bulk_load(trajectories),
        )
        slots, labels = pipeline.labels()
        n_clusters = int(labels.max()) + 1 if labels.size else 0
        print(f"  -> streaming session live with {slots.size} segments, "
              f"{max(n_clusters, 0)} clusters; artifacts on disk:")
        for entry in warm.artifact_entries():
            print(f"     {entry['kind']:<16} {entry['bytes']:>8} bytes")


if __name__ == "__main__":
    main()
