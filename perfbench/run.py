"""The repo benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload fit-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout; build products (the compiled kernel cache,
serve artifact directories, traces) go to ``.perfbench_build/`` there.

``--trace 0`` measures the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` measures it twice for half the time
each, untraced and then with every layer wrapped (see ``layers.py``),
and reports the per-layer metrics plus ``tracing.overhead_frac``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A correctness mismatch prints
``correct: false`` and exits 1.  ``BENCHMARK.json`` at the repo root
lists the metrics; ``perfbench/README.md`` says what each one means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".perfbench_build")
BASELINE = os.path.join(HERE, "baseline.json")

#: Set-ups per run, ``setup_s`` being their median: at least
#: ``SETUP_MIN_REPEATS``, then more (up to ``SETUP_MAX_REPEATS``) until
#: ``SETUP_MIN_SECONDS`` have been spent, so a set-up of a few
#: milliseconds is not judged on five noisy samples.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input scale (smoke: the benchmark's own test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "(only at the reference seed)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def warm_up() -> None:
    """Compile (or load) the kernel cache and import every layer once,
    so no operation pays one-time costs."""
    from repro import TRACLUS, TraclusConfig, kernels
    from repro.datasets.hurricane import generate_hurricane_tracks
    from repro.serve import server  # noqa: F401 - imported for its cost

    kernels.resolved_name("auto")
    TRACLUS(TraclusConfig(eps=6.0, min_lns=4.0)).fit(
        generate_hurricane_tracks(20, seed=1)
    )


def environment(baseline: dict) -> dict:
    """What a result depends on besides the code under test."""
    import numpy as np
    from repro import kernels

    source = hashlib.sha256()
    for directory, _, names in sorted(os.walk(os.path.join(ROOT, "src", "repro"))):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    backend = kernels.resolved_name("auto")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "REPRO_KERNEL_THREADS": os.environ.get("REPRO_KERNEL_THREADS"),
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "comparable": backend == baseline["kernel_backend"],
    }
    if not env["comparable"]:
        env["incomparable"] = (
            f"kernel backend {backend} differs from the baseline's "
            f"{baseline['kernel_backend']}; compare only like with like"
        )
    return env


def calibration_seconds() -> float:
    """Wall time of ``np.sort`` on 10^7 int64: a host-speed reference
    printed with every result (informational, not a metric)."""
    import numpy as np

    values = np.random.default_rng(0).integers(0, 2**62, size=10_000_000)
    started = time.perf_counter()
    np.sort(values)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(phase, setup_times, rss_mb) -> dict:
    import numpy as np

    latencies_ms = np.asarray(phase.latencies) * 1e3
    # The highest percentile with ten samples beyond it, capped at p95:
    # on a shared host a few stalled operations move p99 by 2x between
    # runs of the same code, p95 holds still.
    tail = min(0.95, max(0.5, 1.0 - 10.0 / latencies_ms.size))
    return {
        "setup_s": (float(np.median(setup_times)), "s"),
        "op_p50_ms": (float(np.median(latencies_ms)), "ms"),
        "op_tail_ms": (float(np.percentile(latencies_ms, 100.0 * tail)), "ms"),
        "ops_per_s": (latencies_ms.size / phase.elapsed, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(layers, tracer, plain, traced) -> dict:
    import numpy as np

    compute = layers.SpanTree(tracer.spans, *traced.compute[:2])
    api = layers.SpanTree(tracer.spans, *traced.api[:2])
    values = layers.compute_layer_metrics(
        compute, traced.compute[2], api, traced.api[2]
    )
    roots = api.named("serve.compute")
    values["serve.compute_ms"] = (
        float(np.mean([s[5] - s[4] for s in roots])) * 1e3 if roots else 0.0
    )
    for name in ("serve.queue_ms", "serve.http_ms",
                 "serve.warm_builds", "serve.coalesced", "serve.cold_pass_s"):
        values[name] = traced.layer.get(name, 0.0)
    values["tracing.overhead_frac"] = (
        float(np.median(traced.latencies)) / float(np.median(plain.latencies))
        - 1.0
    )
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    # Keep the compiled kernel cache and the compiler's temporary files
    # inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD_DIR, "kernels")
    os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = None
    if args.seed == baseline["reference_seed"] and not args.record_reference:
        reference = baseline["outputs"].get(args.size, {}).get(args.workload)

    warm_up()
    workload = workloads.make(args.workload, args.size, BUILD_DIR)
    setup_times = []
    state = None
    while len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS
        or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        if state is not None:
            workload.close(state)
        started = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - started)

    checks = []
    failure = None
    tracer = None
    spool_dir = os.path.join(BUILD_DIR, "spool", f"{os.getpid()}")
    try:
        if not args.trace:
            phases = [workload.run(state, args.seconds)]
            checks += workload.check(state, reference)
        else:
            phases = [workload.run(state, args.seconds / 2.0)]
            checks += workload.check(state, reference)
            workload.close(state)
            state = None
            tracer = layers.Tracer()
            installation = layers.install(tracer, spool_dir)
            try:
                state = workload.setup(args.seed)
                tracer.reset()
                phases.append(workload.run(state, args.seconds / 2.0, tracer))
            finally:
                layers.uninstall(installation)
            checks += workload.check(state, reference)
        if args.record_reference:
            outputs = workload.outputs(state)
            if outputs and args.seed == baseline["reference_seed"]:
                baseline["outputs"].setdefault(args.size, {})[args.workload] = outputs
                with open(BASELINE, "w", encoding="utf-8") as handle:
                    json.dump(baseline, handle, indent=2)
                    handle.write("\n")
                checks.append("reference recorded")
    except workloads.CheckFailed as error:
        failure = str(error)
    finally:
        if state is not None:
            workload.close(state)

    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.absorb_spool(spool_dir)
        shutil.rmtree(spool_dir, ignore_errors=True)
        trace_path = os.path.join(BUILD_DIR, "traces", f"{args.workload}.json")
        tracer.write_chrome(trace_path)
        print(f"trace: {trace_path}")
        metrics = per_layer(layers, tracer, phases[0], phases[1])
    else:
        metrics = end_to_end(phases[0], setup_times, rss_mb)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for name in checks:
        print(f"check: {name}: ok")
    if failure is not None:
        print(f"check: FAILED: {failure}")
    report = dict(phases[0].report)
    report["setup_s"] = (statistics.median(setup_times), "s")
    report["peak_rss_mb"] = (rss_mb, "MB")
    report["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in report.items():
        print(f"metric: {args.workload} {name} {value:.6g} {unit}")
    env = environment(baseline)
    env["calibration_sort_s"] = calibration_seconds()
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failure is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
