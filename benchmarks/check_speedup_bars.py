"""CI benchmark-regression gate.

Each performance benchmark (``bench_partition.py``,
``bench_streaming.py``, ``bench_sweep.py``) writes its measured
speedup bars to JSON via ``--json``::

    {"benchmark": "sweep", "mode": "smoke",
     "bars": [{"name": "...", "speedup": 10.0, "floor": 2.0}]}

This script reads any number of those files and fails (exit 1) if any
bar's measured speedup has regressed below its floor — the floors are
committed next to the asserted pytest bars, so a regression that would
fail the full-scale benchmark fails the smoke gate first.

Beyond the per-bar floor embedded in each JSON payload, the registry
below pins the **minimum allowed floor per benchmark** in this file, so
a bench script cannot silently weaken its own gate: if a payload
arrives with a floor below the registered one, the gate fails even when
the measured speedup clears the (weakened) embedded floor.

Usage::

    python benchmarks/check_speedup_bars.py out1.json out2.json ...
"""

import json
import sys

#: benchmark name -> minimum floor any of its bars may declare (the
#: committed smoke floors; the full-scale floors are asserted by the
#: pytest bars in the bench modules themselves).
REGISTERED_FLOORS = {
    "partition": 3.0,
    "streaming": 3.0,
    "sweep": 2.0,
    "workspace": 3.0,
    # bench_serve.py's bars are a warm artifact hit *rate* (0..1) and a
    # warm-vs-cold p50 speedup; 0.9 is the committed hit-rate floor and
    # the speedup bar's own floor (2.0x) sits above it.
    "serve": 0.9,
    # bench_serve.py --telemetry-json: warm p50 with telemetry off over
    # warm p50 with telemetry on — instrumentation may cost at most ~5%.
    "serve_telemetry": 0.95,
    # bench_partition.py --kernel-json: the compiled contiguous MDL
    # window kernel (LockstepLayout.window_costs) vs its numpy path
    # (full-scale floor 5.0 at 10^5 segments; bars are empty on hosts
    # with no compiled backend, which passes vacuously — the compiled
    # CI leg is what holds the bar).
    "mdl_kernels": 3.0,
    # bench_partition.py --layout-json: the lock-step scan over one
    # LockstepLayout vs the per-step rebuild on the numpy reference,
    # both pure numpy (full-scale floor 1.3).
    "lockstep_layout": 1.15,
    # bench_scaling.py --kernel-json: compiled component_distances_pairs
    # vs numpy on pre-materialized candidate pairs (full floor 5.0).
    "pair_kernels": 3.0,
    # bench_query.py: cross-corpus cells query off the sqlite catalog
    # vs loading every npz payload (measures ~30x at smoke scale).
    "query": 10.0,
    # bench_shard.py: merger offload ratio — single-stream wall over
    # the merger's serial wall.  The merger is the only serial stage
    # of a sharded session, so this bounds K-shard scaling; measuring
    # it single-threaded keeps the gate stable on 1-core CI hosts
    # (measures ~2.6x at smoke scale).
    "shard": 2.0,
    # bench_shard.py --latency-json: committed per-append p99 ceiling
    # over the measured in-process p99 (regression reads < 1.0x; the
    # ceiling would be blown by any O(live)-per-append regression).
    "shard_latency": 1.0,
}


def check(paths):
    failures = []
    rows = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        benchmark = payload.get("benchmark", path)
        registered = REGISTERED_FLOORS.get(benchmark)
        if registered is None:
            # An unregistered payload would otherwise dodge the
            # anti-weakening check entirely — the exact hole the
            # registry exists to close.
            failures.append(
                f"{benchmark}: not in REGISTERED_FLOORS; add its "
                f"committed minimum floor to check_speedup_bars.py"
            )
        for bar in payload.get("bars", []):
            if registered is not None and bar["floor"] < registered:
                failures.append(
                    f"{benchmark}:{bar['name']} declares floor "
                    f"{bar['floor']:.2f}x below the registered minimum "
                    f"{registered:.2f}x"
                )
            ok = bar["speedup"] >= bar["floor"]
            rows.append(
                (
                    payload.get("benchmark", path),
                    payload.get("mode", "?"),
                    bar["name"],
                    f"{bar['speedup']:.1f}x",
                    f"{bar['floor']:.1f}x",
                    "ok" if ok else "REGRESSED",
                )
            )
            if not ok:
                failures.append(
                    f"{payload.get('benchmark', path)}:{bar['name']} "
                    f"measured {bar['speedup']:.2f}x < floor "
                    f"{bar['floor']:.2f}x"
                )
    headers = ("benchmark", "mode", "bar", "measured", "floor", "status")
    widths = [
        max(len(headers[c]), *(len(str(r[c])) for r in rows)) if rows
        else len(headers[c])
        for c in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return failures


def main(argv=None):
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: check_speedup_bars.py BENCH_JSON [BENCH_JSON ...]")
        return 2
    failures = check(paths)
    if failures:
        print("\nbenchmark-regression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall speedup bars at or above their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
