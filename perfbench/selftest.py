"""The benchmark's own test: every workload at smoke size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size smoke`` untraced and traced
and asserts that the last line carries every metric ``BENCHMARK.json``
names, with its unit; that every end-to-end figure and every
correctness check is printed; that nothing failed; and that the Chrome
trace loads.  Last, it runs the benchmark in a directory holding only
``BENCHMARK.json`` and ``perfbench/``, which must exit non-zero without
printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload-specific end-to-end figures, printed as ``metric:`` lines.
REPORTED = {
    "fit-dense": ["fit_s"],
    "param-search": ["search_s"],
    "stream-window": ["appends_per_s", "append_p50_ms", "append_p99_ms"],
    "serve-mixed": ["requests_per_s", "request_p50_ms", "request_p99_ms",
                    "cold_pass_s"],
}
REPORTED_ALL = ["setup_s", "peak_rss_mb", "error_rate"]

#: Correctness checks each workload must report as run.
CHECKS = {
    "fit-dense": ["labels identical across repeated fits",
                  "labels equal the recorded reference"],
    "param-search": ["labels grid and QMeasure row identical across sessions",
                     "labels grid and QMeasure equal the recorded reference"],
    "stream-window": ["stream labels equal a batch refit on the survivors",
                      "folded label view equals the stream's labels"],
    "serve-mixed": ["warm requests rebuilt nothing",
                    "one response per distinct request across cold and warm "
                    "passes",
                    "served responses equal an in-process Workspace"],
}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, spec: dict) -> None:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, (workload, trace, done.stdout, done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, (workload, trace, metric["name"])
        assert got["unit"] == metric["unit"], (workload, metric, got)
        assert isinstance(got["value"], (int, float)), (workload, metric, got)
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for name in REPORTED[workload] + REPORTED_ALL:
        assert any(line.startswith(f"metric: {workload} {name} ")
                   for line in lines), (workload, name)
    for check in CHECKS[workload]:
        assert f"check: {check}: ok" in lines, (workload, check)
    assert any(line.startswith("env: ") for line in lines), workload
    if trace:
        path = next(line.split(": ", 1)[1] for line in lines
                    if line.startswith("trace: "))
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events), workload
    print(f"ok: {workload} --trace {trace} "
          f"({result['attempted']} operations)")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "fit-dense", 0)
        assert done.returncode != 0, done.stdout
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: a directory without the program exits non-zero")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
