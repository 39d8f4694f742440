"""The four benchmark workloads.

Each workload builds its inputs from the seed alone (``setup``), runs
its operation in a closed loop until a deadline (``run``), and checks
the outputs outside the timed region (``check``).  The program sees
only the generated inputs.  ``SIZES`` holds the measured scale and a
smoke scale for the benchmark's own test.

Why these four: ``fit-dense`` is dominated by the ε-graph and the
labeling union-find, ``param-search`` by QMeasure, ``stream-window``
runs only the incremental (insert/evict) code and bypasses the batch
graph and sweep, and ``serve-mixed`` runs only the serving and artifact
layers once warm.  An optimisation of one layer therefore moves one
workload and should leave the others flat.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


class CheckFailed(Exception):
    """An output of the program did not match what it must be."""


@dataclass
class Phase:
    """What one measured phase did.

    ``latencies`` holds one wall time (seconds) per completed operation.
    ``compute`` and ``api`` are the ``(start, end, operations)`` windows
    the per-layer metrics are taken over; ``layer`` holds per-layer
    numbers the workload read from the program's own surfaces, and
    ``report`` the workload-specific end-to-end figures."""

    latencies: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    compute: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    api: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    layer: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)


def sub_seed(seed: int, index: int) -> int:
    """A generator seed for input *index* of a run seeded with *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def labels_checksum(labels: np.ndarray) -> str:
    digest = hashlib.blake2b(digest_size=16)
    array = np.ascontiguousarray(labels, dtype=np.int64)
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _closed_loop(n_inputs: int, seconds: float, operation) -> Phase:
    """Run ``operation(i)`` for i = 0, 1, ... until *seconds* have
    passed and every input has been used at least once."""
    phase = Phase()
    started = time.perf_counter()
    deadline = started + seconds
    for i in itertools.count():
        if i >= n_inputs and time.perf_counter() >= deadline:
            break
        phase.attempted += 1
        op_started = time.perf_counter()
        try:
            operation(i)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            phase.failed += 1
            continue
        phase.latencies.append(time.perf_counter() - op_started)
    ended = time.perf_counter()
    phase.elapsed = ended - started
    ops = float(len(phase.latencies))
    phase.compute = phase.api = (started, ended, ops)
    return phase


def _op(tracer, func, *args):
    """``func(*args)``, inside the root ``op`` span when traced."""
    if tracer is None:
        return func(*args)
    return tracer.call("op", func, args, {})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- fit-dense -------------------------------------------------------------------

class FitDense:
    """Cold ``TRACLUS.fit`` on dense elk-like corpora (ε=27, MinLns=9,
    suppression 2), cycling over a few corpora drawn from the seed."""

    name = "fit-dense"
    SIZES = {
        "full": {"points_per_animal": 200, "corpora": 5},
        "smoke": {"points_per_animal": 40, "corpora": 2},
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro import TraclusConfig
        from repro.datasets.starkey import generate_elk1993

        corpora = [
            generate_elk1993(
                points_per_animal=self.size["points_per_animal"],
                seed=sub_seed(seed, i),
            )
            for i in range(self.size["corpora"])
        ]
        config = TraclusConfig(eps=27.0, min_lns=9.0, suppression=2.0)
        return {"corpora": corpora, "config": config, "checksums": {}}

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        from repro import TRACLUS

        corpora = state["corpora"]
        checksums = state["checksums"]

        def fit(i: int) -> None:
            index = i % len(corpora)
            result = _op(tracer, TRACLUS(state["config"]).fit, corpora[index])
            checksums.setdefault(index, []).append(
                labels_checksum(result.labels)
            )

        phase = _closed_loop(len(corpora), seconds, fit)
        phase.report["fit_s"] = (float(np.median(phase.latencies)), "s")
        return phase

    def outputs(self, state: dict) -> dict:
        return {"checksums": [state["checksums"][i][0]
                              for i in sorted(state["checksums"])]}

    def check(self, state: dict, reference: Optional[dict]) -> List[str]:
        checksums = state["checksums"]
        for index, values in checksums.items():
            _require(
                len(set(values)) == 1,
                f"corpus {index}: labels differ across repeated fits",
            )
        done = ["labels identical across repeated fits"]
        if reference is not None:
            _require(
                self.outputs(state)["checksums"] == reference["checksums"],
                "labels checksum differs from the recorded reference",
            )
            done.append("labels equal the recorded reference")
        return done

    def close(self, state: dict) -> None:
        pass


# -- param-search ------------------------------------------------------------------

class ParamSearch:
    """One analyst session per operation on a fresh memory-only
    ``Workspace``: the Section 4.4 estimate over ε in 2..39, a 5×3
    labels grid around it, the QMeasure row at ε*-1, ε*, ε*+1 and the
    representatives at the estimate."""

    name = "param-search"
    SIZES = {
        "full": {"storms": 60, "corpora": 10},
        "smoke": {"storms": 40, "corpora": 2},
    }
    #: Relative tolerance on QMeasure: a faster Formula-11 evaluation
    #: may add the same squared distances in another order.
    QMEASURE_RTOL = 1e-9

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro.datasets.hurricane import generate_hurricane_tracks

        corpora = [
            generate_hurricane_tracks(self.size["storms"], seed=sub_seed(seed, i))
            for i in range(self.size["corpora"])
        ]
        return {"corpora": corpora, "results": {}}

    @staticmethod
    def session(corpus) -> Tuple[str, List[float]]:
        from repro import TraclusConfig, Workspace

        workspace = Workspace(corpus, TraclusConfig())
        estimate = workspace.recommend_parameters(np.arange(2.0, 40.0))
        eps = float(estimate.eps)
        min_lns = estimate.min_lns
        grid = workspace.labels_grid(
            [eps - 2.0, eps - 1.0, eps, eps + 1.0, eps + 2.0],
            [estimate.min_lns_low, min_lns, estimate.min_lns_high],
        )
        row = [
            workspace.quality(e, min_lns).qmeasure
            for e in (eps - 1.0, eps, eps + 1.0)
        ]
        workspace.representatives(eps, min_lns)
        return labels_checksum(grid), row

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        corpora = state["corpora"]
        results = state["results"]

        def search(i: int) -> None:
            index = i % len(corpora)
            outcome = _op(tracer, self.session, corpora[index])
            results.setdefault(index, []).append(outcome)

        phase = _closed_loop(len(corpora), seconds, search)
        phase.report["search_s"] = (float(np.median(phase.latencies)), "s")
        return phase

    def outputs(self, state: dict) -> dict:
        first = [state["results"][i][0] for i in sorted(state["results"])]
        return {"checksums": [c for c, _ in first],
                "qmeasure": [row for _, row in first]}

    def check(self, state: dict, reference: Optional[dict]) -> List[str]:
        for index, outcomes in state["results"].items():
            checksum, row = outcomes[0]
            for other_checksum, other_row in outcomes[1:]:
                _require(
                    other_checksum == checksum,
                    f"corpus {index}: labels grid differs across sessions",
                )
                _require(
                    np.allclose(other_row, row, rtol=self.QMEASURE_RTOL, atol=0),
                    f"corpus {index}: QMeasure row differs across sessions",
                )
        done = ["labels grid and QMeasure row identical across sessions"]
        if reference is not None:
            outputs = self.outputs(state)
            _require(
                outputs["checksums"] == reference["checksums"],
                "labels grid checksum differs from the recorded reference",
            )
            _require(
                np.allclose(outputs["qmeasure"], reference["qmeasure"],
                            rtol=self.QMEASURE_RTOL, atol=0),
                "QMeasure row differs from the recorded reference",
            )
            done.append("labels grid and QMeasure equal the recorded reference")
        return done

    def close(self, state: dict) -> None:
        pass


# -- stream-window ------------------------------------------------------------------

class StreamWindow:
    """A windowed ``StreamingTRACLUS`` (ε=6, MinLns=7): the first half
    of every track is bulk-loaded, then one closed-loop feeder appends
    the rest in small chunks, round-robin across tracks, followed by
    further corpora streamed whole, round-robin across all of their
    tracks — the window evicts continuously."""

    name = "stream-window"
    SIZES = {
        "full": {"storms": 570, "window": 4000, "chunk": 4, "extra": 3},
        "smoke": {"storms": 60, "window": 1500, "chunk": 4, "extra": 1},
    }
    EPS = 6.0
    MIN_LNS = 7.0
    #: Traj-id stride between the streamed corpora.
    ID_STRIDE = 1_000_000

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int) -> dict:
        from repro import StreamConfig, StreamingTRACLUS, Trajectory
        from repro.datasets.hurricane import generate_hurricane_tracks

        size = self.size
        blocks = [
            generate_hurricane_tracks(size["storms"], seed=sub_seed(seed, b))
            for b in range(1 + size["extra"])
        ]
        stream = StreamingTRACLUS(StreamConfig(
            eps=self.EPS, min_lns=self.MIN_LNS, max_segments=size["window"],
        ))
        halves = [len(t) // 2 for t in blocks[0]]
        stream.bulk_load([
            Trajectory(t.points[:h], traj_id=t.traj_id, weight=t.weight)
            for t, h in zip(blocks[0], halves)
        ])
        chunk = size["chunk"]
        feed: List[Tuple[int, np.ndarray]] = []

        def round_robin(tracks) -> None:
            for offset in itertools.count(0, chunk):
                batch = [
                    (traj_id, points[offset:offset + chunk])
                    for traj_id, points in tracks if offset < len(points)
                ]
                if not batch:
                    return
                feed.extend(batch)

        round_robin([(t.traj_id, t.points[h:]) for t, h in zip(blocks[0], halves)])
        # The further corpora are interleaved with each other, so every
        # run streams a mix of all of them rather than one seed's tracks.
        round_robin([
            (b * self.ID_STRIDE + t.traj_id, t.points)
            for b in range(1, len(blocks)) for t in blocks[b]
        ])
        return {"stream": stream, "feed": feed}

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        stream = state["stream"]
        feed = state["feed"]
        phase = Phase()
        started = time.perf_counter()
        deadline = started + seconds
        for traj_id, points in feed:
            if time.perf_counter() >= deadline:
                break
            phase.attempted += 1
            op_started = time.perf_counter()
            try:
                _op(tracer, stream.append, traj_id, points)
            except Exception:  # noqa: BLE001 - a failed append is counted
                phase.failed += 1
                continue
            phase.latencies.append(time.perf_counter() - op_started)
        ended = time.perf_counter()
        phase.elapsed = ended - started
        phase.compute = phase.api = (started, ended, float(len(phase.latencies)))
        latencies_ms = np.asarray(phase.latencies) * 1e3
        phase.report["appends_per_s"] = (
            len(phase.latencies) / phase.elapsed, "1/s"
        )
        phase.report["append_p50_ms"] = (float(np.median(latencies_ms)), "ms")
        phase.report["append_p99_ms"] = (
            float(np.percentile(latencies_ms, 99)), "ms"
        )
        return phase

    def outputs(self, state: dict) -> dict:
        return {}

    def check(self, state: dict, reference: Optional[dict]) -> List[str]:
        from repro.cluster.dbscan import LineSegmentDBSCAN

        stream = state["stream"]
        slots, online = stream.labels()
        survivors, survivor_slots = stream.clusterer.store.compact()
        _, batch = LineSegmentDBSCAN(eps=self.EPS, min_lns=self.MIN_LNS).fit(
            survivors
        )
        _require(
            np.array_equal(slots, survivor_slots) and np.array_equal(online, batch),
            "stream labels differ from a batch refit on the surviving segments",
        )
        view_slots, view_labels = stream.view.dense_labels()
        _require(
            np.array_equal(view_slots, slots)
            and np.array_equal(view_labels, online),
            "folded label view differs from the stream's labels",
        )
        return ["stream labels equal a batch refit on the survivors",
                "folded label view equals the stream's labels"]

    def close(self, state: dict) -> None:
        pass


# -- serve-mixed --------------------------------------------------------------------

async def _http(reader, writer, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, bytes]:
    """One request on a keep-alive connection."""
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write((
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def _prometheus_sums(text: str) -> Dict[str, float]:
    """Sample values of a Prometheus exposition, summed over labels."""
    sums: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.partition("{")[0]
        sums[name] = sums.get(name, 0.0) + float(value)
    return sums


class ServeMixed:
    """``repro serve`` (one pool worker, two resident workspaces) over
    four corpora: a single-client cold pass over every distinct request,
    then two closed-loop keep-alive connections replaying a seeded,
    skewed mix.  Four corpora against two resident workspaces force
    part of the warm traffic through the npz disk read-through."""

    name = "serve-mixed"
    SIZES = {
        "full": {"storms": 150, "corpora": 4},
        "smoke": {"storms": 40, "corpora": 4},
    }
    CLIENTS = 2
    #: Distinct requests per corpus, in cold-pass order (the largest ε
    #: first, so the cold pass builds one graph per corpus, and the
    #: sweep last, so every single-point labels artifact reaches disk),
    #: with their weight in the warm mix.
    REQUESTS = [
        ("labels", {"eps": 9.0, "min_lns": 6.0}, 2),
        ("labels", {"eps": 7.0, "min_lns": 8.0}, 2),
        ("labels", {"eps": 8.0, "min_lns": 10.0}, 2),
        ("fit", {"eps": 8.0, "min_lns": 8.0}, 2),
        ("quality", {"eps": 8.0, "min_lns": 8.0}, 1),
        ("sweep", {"eps_values": [5.0, 6.0, 7.0, 8.0, 9.0],
                   "min_lns_values": [6.0, 8.0, 10.0]}, 1),
    ]
    #: Corpus popularity in the warm mix.  The hottest corpus rotates
    #: every ``ROTATE_EVERY`` requests of a client, so a run's cost does
    #: not hinge on which of the seed's corpora happens to be hot.
    CORPUS_WEIGHTS = [0.4, 0.3, 0.2, 0.1]
    ROTATE_EVERY = 250
    SEQUENCE_LENGTH = 200_000

    def __init__(self, size: str, build_dir: str):
        self.size = self.SIZES[size]
        self.build_dir = build_dir

    def setup(self, seed: int) -> dict:
        from repro.datasets.hurricane import generate_hurricane_tracks
        from repro.serve.registry import CorpusSpec
        from repro.serve.server import ServeApp, start_http_server

        corpora = [
            generate_hurricane_tracks(self.size["storms"], seed=sub_seed(seed, i))
            for i in range(self.size["corpora"])
        ]
        specs = [
            CorpusSpec(name=f"c{i}", trajectories=tuple(corpus))
            for i, corpus in enumerate(corpora)
        ]
        rng = np.random.default_rng(sub_seed(seed, 100))
        request_p = np.array([w for _, _, w in self.REQUESTS], dtype=float)
        request_p /= request_p.sum()
        length = self.SEQUENCE_LENGTH
        rotation = np.arange(length) // self.ROTATE_EVERY
        sequences = [
            ((rng.choice(len(specs), size=length, p=self.CORPUS_WEIGHTS)
              + rotation) % len(specs),
             rng.choice(len(self.REQUESTS), size=length, p=request_p))
            for _ in range(self.CLIENTS)
        ]
        cache_dir = os.path.join(
            self.build_dir, "serve", f"ws-{os.getpid()}-{time.monotonic_ns()}"
        )
        loop = asyncio.new_event_loop()
        app = ServeApp(specs, cache_dir=cache_dir, workers=1, max_workspaces=2)
        server = loop.run_until_complete(start_http_server(app))
        return {
            "corpora": corpora, "specs": specs, "sequences": sequences,
            "cache_dir": cache_dir, "loop": loop, "app": app, "server": server,
            "port": server.sockets[0].getsockname()[1],
            "results": {},
        }

    def _record(self, state: dict, corpus: int, request: int, body: bytes) -> None:
        result = json.loads(body)["result"]
        state["results"].setdefault((corpus, request), set()).add(
            json.dumps(result, sort_keys=True)
        )

    async def _scrape(self, state: dict) -> Tuple[dict, Dict[str, float]]:
        reader, writer = await asyncio.open_connection("127.0.0.1", state["port"])
        try:
            _, stats = await _http(reader, writer, "GET", "/v1/stats")
            _, metrics = await _http(reader, writer, "GET", "/v1/metrics")
        finally:
            writer.close()
            await writer.wait_closed()
        return json.loads(stats), _prometheus_sums(metrics.decode("utf-8"))

    async def _drive(self, state: dict, seconds: float, phase: Phase):
        port = state["port"]
        n_corpora = len(state["specs"])
        cold_started = time.perf_counter()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for corpus in range(n_corpora):
                for request, (op, params, _) in enumerate(self.REQUESTS):
                    phase.attempted += 1
                    status, body = await _http(
                        reader, writer, "POST", f"/v1/corpora/c{corpus}/{op}",
                        params,
                    )
                    if status != 200:
                        phase.failed += 1
                        continue
                    self._record(state, corpus, request, body)
        finally:
            writer.close()
            await writer.wait_closed()
        cold_ended = time.perf_counter()
        stats_before, metrics_before = await self._scrape(state)

        warm_started = time.perf_counter()
        deadline = warm_started + seconds

        async def client(k: int) -> None:
            corpora, requests = state["sequences"][k]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for corpus, request in zip(corpora.tolist(), requests.tolist()):
                    if time.perf_counter() >= deadline:
                        break
                    op, params, _ = self.REQUESTS[request]
                    phase.attempted += 1
                    started = time.perf_counter()
                    status, body = await _http(
                        reader, writer, "POST", f"/v1/corpora/c{corpus}/{op}",
                        params,
                    )
                    if status != 200:
                        phase.failed += 1
                        continue
                    phase.latencies.append(time.perf_counter() - started)
                    self._record(state, corpus, request, body)
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(client(k) for k in range(self.CLIENTS)))
        warm_ended = time.perf_counter()
        stats_after, metrics_after = await self._scrape(state)
        return ((cold_started, cold_ended), (warm_started, warm_ended),
                (stats_before, metrics_before), (stats_after, metrics_after))

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        """The cold pass, then *seconds* of warm traffic.  *tracer* is
        unused here: the spans come from the forked pool worker."""
        phase = Phase()
        cold, warm, before, after = state["loop"].run_until_complete(
            self._drive(state, seconds, phase)
        )
        phase.elapsed = warm[1] - warm[0]
        n_warm = float(len(phase.latencies))
        phase.compute = (cold[0], cold[1], 1.0)
        phase.api = (warm[0], warm[1], n_warm)
        builds = sum(after[0]["builds"].values()) - sum(before[0]["builds"].values())
        delta = lambda name: after[1].get(name, 0.0) - before[1].get(name, 0.0)  # noqa: E731
        queue_s = delta("repro_request_queue_seconds_sum")
        queue_n = delta("repro_request_queue_seconds_count")
        server_s = delta("repro_request_seconds_sum")
        server_n = delta("repro_request_seconds_count")
        client_ms = float(np.mean(phase.latencies)) * 1e3
        phase.layer = {
            "serve.queue_ms": queue_s / queue_n * 1e3 if queue_n else 0.0,
            "serve.http_ms": client_ms - (server_s / server_n * 1e3 if server_n else 0.0),
            "serve.warm_builds": float(builds),
            "serve.coalesced": float(after[0]["coalesced"] - before[0]["coalesced"]),
            "serve.cold_pass_s": cold[1] - cold[0],
        }
        state["warm_builds"] = builds
        latencies_ms = np.asarray(phase.latencies) * 1e3
        phase.report["requests_per_s"] = (n_warm / phase.elapsed, "1/s")
        phase.report["request_p50_ms"] = (float(np.median(latencies_ms)), "ms")
        phase.report["request_p99_ms"] = (
            float(np.percentile(latencies_ms, 99)), "ms"
        )
        phase.report["cold_pass_s"] = (cold[1] - cold[0], "s")
        return phase

    def outputs(self, state: dict) -> dict:
        return {}

    def check(self, state: dict, reference: Optional[dict]) -> List[str]:
        from repro import TraclusConfig, Workspace
        from repro.serve.worker import OPERATIONS

        _require(state["warm_builds"] == 0, "warm requests rebuilt artifacts")
        for (corpus, request), served in state["results"].items():
            _require(
                len(served) == 1,
                f"c{corpus} request {request}: responses differ across passes",
            )
        for corpus, trajectories in enumerate(state["corpora"]):
            workspace = Workspace(trajectories, TraclusConfig())
            for request, (op, params, _) in enumerate(self.REQUESTS):
                served = state["results"].get((corpus, request))
                if served is None:
                    continue
                expected = json.dumps(
                    json.loads(json.dumps(OPERATIONS[op](workspace, params))),
                    sort_keys=True,
                )
                _require(
                    served == {expected},
                    f"c{corpus} {op} {params}: served result differs from an "
                    f"in-process Workspace",
                )
        return ["warm requests rebuilt nothing",
                "one response per distinct request across cold and warm passes",
                "served responses equal an in-process Workspace"]

    def close(self, state: dict) -> None:
        loop = state["loop"]
        state["server"].close()
        loop.run_until_complete(state["server"].wait_closed())
        state["app"].close()
        loop.close()
        shutil.rmtree(state["cache_dir"], ignore_errors=True)


def make(name: str, size: str, build_dir: str):
    """The workload called *name* at *size* (``full`` or ``smoke``)."""
    if name == ServeMixed.name:
        return ServeMixed(size, build_dir)
    for cls in (FitDense, ParamSearch, StreamWindow):
        if cls.name == name:
            return cls(size)
    raise KeyError(name)


WORKLOAD_NAMES = (FitDense.name, ParamSearch.name, StreamWindow.name,
                  ServeMixed.name)
