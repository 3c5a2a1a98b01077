"""The repository's benchmark: the paper grid and the serving path.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper-grid``  -- ``Session(PAPER_CONFIG, jobs=1).table1()``: the
  paper's 12 benchmarks x 3 libraries, in a fresh process on an empty
  disk cache.  The grid is one fixed unit of work that takes longer
  than ``--seconds``.
* ``serve-warm``  -- one ``PowerServer`` in a child process, warmed
  with a fixed working set; two closed-loop clients on persistent
  HTTP/1.1 connections send hot estimate, batch and optimize requests
  for ``--seconds``.
* ``serve-mixed`` -- a 2-worker ``FleetSupervisor`` on a fresh disk
  cache and a JSONL store; two closed-loop ``repro.serve.Client``
  threads send hot reads, pricing-only requeries, colliding cold
  queries and optimize requests for ``--seconds``.

Every answer is checked.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics, as the last stdout line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The run exits non-zero when an answer is wrong or a request fails.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import http.client
import json
import math
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from child import get_json, post_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced runs), in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("qps", "req/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
              ("cold_p50_ms", "ms"))

#: Per-layer metrics (traced runs), in BENCHMARK.json order.
PER_LAYER = (
    ("synth.busy_s", "s"), ("synth.calls", "count"),
    ("synth.cuts.busy_s", "s"), ("synth.cuts.calls", "count"),
    ("synth.mapper.busy_s", "s"), ("synth.mapper.calls", "count"),
    ("registry.busy_s", "s"), ("registry.calls", "count"),
    ("sim.activity.busy_s", "s"), ("sim.activity.calls", "count"),
    ("sim.activity.gate_evals_per_s", "1/s"),
    ("sim.estimator.busy_s", "s"), ("timing.busy_s", "s"),
    ("optimize.busy_s", "s"),
    ("schema.parse_us", "us"), ("schema.serialize_us", "us"),
    ("serve.engine.hot_us", "us"), ("serve.http.self_us", "us"),
    ("serve.client.roundtrip_us", "us"), ("serve.fleet.ready_s", "s"),
    ("serve.fleet.restarts", "count"),
    ("serve.fleet.simulations_per_cold_key", "ratio"),
    ("trace.overhead_ratio", "ratio"), ("unattributed_s", "s"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The serving working set: cheap circuits, all three paper libraries.
SERVE_CIRCUITS = ("t481", "C1908", "C1355")
PAPER_LIBRARIES = ("cntfet-generalized", "cntfet-conventional", "cmos")
#: Serve-warm operating points: per circuit and library one cold
#: simulation and three pricing-only answers during warm-up.
WARM_FREQUENCIES = (1.0e9, 0.5e9, 2.0e9, 4.0e9)
#: Pattern seeds of the serve-mixed working set: 3 x 3 x 4 = 36
#: activity keys, more than the 32 a worker's stats LRU holds.
MIXED_SEEDS = (11, 12, 13, 14)

#: Fields ignored when comparing answers: the Engine's per-serving
#: fields, and the envelope (version, configuration echo and the hashes
#: of it) that a release or a config-field change alters while the
#: numbers stay the same.
VOLATILE = ("cache_status", "elapsed_s", "server_version", "config",
            "config_hash", "query_key")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


# -- helpers ------------------------------------------------------------------

def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def strip(value: Any) -> Any:
    """A wire payload without the fields that differ per serving."""
    if isinstance(value, dict):
        return {key: strip(item) for key, item in value.items()
                if key not in VOLATILE}
    if isinstance(value, list):
        return [strip(item) for item in value]
    return value


def statuses(value: Any) -> List[str]:
    """Every ``cache_status`` inside a payload."""
    found: List[str] = []
    if isinstance(value, dict):
        if isinstance(value.get("cache_status"), str):
            found.append(value["cache_status"])
        for item in value.values():
            found.extend(statuses(item))
    elif isinstance(value, list):
        for item in value:
            found.extend(statuses(item))
    return found


def fast_config() -> Dict[str, Any]:
    """``FAST_CONFIG`` as a plain dict (16 K patterns)."""
    return {"vdd": 0.9, "frequency": 1.0e9, "fanout": 3,
            "n_patterns": 16_384, "state_patterns": 16_384, "seed": 2010,
            "synthesize": True, "mapper_cut_size": 5, "mapper_cut_limit": 8,
            "mapper_area_rounds": 2, "backend": "bitsim"}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [ROOT / "pyproject.toml"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


# -- child processes ----------------------------------------------------------

@dataclass
class Workdir:
    """Scratch space of one run, inside the checkout."""

    path: Path
    _count: int = 0

    def new(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{self._count:02d}-{name}"
        path.mkdir(parents=True)
        return path


class Child:
    """One work process with a JSON command/event channel."""

    def __init__(self, work: Workdir, mode: str, spec: Dict[str, Any]):
        self.dir = work.new(mode)
        cache = self.dir / "cache"
        tmp = self.dir / "tmp"
        cache.mkdir()
        tmp.mkdir()
        spec = dict(spec, spans_dir=str(self.dir),
                    fleet_dir=str(self.dir / "fleet"),
                    store=str(self.dir / "store.jsonl"))
        spec_path = self.dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = {key: value for key, value in os.environ.items()
               if key not in ("REPRO_FAULTS", "REPRO_FAULTS_DIR",
                              "REPRO_CACHE_DISABLE", "PYTHONPATH")}
        env.update(REPRO_CACHE_DIR=str(cache), TMPDIR=str(tmp),
                   PYTHONPATH=str(SRC), PERFBENCH_LOG=str(self.dir / "log"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        self._events: "queue.Queue[Optional[dict]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                self._events.put(json.loads(line))
            except ValueError:
                continue
        self._events.put(None)

    def expect(self, event: str, timeout: float) -> dict:
        try:
            message = self._events.get(timeout=timeout)
        except queue.Empty:
            message = None
        if message is None or message.get("event") != event:
            self.kill()
            tail = ""
            log = self.dir / "log"
            if log.exists():
                tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.dir.name}: expected {event!r}, got "
                             f"{message!r}\n{tail}")
        return message

    def send(self, **command: Any) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def wait(self, timeout: float = 60.0) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reader.join(timeout=5.0)

    def kill(self) -> None:
        """Kill the child and everything it forked (fleet workers)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=10.0)


# -- results ------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def latency_metrics(outcome: Outcome, latencies: List[float],
                    count_s: float, loop_s: float) -> None:
    """``wall_s`` is the time to answer a fixed number of requests;
    ``qps`` counts every answer over the whole load time."""
    outcome.metrics.update(
        wall_s=count_s,
        qps=len(latencies) / loop_s if loop_s > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50) * 1e3,
        p99_ms=percentile(latencies, 0.99) * 1e3)


def layer_metrics(outcome: Outcome, summary: Dict[str, Any],
                  measured_s: float) -> None:
    """Per-layer metrics from a span summary over ``measured_s`` of
    traced time (grid wall time, or summed client round trips)."""
    from tracer import span_cost

    cost = span_cost()
    busy, calls = summary["busy_s"], summary["calls"]
    for layer in ("synth", "synth.cuts", "synth.mapper", "registry",
                  "sim.activity"):
        outcome.layers[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        outcome.layers[f"{layer}.calls"] = calls.get(layer, 0)
    outcome.layers["sim.activity.gate_evals_per_s"] = \
        summary["gate_evals_per_s"]
    for layer in ("sim.estimator", "timing", "optimize"):
        outcome.layers[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    outcome.layers["trace.overhead_ratio"] = \
        summary["spans"] * cost / measured_s
    outcome.layers["unattributed_s"] = measured_s - summary["self_total_s"]
    outcome.details.update(spans=summary, span_cost_us=cost * 1e6)


# -- paper-grid ----------------------------------------------------------------

def check_grid(outcome: Outcome, cells: List[dict]) -> None:
    reference = json.loads((HERE / "reference_grid.json").read_text())
    expected = reference["cells"]
    outcome.attempted += len(expected)
    if len(cells) != len(expected):
        outcome.fail(f"grid returned {len(cells)} cells, expected "
                     f"{len(expected)}", wrong=True)
    for got, want in zip(cells, expected):
        if got != want:
            outcome.fail(f"cell {want['circuit']}/{want['library']}: "
                         f"{got} != {want}", wrong=True)


def cell_names(cells: List[dict]) -> List[str]:
    return [f"{cell['circuit']}/{cell['library']}" for cell in cells]


def grid_process(work: Workdir, traced: bool = False) -> Dict[str, Any]:
    """One fresh grid process: its result, set-up time and directory."""
    child = Child(work, "grid", {"traced": traced})
    try:
        ready = child.expect("ready", timeout=60.0)
        setup = time.perf_counter() - child.started
        done = child.expect("done", timeout=150.0)
    finally:
        child.wait()
    return dict(done, setup_s=setup, versions=ready["versions"],
                dir=child.dir)


def run_paper_grid(args, work: Workdir) -> Outcome:
    outcome = Outcome()
    if not args.trace:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            probe = Child(work, "setup-grid", {})
            try:
                probe.expect("ready", timeout=60.0)
                setups.append(time.perf_counter() - probe.started)
            finally:
                probe.wait()
        done = grid_process(work)
        setups.append(done["setup_s"])
        outcome.details["versions"] = done["versions"]
        check_grid(outcome, done["cells"])
        # The request is the whole table, answered cold: per-cell times
        # swing with the host's speed from one second to the next and
        # are kept in the results file only.
        wall = done["wall_s"]
        latency_metrics(outcome, [wall], wall, wall)
        outcome.metrics.update(setup_s=statistics.median(setups),
                               peak_rss_mb=done["peak_rss_mb"],
                               cold_p50_ms=wall * 1e3)
        outcome.details.update(setup_samples_s=setups,
                               cell_s=dict(zip(cell_names(done["cells"]),
                                               done["cell_s"])))
        return outcome

    from tracer import load_spans, summarize

    done = grid_process(work, traced=True)
    outcome.details.update(versions=done["versions"],
                           traced_wall_s=done["wall_s"])
    check_grid(outcome, done["cells"])
    layer_metrics(outcome, summarize(load_spans(done["dir"])),
                  done["wall_s"])
    return outcome


# -- serving: shared ------------------------------------------------------------

#: How long a closed loop may run past ``--seconds`` to reach its count.
LOOP_GRACE_S = 60.0


def closed_loop(step: Callable[[int], None], clients: int, seconds: float,
                count: int) -> Tuple[float, float]:
    """Run ``step(client)`` back to back on ``clients`` threads until
    ``seconds`` have passed and ``count`` steps have finished.  Return
    the time to finish the first ``count`` steps and the time until
    every thread stopped."""
    start = time.perf_counter()
    deadline = start + seconds
    give_up = deadline + LOOP_GRACE_S
    finished: List[float] = []
    lock = threading.Lock()
    crashes: List[BaseException] = []

    def loop(index: int) -> None:
        try:
            while True:
                now = time.perf_counter()
                with lock:
                    enough = len(finished) >= count
                if (enough and now >= deadline) or now >= give_up:
                    return
                step(index)
                with lock:
                    finished.append(time.perf_counter())
        except Exception as exc:  # a load-generator bug, not a request
            crashes.append(exc)

    threads = [threading.Thread(target=loop, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise BenchError(f"load client crashed: {crashes[0]!r}")
    if len(finished) < count:
        raise BenchError(f"only {len(finished)} of {count} requests "
                         f"finished within {seconds + LOOP_GRACE_S:.0f} s")
    return sorted(finished)[count - 1] - start, time.perf_counter() - start


def start_server(work: Workdir, spec: Dict[str, Any]) -> Tuple[Child, dict]:
    child = Child(work, "server", spec)
    try:
        ready = child.expect("ready", timeout=120.0)
    except BaseException:
        child.kill()
        raise
    ready["setup_s"] = time.perf_counter() - child.started
    return child, ready


def stop_server(child: Child) -> dict:
    child.send(cmd="stop")
    stopped = child.expect("stopped", timeout=90.0)
    child.wait()
    return stopped


def set_phase(child: Child, phase: int) -> None:
    child.send(cmd="phase", value=phase)
    child.expect("ok", timeout=30.0)


def probe_setups(work: Workdir, spec: Dict[str, Any]) -> List[dict]:
    """The ready events of ``SETUP_REPEATS - 1`` throwaway servers."""
    probes = []
    for _ in range(SETUP_REPEATS - 1):
        child, ready = start_server(work, spec)
        stop_server(child)
        probes.append(ready)
    return probes


def serve_reference(workload: str) -> List[Any]:
    """The recorded answers to a workload's fixed warm-up requests."""
    return json.loads((HERE / "reference_serve.json").read_text())[workload]


def check_warmup(outcome: Outcome, readies: List[dict],
                 reference: List[Any]) -> None:
    """Every warm-up answer of every set-up against the recording (a
    fleet warms each worker in turn, so the requests repeat)."""
    for ready in readies:
        for index, answer in enumerate(ready["warm"]):
            outcome.attempted += 1
            if answer["status"] != 200:
                outcome.fail(f"warm-up {answer['path']}: HTTP "
                             f"{answer['status']} {answer['payload']}")
            elif strip(answer["payload"]) != \
                    reference[index % len(reference)]:
                outcome.fail(f"warm-up {answer['path']} #{index}: answer "
                             f"differs from the recording", wrong=True)


def warm_cold_latencies(readies: List[dict]) -> List[float]:
    return [answer["latency_s"] for ready in readies
            for answer in ready["warm"]
            if answer["payload"].get("cache_status") == "cold"]


def serving_layers(outcome: Outcome, directory: Path,
                   latencies: List[float]) -> None:
    """Per-layer metrics of a traced serving run from the server's
    spans and the client round trips of the same requests."""
    from tracer import load_spans, summarize

    summary = summarize(load_spans(directory))
    layer_metrics(outcome, summary, sum(latencies))
    busy, calls = summary["busy_s"], summary["calls"]
    requests = max(1, len(latencies))
    outcome.layers.update({
        "schema.parse_us": busy.get("schema.parse", 0.0) / requests * 1e6,
        "schema.serialize_us":
            busy.get("schema.serialize", 0.0) / requests * 1e6,
        "serve.engine.hot_us": busy.get("serve.engine.estimate", 0.0)
        / max(1, calls.get("serve.engine.estimate", 0)) * 1e6,
        "serve.http.self_us":
            outcome.layers["unattributed_s"] / requests * 1e6,
    })
    outcome.details["traced_requests"] = len(latencies)


def merge(into: Outcome, other: Outcome) -> None:
    into.attempted += other.attempted
    into.failed += other.failed
    into.wrong += other.wrong
    into.errors.extend(other.errors[:20 - len(into.errors)])


class KindCycle:
    """Request kinds in blocks holding exact counts, each block shuffled:
    every run sends the same mix, in a seed-dependent order."""

    def __init__(self, mix: Tuple[Tuple[str, int], ...], rng: random.Random):
        self.mix = mix
        self.rng = rng
        self.pending: List[str] = []

    def next(self) -> str:
        if not self.pending:
            self.pending = [kind for kind, count in self.mix
                            for _ in range(count)]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


# -- serve-warm -----------------------------------------------------------------

def warm_requests() -> List[List[Any]]:
    """The serve-warm working set, in warm-up order: every estimate
    (the first frequency of each circuit and library maps and
    simulates, the other three only price), then the batches and the
    optimize grids, which come back hot."""
    base = fast_config()
    estimates, batches, optimizes = [], [], []
    for circuit in SERVE_CIRCUITS:
        for library in PAPER_LIBRARIES:
            queries = [{"schema_version": 2, "circuit": circuit,
                        "library": library,
                        "config": dict(base, frequency=frequency)}
                       for frequency in WARM_FREQUENCIES]
            estimates.extend(["/v1/estimate", query] for query in queries)
            batches.append(["/v1/estimate_batch",
                            {"schema_version": 2, "queries": queries}])
        optimizes.append(["/v1/optimize", {
            "schema_version": 2, "circuit": circuit,
            "libraries": list(PAPER_LIBRARIES), "vdds": [base["vdd"]],
            "frequencies": list(WARM_FREQUENCIES), "config": base}])
    return estimates + batches + optimizes


#: serve-warm request mix per block of 5, after the only traffic
#: profile in the repository, ``benchmarks/bench_load.py``
#: (``_LoadClient.PROFILE``: 3 warm, 1 batch, 1 cold).  serve-warm
#: sends nothing cold, so the cold slot carries the hot
#: ``/v1/optimize`` the workload must cover: an assumption, not
#: measured traffic.
WARM_MIX = (("/v1/estimate", 3), ("/v1/estimate_batch", 1),
            ("/v1/optimize", 1))

#: serve-warm ``wall_s``: the time to answer this many requests.
WARM_COUNT = 400


class WarmClients:
    """Two keep-alive clients replaying the working set."""

    def __init__(self, url: str, pool: List[List[Any]],
                 references: List[Any], seed: int):
        self.url = url
        self.pool = pool
        self.references = references
        self.by_path: Dict[str, List[int]] = {}
        for index, (path, _) in enumerate(pool):
            self.by_path.setdefault(path, []).append(index)
        self.rngs = [random.Random(f"serve-warm:{seed}:{client}")
                     for client in range(2)]
        self.kinds = [KindCycle(WARM_MIX, rng) for rng in self.rngs]
        self.conns: List[Any] = [None, None]
        self.latencies: List[List[float]] = [[], []]
        self.outcome = Outcome()
        self._lock = threading.Lock()

    def _connection(self, client: int):
        if self.conns[client] is None:
            parts = urlsplit(self.url)
            self.conns[client] = http.client.HTTPConnection(
                parts.hostname, parts.port, timeout=30.0)
        return self.conns[client]

    def step(self, client: int) -> None:
        path = self.kinds[client].next()
        index = self.rngs[client].choice(self.by_path[path])
        body = self.pool[index][1]
        start = time.perf_counter()
        try:
            status, payload = post_json(self.url, path, body,
                                        conn=self._connection(client))
        except (OSError, ValueError, http.client.HTTPException) as exc:
            conn, self.conns[client] = self.conns[client], None
            conn.close()
            with self._lock:
                self.outcome.attempted += 1
                self.outcome.fail(f"{path}: {exc!r}")
            return
        elapsed = time.perf_counter() - start
        with self._lock:
            self.outcome.attempted += 1
            if status != 200:
                self.outcome.fail(f"{path}: HTTP {status} {payload}")
                return
            if "cold" in statuses(payload):
                self.outcome.fail(f"{path}: answered cold", wrong=True)
            elif strip(payload) != self.references[index]:
                self.outcome.fail(f"{path}: answer differs from the "
                                  f"recording", wrong=True)
            self.latencies[client].append(elapsed)

    def close(self) -> None:
        for conn in self.conns:
            if conn is not None:
                conn.close()


def run_serve_warm(args, work: Workdir) -> Outcome:
    from tracer import MEASURE, OFF

    pool = warm_requests()
    reference = serve_reference("serve-warm")
    spec = {"config": fast_config(), "workers": 0, "warm": pool,
            "traced": bool(args.trace)}
    outcome = Outcome()
    readies = [] if args.trace else probe_setups(work, spec)
    child, ready = start_server(work, spec)
    try:
        readies.append(ready)
        outcome.details["versions"] = ready["versions"]
        check_warmup(outcome, readies, reference)
        if args.trace:
            set_phase(child, MEASURE)
        clients = WarmClients(ready["url"], pool, reference, args.seed)
        count_s, loop_s = closed_loop(clients.step, 2, args.seconds,
                                      WARM_COUNT)
        clients.close()
        if args.trace:
            set_phase(child, OFF)
        stopped = stop_server(child)
    except BaseException:
        child.kill()
        raise
    merge(outcome, clients.outcome)
    latencies = clients.latencies[0] + clients.latencies[1]
    if args.trace:
        serving_layers(outcome, child.dir, latencies)
        return outcome
    setups = [probe["setup_s"] for probe in readies]
    cold = warm_cold_latencies(readies)
    latency_metrics(outcome, latencies, count_s, loop_s)
    outcome.metrics.update(setup_s=statistics.median(setups),
                           peak_rss_mb=stopped["peak_rss_mb"],
                           cold_p50_ms=percentile(cold, 0.5) * 1e3)
    outcome.details.update(setup_samples_s=setups,
                           warm_cold_ms=[value * 1e3 for value in cold])
    return outcome


# -- serve-mixed ----------------------------------------------------------------

#: serve-mixed request mix per block of 10: two rounds of
#: ``benchmarks/bench_load.py``'s ``_LoadClient.PROFILE`` (3 warm,
#: 1 batch, 1 cold).  Warm becomes a hot read and cold a fresh-seed
#: query; the two batch slots (pricing grids on a simulated netlist)
#: become one pricing-only requery and one ``/v1/optimize`` grid, the
#: two pricing kinds the workload must cover.  That split is an
#: assumption, not measured traffic.  Each block is shuffled from the
#: seed.
MIXED_MIX = (("hot", 6), ("requery", 1), ("optimize", 1), ("cold", 2))

#: serve-mixed ``wall_s``: the time to answer this many requests.
MIXED_COUNT = 800


def mixed_warm_requests() -> List[List[Any]]:
    base = fast_config()
    return [["/v1/estimate", {"schema_version": 2, "circuit": circuit,
                              "library": library,
                              "config": dict(base, seed=seed)}]
            for seed in MIXED_SEEDS for circuit in SERVE_CIRCUITS
            for library in PAPER_LIBRARIES]


class MixedClients:
    """Two closed-loop ``repro.serve.Client`` threads.

    Both clients draw request kinds from one shared stream, so their
    k-th cold queries ask the same fresh key at about the same time:
    the fleet's cross-process single-flight must simulate it once.
    """

    def __init__(self, url: str, seed: int):
        from repro.experiments.config import ExperimentConfig
        from repro.serve import Client

        self.base = ExperimentConfig.from_dict(fast_config())
        self.clients = [Client(url, timeout=60.0) for _ in range(2)]
        # Both clients draw the same kind sequence.
        self.kinds = [KindCycle(MIXED_MIX, random.Random(
            f"serve-mixed:{seed}:kinds")) for _ in range(2)]
        self.rngs = [random.Random(f"serve-mixed:{seed}:{client}")
                     for client in range(2)]
        self.cold_count = [0, 0]
        # Fresh pattern seeds for cold queries: new keys on every run.
        self.cold_base = 100_000 + (seed % 10_000) * 1_000
        self.latencies: List[List[Tuple[str, float, str]]] = [[], []]
        self.answers: List[Tuple[Any, Any]] = []
        self.cold_keys: set = set()
        self.outcome = Outcome()
        self._lock = threading.Lock()

    def _request(self, client: int, kind: str):
        from dataclasses import replace

        from repro.schema import OptimizeQuery, PowerQuery

        rng = self.rngs[client]
        circuit = rng.choice(SERVE_CIRCUITS)
        library = rng.choice(PAPER_LIBRARIES)
        if kind == "hot":
            config = replace(self.base, seed=rng.choice(MIXED_SEEDS))
            return PowerQuery(circuit, library, config)
        if kind == "requery":
            config = replace(self.base, seed=rng.choice(MIXED_SEEDS),
                             frequency=rng.randrange(200, 4000) * 1e6,
                             fanout=rng.choice((2, 3, 4, 5)))
            return PowerQuery(circuit, library, config)
        if kind == "cold":
            # The same cycle of circuits and libraries on every run.
            step = self.cold_count[client]
            self.cold_count[client] += 1
            config = replace(self.base, seed=self.cold_base + step)
            return PowerQuery(SERVE_CIRCUITS[step % 3],
                              PAPER_LIBRARIES[step // 3 % 3], config)
        frequencies = tuple(sorted({rng.randrange(200, 4000) * 1e6
                                    for _ in range(4)}))
        return OptimizeQuery(circuit=circuit, libraries=PAPER_LIBRARIES,
                             vdds=(self.base.vdd,), frequencies=frequencies,
                             config=replace(self.base,
                                            seed=MIXED_SEEDS[0]))

    def step(self, client: int) -> None:
        from repro.errors import ReproError
        from repro.schema import PowerQuery

        kind = self.kinds[client].next()
        request = self._request(client, kind)
        api = self.clients[client]
        start = time.perf_counter()
        try:
            if isinstance(request, PowerQuery):
                answer = api.query(request)
            else:
                answer = api.optimize(request)
        except (ReproError, OSError) as exc:
            with self._lock:
                self.outcome.attempted += 1
                self.outcome.fail(f"{kind}: {exc!r}")
            return
        elapsed = time.perf_counter() - start
        status = getattr(answer, "cache_status", "")
        with self._lock:
            self.outcome.attempted += 1
            self.latencies[client].append((kind, elapsed, status))
            self.answers.append((request, answer))
            if kind == "cold":
                self.cold_keys.add(request.query_key)


def check_mixed(outcome: Outcome, answers: List[Tuple[Any, Any]],
                reference: List[Any]) -> None:
    """Hot reads against the recording; every other answer against an
    in-process engine on its own cache."""
    from repro.api import Session
    from repro.experiments.config import ExperimentConfig
    from repro.schema import PowerQuery
    from repro.serve.engine import Engine

    expected: Dict[str, Any] = {
        PowerQuery.from_dict(body).query_key: recorded
        for (_, body), recorded in zip(mixed_warm_requests(), reference)}
    engine = Engine(Session(ExperimentConfig.from_dict(fast_config())))
    for request, answer in answers:
        if isinstance(request, PowerQuery):
            key = request.query_key
            if key not in expected:
                expected[key] = strip(engine.estimate(request).to_dict())
        else:
            key = json.dumps(request.to_dict(), sort_keys=True)
            if key not in expected:
                expected[key] = strip(engine.optimize(request).to_dict())
        if strip(answer.to_dict()) != expected[key]:
            outcome.fail(f"{type(request).__name__} {key[:16]}: answer "
                         f"differs from the reference", wrong=True)


def fleet_counters(control_url: Optional[str]) -> Dict[str, Any]:
    """Fleet-wide simulations and restarts, read tolerantly from the
    control ``/v1/healthz`` (a missing field is reported as absent)."""
    if not control_url:
        return {}
    try:
        health = get_json(control_url, "/v1/healthz")
    except (OSError, ValueError):
        return {}
    out: Dict[str, Any] = {}
    cold = health.get("aggregate", {}).get("counters", {}).get("stats.cold")
    if isinstance(cold, (int, float)):
        out["simulations"] = cold
    if isinstance(health.get("restarts_total"), (int, float)):
        out["restarts"] = health["restarts_total"]
    disk = health.get("aggregate", {}).get("caches", {}).get("disk", {})
    out["single_flight"] = {key: value for key, value in disk.items()
                            if key.startswith("flight_")}
    return out


def kind_summary(rows: List[Tuple[str, float, str]]) -> Dict[str, Any]:
    """Count and latency quartiles (ms) per request kind and status."""
    groups: Dict[str, List[float]] = {}
    for kind, elapsed, status in rows:
        groups.setdefault(f"{kind}/{status}", []).append(elapsed * 1e3)
    return {name: {"n": len(values),
                   "p25_ms": percentile(values, 0.25),
                   "p50_ms": percentile(values, 0.5),
                   "p75_ms": percentile(values, 0.75)}
            for name, values in sorted(groups.items())}


def run_serve_mixed(args, work: Workdir) -> Outcome:
    from tracer import MEASURE, OFF

    reference = serve_reference("serve-mixed")
    spec = {"config": fast_config(), "workers": 2,
            "warm": mixed_warm_requests(), "traced": bool(args.trace)}
    outcome = Outcome()
    readies = [] if args.trace else probe_setups(work, spec)
    child, ready = start_server(work, spec)
    try:
        readies.append(ready)
        outcome.details["versions"] = ready["versions"]
        check_warmup(outcome, readies, reference)
        if args.trace:
            set_phase(child, MEASURE)
        before = fleet_counters(ready["control_url"])
        clients = MixedClients(ready["url"], args.seed)
        count_s, loop_s = closed_loop(clients.step, 2, args.seconds,
                                      MIXED_COUNT)
        health = fleet_counters(ready["control_url"])
        if args.trace:
            set_phase(child, OFF)
        stopped = stop_server(child)
    except BaseException:
        child.kill()
        raise
    merge(outcome, clients.outcome)
    check_mixed(outcome, clients.answers, reference)
    rows = clients.latencies[0] + clients.latencies[1]
    latencies = [elapsed for _, elapsed, _ in rows]
    cold_keys = len(clients.cold_keys)
    simulations = None
    if "simulations" in before and "simulations" in health:
        simulations = health["simulations"] - before["simulations"]
    outcome.details.update(cold_keys=cold_keys, simulations=simulations,
                           single_flight=health.get("single_flight"),
                           kinds=kind_summary(rows))
    if args.trace:
        serving_layers(outcome, child.dir, latencies)
        outcome.layers.update({
            "serve.client.roundtrip_us": percentile(
                [elapsed for kind, elapsed, _ in rows if kind == "hot"],
                0.5) * 1e6,
            "serve.fleet.ready_s": ready["ready_s"],
            # -1 marks a counter the server no longer reports.
            "serve.fleet.restarts": health.get("restarts", -1),
            "serve.fleet.simulations_per_cold_key":
                simulations / cold_keys
                if simulations is not None and cold_keys else -1,
        })
        return outcome
    setups = [probe["setup_s"] for probe in readies]
    latency_metrics(outcome, latencies, count_s, loop_s)
    outcome.metrics.update(
        setup_s=statistics.median(setups),
        peak_rss_mb=stopped["peak_rss_mb"],
        cold_p50_ms=percentile([elapsed for _, elapsed, status in rows
                                if status == "cold"], 0.5) * 1e3)
    outcome.details["setup_samples_s"] = setups
    return outcome


# -- main -----------------------------------------------------------------------

WORKLOADS = {"paper-grid": run_paper_grid, "serve-warm": run_serve_warm,
             "serve-mixed": run_serve_mixed}


def record_reference(work: Workdir) -> int:
    """Rewrite ``reference_grid.json`` and ``reference_serve.json`` from
    the current source tree."""
    digest = source_digest()
    done = grid_process(work)
    (HERE / "reference_grid.json").write_text(json.dumps(
        {"config": "PAPER_CONFIG", "source_sha256": digest,
         "cells": done["cells"]}, indent=1) + "\n")
    warm, mixed = warm_requests(), mixed_warm_requests()
    child, ready = start_server(work, {"config": fast_config(),
                                       "workers": 0, "warm": warm + mixed})
    stop_server(child)
    for answer in ready["warm"]:
        if answer["status"] != 200:
            raise BenchError(f"recording failed: {answer}")
    payloads = [strip(answer["payload"]) for answer in ready["warm"]]
    (HERE / "reference_serve.json").write_text(json.dumps(
        {"config": "FAST_CONFIG", "source_sha256": digest,
         "serve-warm": payloads[:len(warm)],
         "serve-mixed": payloads[len(warm):]}, indent=1) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference files and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_CACHE_DISABLE"):
        os.environ.pop(name, None)

    scratch = ROOT / ".perfbench-work"
    work = Workdir(scratch / f"run-{os.getpid()}")
    work.path.mkdir(parents=True)
    # The in-process reference engine of serve-mixed gets its own cache.
    os.environ["REPRO_CACHE_DIR"] = str(work.path / "reference-cache")
    started = datetime.datetime.now(datetime.timezone.utc)
    try:
        if args.record_reference:
            return record_reference(work)
        outcome = WORKLOADS[args.workload](args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work.path, ignore_errors=True)
    finished = datetime.datetime.now(datetime.timezone.utc)

    attempted = max(1, outcome.attempted)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        **outcome.details.pop("versions", {}),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "started": started.isoformat(), "finished": finished.isoformat(),
    }
    names = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    report = {"meta": meta, "metrics": metrics,
              "failed_ratio": outcome.failed / attempted,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "wrong": outcome.wrong, "errors": outcome.errors,
              "details": outcome.details}
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, default=str) + "\n")

    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}",
              file=sys.stderr)
    print(f"  {'failed_ratio':40s} {outcome.failed / attempted:14.6g} "
          f"ratio ({outcome.failed}/{outcome.attempted}, "
          f"{outcome.wrong} wrong)", file=sys.stderr)
    for error in outcome.errors:
        print(f"  error: {error}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
