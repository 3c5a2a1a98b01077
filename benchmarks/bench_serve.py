"""Serving-path benchmark: cold vs warm query latency and throughput.

Measures what the long-lived engine (:mod:`repro.serve`) buys over the
batch path:

* **cold** — first query on a fresh engine (pays characterization,
  synthesis, mapping and estimation);
* **remap-free** — same circuit/library at a different frequency (the
  netlist/library caches hold, only estimation reruns);
* **warm** — the identical query again (result-cache hit);
* **throughput** — sequential warm queries/s, in process and over HTTP
  (loopback);
* **overload** — shed rate and p50/p99 latency of admitted requests at
  2x the admission limit (``max_inflight``), with an injected 10 ms
  per-request hold so the offered load genuinely exceeds capacity.

Results merge into ``BENCH_perf.json`` under the ``"serve"`` key (the
rest of the file is whatever ``bench_runtime.py`` last wrote), so the
performance trajectory of the serving path is tracked from PR to PR.
The warm/cold ratio is asserted ``>= 10`` — a warm engine that ever
re-pays synthesis is a regression, not noise.

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

# Cold-path honesty: the persistent characterization cache must not
# leak warm timings into the tracked report.
os.environ["REPRO_CACHE_DISABLE"] = "1"

#: Minimum cold/warm latency ratio the acceptance criteria require.
MIN_WARM_SPEEDUP = 10.0


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_engine(config, circuit: str, library: str) -> dict:
    from repro.api import Session
    from repro.serve import Engine

    engine = Engine(Session(config))

    start = time.perf_counter()
    cold = engine.estimate_request(circuit, library)
    cold_s = time.perf_counter() - start
    assert cold.cache_status == "cold"

    remap_free_s = _best_of(
        lambda: engine.estimate_request(
            circuit, library, replace(config, frequency=2.0e9)),
        repeats=1)

    warm_s = _best_of(
        lambda: engine.estimate_request(circuit, library), repeats=5)
    assert engine.estimate_request(circuit, library).cache_status == "hot"

    n = 2000
    start = time.perf_counter()
    for _ in range(n):
        engine.estimate_request(circuit, library)
    elapsed = time.perf_counter() - start

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm query only {speedup:.1f}x faster than cold "
        f"({warm_s:.6f}s vs {cold_s:.3f}s); the engine is re-paying "
        f"work it should have cached")
    return {
        "circuit": circuit,
        "library": library,
        "cold_first_query_s": cold_s,
        "remap_free_requery_s": remap_free_s,
        "warm_query_s": warm_s,
        "warm_speedup_vs_cold": speedup,
        "warm_queries_per_s": n / elapsed,
        "counters": dict(engine.counters),
    }


def bench_http(config, circuit: str, library: str) -> dict:
    """Serving overhead over loopback HTTP.

    Runs after :func:`bench_engine` in the same process, so the
    process-global caches (synthesized subjects, characterized
    libraries, mapper match tables) are already warm; only the fresh
    engine's own LRUs are cold.  The first-query number is therefore
    labeled ``result_cold`` — it measures mapping + estimation + HTTP,
    *not* a true cold start (that is ``engine.cold_first_query_s``).
    """
    from repro.api import Session
    from repro.serve import Client, Engine, serve

    server = serve(Engine(Session(config)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = Client(server.url)
        start = time.perf_counter()
        first = client.estimate(circuit, library)
        result_cold_s = time.perf_counter() - start
        assert first.cache_status == "cold"

        warm_s = _best_of(
            lambda: client.estimate(circuit, library), repeats=5)

        n = 500
        start = time.perf_counter()
        for _ in range(n):
            client.estimate(circuit, library)
        elapsed = time.perf_counter() - start
        return {
            "result_cold_first_query_s": result_cold_s,
            "warm_roundtrip_s": warm_s,
            "warm_queries_per_s": n / elapsed,
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def bench_overload(config, circuit: str, library: str,
                   quick: bool) -> dict:
    """Admission control under 2x offered load.

    Twice ``max_inflight`` client threads slam the server with
    cache-busting queries (a fresh frequency per request) while an
    ``engine.latency`` fault holds every admitted request on its slot
    for a deterministic 10 ms.  Tracked numbers: the shed rate (429s /
    offered) and the p50/p99 latency of the *admitted* requests —
    load shedding is only worth its 429s if the requests it protects
    stay fast.
    """
    from repro import faults
    from repro.api import Session
    from repro.errors import ServerError
    from repro.serve import Client, Engine, serve

    max_inflight = 4
    workers = 2 * max_inflight
    per_worker = 5 if quick else 25

    engine = Engine(Session(config))
    # Pay synthesis/characterization once so the measurement isolates
    # the admission + pricing path.
    engine.estimate_request(circuit, library)
    faults.activate("engine.latency:times=inf,ms=10")
    server = serve(engine, max_inflight=max_inflight)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    lock = threading.Lock()
    latencies: list = []
    counts = {"ok": 0, "shed": 0}

    def slam(worker_index: int) -> None:
        client = Client(server.url, retry=None)
        for i in range(per_worker):
            # A frequency nobody else asks for: every admitted request
            # re-prices (holding its slot) instead of hitting the LRU.
            frequency = 1.0e9 + 1.0e6 * (worker_index * per_worker + i + 1)
            point = replace(config, frequency=frequency)
            start = time.perf_counter()
            try:
                client.estimate(circuit, library, config=point)
            except ServerError as error:
                if error.status != 429:
                    raise
                with lock:
                    counts["shed"] += 1
                continue
            elapsed = time.perf_counter() - start
            with lock:
                counts["ok"] += 1
                latencies.append(elapsed)

    try:
        threads = [threading.Thread(target=slam, args=(index,))
                   for index in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        faults.deactivate()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    offered = counts["ok"] + counts["shed"]
    assert counts["ok"] > 0, "overload shed every single request"
    assert counts["shed"] > 0, (
        f"no request shed at {workers} threads vs max_inflight="
        f"{max_inflight}; admission control never engaged")
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "max_inflight": max_inflight,
        "offered_threads": workers,
        "offered_requests": offered,
        "ok": counts["ok"],
        "shed": counts["shed"],
        "shed_rate": counts["shed"] / offered,
        "p50_latency_s": latencies[len(latencies) // 2],
        "p99_latency_s": p99,
        "held_ms_per_request": 10.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny budget for CI smoke runs")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="JSON report to merge the 'serve' key into")
    args = parser.parse_args(argv)

    from repro import __version__
    from repro.experiments.config import ExperimentConfig

    if args.quick:
        config = ExperimentConfig(n_patterns=2_048, state_patterns=2_048)
        circuit = "t481"
    else:
        config = ExperimentConfig(n_patterns=16_384,
                                  state_patterns=16_384)
        circuit = "C1908"

    section = {
        "version": __version__,
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "n_patterns": config.n_patterns,
        "engine": bench_engine(config, circuit, "cntfet-generalized"),
        "http": bench_http(config, circuit, "cntfet-generalized"),
        "overload": bench_overload(config, circuit, "cntfet-generalized",
                                   quick=args.quick),
    }

    output = Path(args.output)
    try:
        report = json.loads(output.read_text())
    except (OSError, ValueError):
        report = {}
    report["serve"] = section
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"serve": section}, indent=2))
    print(f"\nmerged 'serve' into {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
