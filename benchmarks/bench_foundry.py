"""Library foundry benchmark: bulk build wall-time and cold-start speed.

Measures what a store built by the foundry buys:

* **build** — cold bulk characterization of every registered library
  across the vdd points, serial vs ``--jobs 0`` (each into its own
  fresh store, so both runs pay the full SPICE cost).  On a single-CPU
  host the pool degenerates to one worker; ``jobs_effective`` and
  ``degenerate_parallel`` record that honestly instead of faking a
  speedup;
* **per-library** — a from-scratch ``_LeakageTables`` build vs a cold
  start from the store (a fresh ``build_library`` plus its tables read
  from the ``leakage`` ladder entry, best of three).  The tracked
  guarantee: the aggregate cold start is **>= 20x** faster than
  aggregate live characterization and solves nothing in SPICE — a
  server starting on a built store must be effectively free.

Results merge into ``BENCH_perf.json`` under the ``"foundry"`` key.

    PYTHONPATH=src python benchmarks/bench_foundry.py            # full
    PYTHONPATH=src python benchmarks/bench_foundry.py --quick    # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

# Cold-path honesty: the user's persistent characterization cache must
# not leak warm timings into the tracked report.  Every store this
# benchmark reads or writes is an explicit fresh temp directory.
os.environ["REPRO_CACHE_DISABLE"] = "1"


def _fresh_store(base: str, name: str):
    from repro.cache import DiskCache

    return DiskCache(root=Path(base) / name, enabled=True)


def bench_build(base: str, libraries, vdds, jobs: int) -> dict:
    from repro import foundry

    serial_store = _fresh_store(base, "serial")
    start = time.perf_counter()
    serial = foundry.characterize(libraries, vdds, jobs=1,
                                  cache=serial_store)
    serial_s = time.perf_counter() - start
    assert serial.counts()["failed"] == 0, serial.render()

    parallel_store = _fresh_store(base, "parallel")
    start = time.perf_counter()
    parallel = foundry.characterize(libraries, vdds, jobs=jobs,
                                    cache=parallel_store)
    parallel_s = time.perf_counter() - start
    assert parallel.counts()["failed"] == 0, parallel.render()

    degenerate = parallel.jobs_effective <= 1
    return {
        "tasks": len(serial.outcomes),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "jobs_requested": jobs,
        "jobs_effective": parallel.jobs_effective,
        # A 1-CPU host clamps the pool to one worker: the "parallel"
        # run is then a serial run plus pool overhead, and a speedup
        # claim would be noise, not measurement.
        "degenerate_parallel": degenerate,
        "speedup_vs_serial": (None if degenerate or parallel_s <= 0
                              else serial_s / parallel_s),
    }


def bench_cold_start(base: str, libraries, vdd) -> dict:
    from repro import obs, registry
    from repro.sim.estimator import _LEAKAGE_LADDER, _LeakageTables

    store = _fresh_store(base, "serial")  # built by bench_build
    per_library = {}
    total_live = 0.0
    total_load = 0.0
    for key in libraries:
        start = time.perf_counter()
        live = _LeakageTables(registry.build_library(key, vdd))
        live_s = time.perf_counter() - start

        before = obs.snapshot()
        load_s = min(_timed_cold_start(key, vdd, store) for _ in range(3))
        assert obs.diff(before)["spice.solves"] == 0, \
            f"{key}: a cold start from the store solved in SPICE"
        stored = _LeakageTables.for_library(
            registry.build_library(key, vdd), store)
        assert _LEAKAGE_LADDER.encode(stored) == _LEAKAGE_LADDER.encode(
            live), f"{key}: live rebuild diverged from the stored entry"
        total_live += live_s
        total_load += load_s
        per_library[key] = {
            "live_characterize_s": live_s,
            "cold_start_s": load_s,
            "speedup": live_s / load_s if load_s > 0 else float("inf"),
        }
    aggregate = total_live / total_load if total_load > 0 else float("inf")
    assert aggregate >= 20.0, (
        f"a cold start from the store is only {aggregate:.1f}x faster "
        f"than live characterization (need >= 20x)")
    return {
        "vdd": vdd,
        "per_library": per_library,
        "aggregate_live_s": total_live,
        "aggregate_cold_start_s": total_load,
        "aggregate_speedup": aggregate,
    }


def _timed_cold_start(key: str, vdd, store) -> float:
    from repro import registry
    from repro.sim.estimator import _LeakageTables

    start = time.perf_counter()
    _LeakageTables.for_library(registry.build_library(key, vdd), store)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one vdd point for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes for the parallel build "
                             "(0 = all CPUs)")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="JSON report to merge the 'foundry' key "
                             "into")
    args = parser.parse_args(argv)

    from repro import __version__, registry

    libraries = registry.available_libraries()
    vdds = (0.9,) if args.quick else (0.8, 0.9)

    with tempfile.TemporaryDirectory(prefix="bench-foundry-") as base:
        section = {
            "version": __version__,
            "quick": args.quick,
            "libraries": libraries,
            "vdd_points": list(vdds),
            "build": bench_build(base, libraries, vdds, args.jobs),
            "cold_start": bench_cold_start(base, libraries, vdds[-1]),
        }

    output = Path(args.output)
    try:
        report = json.loads(output.read_text())
    except (OSError, ValueError):
        report = {}
    report["foundry"] = section
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"foundry": section}, indent=2))
    print(f"\nmerged 'foundry' into {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
