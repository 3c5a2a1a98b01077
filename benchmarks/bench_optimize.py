"""Design-space optimizer benchmark: frontier throughput and cache
economy.

Measures what :mod:`repro.optimize` costs and what its caching buys:

* **cold** — first optimization on a fresh engine (pays
  characterization, mapping, timing and one simulation per (library,
  vdd) group, then vectorized repricing across the frequency axis);
* **warm** — the identical optimization again (every point served from
  the engine's result cache; asserted to re-simulate *nothing*);
* **timing** — memoized static-timing throughput (reports/s from the
  netlist's own memo) and the one-shot cost of a cold analysis;
* **points/s** — frontier candidates evaluated per second, cold and
  warm (the tracked scaling number: candidates = the full grid,
  including the timing-pruned points, which are the cheap ones).

Results merge into ``BENCH_perf.json`` under the ``"optimize"`` key
(the rest of the file is whatever the other bench scripts last wrote).
The warm rerun is asserted to move the activity cache's simulation
counter by exactly zero — an optimizer that re-simulates a grid it
just priced is a regression, not noise.

    PYTHONPATH=src python benchmarks/bench_optimize.py            # full
    PYTHONPATH=src python benchmarks/bench_optimize.py --quick    # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Cold-path honesty: the persistent characterization cache must not
# leak warm timings into the tracked report.
os.environ["REPRO_CACHE_DISABLE"] = "1"


def bench_optimize(config, query) -> dict:
    from repro import obs
    from repro.api import Session
    from repro.serve import Engine
    from repro.sim import activity

    engine = Engine(Session(config))
    activity.LADDER.lru.clear()

    before = obs.snapshot()
    start = time.perf_counter()
    cold = engine.optimize(query)
    cold_s = time.perf_counter() - start
    cold_sims = obs.diff(before)["activity.computes"]

    start = time.perf_counter()
    warm = engine.optimize(query)
    warm_s = time.perf_counter() - start
    warm_sims = obs.diff(before)["activity.computes"] - cold_sims
    assert warm_sims == 0, (
        f"warm re-optimize ran {warm_sims} simulations; every point "
        f"should have been served from the result cache")
    assert all(p.cache_status == "hot" for p in warm.frontier)
    assert [
        (p.library, p.backend, p.vdd, p.frequency) for p in warm.frontier
    ] == [
        (p.library, p.backend, p.vdd, p.frequency) for p in cold.frontier
    ], "warm frontier must be identical and identically ordered"

    n = cold.n_candidates
    return {
        "circuit": query.circuit,
        "n_candidates": n,
        "n_infeasible": cold.n_infeasible,
        "n_dominated": cold.n_dominated,
        "frontier_size": len(cold.frontier),
        "cold_s": cold_s,
        "cold_points_per_s": n / cold_s,
        "cold_simulations": cold_sims,
        "warm_s": warm_s,
        "warm_points_per_s": n / warm_s,
        "warm_speedup_vs_cold": cold_s / warm_s if warm_s > 0 else
        float("inf"),
        "counters": {key: value for key, value in engine.counters.items()
                     if key.startswith("optimize.")},
    }


def bench_timing(config, circuit: str, library_key: str) -> dict:
    from repro import timing
    from repro.experiments.flow import map_subject, synthesized_benchmark
    from repro.registry import cached_library

    library = cached_library(library_key, config.vdd)
    netlist = map_subject(
        synthesized_benchmark(circuit, config.synthesize),
        library, config)

    start = time.perf_counter()
    report = timing.analyze_timing(netlist)
    analyze_s = time.perf_counter() - start

    timing.timing_report(netlist)  # populate the instance memo
    n = 5000
    start = time.perf_counter()
    for _ in range(n):
        timing.timing_report(netlist)
    elapsed = time.perf_counter() - start
    return {
        "circuit": circuit,
        "gate_count": report.gate_count,
        "critical_delay_ns": report.critical_delay_s / 1e-9,
        "fmax_ghz": report.fmax_hz / 1e9,
        "cold_analyze_s": analyze_s,
        "cached_reports_per_s": n / elapsed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny budget for CI smoke runs")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="JSON report to merge the 'optimize' key "
                             "into")
    args = parser.parse_args(argv)

    from repro import __version__
    from repro.experiments.config import ExperimentConfig
    from repro.schema import OptimizeQuery

    if args.quick:
        config = ExperimentConfig(n_patterns=2_048, state_patterns=2_048)
        circuit = "t481"
        vdds = (0.8, 0.9)
        frequencies = (0.5e9, 1e9, 2e9, 4e9, 50e9)
    else:
        config = ExperimentConfig(n_patterns=16_384,
                                  state_patterns=16_384)
        circuit = "C1908"
        vdds = (0.7, 0.8, 0.9)
        frequencies = (0.25e9, 0.5e9, 1e9, 2e9, 4e9, 8e9, 50e9)

    query = OptimizeQuery(
        circuit=circuit,
        libraries=("cntfet-generalized", "conventional"),
        vdds=vdds, frequencies=frequencies, config=config)

    section = {
        "version": __version__,
        "quick": args.quick,
        "n_patterns": config.n_patterns,
        "optimize": bench_optimize(config, query),
        "timing": bench_timing(config, circuit, "cntfet-generalized"),
    }

    output = Path(args.output)
    try:
        report = json.loads(output.read_text())
    except (OSError, ValueError):
        report = {}
    report["optimize"] = section
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"optimize": section}, indent=2))
    print(f"\nmerged 'optimize' into {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
