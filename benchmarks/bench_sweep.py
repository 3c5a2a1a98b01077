"""Grouped-sweep benchmark: one simulation, thousands of operating points.

Measures what the activity/pricing split buys on operating-point
exploration — the vdd/frequency trade-off space of the source paper:

* **per-point** — the historical runner's cost model: every point pays
  a full bit-parallel simulation before pricing (emulated by clearing
  the activity cache between points);
* **grouped** — the current runner: one simulation per activity group,
  every other point of the group repriced through the vectorized
  pricing layer;
* **reprice throughput** — ``estimate_many`` over a dense grid with
  warm statistics (the serving path's marginal cost per operating
  point).

Synthesis, mapping and characterization are warmed up-front and
excluded from both sides: the per-point runner cached those too, so
the comparison isolates exactly what this refactor changed.  Results
merge into ``BENCH_perf.json`` under the ``"sweep"`` key.  The grouped
run is asserted to execute exactly one simulation per structurally
distinct activity group — the acceptance invariant CI also checks.

    PYTHONPATH=src python benchmarks/bench_sweep.py            # full
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Honest cold measurements: the persistent cache must not leak earlier
# runs' simulations (or characterizations) into the tracked numbers.
os.environ["REPRO_CACHE_DISABLE"] = "1"

#: Frequency points of the headline sweep (the ISSUE's freq-sweep-of-20).
N_FREQUENCIES = 20

#: The grouped runner must beat the per-point emulation by at least
#: this factor on the full grid (acceptance: <= 1/10 the wall-clock).
MIN_GROUPED_SPEEDUP = 10.0


def _frequencies(count: int):
    return tuple(0.5e9 + 0.25e9 * i for i in range(count))


def _spec(circuits, libraries, n_patterns, count):
    from repro.sweep.spec import DEFAULT_LIBRARIES, SweepSpec

    return SweepSpec(circuits=circuits,
                     libraries=libraries or DEFAULT_LIBRARIES,
                     frequency=_frequencies(count),
                     n_patterns=(n_patterns,), state_patterns=n_patterns)


def _warm_everything(spec) -> None:
    """Synthesize, characterize, map and prime netlists off the clock."""
    from repro.sweep.runner import _task_netlist

    for task in spec.expand():
        _task_netlist(task)


def _run_per_point(spec) -> dict:
    """Every point pays its own simulation (the historical cost)."""
    from repro import obs
    from repro.sim import activity
    from repro.sweep.runner import run_sweep_task

    tasks = spec.expand()
    before = obs.snapshot()
    start = time.perf_counter()
    for task in tasks:
        activity.LADDER.lru.clear()  # the pre-split runner had no stats cache
        run_sweep_task(task)
    return {"wall_s": time.perf_counter() - start,
            "points": len(tasks),
            "simulations": obs.diff(before)["activity.computes"]}


def _run_grouped(spec) -> dict:
    """The grouped runner on a cold activity cache and a fresh store."""
    from repro.api import Session
    from repro.sim import activity

    activity.LADDER.lru.clear()
    start = time.perf_counter()
    # Serial on purpose: the measurement isolates grouping, and the
    # one-simulation-per-structure assertion relies on the activity
    # LRU being shared, which only one process guarantees (worker
    # processes have their own, and the disk cache is disabled here).
    report = Session(jobs=1).sweep(spec)
    wall = time.perf_counter() - start
    assert report.executed == spec.size(), report.render()
    return {"wall_s": wall, "points": report.executed,
            "groups": report.groups, "simulations": report.simulations}


def _distinct_structures(spec) -> int:
    """Structurally distinct mapped netlists in a spec's grid (cmos and
    conventional-CNTFET share topologies, so this can be < groups)."""
    from repro.sim.activity import netlist_activity_key
    from repro.sweep.runner import _task_netlist

    return len({netlist_activity_key(_task_netlist(task))
                for task in spec.expand()})


def _bench_reprice(circuit: str, library: str, n_patterns: int,
                   points: int) -> dict:
    """``estimate_many`` throughput with warm statistics."""
    from repro.experiments.config import ExperimentConfig
    from repro.sim.activity import simulation_stats
    from repro.sim.estimator import estimate_many
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec(circuits=(circuit,), libraries=(library,),
                     n_patterns=(n_patterns,), state_patterns=n_patterns)
    task = spec.expand()[0]
    from repro.sweep.runner import _task_netlist

    netlist = _task_netlist(task)
    stats = simulation_stats(netlist, n_patterns,
                             ExperimentConfig().seed, n_patterns)
    grid = [(0.9, 0.5e9 + 1e6 * i, 3) for i in range(points)]
    start = time.perf_counter()
    reports = estimate_many(netlist, stats, grid)
    elapsed = time.perf_counter() - start
    assert len(reports) == points
    return {"points": points, "wall_s": elapsed,
            "points_per_s": points / elapsed if elapsed > 0 else
            float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny budget for CI smoke runs")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="JSON report to merge the 'sweep' key into")
    args = parser.parse_args(argv)

    from repro import __version__

    if args.quick:
        n_patterns = 2_048
        headline = _spec(("C1908",), ("generalized",), n_patterns, 5)
        grid = _spec(("t481", "C1908"), ("generalized", "cmos"),
                     n_patterns, 5)
        reprice_points = 1_000
    else:
        n_patterns = 16_384
        headline = _spec(("C1908",), ("generalized",), n_patterns,
                         N_FREQUENCIES)
        # The acceptance grid: 12 benchmarks x 3 libraries x 20
        # frequency points (at a pattern budget a tracked benchmark
        # can afford; the ratio only grows with the budget, since the
        # simulation is the amortized term).
        grid = _spec((), (), 4_096, N_FREQUENCIES)
        reprice_points = 10_000

    _warm_everything(headline)
    headline_per_point = _run_per_point(headline)
    headline_grouped = _run_grouped(headline)
    headline_speedup = (headline_per_point["wall_s"]
                        / headline_grouped["wall_s"])
    assert headline_grouped["simulations"] == \
        _distinct_structures(headline), "one simulation per group violated"

    _warm_everything(grid)
    grid_per_point = _run_per_point(grid)
    grid_grouped = _run_grouped(grid)
    grid_speedup = grid_per_point["wall_s"] / grid_grouped["wall_s"]
    assert grid_grouped["simulations"] == _distinct_structures(grid), \
        "one simulation per group violated"
    if not args.quick:
        assert grid_speedup >= MIN_GROUPED_SPEEDUP, (
            f"grouped runner only {grid_speedup:.1f}x faster than the "
            f"per-point path on the acceptance grid (needs "
            f">= {MIN_GROUPED_SPEEDUP:.0f}x)")

    section = {
        "version": __version__,
        "quick": args.quick,
        "headline": {
            "grid": "1 circuit x 1 library x "
                    f"{len(headline.frequency)} frequencies",
            "n_patterns": n_patterns,
            "per_point": headline_per_point,
            "grouped": headline_grouped,
            "speedup": headline_speedup,
        },
        "acceptance_grid": {
            "grid": f"{len(grid.circuit_order)} circuits x "
                    f"{len(grid.libraries)} libraries x "
                    f"{len(grid.frequency)} frequencies",
            "n_patterns": grid.n_patterns[0],
            "per_point": grid_per_point,
            "grouped": grid_grouped,
            "speedup": grid_speedup,
        },
        "reprice": _bench_reprice("C1908", "generalized", n_patterns,
                                  reprice_points),
    }

    output = Path(args.output)
    try:
        report = json.loads(output.read_text())
    except (OSError, ValueError):
        report = {}
    report["sweep"] = section
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"sweep": section}, indent=2))
    print(f"\nmerged 'sweep' into {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
