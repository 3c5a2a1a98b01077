"""Bitsim kernel benchmark: the levelized array kernel vs the per-gate
reference.

Simulates seeded random mapped netlists (the ``synth:rand`` family's
mapped-netlist generator) at 10^4 and 10^5 gates with the simulation
kernel (``array``) and the per-gate reference (``gate``) and records,
for each:

* **prep_s** — simulator construction: ISOP covers for the per-gate
  reference, the full struct-of-arrays levelization for the kernel.
  Paid once per netlist (the levelized form is instance-memoized);
* **sim_s** / **evals_per_s** — one simulation at the given pattern
  budget, and its gate-evaluations per second (gates x patterns / s);
* **cold_speedup** — end-to-end ratio including prep, for honesty
  about one-shot netlists.

The headline number is the *simulation-rate* ratio at 10^5 gates and
the 4096-pattern budget — the regime the array kernel exists for — and
the full run asserts it stays ``>= 10`` (the redesign's acceptance
bar).  Kernel and reference are bit-identical, so every row
cross-checks the toggle counts before timing is believed.

Results merge into ``BENCH_perf.json`` under the ``"bitsim"`` key.

    PYTHONPATH=src python benchmarks/bench_bitsim.py            # full
    PYTHONPATH=src python benchmarks/bench_bitsim.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

os.environ["REPRO_CACHE_DISABLE"] = "1"

#: Minimum array/gate simulation-rate ratio at the headline row
#: (10^5 gates, 4096 patterns); asserted in full runs.
MIN_ARRAY_SPEEDUP = 10.0

#: The headline operating point.
HEADLINE_GATES = 100_000
HEADLINE_PATTERNS = 4_096


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def bench_netlist(gates: int, budgets, seed: int = 2010) -> dict:
    """Kernel and reference timings for one random netlist size."""
    from repro.circuits.families import random_mapped_netlist
    from repro.gates.conventional import cmos_library
    from repro.sim.arraysim import ArraySimulator, LevelizedNetlist
    from repro.sim.bitsim import BitParallelSimulator

    library = cmos_library()
    netlist = random_mapped_netlist(library, gates=gates, seed=seed)

    gate_sim, gate_prep_s = _timed(lambda: BitParallelSimulator(netlist))
    # Cold levelization cost, measured outside the instance memo the
    # ArraySimulator below will then populate and reuse.
    _, array_prep_s = _timed(lambda: LevelizedNetlist(netlist))
    array_sim, _ = _timed(lambda: ArraySimulator(netlist))

    rows = []
    for n_patterns in budgets:
        gate_stats, gate_s = _timed(lambda: gate_sim.run(n_patterns))
        array_stats, array_s = _timed(lambda: array_sim.run(n_patterns))
        assert array_stats.toggles == gate_stats.toggles, (
            f"kernel and reference diverged at gates={gates} "
            f"n={n_patterns}")
        evals = gates * n_patterns
        rows.append({
            "n_patterns": n_patterns,
            "gate": {"sim_s": gate_s, "evals_per_s": evals / gate_s},
            "array": {"sim_s": array_s, "evals_per_s": evals / array_s},
            "sim_speedup": gate_s / array_s,
            "cold_speedup": ((gate_prep_s + gate_s)
                             / (array_prep_s + array_s)),
        })
        print(f"gates={gates:>7} n={n_patterns:>6}  "
              f"gate {evals / gate_s:>12.3e} evals/s  "
              f"array {evals / array_s:>12.3e} evals/s  "
              f"sim x{gate_s / array_s:.1f} cold "
              f"x{(gate_prep_s + gate_s) / (array_prep_s + array_s):.1f}",
              file=sys.stderr)
    return {
        "gates": gates,
        "levels": array_sim.arrays.n_levels,
        "gate_prep_s": gate_prep_s,
        "array_prep_s": array_prep_s,
        "budgets": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="10^4 gates only, no speedup assertion "
                             "(CI smoke)")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="JSON report to merge the 'bitsim' key into")
    args = parser.parse_args(argv)

    from repro import __version__

    if args.quick:
        sizes = ((10_000, (4_096,)),)
    else:
        sizes = ((10_000, (4_096, 16_384)),
                 (HEADLINE_GATES, (HEADLINE_PATTERNS, 16_384)))

    netlists = [bench_netlist(gates, budgets) for gates, budgets in sizes]

    headline = None
    for entry in netlists:
        for row in entry["budgets"]:
            if (entry["gates"], row["n_patterns"]) == (
                    HEADLINE_GATES, HEADLINE_PATTERNS):
                headline = {
                    "gates": entry["gates"],
                    "n_patterns": row["n_patterns"],
                    "array_evals_per_s": row["array"]["evals_per_s"],
                    "sim_speedup_vs_gate": row["sim_speedup"],
                    "cold_speedup_vs_gate": row["cold_speedup"],
                }
    if not args.quick:
        assert headline is not None
        assert headline["sim_speedup_vs_gate"] >= MIN_ARRAY_SPEEDUP, (
            f"array kernel only {headline['sim_speedup_vs_gate']:.1f}x "
            f"the per-gate simulation rate at {HEADLINE_GATES} gates; "
            f"the levelized path has regressed below the acceptance bar")

    section = {
        "version": __version__,
        "quick": args.quick,
        "netlists": netlists,
        "headline": headline,
    }
    output = Path(args.output)
    try:
        report = json.loads(output.read_text())
    except (OSError, ValueError):
        report = {}
    report["bitsim"] = section
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"bitsim": section}, indent=2))
    print(f"\nmerged 'bitsim' into {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
