"""Stage-by-stage runtime benchmark of the experiment pipeline.

Times every stage of the synthesize -> map -> estimate flow plus the
characterization layers and the end-to-end Table 1 run, and writes the
measurements to ``BENCH_perf.json`` so the performance trajectory is
tracked from PR to PR.  Run it from the repository root:

    PYTHONPATH=src python benchmarks/bench_runtime.py            # full
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_runtime.py --jobs 8

``--quick`` shrinks the pattern budget and benchmark subset so the
whole harness finishes in a few seconds — enough to catch gross
regressions in CI without occupying a runner for minutes.

All stage timings are cold-path by default: the persistent
characterization cache is disabled for the in-process stages and the
serial/parallel Table 1 runs share one warm-up-free process each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# Cold-path measurements: never read a warm cache from a previous run
# (force-assigned so an ambient REPRO_CACHE_DISABLE=0 cannot leak warm
# timings into the tracked BENCH_perf.json).
os.environ["REPRO_CACHE_DISABLE"] = "1"

import random

#: Seed-repository baselines, measured on the same class of machine the
#: day the fast-path work landed (2026-07-30, 1-CPU container).  They
#: are carried into every report so later BENCH_perf.json snapshots can
#: be read as ratios without re-timing the seed.
SEED_REFERENCE = {
    "measured": "2026-07-30",
    "table1_serial_16k_patterns_s": 56.5,
    "expand_per_call_us": 12.0,
    "cut_enumeration_c3540_cold_s": 0.33,
}


def _time(func, repeats: int = 1) -> float:
    """Best-of-N wall time of func()."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_kernels() -> dict:
    """The truth-table microkernels the mapper leans on."""
    from repro.synth.truth import _expand_cached, expand

    rng = random.Random(1)
    cases = [(rng.getrandbits(1 << 3),
              tuple(sorted(rng.sample(range(5), 3))), 5)
             for _ in range(200)]

    def run_expand():
        for _ in range(500):
            for table, positions, n_vars in cases:
                expand(table, positions, n_vars)

    _expand_cached.cache_clear()
    cold = _time(run_expand)
    warm = _time(run_expand)
    return {"expand_100k_calls_cold_s": cold,
            "expand_100k_calls_warm_s": warm}


def bench_synthesis(circuit: str) -> dict:
    """resyn2rs and cold cut enumeration on one benchmark."""
    from repro.circuits.suite import benchmark_suite
    from repro.synth.cuts import enumerate_cuts
    from repro.synth.scripts import resyn2rs

    spec = {s.name: s for s in benchmark_suite()}[circuit]
    aig = spec.build()
    synth_time = _time(lambda: resyn2rs(aig))
    synthesized = resyn2rs(aig).compact()

    def enumerate_cold():
        # A fresh compacted copy defeats the per-AIG cut cache, so this
        # times a genuinely cold enumeration.
        enumerate_cuts(synthesized.compact())

    return {"circuit": circuit,
            "resyn2rs_s": synth_time,
            "cut_enumeration_cold_s": _time(enumerate_cold, repeats=3)}


def bench_map_and_sim(circuit: str, n_patterns: int) -> dict:
    """Mapping onto the three libraries and pattern-power estimation."""
    from repro.circuits.suite import benchmark_suite
    from repro.registry import paper_libraries
    from repro.sim.estimator import estimate_circuit_power
    from repro.synth.mapper import map_aig
    from repro.synth.scripts import resyn2rs

    spec = {s.name: s for s in benchmark_suite()}[circuit]
    subject = resyn2rs(spec.build())
    libraries = paper_libraries()

    start = time.perf_counter()
    netlists = {key: map_aig(subject, library)
                for key, library in libraries.items()}
    map_time = time.perf_counter() - start

    start = time.perf_counter()
    for netlist in netlists.values():
        estimate_circuit_power(netlist, n_patterns=n_patterns,
                               state_patterns=n_patterns)
    sim_time = time.perf_counter() - start
    return {"circuit": circuit,
            "map_three_libraries_s": map_time,
            "estimate_three_libraries_s": sim_time,
            "n_patterns": n_patterns}


def bench_characterization() -> dict:
    """Library characterization from scratch (the Fig. 5 flow)."""
    from repro.gates.conventional import cmos_library
    from repro.power.characterize import characterize_library
    from repro.power.pattern_sim import PatternSimulator

    start = time.perf_counter()
    library = cmos_library()
    simulator = PatternSimulator(library.tech)
    characterize_library(library, simulator=simulator)
    cold_time = time.perf_counter() - start

    # The estimator's pattern-classified leakage tables (the batched
    # per-cell cold build; direct construction bypasses every cache).
    from repro.gates.ambipolar_library import generalized_cntfet_library
    from repro.sim.estimator import _LeakageTables

    leakage = {}
    for name, build in (("cmos", cmos_library),
                        ("generalized", generalized_cntfet_library)):
        library = build()
        start = time.perf_counter()
        _LeakageTables(library)
        leakage[f"leakage_tables_{name}_cold_s"] = (time.perf_counter()
                                                    - start)

    return {"characterize_cmos_cold_s": cold_time,
            "cold_spice_solves": simulator.solves,
            **leakage}


def _table1_digest(result) -> str:
    """Order-stable digest of every Table 1 cell (floats via repr)."""
    import hashlib

    payload = repr([(name, key, result.results[name][key])
                    for name in result.benchmark_order
                    for key in sorted(result.results[name])])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Snippet run in a fresh interpreter for the parallel measurement, so
#: fork-started workers cannot inherit caches warmed by the serial run
#: (or by the earlier benchmark stages) in this process.
_PARALLEL_SNIPPET = """\
import json, sys, time
sys.path.insert(0, "src")
from benchmarks.bench_runtime import _table1_digest  # noqa: E402
from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import reproduce_table1
spec = json.loads(sys.argv[1])
config = ExperimentConfig(n_patterns=spec["n_patterns"],
                          state_patterns=spec["n_patterns"])
start = time.perf_counter()
result = reproduce_table1(config, benchmarks=spec["benchmarks"],
                          jobs=spec["jobs"])
elapsed = time.perf_counter() - start
print(json.dumps({"elapsed": elapsed, "digest": _table1_digest(result)}))
"""


def bench_table1(n_patterns: int, benchmarks, jobs: int) -> dict:
    """End-to-end Table 1, serially and (optionally) in parallel.

    The parallel run happens in a fresh subprocess so its workers
    cold-start like a real ``repro table1 --jobs N`` invocation;
    result equality with the serial run is checked via a content
    digest of every cell.
    """
    import subprocess

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.table1 import reproduce_table1

    config = ExperimentConfig(n_patterns=n_patterns,
                              state_patterns=n_patterns)
    start = time.perf_counter()
    serial = reproduce_table1(config, benchmarks=benchmarks)
    serial_time = time.perf_counter() - start

    result = {"n_patterns": n_patterns,
              "benchmarks": benchmarks or "all",
              "serial_s": serial_time}
    # jobs=None skips the parallel measurement; 0 means all CPUs.  The
    # request is clamped to the CPU count (forking 2 workers on a
    # 1-CPU machine used to *slow down* the measured run) and both the
    # requested and effective values are recorded, so a report showing
    # parallel ~= serial timing is explained by jobs_effective=1
    # rather than looking like a parallelization regression.
    jobs_effective = None if jobs is None else resolve_jobs(jobs)
    if jobs is not None and jobs != 1:
        result["jobs_requested"] = jobs
        result["jobs_effective"] = jobs_effective
    if jobs_effective is not None and jobs_effective > 1:
        spec = json.dumps({"n_patterns": n_patterns,
                           "benchmarks": benchmarks,
                           "jobs": jobs_effective})
        env = dict(os.environ, PYTHONPATH="src")
        completed = subprocess.run(
            [sys.executable, "-c", _PARALLEL_SNIPPET, spec],
            capture_output=True, text=True, env=env,
            cwd=Path(__file__).resolve().parent.parent)
        if completed.returncode == 0:
            parallel = json.loads(completed.stdout.strip().splitlines()[-1])
            result["parallel_s"] = parallel["elapsed"]
            result["parallel_bit_identical"] = (
                parallel["digest"] == _table1_digest(serial))
        else:
            result["parallel_error"] = completed.stderr[-2000:]
    elif jobs is not None and jobs != 1:
        result["parallel_skipped"] = (
            f"jobs={jobs} clamped to {jobs_effective} "
            f"(cpu_count={os.cpu_count()}); a 1-worker pool would just "
            f"repeat the serial measurement")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny budget for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="also run Table 1 with this many worker "
                             "processes (0 = all CPUs; clamped to the "
                             "CPU count, same as the repro CLI; omit "
                             "to skip the parallel run)")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.quick:
        n_patterns = 2_048
        benchmarks = ["C1908", "t481"]
        circuit = "C1908"
    else:
        n_patterns = 16_384
        benchmarks = None
        circuit = "C3540"

    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            "unix_time": int(time.time()),
        },
        "seed_reference": SEED_REFERENCE,
        "kernels": bench_kernels(),
        "synthesis": bench_synthesis(circuit),
        "map_and_sim": bench_map_and_sim(circuit, n_patterns),
        "characterization": bench_characterization(),
        "table1": bench_table1(n_patterns, benchmarks, args.jobs),
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
