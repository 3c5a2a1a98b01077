"""Sharded, resumable execution of a sweep grid — grouped by activity.

``run_sweep`` is a thin wrapper over :meth:`repro.api.Session.sweep`,
kept for its established signature.  The session expands the spec,
drops every task whose key the store already holds, groups the rest by
*activity* (:func:`activity_group_key`: everything that shapes the
bit-parallel simulation — circuit, library, synthesis and mapper
options, pattern budget, seed, backend — i.e. every axis except the
pure pricing knobs vdd/frequency/fanout) and fans the groups out over
worker processes via
:func:`repro.experiments.parallel.parallel_map_stream`.

Each group runs **one** bit-parallel simulation (one per distinct
mapped-netlist hash, should the vdd axis ever change the mapping) and
re-prices every operating point of the group through the vectorized
:func:`repro.sim.estimator.estimate_many` — bit-identical to executing
each point separately, which the runner tests assert.  Finished points
are appended to the store *as their group completes* (grid order
serially, completion order across workers — the store is
key-addressed, so append order is irrelevant to resume), and a killed
run therefore checkpoints every finished group; the next run picks up
exactly where it stopped.

Worker-side caching mirrors the Table 1 grid: benchmarks are built and
synthesized once per process, libraries characterized once per process
*per supply voltage* (the vdd axis re-characterizes timing and leakage
through ``TechnologyParams.with_vdd``), mapped netlists come from the
flow's memo (:func:`repro.experiments.flow.mapped_netlist`), and
simulation statistics climb the :mod:`repro.sim.activity` ladder, so
even across groups and runs nothing simulates twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.experiments.flow import (
    estimate_mapped,
    flow_from_power_report,
    mapped_netlist,
)
from repro.registry import cached_library
from repro.sim.activity import (
    netlist_activity_key,
    pricing_group_key,
    simulation_stats,
)
from repro.sweep.spec import SweepSpec, SweepTask
from repro.sweep.store import ResultStore, record_for


def _task_netlist(task: SweepTask):
    """The mapped netlist of one task, from the per-process memo.

    The library is characterized at the point's supply voltage (timing
    and leakage are vdd-dependent), so mapping legitimately differs
    across the vdd axis.
    """
    library = cached_library(task.library, task.config.vdd)
    return mapped_netlist(task.circuit, library, task.config)


def run_sweep_task(task: SweepTask) -> Dict[str, Any]:
    """Execute one sweep point: picklable task -> store record.

    The per-point path; the grouped runner is bit-identical to it (and
    asserted so in tests).  Activity still comes from the stats cache,
    so even this path never re-simulates a budget it has seen.
    """
    start = time.perf_counter()
    netlist = _task_netlist(task)
    flow = estimate_mapped(netlist, task.config, circuit=task.circuit,
                           library=task.library)
    return record_for(task, flow, time.perf_counter() - start)


# -- activity grouping --------------------------------------------------------

def activity_group_key(task: SweepTask) -> str:
    """Tasks sharing this key share one bit-parallel simulation.

    Everything of the task except the pure pricing axes (vdd,
    frequency, fanout); see
    :func:`repro.sim.activity.pricing_group_key`.  Within a group the
    vdd axis is additionally checked against the per-supply mapped
    netlists' activity hashes — the rare supply point that maps to a
    different structure is simulated separately.
    """
    return pricing_group_key(task.circuit, task.library, task.config)


def group_tasks(tasks: Sequence[SweepTask]) -> List[List[SweepTask]]:
    """Partition tasks into activity groups, preserving grid order."""
    groups: "Dict[str, List[SweepTask]]" = {}
    for task in tasks:
        groups.setdefault(activity_group_key(task), []).append(task)
    return list(groups.values())


def run_sweep_group(tasks: Sequence[SweepTask]) -> Dict[str, Any]:
    """Execute one activity group: one simulation, many pricings.

    Returns ``{"records": [...], "simulations": n}`` with one store
    record per task (task order) and the number of bit-parallel
    simulations this call actually executed (0 when the activity cache
    was already warm).  Non-bitsim backends fall back to the per-point
    path — their estimates are not a closed-form pricing of shared
    statistics — but still share the cached activity.
    """
    from repro import faults

    # Chaos injection: a worker.crash rule hard-kills this process
    # before any work (and before any store write) when a task of the
    # group matches — no-ops in the main process and when inactive.
    for task in tasks:
        faults.maybe_crash_worker(f"{task.circuit}/{task.library}")

    start = time.perf_counter()
    before = obs.snapshot()
    config = tasks[0].config
    if config.backend != "bitsim":
        records = [run_sweep_task(task) for task in tasks]
        return {"records": records,
                "simulations": obs.diff(before)["activity.computes"]}

    from repro.sim.estimator import estimate_many

    netlists = {}
    for task in tasks:
        vdd = task.config.vdd
        if vdd not in netlists:
            netlists[vdd] = _task_netlist(task)
    # The vdd axis can (rarely) change the mapping; points whose
    # netlist hashes differently get their own simulation.
    subgroups: "Dict[str, List[SweepTask]]" = {}
    for task in tasks:
        key = netlist_activity_key(netlists[task.config.vdd])
        subgroups.setdefault(key, []).append(task)

    records: Dict[str, Dict[str, Any]] = {}
    for subtasks in subgroups.values():
        base = netlists[subtasks[0].config.vdd]
        stats = simulation_stats(base, config.n_patterns, config.seed,
                                 config.state_patterns,
                                 kernel=config.sim_kernel)
        points = [task.config.power_parameters for task in subtasks]
        reports = estimate_many(base, stats, points, netlists=netlists)
        for task, report in zip(subtasks, reports):
            flow = flow_from_power_report(report, task.config,
                                          circuit=task.circuit,
                                          library=task.library)
            records[task.task_key] = record_for(task, flow, 0.0)

    # One wall-clock measurement, apportioned evenly: per-point times
    # are not separable once the simulation is shared.
    per_point = (time.perf_counter() - start) / max(1, len(tasks))
    ordered = []
    for task in tasks:
        record = records[task.task_key]
        record["elapsed_s"] = per_point
        ordered.append(record)
    return {"records": ordered,
            "simulations": obs.diff(before)["activity.computes"]}


@dataclass
class SweepRunReport:
    """What one ``sweep run`` invocation did."""

    spec_hash: str
    store_path: str
    total: int
    cached: int
    executed: int
    #: The caller's literal request (0 = all CPUs), before clamping.
    jobs_requested: int
    jobs_effective: int
    elapsed_s: float
    #: Activity groups the executed points collapsed into.
    groups: int = 0
    #: Bit-parallel simulations actually executed (<= groups; less when
    #: the activity cache was already warm).
    simulations: int = 0
    #: Task re-executions after a worker crash (0 on a clean run).
    retried: int = 0
    #: Tasks that kept crashing workers and were poisoned in the store.
    quarantined: int = 0
    #: The store the run appended to (handy for in-memory sessions).
    store: Optional[ResultStore] = field(default=None, repr=False,
                                         compare=False)

    def render(self) -> str:
        """One greppable summary line (CI asserts on ``executed=``,
        ``simulations=`` and ``quarantined=``)."""
        return (f"sweep {self.spec_hash[:12]}: total={self.total} "
                f"cached={self.cached} executed={self.executed} "
                f"groups={self.groups} simulations={self.simulations} "
                f"retried={self.retried} quarantined={self.quarantined} "
                f"jobs={self.jobs_effective} "
                f"elapsed={self.elapsed_s:.1f}s store={self.store_path}")


def _verbose_line(task: SweepTask, record: Dict[str, Any]) -> str:
    result = record["result"]
    return (f"{task.circuit:6s} {task.library:20s} "
            f"vdd={task.config.vdd:.2f}V f={task.config.frequency:.2e}Hz "
            f"fo={task.config.fanout} n={task.config.n_patterns} "
            f"PT={result['pt_w'] / 1e-6:8.2f}uW "
            f"({record['elapsed_s']:.2f}s)")


def _group_chunksize(n_groups: int, n_workers: int) -> int:
    """Groups per work unit: fair sharing with a little batching."""
    if n_workers <= 1:
        return 1
    return max(1, -(-n_groups // (n_workers * 4)))


def run_sweep(spec: SweepSpec, store: ResultStore,
              jobs: Optional[int] = 1,
              verbose: bool = False,
              echo: Callable[[str], None] = print) -> SweepRunReport:
    """Run every not-yet-stored point of a sweep grid.

    Args:
        spec: the grid to cover.
        store: result store; points whose task key it already holds
            are served from it and never re-executed.
        jobs: worker processes (1 = serial, 0/None = all CPUs; clamped
            to the CPU count).
        verbose: one line per completed point, streamed as it lands.
        echo: sink for verbose lines (tests capture it).
    """
    from repro.api import Session

    return Session(jobs=jobs).sweep(spec, store, verbose=verbose, echo=echo)
