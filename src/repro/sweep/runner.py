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

Each group maps once per supply and is priced by
:func:`repro.experiments.flow.price_mapped` — **one** bit-parallel
simulation per distinct mapped-netlist hash, one vectorized repricing
per netlist, bit-identical to pricing each point alone (asserted by
the runner tests).  Finished points
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
from repro.experiments.flow import mapped_netlist, price_mapped
from repro.registry import cached_library
from repro.sim.activity import pricing_group_key
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


# -- activity grouping --------------------------------------------------------

def activity_group_key(task: SweepTask) -> str:
    """Tasks sharing this key share one bit-parallel simulation.

    Everything of the task except the pure pricing axes (vdd,
    frequency, fanout); see
    :func:`repro.sim.activity.pricing_group_key`.  Within a group
    :func:`repro.experiments.flow.price_mapped` splits the per-supply
    netlists by activity hash — the rare supply point that maps to a
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

    Maps the group (once per supply), then prices every point in one
    :func:`repro.experiments.flow.price_mapped` call.  Returns
    ``{"records": [...], "simulations": n}``: one store record per task
    (task order) and the bit-parallel simulations this call actually
    executed (0 when the activity cache was already warm).
    """
    from repro import faults

    # Chaos injection: a worker.crash rule hard-kills this process
    # before any work (and before any store write) when a task of the
    # group matches — no-ops in the main process and when inactive.
    for task in tasks:
        faults.maybe_crash_worker(f"{task.circuit}/{task.library}")

    start = time.perf_counter()
    before = obs.snapshot()
    # The netlist memo maps each supply of the group once.
    flows = price_mapped([(task, _task_netlist(task)) for task in tasks])
    # One wall-clock measurement, apportioned evenly: per-point times
    # are not separable once the simulation is shared.
    per_point = (time.perf_counter() - start) / max(1, len(tasks))
    return {"records": [record_for(task, flow, per_point)
                        for task, flow in zip(tasks, flows)],
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
