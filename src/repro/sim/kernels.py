"""Simulation kernel selection and accounting.

Two kernels produce the bit-identical :class:`SimulationStats` of a
mapped netlist: the per-gate path (:class:`BitParallelSimulator`,
lowest constant cost, Python-bound per gate) and the levelized array
path (:class:`ArraySimulator`, numpy-bound per (level, cell) group —
the one that scales to 10^5+-gate netlists).  Because the results are
identical, the choice is pure performance policy:

* ``"gate"`` / ``"array"`` force a kernel;
* ``"auto"`` (the default everywhere) picks the array kernel above
  :data:`AUTO_ARRAY_THRESHOLD` mapped gates and the per-gate kernel
  below it.

The knob rides on :attr:`ExperimentConfig.sim_kernel` and is serialized
with configs, but it is deliberately **excluded** from activity keys,
query keys and task keys — a cached result answers every kernel's
query, and a sweep store written by one kernel warm-starts the other.

Every simulation executed through :func:`run_simulation` is metered
in :mod:`repro.obs`: simulations, gate-evaluations (gates x patterns)
and wall time per kernel (``sim.kernel.<kernel>.simulations`` /
``.gate_evals`` / ``.elapsed_s``), surfaced by ``/v1/healthz`` as
gate-evals/s.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import obs
from repro.errors import SimulationError
from repro.experiments.config import SIM_KERNELS
from repro.sim.arraysim import ArraySimulator
from repro.sim.bitsim import BitParallelSimulator, SimulationStats

#: ``"auto"`` switches to the array kernel at this many mapped gates.
#: Below it the per-gate path's lower constant cost wins; above it the
#: levelized groups amortize the Python dispatch over whole levels.
AUTO_ARRAY_THRESHOLD = 4096


def select_kernel(kernel: str, gate_count: int) -> str:
    """Resolve a kernel request to the kernel that will actually run.

    Raises :class:`SimulationError` on an unknown kernel name (configs
    validate at construction, so this guards direct callers).
    """
    if kernel not in SIM_KERNELS:
        raise SimulationError(
            f"unknown sim kernel {kernel!r}; choose from "
            f"{', '.join(SIM_KERNELS)}")
    if kernel == "auto":
        return "array" if gate_count >= AUTO_ARRAY_THRESHOLD else "gate"
    return kernel


def run_simulation(netlist, n_patterns: int, seed: int = 2010,
                   state_patterns: Optional[int] = None,
                   kernel: str = "auto") -> SimulationStats:
    """Simulate a mapped netlist with the selected kernel, metered.

    The cold path behind :func:`repro.sim.activity.simulation_stats`;
    both kernels return bit-identical statistics, so callers never see
    which one ran except through the counters (and the wall clock).
    """
    chosen = select_kernel(kernel, netlist.gate_count)
    simulator = (ArraySimulator(netlist) if chosen == "array"
                 else BitParallelSimulator(netlist))
    start = time.perf_counter()
    stats = simulator.run(n_patterns, seed, state_patterns)
    elapsed = time.perf_counter() - start
    prefix = f"sim.kernel.{chosen}."
    obs.count(prefix + "simulations")
    obs.count(prefix + "gate_evals", netlist.gate_count * n_patterns)
    obs.count(prefix + "elapsed_s", elapsed)
    return stats
