"""Pluggable estimator backends.

An estimator backend turns a mapped netlist plus operating conditions
into a :class:`~repro.sim.estimator.CircuitPowerReport`.  The protocol
is one method::

    backend.estimate(netlist, params, config) -> CircuitPowerReport

and which backend runs is data: :attr:`ExperimentConfig.backend` names
it, so the choice serializes through ``to_dict``/``from_dict``, is
content-hashed into sweep task keys, and result stores never mix
estimates from different backends.

Two backends ship:

* ``"bitsim"`` (default) — the paper's methodology: random-pattern
  bit-parallel simulation feeding the Eq. 2-5 analytic power model
  (:func:`repro.sim.estimator.estimate_circuit_power`, unchanged).
* ``"spice-transient"`` — pattern statistics still come from the
  bit-parallel simulation, but the per-transition switching energy of
  every cell instance is *measured* with the :mod:`repro.spice`
  trapezoidal transient engine: the cell's output drive stack charges
  its actual capacitive load from a supply source and the energy drawn
  is integrated over one clock period.  Incomplete settling (large
  load, low supply, short period) therefore shows up as reduced energy
  — an effect the analytic ``alpha * C * f * VDD^2`` model cannot see.
  Intended for small netlists; transient solves are cached per
  (technology, supply, drive depth, load).

Third parties register their own with :func:`register_backend`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, TYPE_CHECKING, Tuple

import numpy as np

from repro.cache import stable_hash
from repro.errors import ExperimentError, SimulationError
from repro.power.model import SHORT_CIRCUIT_FRACTION, PowerParameters
from repro.sim.activity import simulation_stats
from repro.sim.estimator import (
    CircuitPowerReport,
    estimate_circuit_power,
    leakage_currents,
    switched_capacitance,
)
from repro.synth.netlist import MappedNetlist
from repro.timing import timing_report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.config import ExperimentConfig

#: Key of the default backend.
BITSIM = "bitsim"
#: Key of the transient-measurement backend.
SPICE_TRANSIENT = "spice-transient"


class EstimatorBackend(Protocol):
    """What a power-estimation backend must provide."""

    #: Registry key (informational; the registry key is authoritative).
    name: str

    def estimate(self, netlist: MappedNetlist, params: PowerParameters,
                 config: "ExperimentConfig") -> CircuitPowerReport:
        """Estimate the power of one mapped circuit."""
        ...


_BACKENDS: Dict[str, EstimatorBackend] = {}


def register_backend(key: str, backend: EstimatorBackend,
                     replace: bool = False) -> None:
    """Register an estimator backend under ``key``.

    Raises :class:`ExperimentError` on a collision unless ``replace``.
    """
    if key in _BACKENDS and not replace:
        raise ExperimentError(
            f"estimator backend {key!r} is already registered; pass "
            f"replace=True to override")
    _BACKENDS[key] = backend


def unregister_backend(key: str, missing_ok: bool = False) -> None:
    """Remove a registered backend."""
    if _BACKENDS.pop(key, None) is None and not missing_ok:
        raise ExperimentError(f"estimator backend {key!r} is not registered")


def available_backends() -> List[str]:
    """Keys of every registered backend, registration order."""
    return list(_BACKENDS)


def get_backend(key: str) -> EstimatorBackend:
    """Look a backend up by key, failing with the known choices."""
    try:
        return _BACKENDS[key]
    except KeyError:
        raise ExperimentError(
            f"unknown estimator backend {key!r}; choose from "
            f"{sorted(_BACKENDS)}") from None


class BitsimBackend:
    """The paper's estimator: random patterns + analytic Eq. 2-5 model."""

    name = BITSIM

    def estimate(self, netlist: MappedNetlist, params: PowerParameters,
                 config: "ExperimentConfig") -> CircuitPowerReport:
        return estimate_circuit_power(
            netlist, params,
            n_patterns=config.n_patterns,
            seed=config.seed,
            state_patterns=config.state_patterns,
            kernel=config.sim_kernel,
        )


#: Gate-count ceiling of the transient backend (it is O(distinct
#: (cell, load) pairs) in transient solves, meant for small netlists).
MAX_TRANSIENT_GATES = 2000

#: Timesteps per clock period for the energy integration.
TRANSIENT_STEPS = 64

#: Load quantization for the transient cache, farads.  0.01 aF is far
#: below any pin capacitance, so bucketing loses nothing physical while
#: letting equal-load gates share one solve.
_LOAD_QUANTUM = 1e-20


class SpiceTransientBackend:
    """Transient-measured switching energy on bitsim pattern statistics.

    Per distinct (cell drive stack, output load) the backend builds a
    tiny circuit — the cell's worst-case series drive stack of on
    devices between the supply and the output, the full switched
    capacitance as a load capacitor — and integrates the energy the
    supply delivers while the output rises, over one clock period.
    PD then is ``sum(alpha * E_rise * f)`` per gate, the transient
    sibling of Eq. 2's ``alpha * C * f * VDD^2`` (to which it converges
    when every output settles within the period).  PSC keeps the
    paper's Eq. 3 fraction; PS/PG reuse the pattern-classified DC
    leakage tables; delay is the same static timing.
    """

    name = SPICE_TRANSIENT

    def __init__(self, max_gates: int = MAX_TRANSIENT_GATES,
                 steps: int = TRANSIENT_STEPS):
        self.max_gates = max_gates
        self.steps = steps
        #: (tech_hash, vdd, polarity-depth, quantized load) -> joules.
        self._energy_cache: Dict[Tuple, float] = {}

    # -- transient energy measurement ------------------------------------

    def _rise_energy(self, library, cell_name: str, load: float,
                     params: PowerParameters) -> float:
        """Supply energy for one output rise of ``cell_name`` into ``load``."""
        from repro.spice import Circuit, GROUND, transient

        cell = library.cell(cell_name)
        depth = cell.drive_depth()
        total_load = load + library.output_capacitance(cell_name)
        quantized = round(total_load / _LOAD_QUANTUM)
        # The integration window is one clock period, so the frequency
        # is part of what determines the energy (incomplete settling).
        key = (stable_hash(library.tech), params.vdd, params.frequency,
               depth, quantized)
        cached = self._energy_cache.get(key)
        if cached is not None:
            return cached

        circuit = Circuit(f"rise {cell_name}")
        circuit.add_vsource("vdd", "rail", GROUND, params.vdd)
        # Worst-case drive stack: `depth` series on p-devices pulling
        # the output to the rail (gates grounded = fully on).
        previous = "rail"
        for index in range(depth):
            node = "out" if index == depth - 1 else f"n{index}"
            circuit.add_mosfet(f"mp{index}", node, GROUND, previous,
                               library.tech.pmos)
            previous = node
        circuit.add_capacitor("cl", "out", GROUND, max(total_load,
                                                       _LOAD_QUANTUM))
        period = 1.0 / params.frequency
        initial = {"out": 0.0}
        initial.update({f"n{i}": 0.0 for i in range(depth - 1)})
        result = transient(circuit, stop_time=period,
                           step=period / self.steps, initial=initial)
        # Source branch current is pos->neg inside the source, so the
        # delivered current is its negation (as in the DC leakage flow).
        delivered = -result.branch_currents["vdd"]
        energy = float(params.vdd * np.trapezoid(delivered, result.times))
        # Subtract the DC (leakage) floor of the stack so the energy is
        # purely the switching event, not one period of static draw.
        energy -= float(params.vdd * delivered[-1] * result.times[-1])
        energy = max(energy, 0.0)
        self._energy_cache[key] = energy
        return energy

    # -- the backend protocol --------------------------------------------

    def estimate(self, netlist: MappedNetlist, params: PowerParameters,
                 config: "ExperimentConfig") -> CircuitPowerReport:
        if netlist.gate_count > self.max_gates:
            raise SimulationError(
                f"spice-transient backend is limited to {self.max_gates} "
                f"gates ({netlist.name!r} has {netlist.gate_count}); use "
                f"the bitsim backend for large netlists")
        library = netlist.library
        stats = simulation_stats(netlist, config.n_patterns, config.seed,
                                 config.state_patterns,
                                 kernel=config.sim_kernel)

        caps = switched_capacitance(netlist)
        alphas = stats.toggle_rates([gate.output for gate in netlist.gates])
        p_dynamic = 0.0
        for alpha, gate in zip(alphas, netlist.gates):
            alpha = float(alpha)
            if alpha == 0.0:
                continue
            loads = caps[gate.output] - library.output_capacitance(gate.cell)
            energy = self._rise_energy(library, gate.cell, loads, params)
            p_dynamic += alpha * energy * params.frequency
        p_short = SHORT_CIRCUIT_FRACTION * p_dynamic

        total_i_off, total_i_gate = leakage_currents(netlist, stats)

        delay = timing_report(netlist).critical_delay_s
        return CircuitPowerReport(
            circuit=netlist.name,
            library=library.name,
            gate_count=netlist.gate_count,
            delay=delay,
            p_dynamic=p_dynamic,
            p_short_circuit=p_short,
            p_static=total_i_off * params.vdd,
            p_gate_leak=total_i_gate * params.vdd,
            n_patterns=stats.n_patterns,
        )


def estimate_with_backend(netlist: MappedNetlist,
                          params: Optional[PowerParameters],
                          config: "ExperimentConfig") -> CircuitPowerReport:
    """Run the config-selected backend (the flow's single call site)."""
    if params is None:
        params = PowerParameters(vdd=netlist.library.tech.vdd)
    return get_backend(config.backend).estimate(netlist, params, config)


register_backend(BITSIM, BitsimBackend())
register_backend(SPICE_TRANSIENT, SpiceTransientBackend())
