"""Library characterization for power (the Fig. 5 flow, end to end).

For every cell:

* the gate topology analyzer (:mod:`repro.power.patterns`) maps each
  input vector to its off-current patterns — one walk over the
  vectors, :func:`~repro.power.vector_report.cell_leakage_report` — and
  computes the activity factor;
* the pattern simulator quantifies each distinct pattern once;
* static power is the supply times the input-vector average of the
  summed pattern currents; gate-leakage power uses the on-device counts
  with the technology's tunneling current;
* dynamic power follows Eq. 2 with the paper's loading assumption —
  intrinsic drain capacitance plus ``fanout`` (= 3) typical gate inputs;
* short-circuit power is 15 % of dynamic (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gates.cells import Cell
from repro.gates.library import Library
from repro.power.activity import activity_factor
from repro.power.model import (
    PowerBreakdown,
    PowerParameters,
    dynamic_power,
    gate_leakage_power,
    short_circuit_power,
    static_power,
)
from repro.power.pattern_sim import PatternSimulator
from repro.power.vector_report import cell_leakage_report


@dataclass(frozen=True)
class CellPowerReport:
    """Characterization result for one cell."""

    cell: str
    n_inputs: int
    n_devices: int
    activity: float
    input_capacitance: float      # mean pin cap (F)
    load_capacitance: float       # assumed switching load (F)
    mean_i_off: float             # A, averaged over input vectors
    mean_i_gate: float            # A, averaged over input vectors
    power: PowerBreakdown
    distinct_patterns: int

    @property
    def total(self) -> float:
        return self.power.total


@dataclass(frozen=True)
class LibraryPowerReport:
    """Characterization of a whole library."""

    library: str
    technology: str
    cells: Dict[str, CellPowerReport]
    distinct_patterns: int
    pattern_solves: int

    def mean_power(self) -> PowerBreakdown:
        """Average power breakdown over all cells."""
        total = PowerBreakdown(0.0, 0.0, 0.0, 0.0)
        for report in self.cells.values():
            total = total + report.power
        return total.scaled(1.0 / len(self.cells)) if self.cells else total

    def mean_activity(self) -> float:
        """Average activity factor over all cells."""
        if not self.cells:
            return 0.0
        return sum(r.activity for r in self.cells.values()) / len(self.cells)

    def mean_input_capacitance(self) -> float:
        """Average per-pin input capacitance over all cells (F)."""
        if not self.cells:
            return 0.0
        return (sum(r.input_capacitance for r in self.cells.values())
                / len(self.cells))

    def gate_leak_fraction_of_static(self) -> float:
        """PG / PS at the library level (paper: ~10 % CMOS, <1 % CNTFET)."""
        mean = self.mean_power()
        return mean.gate_leak / mean.static if mean.static > 0 else 0.0

    def subset(self, names: List[str]) -> "LibraryPowerReport":
        """Restrict the report to the named cells (for fair comparisons)."""
        picked = {n: self.cells[n] for n in names if n in self.cells}
        return LibraryPowerReport(self.library, self.technology, picked,
                                  self.distinct_patterns, self.pattern_solves)


def characterize_cell(cell: Cell, library: Library,
                      simulator: PatternSimulator,
                      params: PowerParameters,
                      typical_input_cap: Optional[float] = None
                      ) -> CellPowerReport:
    """Characterize one cell (see module docstring for the model)."""
    if typical_input_cap is None:
        typical_input_cap = _inverter_input_capacitance(library)
    leakage = cell_leakage_report(cell, library, simulator)

    load = (library.output_capacitance(cell.name)
            + params.fanout * typical_input_cap)
    activity = activity_factor(cell)
    p_dynamic = dynamic_power(activity, load, params)
    power = PowerBreakdown(
        dynamic=p_dynamic,
        short_circuit=short_circuit_power(p_dynamic),
        static=static_power(leakage.mean_i_off, params),
        gate_leak=gate_leakage_power(leakage.mean_i_gate, params),
    )
    return CellPowerReport(
        cell=cell.name,
        n_inputs=cell.n_inputs,
        n_devices=cell.n_devices,
        activity=activity,
        input_capacitance=library.average_pin_capacitance(cell.name),
        load_capacitance=load,
        mean_i_off=leakage.mean_i_off,
        mean_i_gate=leakage.mean_i_gate,
        power=power,
        distinct_patterns=len({key for row in leakage.rows
                               for key in row.pattern_keys}),
    )


def _inverter_input_capacitance(library: Library) -> float:
    """Fanout load unit: the library inverter's input capacitance.

    This is the quantity the paper quotes (36 aF CNTFET vs 52 aF CMOS)
    when attributing the dynamic-power gap to input capacitance.
    """
    inverter = library.inverter()
    return library.pin_capacitance(inverter.name, inverter.inputs[0])


def characterize_library(library: Library,
                         params: Optional[PowerParameters] = None,
                         simulator: Optional[PatternSimulator] = None
                         ) -> LibraryPowerReport:
    """Characterize every cell of a library (the full Fig. 5 flow)."""
    if params is None:
        params = PowerParameters(vdd=library.tech.vdd)
    if simulator is None:
        simulator = PatternSimulator(library.tech)
    typical_cap = _inverter_input_capacitance(library)
    reports: Dict[str, CellPowerReport] = {}
    for cell in library:
        reports[cell.name] = characterize_cell(cell, library, simulator,
                                               params, typical_cap)
    return LibraryPowerReport(
        library=library.name,
        technology=library.tech.name,
        cells=reports,
        distinct_patterns=simulator.cache_size,
        pattern_solves=simulator.solves,
    )
