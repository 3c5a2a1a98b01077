"""Mapped (technology-bound) netlists.

A :class:`MappedNetlist` is a DAG of library-cell instances connected by
named nets.  Gates are stored in topological order (the mapper emits
them that way), which the simulator and the timing analysis rely on.
Primary outputs bind either to a net or to a constant (possible when
synthesis proves an output constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.gates.library import Library


@dataclass(frozen=True)
class MappedGate:
    """One cell instance: ``inputs[i]`` feeds the cell's pin ``i``."""

    name: str
    cell: str
    inputs: Tuple[str, ...]
    output: str


@dataclass
class MappedNetlist:
    """A technology-mapped combinational netlist."""

    name: str
    library: Library
    pi_names: List[str]
    #: (po_name, ("net", net) | ("const", 0/1))
    po_bindings: List[Tuple[str, Tuple[str, object]]]
    gates: List[MappedGate]
    #: Provenance from the mapper's delay DP (None for netlists built by
    #: other producers): the per-net arrival values the DP computed and
    #: the estimated per-net loads it computed them against.  Replaying
    #: :func:`repro.timing.arrival_times` with ``loads=mapper_loads``
    #: reproduces ``mapper_arrivals`` bit for bit.
    mapper_arrivals: Optional[Dict[str, float]] = None
    mapper_loads: Optional[Dict[str, float]] = None

    # -- basic stats ---------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Number of mapped cell instances (the paper's "No." column)."""
        return len(self.gates)

    @property
    def po_names(self) -> List[str]:
        return [name for name, _ in self.po_bindings]

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per library cell."""
        histogram: Dict[str, int] = {}
        for gate in self.gates:
            histogram[gate.cell] = histogram.get(gate.cell, 0) + 1
        return histogram

    def total_area(self) -> float:
        """Sum of cell areas."""
        return sum(self.library.area(g.cell) for g in self.gates)

    def total_devices(self) -> int:
        """Total transistor count."""
        return sum(self.library.cell(g.cell).n_devices for g in self.gates)

    # -- connectivity -----------------------------------------------------------

    def driver_of(self) -> Dict[str, MappedGate]:
        """Map from net name to the gate driving it."""
        drivers: Dict[str, MappedGate] = {}
        for gate in self.gates:
            if gate.output in drivers:
                raise SimulationError(f"net {gate.output!r} multiply driven")
            drivers[gate.output] = gate
        return drivers

    def fanouts_of(self) -> Dict[str, List[Tuple[MappedGate, int]]]:
        """Map from net name to (consumer gate, pin index) pairs."""
        fanouts: Dict[str, List[Tuple[MappedGate, int]]] = {}
        for gate in self.gates:
            for pin_index, net in enumerate(gate.inputs):
                fanouts.setdefault(net, []).append((gate, pin_index))
        return fanouts

    def validate(self) -> None:
        """Check structural sanity: defined nets, topological order."""
        defined = set(self.pi_names)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in defined:
                    raise SimulationError(
                        f"gate {gate.name}: input net {net!r} used before "
                        f"definition")
            if gate.output in defined:
                raise SimulationError(
                    f"gate {gate.name}: output net {gate.output!r} redefined")
            defined.add(gate.output)
        for name, binding in self.po_bindings:
            kind, value = binding
            if kind == "net" and value not in defined:
                raise SimulationError(f"PO {name}: undefined net {value!r}")

    # -- electrical --------------------------------------------------------------

    def net_loads(self, po_extra_load: Optional[float] = None
                  ) -> Dict[str, float]:
        """Capacitive load per net (fanout pin caps + PO external load).

        The intrinsic drain capacitance of the driver is *not* included
        here; it is added by callers that need the full switched
        capacitance, because for PIs there is no driver in the netlist.
        """
        library = self.library
        if po_extra_load is None:
            inverter = library.inverter()
            po_extra_load = library.pin_capacitance(
                inverter.name, inverter.inputs[0])
        loads: Dict[str, float] = {net: 0.0 for net in self.all_nets()}
        for gate in self.gates:
            cell = library.cell(gate.cell)
            for pin_index, net in enumerate(gate.inputs):
                loads[net] += library.pin_capacitance(
                    gate.cell, cell.inputs[pin_index])
        for _, binding in self.po_bindings:
            kind, value = binding
            if kind == "net":
                loads[value] += po_extra_load
        return loads

    def all_nets(self) -> List[str]:
        """All net names: PIs first, then gate outputs in topo order."""
        nets = list(self.pi_names)
        nets.extend(gate.output for gate in self.gates)
        return nets
