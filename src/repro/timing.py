"""Static timing analysis of mapped netlists.

The power model needs the critical delay (Table 1's delay column, the
EDP definition).  The design-space optimizer additionally needs
*feasibility*: a (vdd, frequency) operating point is meaningless when
the clock period is shorter than the critical path of the circuit
mapped at that supply.  This module owns that timing model:

* :func:`arrival_times` — topological arrival propagation over a
  mapped netlist with **real fanout loads** (every gate's delay uses
  the library's linear model at the actual capacitance of the net it
  drives).  With an explicit ``loads`` mapping it replays any load
  model instead — in particular the mapper's per-node load estimates
  (:attr:`MappedNetlist.mapper_loads`), which reproduces the mapper's
  internal per-node ``arrival`` values bit for bit (locked by property
  tests).
* :func:`analyze_timing` — the full :class:`TimingReport`: critical
  delay, the maximum feasible clock frequency, per-PO arrivals and the
  critical path traced gate by gate.
* :func:`timing_report` — the report of a netlist, memoized on the
  netlist instance and nowhere else.  A report is a pure function of
  its netlist, and propagating it costs less than reading it back: the
  paper grid's 36 reports compute in about 0.1 s, less than reading
  them from a disk cache would take.  Mapped netlists are not
  persisted, so whoever asks for a report has just built the netlist;
  an LRU or a disk entry could only save a computation that is cheaper
  than its own lookup.

Timing is vdd-aware through the library: a library characterized at a
different supply has different cell timings, so the same circuit
yields a different report per vdd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.synth.netlist import MappedNetlist

#: Attribute memoizing a netlist's timing report on the instance.
_REPORT_ATTR = "_repro_timing_report"


@dataclass(frozen=True)
class PathSegment:
    """One gate on the critical path (in input-to-output order)."""

    gate: str      # instance name
    cell: str      # library cell
    output: str    # driven net
    arrival_s: float


@dataclass(frozen=True)
class TimingReport:
    """The static-timing answer for one mapped netlist.

    ``critical_delay_s`` is the worst PO arrival — the Table 1 delay
    column.  ``fmax_hz`` is its
    reciprocal: the fastest clock at which every output settles within
    one period.  A gateless (constant-output) circuit has zero delay
    and an unbounded ``fmax_hz`` (``math.inf``).
    """

    circuit: str
    library: str
    vdd: float
    critical_delay_s: float
    #: Arrival time per net (PIs at 0.0), topological order preserved.
    arrivals: Dict[str, float]
    #: Arrival per primary output (constant-bound POs at 0.0).
    po_arrivals: Dict[str, float]
    #: The PO that sets the critical delay (None when gateless).
    critical_po: Optional[str]
    #: The critical path, PI side first.
    critical_path: Tuple[PathSegment, ...]
    gate_count: int

    @property
    def fmax_hz(self) -> float:
        """Maximum feasible clock frequency (inf for zero delay)."""
        if self.critical_delay_s <= 0.0:
            return math.inf
        return 1.0 / self.critical_delay_s

    def slack_s(self, frequency: float) -> float:
        """Clock period minus critical delay (negative = infeasible)."""
        if frequency <= 0:
            raise SimulationError(
                f"frequency must be positive, got {frequency!r}")
        return 1.0 / frequency - self.critical_delay_s

    def feasible(self, frequency: float) -> bool:
        """True iff one clock period covers the critical path."""
        return self.slack_s(frequency) >= 0.0


def arrival_times(netlist: MappedNetlist,
                  loads: Optional[Mapping[str, float]] = None,
                  po_extra_load: Optional[float] = None
                  ) -> Tuple[float, Dict[str, float]]:
    """Topological arrival propagation; ``(critical, arrival_by_net)``.

    ``loads=None`` uses the real per-net fanout capacitances
    (:meth:`MappedNetlist.net_loads`, plus the PO external load) — the
    Table 1 delay model.  An explicit ``loads``
    mapping (net -> farads) replays an alternative load model; passing
    a netlist's :attr:`~MappedNetlist.mapper_loads` reproduces the
    mapper's internal delay-DP arrivals exactly.
    """
    library = netlist.library
    if loads is None:
        loads = netlist.net_loads(po_extra_load)
    arrival: Dict[str, float] = {net: 0.0 for net in netlist.pi_names}
    for gate in netlist.gates:
        input_arrival = max((arrival[net] for net in gate.inputs),
                            default=0.0)
        delay = library.timing(gate.cell).delay(loads[gate.output])
        arrival[gate.output] = input_arrival + delay
    critical = 0.0
    for _, binding in netlist.po_bindings:
        kind, value = binding
        if kind == "net":
            critical = max(critical, arrival[value])
    return critical, arrival


def _trace_critical_path(netlist: MappedNetlist,
                         arrival: Dict[str, float],
                         critical_net: Optional[str]
                         ) -> Tuple[PathSegment, ...]:
    """Walk back from the critical net along worst-arrival inputs."""
    if critical_net is None:
        return ()
    drivers = {gate.output: gate for gate in netlist.gates}
    path: List[PathSegment] = []
    net = critical_net
    while net in drivers:
        gate = drivers[net]
        path.append(PathSegment(gate=gate.name, cell=gate.cell,
                                output=net, arrival_s=arrival[net]))
        if not gate.inputs:
            break
        # The worst input keeps the walk on the critical path; ties
        # resolve to the first pin, so the trace is deterministic.
        net = max(gate.inputs, key=lambda name: (arrival[name],))
        if arrival[net] == 0.0 and net not in drivers:
            break
    path.reverse()
    return tuple(path)


def analyze_timing(netlist: MappedNetlist,
                   po_extra_load: Optional[float] = None) -> TimingReport:
    """Compute a :class:`TimingReport` (unmemoized; see
    :func:`timing_report` for the memoized entry point)."""
    critical, arrival = arrival_times(netlist, po_extra_load=po_extra_load)
    po_arrivals: Dict[str, float] = {}
    critical_po: Optional[str] = None
    critical_net: Optional[str] = None
    for name, (kind, value) in netlist.po_bindings:
        if kind == "net":
            po_arrivals[name] = arrival[value]
            if critical_po is None or arrival[value] > po_arrivals[critical_po]:
                critical_po = name
                critical_net = value
        else:
            po_arrivals[name] = 0.0
    return TimingReport(
        circuit=netlist.name,
        library=netlist.library.name,
        vdd=netlist.library.tech.vdd,
        critical_delay_s=critical,
        arrivals=arrival,
        po_arrivals=po_arrivals,
        critical_po=critical_po,
        critical_path=_trace_critical_path(netlist, arrival, critical_net),
        gate_count=netlist.gate_count,
    )


def timing_report(netlist: MappedNetlist) -> TimingReport:
    """The timing report of a mapped netlist, memoized on the instance.

    The first call runs :func:`analyze_timing`; later calls on the same
    netlist return that object, so treat it as immutable.
    """
    report = netlist.__dict__.get(_REPORT_ATTR)
    if report is None:
        report = netlist.__dict__[_REPORT_ATTR] = analyze_timing(netlist)
    return report
