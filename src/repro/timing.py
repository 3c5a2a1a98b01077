"""Static timing analysis as a first-class, cacheable subsystem.

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
* :func:`timing_report` — the cached entry point.  Reports are
  content-addressed by everything the numbers depend on (netlist
  structure *plus* the library's electrical characterization, which is
  vdd-dependent) and climb the same :class:`~repro.cache.Ladder` as
  activity statistics, so a server answering feasibility questions for
  a known (circuit, library, vdd) never re-propagates, and a fleet of
  cold workers propagates once.

Timing is vdd-aware through the library: a library characterized at a
different supply has different cell timings, so the same circuit
yields a different report (and a different cache key) per vdd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cache import Ladder, stable_hash
from repro.errors import SimulationError
from repro.synth.netlist import MappedNetlist

#: Disk-cache namespace for persisted timing reports.
TIMING_NAMESPACE = "timing"

#: Version of the hashed key payload *and* the stored layout.  Bump on
#: any change to either; old disk entries are then never read again.
TIMING_VERSION = 1

#: Default capacity of the per-process timing-report LRU.  Reports are
#: a few KB (arrival floats per net), so this is megabytes worst case.
DEFAULT_MAX_CACHED_REPORTS = 64

#: Attribute memoizing a netlist's timing report on the instance.
_REPORT_ATTR = "_repro_timing_report"


@dataclass(frozen=True)
class PathSegment:
    """One gate on the critical path (in input-to-output order)."""

    gate: str      # instance name
    cell: str      # library cell
    output: str    # driven net
    arrival_s: float

    def to_payload(self) -> List[Any]:
        return [self.gate, self.cell, self.output, self.arrival_s]

    @classmethod
    def from_payload(cls, data: List[Any]) -> "PathSegment":
        gate, cell, output, arrival_s = data
        return cls(gate, cell, output, float(arrival_s))


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

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON form for the disk cache (floats ride by value)."""
        return {
            "circuit": self.circuit,
            "library": self.library,
            "vdd": self.vdd,
            "critical_delay_s": self.critical_delay_s,
            "arrivals": dict(self.arrivals),
            "po_arrivals": dict(self.po_arrivals),
            "critical_po": self.critical_po,
            "critical_path": [segment.to_payload()
                              for segment in self.critical_path],
            "gate_count": self.gate_count,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "TimingReport":
        return cls(
            circuit=data["circuit"],
            library=data["library"],
            vdd=float(data["vdd"]),
            critical_delay_s=float(data["critical_delay_s"]),
            arrivals={str(net): float(value)
                      for net, value in data["arrivals"].items()},
            po_arrivals={str(name): float(value)
                         for name, value in data["po_arrivals"].items()},
            critical_po=data["critical_po"],
            critical_path=tuple(PathSegment.from_payload(entry)
                                for entry in data["critical_path"]),
            gate_count=int(data["gate_count"]),
        )


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
    """Compute a :class:`TimingReport` (uncached; see
    :func:`timing_report` for the cached entry point)."""
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


# -- the content-addressed cache ----------------------------------------------


def netlist_timing_key(netlist: MappedNetlist) -> str:
    """Content hash of everything the timing report depends on.

    The activity key covers the logic structure (PI order, gate list,
    truth tables); timing additionally depends on the PO bindings (they
    pick the critical net and add external load) and the library's
    electrical characterization — per-cell intrinsic/slope timing, pin
    and output capacitances — which is how vdd awareness enters: the
    same circuit mapped on the same library at a different supply has
    different electricals and therefore a different key.
    """
    # Imported here: repro.sim's package init imports this module, so a
    # top-level import would make ``import repro.timing`` circular.
    from repro.sim.activity import netlist_activity_key

    library = netlist.library
    cell_names = sorted({gate.cell for gate in netlist.gates})
    inverter = library.inverter()
    electricals = {}
    for name in cell_names:
        timing = library.timing(name)
        electricals[name] = [
            timing.intrinsic,
            timing.slope,
            [library.pin_capacitance(name, pin)
             for pin in library.cell(name).inputs],
            library.output_capacitance(name),
        ]
    return stable_hash({
        "version": TIMING_VERSION,
        "netlist": netlist_activity_key(netlist),
        "pos": [[name, kind, value]
                for name, (kind, value) in netlist.po_bindings],
        "cells": electricals,
        "po_extra_load": library.pin_capacitance(inverter.name,
                                                 inverter.inputs[0]),
    })


def _decode(payload: Any, netlist: MappedNetlist) -> Optional[TimingReport]:
    """A disk entry as a report, if it fits the requesting netlist."""
    if not isinstance(payload, dict):
        return None
    arrivals = payload.get("arrivals")
    if not isinstance(arrivals, dict):
        return None
    if payload.get("gate_count") != netlist.gate_count:
        return None
    for net in netlist.all_nets():
        if net not in arrivals:
            return None
    po_arrivals = payload.get("po_arrivals")
    if not isinstance(po_arrivals, dict):
        return None
    if not all(name in po_arrivals for name, _ in netlist.po_bindings):
        return None
    return TimingReport.from_payload(payload)


#: The process-wide timing-report ladder (LRU, disk, single-flight).
#: Its counters are ``timing.*``.
LADDER = Ladder(TIMING_NAMESPACE, TimingReport.to_payload, _decode,
                maxsize=DEFAULT_MAX_CACHED_REPORTS)


def timing_report(netlist: MappedNetlist) -> TimingReport:
    """The (cached) timing report of a mapped netlist.

    Memoized on the netlist instance, then :data:`LADDER` — the
    per-process LRU, the :mod:`repro.cache` disk store and a
    single-flight propagation, the same ladder activity statistics
    climb.  The key is a content hash (:func:`netlist_timing_key`), so
    it never needs invalidating: a re-characterized library or a
    remapped circuit produces a fresh key.  The returned object is
    shared — treat it as immutable.
    """
    report = netlist.__dict__.get(_REPORT_ATTR)
    if report is None:
        report = LADDER.get(netlist_timing_key(netlist), netlist,
                            lambda: analyze_timing(netlist))
        netlist.__dict__[_REPORT_ATTR] = report
    return report
