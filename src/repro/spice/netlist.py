"""Circuit netlist representation for the MNA engine.

A :class:`Circuit` is a bag of named nodes and elements.  Node ``"0"``
(alias ``"gnd"``) is ground.  Element values may be plain floats or, for
independent sources, callables of time (used by the transient engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from repro.devices.ambipolar import AmbipolarCNTFET
from repro.devices.parameters import DeviceParams
from repro.errors import NetlistError

#: Canonical name of the ground node.
GROUND = "0"

SourceValue = Union[float, Callable[[float], float]]


def _evaluate_source(value: SourceValue, time: float) -> float:
    """Evaluate a source value, which may be constant or time-dependent."""
    if callable(value):
        return float(value(time))
    return float(value)


@dataclass
class Resistor:
    """Linear resistor between two nodes."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise NetlistError(f"resistor {self.name}: resistance must be > 0")


@dataclass
class Capacitor:
    """Linear capacitor between two nodes (transient only; open at DC)."""

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0:
            raise NetlistError(f"capacitor {self.name}: capacitance must be > 0")


@dataclass
class VoltageSource:
    """Independent voltage source from ``node_pos`` to ``node_neg``."""

    name: str
    node_pos: str
    node_neg: str
    value: SourceValue

    def voltage(self, time: float = 0.0) -> float:
        """Source voltage at ``time`` (constant sources ignore time)."""
        return _evaluate_source(self.value, time)


@dataclass
class CurrentSource:
    """Independent current source pushing current node_pos -> node_neg."""

    name: str
    node_pos: str
    node_neg: str
    value: SourceValue

    def current(self, time: float = 0.0) -> float:
        """Source current at ``time`` (constant sources ignore time)."""
        return _evaluate_source(self.value, time)


@dataclass
class Mosfet:
    """Unipolar MOSFET/CNTFET with fixed polarity.

    Terminal order is drain, gate, source; the bulk is implicit in the
    compact model.  ``params.polarity`` decides n/p behaviour.
    """

    name: str
    drain: str
    gate: str
    source: str
    params: DeviceParams


@dataclass
class AmbipolarFet:
    """Ambipolar CNTFET with an explicit polarity-gate terminal (Fig. 1).

    Modelled as the behavioural parallel n/p pair of
    :class:`repro.devices.ambipolar.AmbipolarCNTFET`.
    """

    name: str
    drain: str
    gate: str
    polarity_gate: str
    source: str
    device: AmbipolarCNTFET
    vdd: float


Element = Union[Resistor, Capacitor, VoltageSource, CurrentSource,
                Mosfet, AmbipolarFet]


@dataclass
class Circuit:
    """A flat circuit netlist.

    Example::

        ckt = Circuit("inverter")
        ckt.add_vsource("vdd", "vdd", GROUND, 0.9)
        ckt.add_vsource("vin", "in", GROUND, 0.0)
        ckt.add_mosfet("mp", "out", "in", "vdd", tech.pmos)
        ckt.add_mosfet("mn", "out", "in", GROUND, tech.nmos)
        solution = operating_point(ckt)
    """

    title: str = "untitled"
    elements: List[Element] = field(default_factory=list)
    _names: Dict[str, Element] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------

    def _register(self, element: Element) -> Element:
        if element.name in self._names:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._names[element.name] = element
        self.elements.append(element)
        return element

    def add_resistor(self, name: str, node_a: str, node_b: str,
                     resistance: float) -> Resistor:
        """Add a resistor and return it."""
        return self._register(Resistor(name, node_a, node_b, resistance))

    def add_capacitor(self, name: str, node_a: str, node_b: str,
                      capacitance: float) -> Capacitor:
        """Add a capacitor and return it."""
        return self._register(Capacitor(name, node_a, node_b, capacitance))

    def add_vsource(self, name: str, node_pos: str, node_neg: str,
                    value: SourceValue) -> VoltageSource:
        """Add an independent voltage source and return it."""
        return self._register(VoltageSource(name, node_pos, node_neg, value))

    def add_isource(self, name: str, node_pos: str, node_neg: str,
                    value: SourceValue) -> CurrentSource:
        """Add an independent current source and return it."""
        return self._register(CurrentSource(name, node_pos, node_neg, value))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   params: DeviceParams) -> Mosfet:
        """Add a unipolar transistor and return it."""
        return self._register(Mosfet(name, drain, gate, source, params))

    def add_ambipolar(self, name: str, drain: str, gate: str,
                      polarity_gate: str, source: str,
                      device: AmbipolarCNTFET, vdd: float) -> AmbipolarFet:
        """Add an in-field programmable ambipolar CNTFET and return it."""
        return self._register(
            AmbipolarFet(name, drain, gate, polarity_gate, source, device, vdd))

    # -- queries ---------------------------------------------------------

    def element(self, name: str) -> Element:
        """Look an element up by name."""
        try:
            return self._names[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def node_names(self) -> List[str]:
        """All node names referenced by the circuit, ground excluded."""
        seen: Dict[str, None] = {}
        for element in self.elements:
            for node in element_nodes(element):
                if node not in (GROUND, "gnd") and node not in seen:
                    seen[node] = None
        return list(seen)

    def voltage_sources(self) -> List[VoltageSource]:
        """All independent voltage sources, in insertion order."""
        return [e for e in self.elements if isinstance(e, VoltageSource)]


def element_nodes(element: Element) -> List[str]:
    """Terminal node names of an element."""
    if isinstance(element, (Resistor, Capacitor)):
        return [element.node_a, element.node_b]
    if isinstance(element, (VoltageSource, CurrentSource)):
        return [element.node_pos, element.node_neg]
    if isinstance(element, Mosfet):
        return [element.drain, element.gate, element.source]
    if isinstance(element, AmbipolarFet):
        return [element.drain, element.gate, element.polarity_gate,
                element.source]
    raise NetlistError(f"unknown element type {type(element).__name__}")


def canonical_node(name: str) -> str:
    """Normalize ground aliases to :data:`GROUND`."""
    return GROUND if name in (GROUND, "gnd", "GND", "vss", "VSS") else name
