"""Newton-Raphson DC operating-point solver (MNA formulation).

Unknowns are the non-ground node voltages plus one branch current per
independent voltage source.  The residual is Kirchhoff's current law at
every node (sum of currents *leaving* the node) plus the source branch
constraints.  Nonlinear devices contribute numerically-differentiated
Jacobian entries, which keeps the stamps trivially consistent with the
compact model.

Robustness ladder: plain Newton from the supplied guess, then gmin
stepping (a shunt conductance from every transistor terminal to ground,
relaxed from 1e-3 S down to nothing), then source stepping.  The tiny
circuits in this project (gate leakage stacks, transmission gates,
inverter chains) converge in the first or second rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, NetlistError
from repro.spice.netlist import (
    AmbipolarFet,
    Capacitor,
    Circuit,
    CurrentSource,
    GROUND,
    Mosfet,
    Resistor,
    VoltageSource,
    canonical_node,
    element_nodes,
)
from repro.devices.model import drain_current

#: Absolute current tolerance for convergence (A).
ABSTOL = 1e-13
#: Voltage update tolerance for convergence (V).
VNTOL = 1e-9
#: Maximum Newton iterations per solve attempt.
MAX_ITERATIONS = 200
#: Maximum voltage update per Newton step (V) — damping.
MAX_STEP = 0.5
#: Shunt conductance always present on device terminals (S); keeps the
#: Jacobian non-singular for floating internal nodes of off stacks.
GMIN_FLOOR = 1e-15
#: Perturbation for numeric device derivatives (V).
DELTA = 1e-6


@dataclass
class DCSolution:
    """Result of a DC operating-point analysis."""

    node_voltages: Dict[str, float]
    branch_currents: Dict[str, float]
    iterations: int
    residual: float

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (ground returns 0.0)."""
        node = canonical_node(node)
        if node == GROUND:
            return 0.0
        try:
            return self.node_voltages[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> float:
        """Current through voltage source ``name`` (pos -> neg inside)."""
        try:
            return self.branch_currents[name]
        except KeyError:
            raise NetlistError(f"no voltage source named {name!r}") from None


class _System:
    """Index bookkeeping + residual/Jacobian assembly for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_index: Dict[str, int] = {}
        for element in circuit.elements:
            for node in element_nodes(element):
                node = canonical_node(node)
                if node != GROUND and node not in self.node_index:
                    self.node_index[node] = len(self.node_index)
        self.n_nodes = len(self.node_index)
        self.sources = circuit.voltage_sources()
        self.n_vars = self.n_nodes + len(self.sources)
        self.source_row = {
            src.name: self.n_nodes + k for k, src in enumerate(self.sources)}

    def index(self, node: str) -> int:
        """MNA index of a node, or -1 for ground."""
        node = canonical_node(node)
        return -1 if node == GROUND else self.node_index[node]

    def voltage_of(self, x: np.ndarray, node: str) -> float:
        idx = self.index(node)
        return 0.0 if idx < 0 else float(x[idx])

    def _device_current(self, element, x: np.ndarray) -> float:
        """Drain current of a transistor element at state ``x``."""
        vd = self.voltage_of(x, element.drain)
        vg = self.voltage_of(x, element.gate)
        vs = self.voltage_of(x, element.source)
        if isinstance(element, Mosfet):
            return drain_current(element.params, vg - vs, vd - vs)
        vpg = self.voltage_of(x, element.polarity_gate)
        return element.device.drain_current(vg, vpg, vd, vs, element.vdd)

    def residual_and_jacobian(
        self,
        x: np.ndarray,
        gmin: float,
        source_scale: float,
        time: float = 0.0,
        want_jacobian: bool = True,
    ):
        """Assemble f(x) and (optionally) J(x) at the given state."""
        n = self.n_vars
        f = np.zeros(n)
        jac = np.zeros((n, n)) if want_jacobian else None

        def add_f(idx: int, value: float) -> None:
            if idx >= 0:
                f[idx] += value

        def add_j(row: int, col: int, value: float) -> None:
            if jac is not None and row >= 0 and col >= 0:
                jac[row, col] += value

        shunt = gmin + GMIN_FLOOR
        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                a, b = self.index(element.node_a), self.index(element.node_b)
                g = 1.0 / element.resistance
                va = 0.0 if a < 0 else x[a]
                vb = 0.0 if b < 0 else x[b]
                current = g * (va - vb)
                add_f(a, current)
                add_f(b, -current)
                add_j(a, a, g)
                add_j(a, b, -g)
                add_j(b, a, -g)
                add_j(b, b, g)
            elif isinstance(element, Capacitor):
                continue  # open at DC
            elif isinstance(element, CurrentSource):
                value = element.current(time) * source_scale
                add_f(self.index(element.node_pos), value)
                add_f(self.index(element.node_neg), -value)
            elif isinstance(element, VoltageSource):
                row = self.source_row[element.name]
                p, m = self.index(element.node_pos), self.index(element.node_neg)
                branch = x[row]
                add_f(p, branch)
                add_f(m, -branch)
                add_j(p, row, 1.0)
                add_j(m, row, -1.0)
                vp = 0.0 if p < 0 else x[p]
                vm = 0.0 if m < 0 else x[m]
                f[row] = vp - vm - element.voltage(time) * source_scale
                add_j(row, p, 1.0)
                add_j(row, m, -1.0)
            elif isinstance(element, (Mosfet, AmbipolarFet)):
                d, s = self.index(element.drain), self.index(element.source)
                current = self._device_current(element, x)
                add_f(d, current)
                add_f(s, -current)
                # gmin shunts stabilize floating stacks.
                for idx in (d, s):
                    if idx >= 0:
                        f[idx] += shunt * x[idx]
                        add_j(idx, idx, shunt)
                if jac is not None:
                    terminals = [element.drain, element.gate, element.source]
                    if isinstance(element, AmbipolarFet):
                        terminals.append(element.polarity_gate)
                    for terminal in terminals:
                        col = self.index(terminal)
                        if col < 0:
                            continue
                        x[col] += DELTA
                        perturbed = self._device_current(element, x)
                        x[col] -= DELTA
                        didv = (perturbed - current) / DELTA
                        add_j(d, col, didv)
                        add_j(s, col, -didv)
            else:
                raise NetlistError(
                    f"unsupported element {type(element).__name__}")
        return f, jac


def _newton(system: _System, x0: np.ndarray, gmin: float,
            source_scale: float, time: float = 0.0):
    """One Newton solve; returns (x, iterations, residual) or raises."""
    x = x0.copy()
    residual = float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        f, jac = system.residual_and_jacobian(x, gmin, source_scale, time)
        residual = float(np.max(np.abs(f))) if len(f) else 0.0
        try:
            dx = np.linalg.solve(jac, -f) if len(f) else np.zeros(0)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian", residual)
        step = float(np.max(np.abs(dx))) if len(dx) else 0.0
        if step > MAX_STEP:
            dx *= MAX_STEP / step
        x += dx
        if residual < ABSTOL and step < VNTOL:
            return x, iteration, residual
    raise ConvergenceError(
        f"Newton failed after {MAX_ITERATIONS} iterations", residual)


def _solve_robust(system: _System, x0: np.ndarray, time: float = 0.0):
    """Newton with gmin stepping, then source stepping as fallback."""
    try:
        return _newton(system, x0, 0.0, 1.0, time)
    except ConvergenceError:
        pass
    # gmin stepping
    x = x0.copy()
    try:
        for exponent in range(3, 13):
            x, _, _ = _newton(system, x, 10.0**-exponent, 1.0, time)
        return _newton(system, x, 0.0, 1.0, time)
    except ConvergenceError:
        pass
    # source stepping
    x = np.zeros_like(x0)
    total_iterations = 0
    for scale in np.linspace(0.1, 1.0, 10):
        x, iterations, residual = _newton(system, x, 0.0, float(scale), time)
        total_iterations += iterations
    return x, total_iterations, residual


def operating_point(circuit: Circuit,
                    guess: Optional[Dict[str, float]] = None,
                    time: float = 0.0) -> DCSolution:
    """Compute the DC operating point of ``circuit``.

    Args:
        circuit: the netlist to solve.
        guess: optional initial node voltages (defaults to 0 V everywhere).
        time: timepoint at which time-dependent sources are evaluated.

    Returns:
        A :class:`DCSolution` with node voltages and source branch currents.

    Raises:
        ConvergenceError: if all solver strategies fail.
    """
    system = _System(circuit)
    x0 = np.zeros(system.n_vars)
    if guess:
        for node, voltage in guess.items():
            idx = system.index(node)
            if idx >= 0:
                x0[idx] = voltage
    x, iterations, residual = _solve_robust(system, x0, time)
    voltages = {node: float(x[idx]) for node, idx in system.node_index.items()}
    currents = {src.name: float(x[system.source_row[src.name]])
                for src in system.sources}
    return DCSolution(voltages, currents, iterations, residual)


def dc_sweep(circuit: Circuit, source_name: str,
             values: Sequence[float]) -> List[DCSolution]:
    """Sweep a voltage source over ``values``, reusing previous solutions.

    The named source's value is temporarily replaced; the circuit is
    restored afterwards.
    """
    source = circuit.element(source_name)
    if not isinstance(source, VoltageSource):
        raise NetlistError(f"{source_name!r} is not a voltage source")
    original = source.value
    solutions: List[DCSolution] = []
    guess: Optional[Dict[str, float]] = None
    try:
        for value in values:
            source.value = float(value)
            solution = operating_point(circuit, guess)
            solutions.append(solution)
            guess = solution.node_voltages
    finally:
        source.value = original
    return solutions
