"""Circuit-level quantification of leakage patterns (Fig. 5, step 2).

Each distinct pattern is a series/parallel stack of off transistors
between the rails.  We realize it as a SPICE netlist — every off device
an n-type transistor with its gate grounded (the paper's n/p symmetry
assumption) — and solve the DC operating point; internal stack nodes
float to their self-consistent potentials, which is precisely what
produces the stack effect (series patterns leak far less than parallel
ones, Fig. 4).

Results are memoized per simulator, i.e. per (pattern, technology):
the whole 46-cell library needs only a few dozen operating points
instead of one per (cell, input vector) pair — the computational
payoff of the paper's classification method.  Nothing is stored on
disk here; the persisted form of a characterization is the library's
leakage-table entry (``_LeakageTables.for_library``).

``solves`` counts actual SPICE solutions; ``cache_size`` and
``pattern_keys`` describe the distinct patterns requested from this
simulator.  Every solve of any simulator also counts ``spice.solves``
in :mod:`repro.obs`: the zero-live-solves guarantee of a prebuilt
store is asserted against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.devices.parameters import TechnologyParams
from repro.power.patterns import DEVICE, LeakagePattern, PatternTree
from repro.spice.dc import operating_point
from repro.spice.netlist import Circuit, GROUND


@dataclass(frozen=True)
class PatternCurrents:
    """DC leakage of one pattern in one technology."""

    i_off: float      # A, rail-to-rail subthreshold current
    n_devices: int    # devices in the pattern


class PatternSimulator:
    """Evaluates and caches pattern leakage for one technology."""

    def __init__(self, tech: TechnologyParams):
        self.tech = tech
        self._cache: Dict[str, PatternCurrents] = {}
        self._solves = 0

    @property
    def solves(self) -> int:
        """Number of SPICE operating points actually computed."""
        return self._solves

    @property
    def cache_size(self) -> int:
        """Distinct patterns requested from this simulator."""
        return len(self._cache)

    @property
    def pattern_keys(self):
        """Canonical keys of every pattern evaluated so far."""
        return set(self._cache)

    def off_current(self, pattern: LeakagePattern) -> float:
        """Rail-to-rail subthreshold current of the pattern (A)."""
        return self.currents(pattern).i_off

    def currents(self, pattern: LeakagePattern) -> PatternCurrents:
        """Cached DC solution for the pattern."""
        key = pattern.key
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._simulate(pattern)
        return cached

    def _simulate(self, pattern: LeakagePattern) -> PatternCurrents:
        circuit = Circuit(f"pattern {pattern.key}")
        circuit.add_vsource("vdd", "top", GROUND, self.tech.vdd)
        counter = [0]

        def build(tree: PatternTree, top: str, bottom: str) -> None:
            if tree == DEVICE:
                counter[0] += 1
                # Off n-device: gate grounded; source/drain resolved by
                # the solver (the model is symmetric in the terminals).
                circuit.add_mosfet(
                    f"m{counter[0]}", top, GROUND, bottom, self.tech.nmos)
                return
            tag = tree[0]
            children = tree[1:]
            if tag == "p":
                for child in children:
                    build(child, top, bottom)
                return
            # series chain through internal nodes
            previous = top
            for index, child in enumerate(children):
                counter[0] += 1
                is_last = index == len(children) - 1
                nxt = bottom if is_last else f"x{counter[0]}"
                build(child, previous, nxt)
                previous = nxt

        build(pattern.tree, "top", GROUND)
        solution = operating_point(circuit)
        i_off = -solution.source_current("vdd")
        self._solves += 1
        obs.count("spice.solves")
        return PatternCurrents(i_off=i_off, n_devices=pattern.n_devices)
