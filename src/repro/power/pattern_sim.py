"""Circuit-level quantification of leakage patterns (Fig. 5, step 2).

Each distinct pattern is a series/parallel stack of off transistors
between the rails.  We realize it as a SPICE netlist — every off device
an n-type transistor with its gate grounded (the paper's n/p symmetry
assumption) — and solve the DC operating point; internal stack nodes
float to their self-consistent potentials, which is precisely what
produces the stack effect (series patterns leak far less than parallel
ones, Fig. 4).

Results are cached at two levels:

* in memory per (pattern, technology): the whole 46-cell library needs
  only a few dozen operating points instead of one per (cell, input
  vector) pair — the computational payoff of the paper's classification
  method;
* on disk via :mod:`repro.cache`, keyed by a stable hash of the
  :class:`~repro.devices.parameters.TechnologyParams`, so repeat runs
  and worker processes skip every previously-solved operating point.
  Entries invalidate automatically when any technology parameter
  changes (the key changes with it).  Set ``REPRO_CACHE_DISABLE=1`` or
  pass ``disk_cache=None`` explicitly to opt out.

``solves`` counts actual SPICE solutions; ``cache_size`` and
``pattern_keys`` describe only the patterns *requested from this
simulator*, regardless of whether the answer came from SPICE or disk —
so characterization reports stay meaningful on a warm cache.  Every
solve of any simulator also counts ``spice.solves`` in
:mod:`repro.obs`: the foundry's zero-live-solves guarantee is asserted
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.cache import DiskCache, default_cache, stable_hash
from repro.devices.parameters import TechnologyParams
from repro.power.patterns import DEVICE, LeakagePattern, PatternTree
from repro.spice.dc import operating_point
from repro.spice.netlist import Circuit, GROUND

_SENTINEL = object()

#: Disk-cache namespace for pattern DC solutions.
PATTERN_NAMESPACE = "patterns"


@dataclass(frozen=True)
class PatternCurrents:
    """DC leakage of one pattern in one technology."""

    i_off: float      # A, rail-to-rail subthreshold current
    n_devices: int    # devices in the pattern


class PatternSimulator:
    """Evaluates and caches pattern leakage for one technology."""

    def __init__(self, tech: TechnologyParams,
                 disk_cache: object = _SENTINEL):
        self.tech = tech
        self._cache: Dict[str, PatternCurrents] = {}
        self._solves = 0
        self._disk: Optional[DiskCache] = (
            default_cache() if disk_cache is _SENTINEL else disk_cache)
        self._tech_key = stable_hash(tech)
        self._persistent: Dict[str, PatternCurrents] = {}
        if self._disk is not None:
            stored = self._disk.get(PATTERN_NAMESPACE, self._tech_key)
            if isinstance(stored, dict):
                for key, value in stored.items():
                    try:
                        i_off, n_devices = value
                        self._persistent[key] = PatternCurrents(
                            float(i_off), int(n_devices))
                    except (TypeError, ValueError):
                        continue

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
        if cached is not None:
            return cached
        result = self._persistent.get(key)
        if result is None:
            result = self._simulate(pattern)
            self._persistent[key] = result
            if self._disk is not None:
                self._disk.merge(
                    PATTERN_NAMESPACE, self._tech_key,
                    {key: [result.i_off, result.n_devices]})
        self._cache[key] = result
        return result

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
