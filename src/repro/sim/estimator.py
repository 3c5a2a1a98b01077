"""Circuit-level power estimation (the Table 1 methodology).

For a mapped netlist the estimator combines:

* measured per-net toggle rates (640 K random patterns by default) with
  per-net switched capacitance for PD (Eq. 2) and PSC (Eq. 3);
* the pattern-classified per-cell leakage tables, weighted by the
  input-state frequencies observed in simulation, for PS (Eq. 4) and
  PG (Eq. 5);
* static timing for the critical delay, and the EDP definition used by
  Table 1: (PT / f) * delay.

Estimation is split into two layers.  The *activity* layer
(:mod:`repro.sim.activity`) simulates once per (netlist content,
pattern budget) and caches the result.  The *pricing* layer here — a
:class:`PricingModel` bound to one netlist, folded with one
simulation's statistics into a :class:`BoundPricing` — turns those
statistics into the Eq. 1-5 components with whole-netlist numpy
reductions, so repricing a circuit at a new operating point costs
microseconds.  :func:`estimate_many` broadcasts that over an array of
``(vdd, frequency, fanout)`` points in one pass;
:func:`estimate_circuit_power` is the same call at a single point.

Every reduction reproduces the historical per-gate Python loops bit
for bit: elementwise terms are formed in the same association order
and summed with ``np.add.accumulate`` (a strict left fold, unlike the
pairwise ``np.sum``), so the vectorized path and the original scalar
path are interchangeable anywhere.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.cache import DiskCache, Ladder, LruCache, stable_hash
from repro.errors import SimulationError
from repro.gates.library import Library
from repro.power.model import (
    PowerParameters,
    energy_delay_product,
    SHORT_CIRCUIT_FRACTION,
)
from repro.power.pattern_sim import PatternSimulator
from repro.power.patterns import (
    stage_off_pattern,
    stage_on_devices,
    stage_vector_groups,
)
from repro.sim.activity import netlist_activity_key, simulation_stats
from repro.sim.arraysim import SimulationStats
from repro.synth.netlist import MappedNetlist
from repro.timing import timing_report


@dataclass(frozen=True)
class CircuitPowerReport:
    """Table 1 row data for one circuit / one library."""

    circuit: str
    library: str
    gate_count: int
    delay: float           # s
    p_dynamic: float       # W
    p_short_circuit: float # W
    p_static: float        # W
    p_gate_leak: float     # W
    n_patterns: int

    @property
    def p_total(self) -> float:
        """PT = PD + PSC + PS + PG (Eq. 1)."""
        return (self.p_dynamic + self.p_short_circuit
                + self.p_static + self.p_gate_leak)

    def edp(self, params: PowerParameters) -> float:
        """Energy-delay product, J*s (Table 1 definition)."""
        return energy_delay_product(self.p_total, self.delay, params)


#: Disk-cache namespace for per-library leakage tables.
_LEAKAGE_NAMESPACE = "leakage"


def _library_content_key(library: Library) -> str:
    """Stable content hash of everything the leakage tables depend on.

    Covers the technology parameters and each cell's full definition
    (pins, truth table and stage topologies), so any change — a tweaked
    ``TechnologyParams`` field, a re-sized stack — yields a fresh key
    and the stale disk entry is never read again.
    """
    cells = [(cell.name, list(cell.inputs), cell.truth_table,
              repr(cell.stages)) for cell in library]
    return stable_hash([library.name, library.tech, cells])


class _LeakageTables:
    """Per-cell leakage lookup tables for one library.

    ``i_off[cell][v]`` is the summed pattern current for input vector v;
    ``i_gate[cell][v]`` the gate-tunneling current.  Built once per
    library via the pattern simulator (Fig. 5 flow), reused across
    circuits, and persisted through :mod:`repro.cache` so repeat runs
    and worker processes skip the SPICE characterization entirely (and
    cold workers characterize a library once between them).
    """

    _cache: "weakref.WeakKeyDictionary[Library, _LeakageTables]"
    _cache = weakref.WeakKeyDictionary()

    def __init__(self, library: Library,
                 stored: Optional[Dict[str, Dict[str, list]]] = None):
        self.i_off: Dict[str, np.ndarray] = {}
        self.i_gate: Dict[str, np.ndarray] = {}
        if stored is not None:
            for cell in library:
                entry = stored[cell.name]
                self.i_off[cell.name] = np.asarray(entry["i_off"], dtype=float)
                self.i_gate[cell.name] = np.asarray(entry["i_gate"],
                                                    dtype=float)
            return
        # Batched cold build: vectors are grouped per stage by the
        # stage's support-signal assignment, so each distinct local
        # state is reduced and quantified once and scattered to every
        # vector producing it.  Per-vector currents accumulate stage by
        # stage in ``all_stages`` order — the same addition sequence as
        # the historical per-vector ``sum(...)`` loop, bit for bit.
        simulator = PatternSimulator(library.tech)
        ig_unit = library.tech.nmos.ig_on
        for cell in library:
            n_vectors = 1 << cell.n_inputs
            off = np.zeros(n_vectors)
            on_devices = np.zeros(n_vectors, dtype=np.int64)
            for stage, groups in stage_vector_groups(cell):
                stage_off = np.zeros(n_vectors)
                stage_on = np.zeros(n_vectors, dtype=np.int64)
                for assignment, vectors in groups:
                    pattern = stage_off_pattern(stage, assignment)
                    stage_off[vectors] = simulator.off_current(pattern)
                    stage_on[vectors] = stage_on_devices(stage, assignment)
                off += stage_off
                on_devices += stage_on
            self.i_off[cell.name] = off
            self.i_gate[cell.name] = on_devices * ig_unit

    def _serialize(self) -> Dict[str, Dict[str, list]]:
        return {name: {"i_off": self.i_off[name].tolist(),
                       "i_gate": self.i_gate[name].tolist()}
                for name in self.i_off}

    @classmethod
    def _valid_stored(cls, stored, library: Library) -> bool:
        if not isinstance(stored, dict):
            return False
        for cell in library:
            entry = stored.get(cell.name)
            if not isinstance(entry, dict):
                return False
            size = 1 << cell.n_inputs
            for field_name in ("i_off", "i_gate"):
                values = entry.get(field_name)
                if not isinstance(values, list) or len(values) != size:
                    return False
        return True

    @classmethod
    def _decode(cls, stored, library: Library) -> Optional["_LeakageTables"]:
        if not cls._valid_stored(stored, library):
            return None
        return cls(library, stored)

    @classmethod
    def for_library(cls, library: Library,
                    disk: Optional[DiskCache] = None) -> "_LeakageTables":
        """The library's tables: its instance memo, then the ladder.

        The ladder entry is the only stored form of a characterization:
        a process whose store holds it solves nothing in SPICE.
        ``disk`` overrides the environment's store (the foundry builds
        against its own root).
        """
        tables = cls._cache.get(library)
        if tables is None:
            tables = _LEAKAGE_LADDER.get(_library_content_key(library),
                                         library, lambda: cls(library),
                                         disk)
            cls._cache[library] = tables
        return tables


#: Leakage tables climb the shared ladder without an LRU tier: the
#: instance memo on each library already holds them.  Its counters are
#: ``leakage.*``.
_LEAKAGE_LADDER = Ladder(_LEAKAGE_NAMESPACE, _LeakageTables._serialize,
                         _LeakageTables._decode)


def switched_capacitance(netlist: MappedNetlist) -> Dict[str, float]:
    """Full switched capacitance per gate-output net.

    Fanout pin capacitance (plus the PO external load) from
    :meth:`MappedNetlist.net_loads`, plus the driver's intrinsic drain
    capacitance.  Shared by every estimator backend.
    """
    loads = netlist.net_loads()
    library = netlist.library
    caps: Dict[str, float] = {}
    for gate in netlist.gates:
        caps[gate.output] = (loads[gate.output]
                             + library.output_capacitance(gate.cell))
    return caps


#: Attribute memoizing the pricing model on a netlist instance.
_MODEL_ATTR = "_repro_pricing_model"

#: Bound pricings kept alive per model (each holds one stats object).
_MAX_BOUND = 4


class PricingModel:
    """The activity-independent pricing arrays of one mapped netlist.

    Built once per netlist (and its library's leakage tables) via
    :meth:`for_netlist`: per-gate switched capacitance, the critical
    delay, and the per-gate leakage-table references.  Folding it with
    one simulation's statistics (:meth:`bind`) yields a
    :class:`BoundPricing`, after which every operating point is pure
    vector arithmetic.
    """

    def __init__(self, netlist: MappedNetlist):
        self.netlist = netlist
        caps = switched_capacitance(netlist)
        self.switched_caps = np.array(
            [caps[gate.output] for gate in netlist.gates])
        self.outputs = tuple(gate.output for gate in netlist.gates)
        # Routing through repro.timing shares the cached report with
        # the feasibility layer.
        self.timing = timing_report(netlist)
        self.delay = self.timing.critical_delay_s
        self.tables = _LeakageTables.for_library(netlist.library)
        self._gates = tuple((gate.name, gate.cell)
                            for gate in netlist.gates)
        # Thread-safe: server threads may bind different stats
        # concurrently on one memoized model.
        self._bound = LruCache("pricing.bound", _MAX_BOUND)

    @classmethod
    def for_netlist(cls, netlist: MappedNetlist) -> "PricingModel":
        """The per-netlist model, memoized on the instance."""
        model = netlist.__dict__.get(_MODEL_ATTR)
        if model is None:
            model = cls(netlist)
            netlist.__dict__[_MODEL_ATTR] = model
        return model

    def bind(self, stats: SimulationStats) -> "BoundPricing":
        """Fold the model with one simulation's statistics (memoized).

        The small per-model LRU holds a strong reference to each bound
        stats object, so the ``id``-based key cannot alias a collected
        object; the ``is`` check guards against identity reuse anyway.
        """
        bound = self._bound.get(id(stats))
        if bound is None or bound.stats is not stats:
            bound = BoundPricing(self, stats)
            self._bound.put(id(stats), bound)
        return bound


class BoundPricing:
    """One netlist's pricing arrays folded with one simulation.

    Precomputes the per-gate ``alpha * C`` products (the Eq. 2 terms
    up to ``f * VDD^2``) and the state-weighted leakage dot products
    folded to the two Eq. 4-5 current totals.  The fold performs the
    exact operations of the historical ``leakage_currents`` loop — one
    ``weights @ table`` per gate, sequentially accumulated — once,
    instead of on every estimate.
    """

    def __init__(self, model: PricingModel, stats: SimulationStats):
        self.model = model
        self.stats = stats
        self.activity_caps = (stats.toggle_rates(model.outputs)
                              * model.switched_caps)
        tables = model.tables
        denominator = max(1, stats.n_state_patterns)
        total_i_off = 0.0
        total_i_gate = 0.0
        for name, cell in model._gates:
            counts = stats.state_counts[name]
            weights = counts / denominator
            total_i_off += float(weights @ tables.i_off[cell])
            total_i_gate += float(weights @ tables.i_gate[cell])
        self.i_off = total_i_off
        self.i_gate = total_i_gate


def leakage_currents(netlist: MappedNetlist,
                     stats: SimulationStats) -> Tuple[float, float]:
    """State-weighted ``(i_off, i_gate)`` totals for a simulated netlist.

    Weights each gate's pattern-classified leakage table by the input-
    state frequencies observed in simulation (Eq. 4-5's expectation).
    The single implementation every estimator backend shares — served
    from the cached :class:`BoundPricing` fold.
    """
    bound = PricingModel.for_netlist(netlist).bind(stats)
    return bound.i_off, bound.i_gate


def estimate_circuit_power(netlist: MappedNetlist,
                           params: Optional[PowerParameters] = None,
                           n_patterns: int = 640_000,
                           seed: int = 2010,
                           state_patterns: Optional[int] = None,
                           stats: Optional[SimulationStats] = None
                           ) -> CircuitPowerReport:
    """Estimate the power of a mapped circuit (one Table 1 cell).

    Activity comes from :func:`repro.sim.activity.simulation_stats`
    (per-process LRU + disk persistence), so repeating the call — or
    re-pricing the same netlist at a different frequency, supply or
    fanout — skips the bit-parallel simulation entirely.

    Args:
        netlist: the mapped circuit.
        params: operating conditions (defaults to the paper's).
        n_patterns: random patterns for activity (paper: 640 K).
        seed: RNG seed.
        state_patterns: patterns for the leakage state histogram
            (defaults to 64 K; leakage averages converge much faster
            than activity).
        stats: pre-computed simulation statistics (skips simulation
            and the activity cache).
    """
    library = netlist.library
    if params is None:
        params = PowerParameters(vdd=library.tech.vdd)
    if stats is None:
        stats = simulation_stats(netlist, n_patterns, seed, state_patterns)
    # ``netlists`` lets the point's supply differ from the netlist's
    # own: it still prices on this netlist's tables.
    return estimate_many(netlist, stats, [params],
                         netlists={params.vdd: netlist})[0]


#: Accepted operating-point forms of :func:`estimate_many`.
OperatingPoint = Union[PowerParameters, Tuple[float, float, int]]


def estimate_many(netlist: MappedNetlist,
                  stats: SimulationStats,
                  points: Iterable[OperatingPoint],
                  netlists: Optional[Mapping[float, MappedNetlist]] = None
                  ) -> List[CircuitPowerReport]:
    """Price one simulated circuit at many operating points at once.

    One simulation, an array of ``(vdd, frequency, fanout)`` points:
    the Eq. 2 terms broadcast over a ``points x gates`` matrix and fold
    with a sequential accumulate per row, so every report is
    bit-identical to calling :func:`estimate_circuit_power` with the
    same ``stats`` at that point.  Per *distinct supply voltage* the
    leakage tables, capacitances and timing are re-characterized — a
    point at a vdd other than the netlist's own must come with a
    matching entry in ``netlists`` (the same circuit mapped on the
    library characterized at that supply); the simulation statistics
    transfer whenever that netlist's activity hash is unchanged, which
    is checked.  Fanout rides through each point untouched: the
    circuit-level load model reads real fanouts off the netlist, so
    fanout is a characterization-time knob only.

    Args:
        netlist: the simulated circuit (at its library's supply).
        stats: its simulation statistics (see
            :func:`repro.sim.activity.simulation_stats`).
        points: operating points, :class:`PowerParameters` or
            ``(vdd, frequency, fanout)`` tuples.
        netlists: per-supply netlists for points whose vdd differs
            from ``netlist``'s own.

    Returns:
        One :class:`CircuitPowerReport` per point, in input order.
    """
    params_list = [point if isinstance(point, PowerParameters)
                   else PowerParameters(*point) for point in points]
    reports: List[Optional[CircuitPowerReport]] = [None] * len(params_list)
    by_vdd: "OrderedDict[float, List[int]]" = OrderedDict()
    for index, params in enumerate(params_list):
        by_vdd.setdefault(params.vdd, []).append(index)

    base_vdd = netlist.library.tech.vdd
    base_key = netlist_activity_key(netlist)
    for vdd, indices in by_vdd.items():
        if netlists is not None and vdd in netlists:
            priced = netlists[vdd]
        elif vdd == base_vdd:
            priced = netlist
        else:
            raise SimulationError(
                f"estimate_many: no netlist for vdd={vdd:g} V (the "
                f"simulated netlist is characterized at {base_vdd:g} V); "
                f"pass the re-characterized mapping via 'netlists'")
        if priced is not netlist \
                and netlist_activity_key(priced) != base_key:
            raise SimulationError(
                f"estimate_many: the netlist at vdd={vdd:g} V maps to a "
                f"different structure; its activity statistics are not "
                f"transferable — simulate it separately")
        bound = PricingModel.for_netlist(priced).bind(stats)
        frequencies = np.array([params_list[i].frequency for i in indices])
        vdd_sq = vdd**2
        if bound.activity_caps.size:
            terms = (bound.activity_caps[None, :]
                     * frequencies[:, None]) * vdd_sq
            p_dynamic = np.add.accumulate(terms, axis=1)[:, -1]
        else:
            p_dynamic = np.zeros(len(indices))
        model = bound.model
        for row, index in enumerate(indices):
            pd = float(p_dynamic[row])
            reports[index] = CircuitPowerReport(
                circuit=model.netlist.name,
                library=model.netlist.library.name,
                gate_count=model.netlist.gate_count,
                delay=model.delay,
                p_dynamic=pd,
                p_short_circuit=SHORT_CIRCUIT_FRACTION * pd,
                p_static=bound.i_off * vdd,
                p_gate_leak=bound.i_gate * vdd,
                n_patterns=stats.n_patterns,
            )
    return reports  # type: ignore[return-value]
