"""Structural technology mapping onto a characterized cell library.

The mapper covers the subject AIG with library cells using k-feasible
cuts.  Matching is phase-complete: every cut function is looked up in a
precomputed table containing each cell under all input permutations
*and* all input polarities, plus output complementation, so a match
always exists (any 2-feasible cut reduces to the NAND/NOR/INV family).
Negated cut leaves and complemented outputs materialize as explicit INV
cells during cover extraction.

Covering runs a delay-oriented dynamic program first, then (optionally)
area-recovery rounds that re-select matches by area flow subject to the
required times implied by the delay-optimal cover — the classic
"map -> required times -> area flow" loop of modern mappers, simplified.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.gates.library import Library
from repro.synth.aig import Aig, lit_node, lit_phase
from repro.synth.cuts import Cut, enumerate_cuts
from repro.synth.netlist import MappedGate, MappedNetlist
from repro.synth.truth import (
    all_permutations,
    flip_variable,
    full_mask,
)


@dataclass(frozen=True)
class MappingOptions:
    """Knobs for the mapper."""

    cut_size: int = 5
    cut_limit: int = 8
    area_rounds: int = 2
    #: Load assumed while ranking matches (F); final timing uses real loads.
    estimated_load: Optional[float] = None


@dataclass(frozen=True, slots=True)
class MatchEntry:
    """One library realization of a cut function."""

    cell: str
    perm: Tuple[int, ...]   # cut leaf i feeds cell pin perm[i]
    phases: int             # bit i set: leaf i is consumed complemented
    area: float
    n_negated: int


@dataclass(slots=True)
class NodeMatch:
    """Chosen implementation of one (node, phase) signal."""

    kind: str                      # 'pi' | 'cell' | 'inv'
    arrival: float
    area_flow: float
    cut: Optional[Cut] = None
    entry: Optional[MatchEntry] = None


#: Match tables per library instance (built once, reused by every
#: mapping run against that library).
_MATCH_TABLE_CACHE: "weakref.WeakKeyDictionary[Library, Dict[int, Dict[int, Dict[int, MatchEntry]]]]"
_MATCH_TABLE_CACHE = weakref.WeakKeyDictionary()


def build_match_table(library: Library, max_arity: int
                      ) -> Dict[int, Dict[int, MatchEntry]]:
    """Precompute ``{arity: {truth_table: best MatchEntry}}``.

    Each cell is entered under every input permutation and every input
    polarity assignment (enumerated Gray-code style with cheap variable
    flips).  Ties keep the entry with smaller (area, negated inputs).
    The table is cached per library instance, so repeated mappings
    (e.g. 12 circuits onto the same library) pay for it once.
    """
    per_library = _MATCH_TABLE_CACHE.setdefault(library, {})
    cached = per_library.get(max_arity)
    if cached is not None:
        return cached
    inverter_area = library.area(library.inverter().name)
    table: Dict[int, Dict[int, MatchEntry]] = {}
    for cell in library:
        arity = cell.n_inputs
        if arity > max_arity:
            continue
        bucket = table.setdefault(arity, {})
        area = library.area(cell.name)
        for permuted, perm in all_permutations(cell.truth_table, arity):
            current = permuted
            phases = 0
            # Gray-code walk over all polarity masks.
            for step in range(1 << arity):
                entry_cost = (area + inverter_area * bin(phases).count("1"),
                              bin(phases).count("1"))
                incumbent = bucket.get(current)
                if incumbent is None or entry_cost < (
                        incumbent.area
                        + inverter_area * incumbent.n_negated,
                        incumbent.n_negated):
                    bucket[current] = MatchEntry(
                        cell.name, perm, phases, area, entry_cost[1])
                if step == (1 << arity) - 1:
                    break
                flip = ((step + 1) & -(step + 1)).bit_length() - 1
                current = flip_variable(current, flip, arity)
                phases ^= 1 << flip
    per_library[max_arity] = table
    return table


class _Mapper:
    """State of one mapping run."""

    def __init__(self, aig: Aig, library: Library, options: MappingOptions):
        self.aig = aig
        self.library = library
        self.options = options
        self.cuts = enumerate_cuts(aig, options.cut_size, options.cut_limit)
        self.match_table = build_match_table(library, options.cut_size)
        # Load estimate: per-node, scaled by the node's AIG fanout so
        # that high-drive-resistance cells are not ranked as fast on
        # nets that will actually carry several pins.  The final STA
        # uses exact per-net loads; this only steers match ranking.
        self._avg_pin_cap = (options.estimated_load
                             if options.estimated_load is not None
                             else library.library_average_pin_capacitance())
        inverter = library.inverter()
        self.inv_name = inverter.name
        self.inv_area = library.area(self.inv_name)
        self.refs = aig.reference_counts()
        self.best: Dict[Tuple[int, int], NodeMatch] = {}
        # Hot-loop precomputation: per-node load estimates and inverter
        # delays, plus (intrinsic, slope) per cell so candidate ranking
        # avoids method dispatch entirely.
        self._loads = [min(max(1, refs), 4) * self._avg_pin_cap
                       for refs in self.refs]
        self._cell_timing = {cell.name: library.timing(cell.name)
                             for cell in library}
        inv_timing = self._cell_timing[self.inv_name]
        self._inv_delays = [inv_timing.intrinsic + inv_timing.slope * load
                            for load in self._loads]
        # Cut-to-cell matches are round-invariant: resolve each cut's
        # library entry (and its delay at this node's load) once per
        # phase, so the DP rounds only walk precomputed lists.
        self._matches: Dict[Tuple[int, int],
                            List[Tuple[Cut, MatchEntry, float]]] = {}
        for node in aig.and_nodes():
            load = self._loads[node]
            for phase in (0, 1):
                matched: List[Tuple[Cut, MatchEntry, float]] = []
                # The trivial cut {node} is always first; skip it.
                for cut in self.cuts[node][1:]:
                    arity = len(cut.leaves)
                    table = (cut.table if phase == 0
                             else cut.table ^ full_mask(arity))
                    bucket = self.match_table.get(arity)
                    if not bucket:
                        continue
                    entry = bucket.get(table)
                    if entry is None:
                        continue
                    cell_timing = self._cell_timing[entry.cell]
                    delay = cell_timing.intrinsic + cell_timing.slope * load
                    matched.append((cut, entry, delay))
                self._matches[(node, phase)] = matched

    def _inv_delay(self, node: int) -> float:
        """Estimated delay of an inverter driving this node's load."""
        return self._inv_delays[node]

    # -- candidate generation ------------------------------------------------

    def _select(self, node: int, phase: int, required: Optional[float],
                area_mode: bool) -> Optional[NodeMatch]:
        """Pick the best matched-cut candidate for (node, phase)."""
        signal_best = self.best
        refs = self.refs
        best = None
        best_key = None
        for cut, entry, delay in self._matches[(node, phase)]:
            arrival = 0.0
            area_flow = entry.area
            feasible = True
            phases = entry.phases
            for index, leaf in enumerate(cut.leaves):
                leaf_match = signal_best.get((leaf, (phases >> index) & 1))
                if leaf_match is None:
                    feasible = False
                    break
                if leaf_match.arrival > arrival:
                    arrival = leaf_match.arrival
                share = refs[leaf]
                area_flow += leaf_match.area_flow / (share if share > 1 else 1)
            if not feasible:
                continue
            arrival += delay
            if area_mode:
                if required is not None and arrival > required + 1e-15:
                    continue
                key = (area_flow, arrival)
            else:
                key = (arrival, area_flow)
            if best_key is None or key < best_key:
                best_key = key
                best = (arrival, area_flow, cut, entry)
        if best is None:
            return None
        arrival, area_flow, cut, entry = best
        return NodeMatch("cell", arrival, area_flow, cut, entry)

    # -- mapping rounds --------------------------------------------------------

    def run_round(self, required: Optional[Dict[Tuple[int, int], float]],
                  area_mode: bool) -> None:
        """One full DP pass over the graph."""
        for pi in self.aig.pis:
            self.best[(pi, 0)] = NodeMatch("pi", 0.0, 0.0)
            self.best[(pi, 1)] = NodeMatch(
                "inv", self._inv_delay(pi), self.inv_area)
        for node in self.aig.and_nodes():
            for phase in (0, 1):
                node_required = None
                if required is not None:
                    node_required = required.get((node, phase))
                match = self._select(node, phase, node_required, area_mode)
                if match is not None:
                    self.best[(node, phase)] = match
            # inverter relaxation, both directions
            for phase in (0, 1):
                other = self.best.get((node, 1 - phase))
                if other is None:
                    continue
                candidate = NodeMatch(
                    "inv", other.arrival + self._inv_delay(node),
                    other.area_flow + self.inv_area)
                incumbent = self.best.get((node, phase))
                if incumbent is None:
                    self.best[(node, phase)] = candidate
                    continue
                if area_mode:
                    better = ((candidate.area_flow, candidate.arrival)
                              < (incumbent.area_flow, incumbent.arrival))
                else:
                    better = ((candidate.arrival, candidate.area_flow)
                              < (incumbent.arrival, incumbent.area_flow))
                if better:
                    self.best[(node, phase)] = candidate
        for node in self.aig.and_nodes():
            for phase in (0, 1):
                if (node, phase) not in self.best:
                    raise MappingError(
                        f"no implementation found for node {node} "
                        f"phase {phase}")

    def required_times(self) -> Dict[Tuple[int, int], float]:
        """Required times over the current cover (reverse walk from POs)."""
        target = 0.0
        roots: List[Tuple[int, int]] = []
        for po in self.aig.pos:
            node, phase = lit_node(po), lit_phase(po)
            if node == 0 or self.aig.is_pi(node):
                continue
            roots.append((node, phase))
            target = max(target, self.best[(node, phase)].arrival)
        required: Dict[Tuple[int, int], float] = {}
        stack = []
        for root in roots:
            required[root] = min(required.get(root, target), target)
            stack.append(root)
        visited = set()
        infinity = float("inf")
        while stack:
            key = stack.pop()
            if key in visited:
                continue
            visited.add(key)
            node, phase = key
            match = self.best[key]
            slack_time = required[key]
            if match.kind == "inv":
                child = (node, 1 - phase)
                child_required = slack_time - self._inv_delays[node]
                if child_required < required.get(child, infinity):
                    required[child] = child_required
                if self.aig.is_and(node):
                    stack.append(child)
            elif match.kind == "cell":
                cell_timing = self._cell_timing[match.entry.cell]
                delay = (cell_timing.intrinsic
                         + cell_timing.slope * self._loads[node])
                for index, leaf in enumerate(match.cut.leaves):
                    leaf_phase = (match.entry.phases >> index) & 1
                    child = (leaf, leaf_phase)
                    child_required = slack_time - delay
                    if child_required < required.get(child, infinity):
                        required[child] = child_required
                        if child in visited:
                            visited.discard(child)
                    if self.aig.is_and(leaf) or leaf_phase == 1:
                        stack.append(child)
        return required

    # -- cover extraction -------------------------------------------------------

    def extract(self) -> MappedNetlist:
        """Materialize the chosen cover as a mapped netlist."""
        aig = self.aig
        pi_name = dict(zip(aig.pis, aig.pi_names))
        emitted: Dict[Tuple[int, int], str] = {}
        gates: List[MappedGate] = []
        counter = [0]

        def net_of(node: int, phase: int) -> str:
            if aig.is_pi(node):
                return pi_name[node] if phase == 0 else f"{pi_name[node]}_b"
            return f"n{node}" if phase == 0 else f"n{node}_b"

        def emit(node: int, phase: int) -> str:
            # Iterative DFS to avoid recursion limits on deep circuits.
            stack = [(node, phase, False)]
            while stack:
                cur_node, cur_phase, expanded = stack.pop()
                key = (cur_node, cur_phase)
                if key in emitted:
                    continue
                if aig.is_pi(cur_node) and cur_phase == 0:
                    emitted[key] = net_of(cur_node, 0)
                    continue
                match = (NodeMatch("inv", 0.0, 0.0)
                         if aig.is_pi(cur_node) else self.best[key])
                if not expanded:
                    stack.append((cur_node, cur_phase, True))
                    if match.kind == "inv":
                        stack.append((cur_node, 1 - cur_phase, False))
                    elif match.kind == "cell":
                        for index, leaf in enumerate(match.cut.leaves):
                            leaf_phase = (match.entry.phases >> index) & 1
                            stack.append((leaf, leaf_phase, False))
                    continue
                output = net_of(cur_node, cur_phase)
                if match.kind == "inv":
                    source = emitted[(cur_node, 1 - cur_phase)]
                    counter[0] += 1
                    gates.append(MappedGate(
                        f"g{counter[0]}", self.inv_name, (source,), output))
                elif match.kind == "cell":
                    cell = self.library.cell(match.entry.cell)
                    pins: List[Optional[str]] = [None] * cell.n_inputs
                    for index, leaf in enumerate(match.cut.leaves):
                        leaf_phase = (match.entry.phases >> index) & 1
                        pins[match.entry.perm[index]] = emitted[
                            (leaf, leaf_phase)]
                    if any(p is None for p in pins):
                        raise MappingError(
                            f"incomplete pin binding for cell {cell.name}")
                    counter[0] += 1
                    gates.append(MappedGate(
                        f"g{counter[0]}", cell.name, tuple(pins), output))
                else:
                    raise MappingError(f"unexpected match kind {match.kind}")
                emitted[key] = output
            return emitted[(node, phase)]

        po_bindings: List[Tuple[str, Tuple[str, object]]] = []
        for po, name in zip(aig.pos, aig.po_names):
            node, phase = lit_node(po), lit_phase(po)
            if node == 0:
                po_bindings.append((name, ("const", 1 if phase else 0)))
                continue
            net = emit(node, phase)
            po_bindings.append((name, ("net", net)))
        # Record the delay-DP provenance per emitted net: the arrival of
        # each signal under the final cover, evaluated with the DP's own
        # delay machinery (per-node estimated loads, precomputed cell
        # timings) and the DP's exact float operations.  The stored
        # NodeMatch.arrival values cannot be used directly: an area
        # round that finds no candidate within the required time keeps
        # the previous round's match with a stale arrival, so they are
        # not a consistent fixed point of the extracted cover.  This
        # pass re-evaluates the chosen matches in emission (topological)
        # order; repro.timing replays it independently
        # (arrival_times(netlist, loads=netlist.mapper_loads)) and the
        # property tests assert bit-for-bit agreement.
        net_key = {net: key for key, net in emitted.items()}
        # All PIs anchor at 0.0 — including unused ones, which never
        # get emitted but are still nets of the netlist.
        mapper_arrivals: Dict[str, float] = {
            name: 0.0 for name in aig.pi_names}
        mapper_loads: Dict[str, float] = {}
        for gate in gates:
            node, phase = net_key[gate.output]
            match = None if aig.is_pi(node) else self.best[(node, phase)]
            if match is None or match.kind == "inv":
                arrival = (mapper_arrivals[gate.inputs[0]]
                           + self._inv_delays[node])
            else:
                cell_timing = self._cell_timing[match.entry.cell]
                delay = (cell_timing.intrinsic
                         + cell_timing.slope * self._loads[node])
                arrival = 0.0
                for net in gate.inputs:
                    if mapper_arrivals[net] > arrival:
                        arrival = mapper_arrivals[net]
                arrival += delay
            mapper_arrivals[gate.output] = arrival
            mapper_loads[gate.output] = self._loads[node]
        return MappedNetlist(
            name=aig.name,
            library=self.library,
            pi_names=list(aig.pi_names),
            po_bindings=po_bindings,
            gates=gates,
            mapper_arrivals=mapper_arrivals,
            mapper_loads=mapper_loads,
        )


#: Compacted-graph cache: mapping one subject AIG onto several
#: libraries reuses a single compacted copy (and with it the cut
#: enumeration cached on that copy).
_COMPACT_CACHE: "weakref.WeakKeyDictionary[Aig, Tuple[int, Aig]]"
_COMPACT_CACHE = weakref.WeakKeyDictionary()


def _compact_for_mapping(aig: Aig) -> Aig:
    return aig.cached_derivation(_COMPACT_CACHE, Aig.compact)


def map_aig(aig: Aig, library: Library,
            options: Optional[MappingOptions] = None) -> MappedNetlist:
    """Map an AIG onto a library; returns the mapped netlist.

    Runs one delay-oriented round followed by ``options.area_rounds``
    area-recovery rounds constrained by the required times of the
    current cover.
    """
    if options is None:
        options = MappingOptions()
    aig = _compact_for_mapping(aig)
    mapper = _Mapper(aig, library, options)
    mapper.run_round(required=None, area_mode=False)
    for _ in range(options.area_rounds):
        required = mapper.required_times()
        mapper.run_round(required=required, area_mode=True)
    return mapper.extract()
