"""64-way bit-parallel logic simulation: the levelized array kernel.

The paper estimates circuit power by applying 640 K random patterns to
the mapped netlist.  Bit ``i`` of word ``w`` is a net's value under
pattern ``64*w + i``; cells evaluate through their ISOP covers (a
handful of AND/OR word operations each).  Besides net values the
simulation collects:

* toggle counts between consecutive patterns (switching activity for
  Eq. 2) and
* per-gate input-state frequencies (to weight the pattern-classified
  leakage currents by how often each input vector actually occurs),
  on a pattern subsample since leakage averages converge much faster
  than activity estimates.

The mapped netlist is lowered once to a struct-of-arrays form and
evaluated level by level:

* every net gets an integer index (PIs first, then gate outputs in
  topological order) and net values live in one ``(n_nets, window)``
  uint64 matrix;
* gates are grouped by ``(logic level, cell)``; one group evaluates as
  a handful of whole-matrix numpy bitwise ops over its gathered fanin
  rows — the Python interpreter touches ``(level, cell, cube, var)``
  tuples, never individual gates;
* toggle counting and the input-state histograms run vectorized over
  the matrix (the histogram in memory-bounded pattern x gate chunks).

The pattern axis is streamed in windows of :data:`WINDOW_WORDS` words:
the PI words are drawn up front (one ``n_words`` draw per PI, in
``pi_names`` order), and each window is evaluated, counted and dropped.
Toggles carry each net's last bit across a window boundary and the
state histograms add up over the windows inside the state sample, so
memory is ``O(nets x window)`` plus the PI words, whatever the pattern
budget.

:class:`~repro.sim.bitsim.BitParallelSimulator`, a per-gate Python
loop over the same words, is kept as the reference this kernel is
tested against: the results are bit-identical (same toggle counts,
same state histograms), which property tests and a 12-benchmark
identity test assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.synth.netlist import MappedNetlist
from repro.synth.sop import isop

_WORD_BITS = 64
_UINT64_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Default pattern budget of the leakage-state histogram (leakage
#: averages converge much faster than activity estimates).
DEFAULT_STATE_SAMPLE = 65_536

#: Words per pattern window (32 K patterns): the net-value matrix of
#: one window is all the simulation holds besides the PI words.
WINDOW_WORDS = 512

#: Attribute memoizing the levelized form on the netlist instance
#: (mapped netlists are effectively immutable once built).
_ARRAYS_ATTR = "_repro_levelized"

#: Word budget of the deepest AND-tree level of one state-histogram
#: work chunk (8 bytes/word, so the transient stays at tens of MB
#: regardless of netlist size).
_STATE_CHUNK_ELEMS = 1 << 23

#: Row chunk of the vectorized toggle count: its shift/XOR temporaries
#: stay cache-sized (1 MB at a full window) at any netlist size.
_TOGGLE_CHUNK_ROWS = 256


@dataclass
class SimulationStats:
    """Results of one simulation run."""

    n_patterns: int
    #: toggles between consecutive patterns, per net.
    toggles: Dict[str, int]
    #: per-gate input-vector counts: gate name -> array of size 2^k.
    state_counts: Dict[str, np.ndarray]
    #: patterns actually used for the state counts.
    n_state_patterns: int

    def toggle_rate(self, net: str) -> float:
        """Transitions per cycle for a net (the measured activity)."""
        if self.n_patterns < 2:
            return 0.0
        return self.toggles.get(net, 0) / (self.n_patterns - 1)

    def toggle_rates(self, nets: Sequence[str]) -> np.ndarray:
        """Vectorized :meth:`toggle_rate` over many nets at once.

        Element ``i`` equals ``toggle_rate(nets[i])`` bit for bit (the
        same int64 toggle count divided by the same denominator); the
        pricing layer consumes whole-netlist activity as one array
        instead of one dictionary lookup per gate.
        """
        if self.n_patterns < 2:
            return np.zeros(len(nets))
        counts = np.fromiter((self.toggles.get(net, 0) for net in nets),
                             dtype=np.int64, count=len(nets))
        return counts / (self.n_patterns - 1)

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON form (integers only, so the round trip is exact)."""
        return {
            "n_patterns": self.n_patterns,
            "n_state_patterns": self.n_state_patterns,
            "toggles": dict(self.toggles),
            "state_counts": {name: counts.tolist()
                             for name, counts in self.state_counts.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SimulationStats":
        """Inverse of :meth:`to_payload`.

        Raises ``TypeError``/``ValueError`` on malformed payloads (the
        activity cache treats either as a miss).
        """
        state_counts = {
            str(name): np.asarray(counts, dtype=np.int64)
            for name, counts in dict(payload["state_counts"]).items()}
        return cls(
            n_patterns=int(payload["n_patterns"]),
            toggles={str(net): int(count)
                     for net, count in dict(payload["toggles"]).items()},
            state_counts=state_counts,
            n_state_patterns=int(payload["n_state_patterns"]),
        )


def pattern_words(n_patterns: int) -> Tuple[int, np.uint64]:
    """The words holding ``n_patterns`` patterns, and the mask of the
    real patterns in the last one (all ones when it is full)."""
    n_words = (n_patterns + _WORD_BITS - 1) // _WORD_BITS
    tail_bits = n_patterns - (n_words - 1) * _WORD_BITS
    return n_words, np.uint64((1 << tail_bits) - 1)


def effective_state_patterns(n_patterns: int,
                             state_patterns: Optional[int] = None) -> int:
    """The state-histogram budget a simulation actually uses.

    The default sample, capped at ``n_patterns`` and rounded up to
    whole 64-bit words (then capped again).  The activity cache keys on
    this value, so two requests that differ only in an immaterial way —
    say 100 vs 128 state patterns — share one entry.
    """
    if state_patterns is None:
        state_patterns = DEFAULT_STATE_SAMPLE
    state_words = (min(state_patterns, n_patterns) + _WORD_BITS - 1) \
        // _WORD_BITS
    return min(state_words * _WORD_BITS, n_patterns)


def random_pi_words(n_pis: int, n_patterns: int, seed: int) -> np.ndarray:
    """Seeded uniform random PI words, one tail-masked row per PI.

    One draw of ``n_words`` words per PI, in PI order: the pattern
    stream every simulation of the netlist sees.
    """
    n_words, tail_mask = pattern_words(n_patterns)
    rng = np.random.default_rng(seed)
    words = np.empty((n_pis, n_words), dtype=np.uint64)
    for row in words:
        row[:] = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
    words[:, -1] &= tail_mask
    return words


@dataclass(frozen=True)
class _LevelGroup:
    """All gates of one cell type within one logic level."""

    cell_id: int
    #: Net indices of the gate outputs, shape (g,).
    outputs: np.ndarray
    #: Net indices of the gate fanins, shape (g, k); column = pin.
    fanins: np.ndarray


@dataclass(frozen=True)
class _CellGroup:
    """All gates of one cell type across the whole netlist."""

    cell_id: int
    #: Positions into the netlist gate list, shape (g,).
    gate_positions: np.ndarray
    #: Net indices of the gate fanins, shape (g, k).
    fanins: np.ndarray


class LevelizedNetlist:
    """The struct-of-arrays / levelized form of one mapped netlist.

    Net index space: PI ``i`` is net ``i``; the output of gate ``j``
    (netlist order) is net ``n_pis + j``.  Cell identities are small
    ints into ``cell_names``; ISOP covers are precomputed per cell.
    """

    def __init__(self, netlist: MappedNetlist):
        netlist.validate()
        self.netlist = netlist
        library = netlist.library

        self.n_pis = len(netlist.pi_names)
        self.n_gates = len(netlist.gates)
        self.n_nets = self.n_pis + self.n_gates
        #: Net name per net index (PIs, then gate outputs).
        self.net_names: List[str] = list(netlist.pi_names)
        self.net_names.extend(gate.output for gate in netlist.gates)
        self.gate_names: List[str] = [gate.name for gate in netlist.gates]

        net_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)}

        #: Distinct cells in first-seen order; covers/arity per cell id.
        #: A cover cube is held both packed (mask, phases) and expanded
        #: to its (var, positive) literal list for the evaluation loop.
        self.cell_names: List[str] = []
        self.covers: List[List[Tuple[int, int]]] = []
        self.cube_literals: List[List[List[Tuple[int, bool]]]] = []
        self.arity: List[int] = []
        cell_ids: Dict[str, int] = {}
        cell_of = np.empty(self.n_gates, dtype=np.intp)
        for j, gate in enumerate(netlist.gates):
            cid = cell_ids.get(gate.cell)
            if cid is None:
                cell = library.cell(gate.cell)
                cid = cell_ids[gate.cell] = len(self.cell_names)
                self.cell_names.append(gate.cell)
                cubes = isop(cell.truth_table, cell.n_inputs)
                self.covers.append([(c.mask, c.phases) for c in cubes])
                self.cube_literals.append(
                    [[(var, bool((c.phases >> var) & 1))
                      for var in range(cell.n_inputs)
                      if (c.mask >> var) & 1]
                     for c in cubes])
                self.arity.append(cell.n_inputs)
            cell_of[j] = cid

        # Flat struct-of-arrays connectivity: all fanin net indices in
        # gate order, plus a pin-count-padded (n_gates, kmax) matrix
        # (rows repeat their last fanin, which is maximum- and
        # gather-neutral) for whole-netlist level computation.
        ks = np.fromiter((len(gate.inputs) for gate in netlist.gates),
                         dtype=np.intp, count=self.n_gates)
        arity_arr = np.asarray(self.arity, dtype=np.intp)
        bad = np.flatnonzero(arity_arr[cell_of] != ks) if self.n_gates \
            else np.asarray([], dtype=np.intp)
        if bad.size:
            gate = netlist.gates[int(bad[0])]
            raise SimulationError(
                f"gate {gate.name}: {len(gate.inputs)} connections "
                f"for {gate.cell} "
                f"({library.cell(gate.cell).n_inputs} pins)")
        pins = np.fromiter(
            (net_index[net] for gate in netlist.gates
             for net in gate.inputs),
            dtype=np.intp, count=int(ks.sum()))
        offsets = np.zeros(self.n_gates + 1, dtype=np.intp)
        np.cumsum(ks, out=offsets[1:])
        kmax = int(ks.max()) if self.n_gates else 0
        if kmax:
            columns = np.minimum(np.arange(kmax, dtype=np.intp),
                                 ks[:, None] - 1)
            fan_pad = pins[offsets[:-1, None] + columns]
        else:
            fan_pad = np.zeros((self.n_gates, 0), dtype=np.intp)

        # Logic levels: PIs are level 0, a gate is one past its deepest
        # fanin.  Computed in topological-order blocks: within a block
        # the update is iterated to its (shallow) internal fixpoint, so
        # the whole pass costs O(pins) numpy work plus one iteration
        # per level of internal depth — no per-gate Python loop.
        level = np.zeros(self.n_nets, dtype=np.int64)
        if self.n_gates and kmax:
            block = 4096
            for a in range(0, self.n_gates, block):
                b = min(a + block, self.n_gates)
                rows = fan_pad[a:b]
                outs = np.arange(self.n_pis + a, self.n_pis + b)
                previous = None
                while True:
                    candidate = level[rows].max(axis=1) + 1
                    if previous is not None and np.array_equal(
                            candidate, previous):
                        break
                    level[outs] = candidate
                    previous = candidate
        elif self.n_gates:
            level[self.n_pis:] = 1

        # Gates of one (level, cell) pair have no data dependencies
        # among each other and evaluate as one group; boundaries come
        # from one stable lexsort, members stay in gate order.
        gate_levels = level[self.n_pis:]
        max_level = int(gate_levels.max()) if self.n_gates else 0
        #: Evaluation schedule: per level (ascending), the cell groups.
        self.schedule: List[List[_LevelGroup]] = [
            [] for _ in range(max_level)]
        if self.n_gates:
            order = np.lexsort((cell_of, gate_levels))
            sorted_levels = gate_levels[order]
            sorted_cells = cell_of[order]
            breaks = np.flatnonzero(np.diff(sorted_levels)
                                    | np.diff(sorted_cells))
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks + 1, [self.n_gates]))
            for start, end in zip(starts, ends):
                members = order[start:end]
                cell_id = int(sorted_cells[start])
                self.schedule[int(sorted_levels[start]) - 1].append(
                    _LevelGroup(
                        cell_id=cell_id,
                        outputs=members + self.n_pis,
                        fanins=fan_pad[members, :arity_arr[cell_id]]))

        #: Histogram grouping: gates by cell across all levels.
        self.cell_groups: List[_CellGroup] = []
        if self.n_gates:
            order = np.argsort(cell_of, kind="stable")
            sorted_cells = cell_of[order]
            breaks = np.flatnonzero(np.diff(sorted_cells))
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks + 1, [self.n_gates]))
            for start, end in zip(starts, ends):
                members = order[start:end]
                cell_id = int(sorted_cells[start])
                self.cell_groups.append(_CellGroup(
                    cell_id=cell_id,
                    gate_positions=members,
                    fanins=fan_pad[members, :arity_arr[cell_id]]))

    @property
    def n_levels(self) -> int:
        return len(self.schedule)


def levelized(netlist: MappedNetlist) -> LevelizedNetlist:
    """The (instance-memoized) levelized form of a mapped netlist."""
    cached = netlist.__dict__.get(_ARRAYS_ATTR)
    if cached is None:
        cached = LevelizedNetlist(netlist)
        netlist.__dict__[_ARRAYS_ATTR] = cached
    return cached


class ArraySimulator:
    """The simulation kernel bound to one mapped netlist."""

    def __init__(self, netlist: MappedNetlist):
        self.netlist = netlist
        self.arrays = levelized(netlist)

    def run(self, n_patterns: int, seed: int = 2010,
            state_patterns: Optional[int] = None) -> SimulationStats:
        """Simulate ``n_patterns`` uniform random input patterns.

        Args:
            n_patterns: total patterns (the paper uses 640 K).
            seed: RNG seed (all experiments are reproducible).
            state_patterns: patterns used for the per-gate input-state
                histogram (defaults to min(n_patterns, 65536); see
                :func:`effective_state_patterns`).

        Returns:
            A :class:`SimulationStats` with toggle counts and state
            frequencies.
        """
        if n_patterns < 1:
            raise SimulationError("n_patterns must be >= 1")
        arrays = self.arrays
        state_patterns = effective_state_patterns(n_patterns,
                                                  state_patterns)
        pi_words = random_pi_words(arrays.n_pis, n_patterns, seed)

        totals = np.zeros(arrays.n_nets, dtype=np.int64)
        counts = [np.zeros((len(group.gate_positions),
                            1 << arrays.arity[group.cell_id]),
                           dtype=np.int64)
                  for group in arrays.cell_groups]
        carry = None
        for start, values, last_mask in self._stream(pi_words, n_patterns):
            totals += self._count_toggles(values, carry, last_mask)
            carry = values[:, -1] >> np.uint64(_WORD_BITS - 1)
            sample = state_patterns - start * _WORD_BITS
            if sample > 0:
                self._add_state_counts(
                    values, min(sample, values.shape[1] * _WORD_BITS),
                    counts)

        toggles = dict(zip(arrays.net_names, totals.tolist()))
        state_counts: Dict[str, np.ndarray] = {}
        for group, group_counts in zip(arrays.cell_groups, counts):
            for row, position in enumerate(group.gate_positions):
                state_counts[arrays.gate_names[position]] = \
                    group_counts[row]
        return SimulationStats(
            n_patterns=n_patterns,
            toggles=toggles,
            state_counts=state_counts,
            n_state_patterns=state_patterns,
        )

    def output_words(self, pi_words: np.ndarray,
                     n_patterns: int) -> Dict[str, np.ndarray]:
        """PO values under ``pi_words`` (one tail-masked row per PI,
        e.g. from :func:`random_pi_words`), for equivalence checks."""
        arrays = self.arrays
        n_words, tail_mask = pattern_words(n_patterns)
        net_index = {name: i for i, name in enumerate(arrays.net_names)}
        outputs: Dict[str, np.ndarray] = {}
        for name, (kind, value) in self.netlist.po_bindings:
            word = _UINT64_ALL_ONES if kind == "const" and value \
                else np.uint64(0)
            outputs[name] = np.full(n_words, word, dtype=np.uint64)
            outputs[name][-1] &= tail_mask
        nets = [(name, net_index[value])
                for name, (kind, value) in self.netlist.po_bindings
                if kind != "const"]
        for start, values, _ in self._stream(pi_words, n_patterns):
            stop = start + values.shape[1]
            for name, row in nets:
                outputs[name][start:stop] = values[row]
        return outputs

    # -- core evaluation -----------------------------------------------------

    def _stream(self, pi_words: np.ndarray, n_patterns: int
                ) -> Iterator[Tuple[int, np.ndarray, np.uint64]]:
        """Evaluate the netlist one pattern window at a time.

        Yields ``(first word, values, last_mask)``: ``values`` is the
        ``(n_nets, w)`` net-value matrix of the window (``w <=
        WINDOW_WORDS``, a view of one buffer reused by the next
        window) and ``last_mask`` masks the real patterns of its last
        word — all ones except in the final window's tail word.
        """
        arrays = self.arrays
        n_words, tail_mask = pattern_words(n_patterns)
        width = min(WINDOW_WORDS, n_words)
        buffer = np.empty((arrays.n_nets, width), dtype=np.uint64)
        for start in range(0, n_words, width):
            stop = min(start + width, n_words)
            values = buffer[:, :stop - start]
            values[:arrays.n_pis] = pi_words[:, start:stop]
            last_mask = tail_mask if stop == n_words else _UINT64_ALL_ONES
            for level in arrays.schedule:
                for group in level:
                    self._evaluate_group(group, values, last_mask)
            yield start, values, last_mask

    def _evaluate_group(self, group: _LevelGroup, values: np.ndarray,
                        tail_mask: np.uint64) -> None:
        """Evaluate all gates of one (level, cell) group at once.

        Exactly the cube loop of ``BitParallelSimulator._evaluate_gate``
        lifted one axis: ``ins[:, var]`` is the whole group's pin
        ``var``, and the AND/OR word ops run over ``(g, n_words)``
        blocks instead of ``(n_words,)`` vectors.
        """
        cover = self.arrays.cube_literals[group.cell_id]
        ins = values[group.fanins]  # (g, k, n_words) gather
        g, _, n_words = ins.shape
        inverted = np.bitwise_not(ins)  # one pass, shared by all cubes
        result = np.zeros((g, n_words), dtype=np.uint64)
        term = np.empty((g, n_words), dtype=np.uint64)
        for literals in cover:
            if not literals:  # tautology cube: constant-one cell
                result[...] = _UINT64_ALL_ONES
                continue
            var, positive = literals[0]
            term[...] = ins[:, var] if positive else inverted[:, var]
            for var, positive in literals[1:]:
                np.bitwise_and(
                    term, ins[:, var] if positive else inverted[:, var],
                    out=term)
            np.bitwise_or(result, term, out=result)
        result[:, -1] &= tail_mask
        values[group.outputs] = result

    # -- statistics ----------------------------------------------------------

    @staticmethod
    def _count_toggles(values: np.ndarray, carry: Optional[np.ndarray],
                       last_mask: np.uint64) -> np.ndarray:
        """Per-net transitions between consecutive patterns of a window.

        Each word is XORed with the pattern stream shifted by one (its
        own bits 1-63, then bit 0 of the next word), so bit ``i`` flags
        a transition out of pattern ``i``.  The window's last word
        keeps only transitions between its real patterns (``last_mask
        >> 1``); the one into the next window is counted there, from
        ``carry`` (bit 63 of each net's last word in the previous
        window).  All exact integers, so the sum over windows equals
        the reference's per-net count bit for bit.
        """
        totals = np.empty(values.shape[0], dtype=np.int64)
        one = np.uint64(1)
        for start in range(0, values.shape[0], _TOGGLE_CHUNK_ROWS):
            rows = values[start:start + _TOGGLE_CHUNK_ROWS]
            flips = rows >> one
            flips[:, :-1] |= rows[:, 1:] << np.uint64(_WORD_BITS - 1)
            flips ^= rows
            flips[:, -1] &= last_mask >> one
            totals[start:start + _TOGGLE_CHUNK_ROWS] = np.bitwise_count(
                flips).sum(axis=1, dtype=np.int64)
        if carry is not None:
            totals += (carry ^ (values[:, 0] & one)).astype(np.int64)
        return totals

    def _add_state_counts(self, values: np.ndarray, n_sample: int,
                          counts: List[np.ndarray]) -> None:
        """Add one window's share of the state sample (its first
        ``n_sample`` patterns) to the per-cell-group histograms.

        The counting never unpacks patterns to bytes: the number of
        sample patterns on which a gate's k inputs spell the state
        ``s`` is the popcount of the AND of its k input words, each
        complemented where ``s`` has a 0 bit — computed for all ``2^k``
        states as a binary AND-tree (:meth:`_histogram_chunk`),
        vectorized over all gates of a cell.  Each count is the exact
        cardinality of a pattern subset, so the result equals the
        reference's pattern-by-pattern bincount bit for bit.
        """
        arrays = self.arrays
        sample_words, last_mask = pattern_words(n_sample)
        # Valid-pattern mask over the sample: all ones except the
        # (possible) partial last word.  AND-tree roots start from it so
        # complemented inputs cannot pick up phantom patterns from the
        # masked-to-zero tail region.
        base = np.full(sample_words, _UINT64_ALL_ONES, dtype=np.uint64)
        base[-1] = last_mask
        window = values[:, :sample_words]
        for group, group_counts in zip(arrays.cell_groups, counts):
            k = arrays.arity[group.cell_id]
            n_group = len(group.gate_positions)
            # The deepest tree level holds 2^(k-1) arrays of
            # (gate chunk, sample_words) words; bound their total size.
            per_gate = max(1, (1 << max(0, k - 1)) * sample_words)
            gate_chunk = max(1, _STATE_CHUNK_ELEMS // per_gate)
            for g0 in range(0, n_group, gate_chunk):
                g1 = min(g0 + gate_chunk, n_group)
                self._histogram_chunk(window, group.fanins[g0:g1], k,
                                      base, n_sample, group_counts[g0:g1])

    @staticmethod
    def _histogram_chunk(window: np.ndarray, fanins: np.ndarray, k: int,
                         base: np.ndarray, n_sample: int,
                         out: np.ndarray) -> None:
        """Add the state counts of one gate chunk via a popcount AND-tree.

        ``nodes[s]`` holds, per gate, the word mask of sample patterns
        whose first ``d`` inputs spell the ``d`` low bits of ``s``;
        each variable doubles the list (AND with the input's words for
        bit 1, with their complement for bit 0).  The last variable is
        resolved without materializing its level: the bit-1 count is
        the popcount of ``node & w`` and the bit-0 count is the node's
        total minus it — the same exact integers either way.
        """
        if k == 0:
            out[:, 0] += n_sample
            return
        if k == 1:
            words = window[fanins[:, 0]]
            ones = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
            out[:, 1] += ones
            out[:, 0] += n_sample - ones
            return
        # Level 0 without materializing the base: input words are
        # already zero outside the valid patterns, so ``words ^ base``
        # is exactly ``base & ~words`` — one op, and every deeper
        # 0-branch is then ``node ^ (node & words)`` (the garbage bits
        # of a complement never survive an AND with a valid node).
        words = window[fanins[:, 0]]
        nodes = [words ^ base, words]
        for var in range(1, k - 1):
            words = window[fanins[:, var]]
            ones_branch = [node & words for node in nodes]
            nodes = ([node ^ one for node, one in zip(nodes, ones_branch)]
                     + ones_branch)
        words = window[fanins[:, k - 1]]
        high_bit = 1 << (k - 1)
        for state, node in enumerate(nodes):
            ones = np.bitwise_count(node & words).sum(axis=1,
                                                      dtype=np.int64)
            total = np.bitwise_count(node).sum(axis=1, dtype=np.int64)
            out[:, state | high_bit] += ones
            out[:, state] += total - ones
