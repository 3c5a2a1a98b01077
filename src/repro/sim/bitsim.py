"""The per-gate reference simulator.

:class:`BitParallelSimulator` walks the mapped netlist one gate at a
time in Python, evaluating each cell's ISOP cover on the same 64-pattern
words, the same seeded PI stream and the same normalization as the
simulation kernel (:mod:`repro.sim.arraysim`).  Production code never
runs it: it is the oracle the kernel's property and identity tests and
``benchmarks/bench_bitsim.py`` compare against, so it stays as plain as
possible — one word array per net, a bincount per gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.arraysim import (
    _UINT64_ALL_ONES,
    _WORD_BITS,
    SimulationStats,
    effective_state_patterns,
    pattern_words,
)
from repro.synth.netlist import MappedNetlist
from repro.synth.sop import isop


def _popcount_words(words: np.ndarray) -> int:
    """Total set bits across a uint64 array."""
    return int(np.bitwise_count(words).sum())


class BitParallelSimulator:
    """Reference simulator bound to one mapped netlist."""

    def __init__(self, netlist: MappedNetlist):
        netlist.validate()
        self.netlist = netlist
        self._covers: Dict[str, List[Tuple[int, int]]] = {}
        library = netlist.library
        for cell_name in {gate.cell for gate in netlist.gates}:
            cell = library.cell(cell_name)
            cubes = isop(cell.truth_table, cell.n_inputs)
            self._covers[cell_name] = [(c.mask, c.phases) for c in cubes]

    # -- core evaluation -----------------------------------------------------

    def _evaluate_gate(self, cell_name: str,
                       inputs: List[np.ndarray]) -> np.ndarray:
        """Evaluate one cell over word arrays via its ISOP cover."""
        cover = self._covers[cell_name]
        n_words = inputs[0].shape[0] if inputs else 0
        result = np.zeros(n_words, dtype=np.uint64)
        for mask, phases in cover:
            term = np.full(n_words, _UINT64_ALL_ONES, dtype=np.uint64)
            var = 0
            remaining = mask
            while remaining:
                if remaining & 1:
                    word = inputs[var]
                    if not (phases >> var) & 1:
                        word = np.bitwise_not(word)
                    term &= word
                remaining >>= 1
                var += 1
            result |= term
        return result

    def run(self, n_patterns: int, seed: int = 2010,
            state_patterns: Optional[int] = None) -> SimulationStats:
        """Simulate ``n_patterns`` uniform random input patterns (the
        contract of :meth:`repro.sim.arraysim.ArraySimulator.run`)."""
        if n_patterns < 1:
            raise SimulationError("n_patterns must be >= 1")
        state_patterns = effective_state_patterns(n_patterns,
                                                  state_patterns)

        netlist = self.netlist
        n_words, tail_mask = pattern_words(n_patterns)

        rng = np.random.default_rng(seed)
        values: Dict[str, np.ndarray] = {}
        for name in netlist.pi_names:
            words = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
            words[-1] &= tail_mask
            values[name] = words

        for gate in netlist.gates:
            inputs = [values[net] for net in gate.inputs]
            out = self._evaluate_gate(gate.cell, inputs)
            out[-1] &= tail_mask
            values[gate.output] = out

        toggles = {net: self._count_toggles(words, n_patterns)
                   for net, words in values.items()}

        # Histogram the per-pattern input vectors directly: unpack each
        # input net to one bit per pattern, assemble the k-bit vector
        # index and bincount it — one numpy pass per gate instead of
        # 2^k masked popcounts.
        state_words = (state_patterns + _WORD_BITS - 1) // _WORD_BITS
        state_counts: Dict[str, np.ndarray] = {}
        library = netlist.library
        unpacked: Dict[str, np.ndarray] = {}
        pending_uses: Dict[str, int] = {}
        for gate in netlist.gates:
            for net in gate.inputs:
                pending_uses[net] = pending_uses.get(net, 0) + 1

        def bits_of(net: str) -> np.ndarray:
            cached = unpacked.get(net)
            if cached is None:
                words = values[net][:state_words]
                # Force little-endian byte order (no-op copy-free on LE
                # hosts) so the uint8 view + little bit order yields
                # bits in pattern order; slice off the padded tail.
                cached = np.unpackbits(
                    words.astype("<u8", copy=False).view(np.uint8),
                    bitorder="little")[:state_patterns]
                unpacked[net] = cached
            # Evict once the last reader is served: peak memory tracks
            # the live fanout frontier, not the whole netlist.
            pending_uses[net] -= 1
            if pending_uses[net] == 0:
                del unpacked[net]
            return cached

        for gate in netlist.gates:
            cell = library.cell(gate.cell)
            k = cell.n_inputs
            # k <= 6 (MAX_VARS=8), so the vector index fits in uint8 and
            # the per-input contributions OR together without overflow.
            vectors = np.zeros(state_patterns, dtype=np.uint8)
            for var, net in enumerate(gate.inputs):
                vectors |= bits_of(net) << np.uint8(var)
            state_counts[gate.name] = np.bincount(
                vectors, minlength=1 << k).astype(np.int64)
        return SimulationStats(
            n_patterns=n_patterns,
            toggles=toggles,
            state_counts=state_counts,
            n_state_patterns=state_patterns,
        )

    @staticmethod
    def _count_toggles(words: np.ndarray, n_patterns: int) -> int:
        """Transitions between consecutive patterns of one net."""
        if n_patterns < 2:
            return 0
        # Within-word transitions: bit i vs bit i+1.
        shifted = np.right_shift(words, np.uint64(1))
        within = words ^ shifted
        within &= np.uint64((1 << (_WORD_BITS - 1)) - 1)  # drop bit 63
        total = _popcount_words(within)
        # Cross-word transitions: bit 63 of word w vs bit 0 of word w+1.
        if words.shape[0] > 1:
            high = np.right_shift(words[:-1], np.uint64(_WORD_BITS - 1))
            low = words[1:] & np.uint64(1)
            total += int((high ^ low).sum())
        # Remove phantom transitions inside the padded tail of the last
        # word: patterns beyond n_patterns are zero, so the only phantom
        # is the boundary at the last real pattern (if it is 1).
        tail_bits = n_patterns - (words.shape[0] - 1) * _WORD_BITS
        if tail_bits < _WORD_BITS:
            last_real = (int(words[-1]) >> (tail_bits - 1)) & 1
            total -= last_real
        return total
