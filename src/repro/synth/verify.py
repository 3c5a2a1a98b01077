"""Combinational equivalence checking.

The synthesis passes and the mapper must preserve functionality; this
module provides the checkers the test-suite and cautious users rely on:

* :func:`equivalent_aigs` — random-vector comparison with an exhaustive
  fallback for small input counts;
* :func:`netlist_matches_aig` — mapped netlist vs its subject graph,
  bit-parallel on both sides (the simulation kernel for the netlist);
* :func:`miter` — builds the classic miter AIG (single output, 1 iff
  the two circuits disagree), useful for export to external SAT tools.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SynthesisError
from repro.synth.aig import Aig, FALSE, lit_node, lit_phase
from repro.synth.netlist import MappedNetlist

#: Input-count threshold below which checks are exhaustive.
EXHAUSTIVE_LIMIT = 14


def _check_interfaces(left: Aig, right: Aig) -> None:
    if left.n_pis != right.n_pis or left.n_pos != right.n_pos:
        raise SynthesisError(
            f"interface mismatch: {left.n_pis}/{left.n_pos} PIs/POs vs "
            f"{right.n_pis}/{right.n_pos}")


def miter(left: Aig, right: Aig) -> Aig:
    """Build a miter: output 1 iff any PO pair disagrees."""
    _check_interfaces(left, right)
    result = Aig(f"miter({left.name},{right.name})")
    pis = [result.add_pi(name) for name in left.pi_names]

    def copy(source: Aig) -> list:
        mapping = {0: FALSE}
        for node, literal in zip(source.pis, pis):
            mapping[node] = literal
        for node in source.and_nodes():
            f0, f1 = source.fanins(node)
            a = mapping[lit_node(f0)] ^ lit_phase(f0)
            b = mapping[lit_node(f1)] ^ lit_phase(f1)
            mapping[node] = result.and_(a, b)
        return [mapping[lit_node(po)] ^ lit_phase(po) for po in source.pos]

    left_pos = copy(left)
    right_pos = copy(right)
    differences = [result.xor_(a, b) for a, b in zip(left_pos, right_pos)]
    result.add_po(result.or_many(differences), "diff")
    return result


def equivalent_aigs(left: Aig, right: Aig,
                    n_random: int = 2048, seed: int = 2010) -> bool:
    """Check functional equivalence of two AIGs.

    Exhaustive when the circuits have at most
    :data:`EXHAUSTIVE_LIMIT` inputs (a complete proof); otherwise a
    seeded random-vector comparison (a strong falsifier — synthesis
    bugs are not adversarial).
    """
    _check_interfaces(left, right)
    n = left.n_pis
    if n <= EXHAUSTIVE_LIMIT:
        width = 1 << n
        words = []
        for var in range(n):
            word = 0
            for minterm in range(width):
                if (minterm >> var) & 1:
                    word |= 1 << minterm
            words.append(word)
        return left.simulate(words, width) == right.simulate(words, width)
    import random
    rng = random.Random(seed)
    words = [rng.getrandbits(n_random) for _ in range(n)]
    return (left.simulate(words, n_random)
            == right.simulate(words, n_random))


def netlist_matches_aig(netlist: MappedNetlist, aig: Aig,
                        n_patterns: Optional[int] = None,
                        seed: int = 2010) -> bool:
    """Check a mapped netlist against its subject AIG.

    Exhaustive below :data:`EXHAUSTIVE_LIMIT` inputs, else random.
    Requires matching PI/PO name lists (the mapper preserves them).
    """
    if netlist.pi_names != aig.pi_names:
        raise SynthesisError("PI name mismatch between netlist and AIG")
    if netlist.po_names != aig.po_names:
        raise SynthesisError("PO name mismatch between netlist and AIG")
    from repro.sim.arraysim import ArraySimulator, random_pi_words

    n = aig.n_pis
    if n_patterns is None:
        n_patterns = (1 << n) if n <= EXHAUSTIVE_LIMIT else 4096

    if n <= EXHAUSTIVE_LIMIT and n_patterns >= (1 << n):
        # exhaustive: drive the netlist with counting patterns
        n_patterns = 1 << n
        pi_words = np.zeros((n, (n_patterns + 63) // 64), dtype=np.uint64)
        for var in range(n):
            word = 0
            for minterm in range(n_patterns):
                if (minterm >> var) & 1:
                    word |= 1 << minterm
            pi_words[var] = _int_to_words(word, n_patterns)
    else:
        pi_words = random_pi_words(n, n_patterns, seed)
    aig_words = [_words_to_int(words, n_patterns) for words in pi_words]
    expected = aig.simulate(aig_words, n_patterns)
    netlist_words = ArraySimulator(netlist).output_words(pi_words,
                                                         n_patterns)
    return all(_words_to_int(netlist_words[po_name], n_patterns) == value
               for po_name, value in zip(aig.po_names, expected))


def _int_to_words(value: int, width: int) -> np.ndarray:
    n_words = (width + 63) // 64
    return np.frombuffer(value.to_bytes(n_words * 8, "little"),
                         dtype="<u8").copy()


def _words_to_int(words: np.ndarray, width: int) -> int:
    value = int.from_bytes(words.astype("<u8").tobytes(), "little")
    return value & ((1 << width) - 1)
