"""And-Inverter Graph with structural hashing.

Literals encode a node and a phase: ``lit = 2 * node + complemented``.
Node 0 is the constant-FALSE node, so literal 0 is constant 0 and
literal 1 is constant 1.  Nodes are created in topological order and
stay that way (fanins always have smaller ids), which every downstream
pass relies on.

Simulation uses plain Python integers as arbitrary-width bit vectors,
so equivalence checks over hundreds of random patterns cost one pass
over the graph.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SynthesisError


class AigError(SynthesisError):
    """Errors specific to AIG construction and manipulation."""


def lit(node: int, complemented: bool = False) -> int:
    """Build a literal from a node id and a phase."""
    return 2 * node + (1 if complemented else 0)


def lit_not(literal: int) -> int:
    """Complement a literal."""
    return literal ^ 1

def lit_node(literal: int) -> int:
    """Node id of a literal."""
    return literal >> 1


def lit_phase(literal: int) -> int:
    """1 if the literal is complemented."""
    return literal & 1


#: Literal constants.
FALSE = 0
TRUE = 1


class Aig:
    """A mutable, structurally hashed And-Inverter Graph."""

    def __init__(self, name: str = "aig"):
        self.name = name
        # fanins[i] = None for const/PI nodes, else (lit0, lit1) with
        # lit0 <= lit1.
        self._fanins: List[Optional[Tuple[int, int]]] = [None]
        self._is_pi: List[bool] = [False]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        #: Monotonic structure stamp, bumped by every mutation; caches
        #: keyed on (graph identity, version) invalidate automatically.
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter: changes whenever the graph structure does."""
        return self._version

    # -- construction ------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its (positive) literal."""
        node = len(self._fanins)
        self._fanins.append(None)
        self._is_pi.append(True)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        self._version += 1
        return lit(node)

    def add_po(self, literal: int, name: Optional[str] = None) -> int:
        """Register a primary output literal; returns the PO index."""
        self._check_literal(literal)
        self._pos.append(literal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._version += 1
        return len(self._pos) - 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with constant folding and strashing."""
        # Inlined literal check (this is the hottest AIG entry point).
        limit = len(self._fanins) << 1
        if not (0 <= a < limit and 0 <= b < limit):
            self._check_literal(a)
            self._check_literal(b)
        if a > b:
            a, b = b, a
        if a == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return FALSE
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        node = len(self._fanins)
        self._fanins.append(key)
        self._is_pi.append(False)
        self._strash[key] = node
        self._version += 1
        return lit(node)

    def or_(self, a: int, b: int) -> int:
        """OR of two literals."""
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        """XOR of two literals (two-level AIG structure)."""
        return lit_not(self.and_(lit_not(self.and_(a, lit_not(b))),
                                 lit_not(self.and_(lit_not(a), b))))

    def mux_(self, select: int, if_true: int, if_false: int) -> int:
        """Multiplexer: select ? if_true : if_false."""
        return self.or_(self.and_(select, if_true),
                        self.and_(lit_not(select), if_false))

    def and_many(self, literals: Sequence[int]) -> int:
        """Balanced AND of a literal list."""
        items = list(literals)
        if not items:
            return TRUE
        while len(items) > 1:
            paired = []
            for k in range(0, len(items) - 1, 2):
                paired.append(self.and_(items[k], items[k + 1]))
            if len(items) % 2:
                paired.append(items[-1])
            items = paired
        return items[0]

    def or_many(self, literals: Sequence[int]) -> int:
        """Balanced OR of a literal list."""
        return lit_not(self.and_many([lit_not(x) for x in literals]))

    # -- queries -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of AND nodes."""
        return len(self._fanins) - 1 - len(self._pis)

    @property
    def n_objects(self) -> int:
        """Total object count (constant + PIs + ANDs)."""
        return len(self._fanins)

    @property
    def n_pis(self) -> int:
        return len(self._pis)

    @property
    def n_pos(self) -> int:
        return len(self._pos)

    @property
    def pis(self) -> List[int]:
        """PI node ids."""
        return list(self._pis)

    @property
    def pos(self) -> List[int]:
        """PO literals."""
        return list(self._pos)

    @property
    def pi_names(self) -> List[str]:
        return list(self._pi_names)

    @property
    def po_names(self) -> List[str]:
        return list(self._po_names)

    def is_pi(self, node: int) -> bool:
        """True if the node is a primary input."""
        return self._is_pi[node]

    def is_and(self, node: int) -> bool:
        """True if the node is an AND gate."""
        return node > 0 and not self._is_pi[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """Fanin literals of an AND node."""
        fanins = self._fanins[node]
        if fanins is None:
            raise AigError(f"node {node} has no fanins")
        return fanins

    def and_nodes(self) -> Iterable[int]:
        """AND node ids in topological order."""
        for node in range(1, len(self._fanins)):
            if not self._is_pi[node]:
                yield node

    def _check_literal(self, literal: int) -> None:
        node = lit_node(literal)
        if not 0 <= node < len(self._fanins):
            raise AigError(f"literal {literal} references unknown node")

    def reference_counts(self) -> List[int]:
        """Fanout count per node (POs included)."""
        refs = [0] * len(self._fanins)
        for node in self.and_nodes():
            f0, f1 = self.fanins(node)
            refs[lit_node(f0)] += 1
            refs[lit_node(f1)] += 1
        for po in self._pos:
            refs[lit_node(po)] += 1
        return refs

    def levels(self) -> List[int]:
        """Logic level per node (PIs at level 0)."""
        level = [0] * len(self._fanins)
        for node in self.and_nodes():
            f0, f1 = self.fanins(node)
            level[node] = 1 + max(level[lit_node(f0)], level[lit_node(f1)])
        return level

    def depth(self) -> int:
        """Largest PO level."""
        if not self._pos:
            return 0
        level = self.levels()
        return max(level[lit_node(po)] for po in self._pos)

    # -- simulation ----------------------------------------------------------

    def simulate(self, pi_words: Sequence[int], width: int) -> List[int]:
        """Bit-parallel simulation with Python-int bit vectors.

        Args:
            pi_words: one integer of ``width`` pattern bits per PI.
            width: number of patterns.

        Returns:
            One integer per PO with the corresponding output bits.
        """
        if len(pi_words) != self.n_pis:
            raise AigError(
                f"expected {self.n_pis} PI words, got {len(pi_words)}")
        mask = (1 << width) - 1
        values = [0] * len(self._fanins)
        for node, word in zip(self._pis, pi_words):
            values[node] = word & mask
        for node in self.and_nodes():
            f0, f1 = self.fanins(node)
            v0 = values[lit_node(f0)] ^ (mask if lit_phase(f0) else 0)
            v1 = values[lit_node(f1)] ^ (mask if lit_phase(f1) else 0)
            values[node] = v0 & v1
        outputs = []
        for po in self._pos:
            value = values[lit_node(po)] ^ (mask if lit_phase(po) else 0)
            outputs.append(value & mask)
        return outputs

    def evaluate(self, assignment: Sequence[bool]) -> List[bool]:
        """Evaluate all POs on a single input assignment."""
        words = [1 if v else 0 for v in assignment]
        return [bool(w) for w in self.simulate(words, 1)]

    def random_simulation_signature(self, n_patterns: int = 256,
                                    seed: int = 2010) -> List[int]:
        """PO signatures under seeded random patterns (equivalence checks)."""
        rng = random.Random(seed)
        words = [rng.getrandbits(n_patterns) for _ in range(self.n_pis)]
        return self.simulate(words, n_patterns)

    # -- structural cleanup ---------------------------------------------------

    def cached_derivation(self, cache, derive):
        """Memoize ``derive(self)`` in a WeakKeyDictionary keyed on this
        graph, stamped with :attr:`version` so any mutation invalidates.

        The shared mechanism behind the synthesized-subject, compacted-
        copy and cut-enumeration caches — one invalidation invariant
        instead of several hand-rolled stamps.
        """
        stamp = self._version
        entry = cache.get(self)
        if entry is not None and entry[0] == stamp:
            value = entry[1]
            return self if value is None else value
        value = derive(self)
        # Converged derivations return their input; storing the graph
        # as its own cache value would strongly reference the weak key
        # and make the entry immortal, so store a self-sentinel.
        cache[self] = (stamp, None if value is self else value)
        return value

    def content_key(self) -> str:
        """Hash of everything a build produces — the graph's name, node
        table, PIs and POs — memoized until the next mutation."""
        memo = self.__dict__.get("_content_key")
        if memo is None or memo[0] != self._version:
            text = repr((self.name, self._fanins, self._pis, self._pi_names,
                         self._pos, self._po_names))
            memo = self._content_key = (
                self._version,
                hashlib.sha256(text.encode("utf-8")).hexdigest()[:32])
        return memo[1]

    def same_structure(self, other: "Aig") -> bool:
        """True if two graphs are structurally identical (same node
        table, PIs, POs and names) — i.e. interchangeable for every
        structural algorithm.  Lets optimization passes return their
        input unchanged when they converge, preserving caches keyed on
        the graph object."""
        return (self._fanins == other._fanins
                and self._is_pi == other._is_pi
                and self._pis == other._pis
                and self._pos == other._pos
                and self._pi_names == other._pi_names
                and self._po_names == other._po_names)

    def compact(self) -> "Aig":
        """Copy with dangling nodes removed (DFS from the POs)."""
        new = Aig(self.name)
        mapping: Dict[int, int] = {0: FALSE}
        for node, name in zip(self._pis, self._pi_names):
            mapping[node] = new.add_pi(name)
        reachable = set()
        stack = [lit_node(po) for po in self._pos]
        while stack:
            node = stack.pop()
            if node in reachable or not self.is_and(node):
                continue
            reachable.add(node)
            f0, f1 = self.fanins(node)
            stack.append(lit_node(f0))
            stack.append(lit_node(f1))
        for node in self.and_nodes():
            if node not in reachable:
                continue
            f0, f1 = self.fanins(node)
            a = mapping[lit_node(f0)] ^ lit_phase(f0)
            b = mapping[lit_node(f1)] ^ lit_phase(f1)
            mapping[node] = new.and_(a, b)
        for po, name in zip(self._pos, self._po_names):
            new.add_po(mapping[lit_node(po)] ^ lit_phase(po), name)
        return new
