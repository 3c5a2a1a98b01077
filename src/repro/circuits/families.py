"""Parametric circuit families — ``synth:rand`` and its helpers.

A circuit *family* is one registration that stands for an unbounded set
of circuits: ``synth:rand(gates=50000,seed=7)`` is a valid circuit name
anywhere a benchmark key is (Session, sweep specs, the CLI, the
estimation server), resolved through
:func:`repro.registry.canonical_circuit` by parsing the spec and
instantiating the generator on first use.  See the family section of
:mod:`repro.registry` for the grammar and key semantics.

``synth:rand`` generates seeded multi-level random logic in the
i8/i10/t481 mold of :mod:`repro.circuits.random_logic`, but with an
XOR-richer operator mix (datapath-like blocks: parity, adders and
comparators are XOR-heavy — the regime where the ambipolar library's
transmission-gate XOR cells matter most, cf. the cell mixes of
arXiv:1411.2088).  Generation cost is linear in ``gates``, so the
family scales to million-gate stress subjects for the simulation kernel.

:func:`random_mapped_netlist` sidesteps synthesis and mapping entirely
and emits a random *mapped* netlist straight from a library's cells —
the benchmark and property-test workhorse, where the subject is the
simulator, not the flow.
"""

from __future__ import annotations

import random
from typing import List

from repro.circuits.builders import CircuitBuilder
from repro.gates.library import Library
from repro.synth.aig import Aig, lit_not
from repro.synth.netlist import MappedGate, MappedNetlist


def synth_rand(gates: int = 50000, seed: int = 7, inputs: int = 64,
               outputs: int = 32) -> Aig:
    """Seeded random multi-level logic with an XOR-rich operator mix.

    Args:
        gates: internal random operations (AND/OR/XOR/MUX); the mapped
            gate count lands in the same order of magnitude.
        seed: RNG seed — generation is fully reproducible, which is
            what makes the spec string a content address.
        inputs: primary inputs.
        outputs: primary outputs, tapped from the latest signals.
    """
    rng = random.Random(seed)
    builder = CircuitBuilder(
        f"synth:rand(gates={gates},seed={seed},"
        f"inputs={inputs},outputs={outputs})")
    signals: List[int] = [builder.input_bit(f"x{i}") for i in range(inputs)]

    def pick() -> int:
        # Bias toward recent signals so the DAG gains depth.
        n = len(signals)
        index = min(n - 1, int(rng.betavariate(2.0, 1.0) * n))
        literal = signals[index]
        return lit_not(literal) if rng.random() < 0.3 else literal

    for _ in range(gates):
        op = rng.choices(("and", "or", "xor", "mux"),
                         weights=(3, 3, 3, 1))[0]
        if op == "and":
            signals.append(builder.and_(pick(), pick()))
        elif op == "or":
            signals.append(builder.or_(pick(), pick()))
        elif op == "xor":
            signals.append(builder.xor_(pick(), pick()))
        else:
            signals.append(builder.mux(pick(), pick(), pick()))

    taps = signals[-outputs:] if outputs <= len(signals) else signals
    for index, literal in enumerate(taps):
        builder.output_bit(f"z{index}", literal)
    return builder.aig


def random_mapped_netlist(library: Library, gates: int, seed: int,
                          inputs: int = 16) -> MappedNetlist:
    """A seeded random *mapped* netlist over a library's actual cells.

    Emits cell instances directly — no synthesis, no mapping — so a
    10^5-gate simulation subject builds in well under a second.  Every
    cell of the library appears (weighted uniformly), fanins are drawn
    with the same recent-signal bias as the AIG generators, and gates
    are emitted in definition order, so the result is a valid
    topologically-ordered :class:`MappedNetlist`.  Used by the bitsim
    benchmark and the gate/array equivalence property tests, where the
    subject of interest is the simulator itself.
    """
    rng = random.Random(seed)
    cells = [(cell.name, cell.n_inputs) for cell in library]
    nets: List[str] = [f"x{i}" for i in range(inputs)]

    def pick() -> str:
        n = len(nets)
        return nets[min(n - 1, int(rng.betavariate(2.0, 1.0) * n))]

    mapped: List[MappedGate] = []
    for index in range(gates):
        cell_name, arity = cells[rng.randrange(len(cells))]
        output = f"n{index}"
        mapped.append(MappedGate(
            name=f"g{index}", cell=cell_name,
            inputs=tuple(pick() for _ in range(arity)), output=output))
        nets.append(output)
    po_count = min(8, len(nets))
    netlist = MappedNetlist(
        name=f"rand-mapped(gates={gates},seed={seed},inputs={inputs})",
        library=library,
        pi_names=[f"x{i}" for i in range(inputs)],
        po_bindings=[(f"z{i}", ("net", nets[-1 - i]))
                     for i in range(po_count)],
        gates=mapped)
    netlist.validate()
    return netlist


# -- family registrations (import time, like the benchmark suite) -------------

from repro.registry import register_circuit_family  # noqa: E402

register_circuit_family(
    "synth:rand", synth_rand,
    defaults={"gates": 50000, "seed": 7, "inputs": 64, "outputs": 32},
    description="seeded random multi-level logic, XOR-rich operator mix "
                "(parametric family; scales to millions of gates)",
    function="Random logic (parametric)")
