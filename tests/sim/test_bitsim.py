"""Bit-parallel netlist simulation: correctness of values, toggles and
state histograms of the per-gate reference, and the kernel's output
words against the AIG."""

import numpy as np
import pytest

from repro.circuits.adders import ripple_adder_circuit
from repro.sim.arraysim import ArraySimulator, random_pi_words
from repro.sim.bitsim import BitParallelSimulator
from repro.synth.mapper import map_aig


@pytest.fixture(scope="module")
def adder_netlist(glib):
    return map_aig(ripple_adder_circuit(3), glib)


def _reference_run(netlist, n_patterns, seed):
    """Slow single-pattern reference using the cell interpreter."""
    rng = np.random.default_rng(seed)
    n_words = (n_patterns + 63) // 64
    words = {}
    tail = n_patterns - (n_words - 1) * 64
    mask = np.uint64((1 << tail) - 1) if tail < 64 else np.uint64(2**64 - 1)
    for name in netlist.pi_names:
        w = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        w[-1] &= mask
        words[name] = w

    def bit(net_words, pattern):
        return (int(net_words[pattern // 64]) >> (pattern % 64)) & 1

    library = netlist.library
    values = {}
    for pattern in range(n_patterns):
        state = {name: bool(bit(words[name], pattern))
                 for name in netlist.pi_names}
        for gate in netlist.gates:
            cell = library.cell(gate.cell)
            state[gate.output] = cell.evaluate(
                [state[n] for n in gate.inputs])
        values.setdefault("nets", []).append(dict(state))
    return values["nets"]


class TestValues:
    def test_matches_reference_interpreter(self, adder_netlist):
        n_patterns = 130  # crosses a word boundary, non-multiple of 64
        simulator = BitParallelSimulator(adder_netlist)
        stats = simulator.run(n_patterns, seed=7)
        reference = _reference_run(adder_netlist, n_patterns, seed=7)

        # toggle counts per net
        for net in [g.output for g in adder_netlist.gates]:
            expected = sum(
                reference[k][net] != reference[k + 1][net]
                for k in range(n_patterns - 1))
            assert stats.toggles[net] == expected, net

        # state histograms per gate
        library = adder_netlist.library
        for gate in adder_netlist.gates:
            cell = library.cell(gate.cell)
            counts = np.zeros(1 << cell.n_inputs, dtype=int)
            for k in range(stats.n_state_patterns):
                vector = 0
                for i, net in enumerate(gate.inputs):
                    if reference[k][net]:
                        vector |= 1 << i
                counts[vector] += 1
            assert np.array_equal(stats.state_counts[gate.name], counts)

    def test_output_words_match_aig(self, glib):
        aig = ripple_adder_circuit(3)
        netlist = map_aig(aig, glib)
        n_patterns = 200
        words = ArraySimulator(netlist).output_words(
            random_pi_words(len(netlist.pi_names), n_patterns, 3),
            n_patterns)
        rng = np.random.default_rng(3)
        n_words = (n_patterns + 63) // 64
        pi_words = {name: rng.integers(0, 2**64, size=n_words,
                                       dtype=np.uint64)
                    for name in netlist.pi_names}
        for pattern in range(0, n_patterns, 17):
            values = []
            for name in aig.pi_names:
                w = pi_words[name]
                values.append(bool(
                    (int(w[pattern // 64]) >> (pattern % 64)) & 1))
            expected = aig.evaluate(values)
            for po_name, want in zip(aig.po_names, expected):
                got = (int(words[po_name][pattern // 64])
                       >> (pattern % 64)) & 1
                assert bool(got) == want


class TestStatistics:
    def test_state_counts_sum_to_patterns(self, adder_netlist):
        stats = BitParallelSimulator(adder_netlist).run(512, seed=1)
        for counts in stats.state_counts.values():
            assert counts.sum() == stats.n_state_patterns

    def test_toggle_rate_bounds(self, adder_netlist):
        stats = BitParallelSimulator(adder_netlist).run(4096, seed=2)
        for net in stats.toggles:
            rate = stats.toggle_rate(net)
            assert 0.0 <= rate <= 1.0

    def test_deterministic_by_seed(self, adder_netlist):
        sim = BitParallelSimulator(adder_netlist)
        a = sim.run(1024, seed=42)
        b = sim.run(1024, seed=42)
        assert a.toggles == b.toggles

    def test_single_pattern_run(self, adder_netlist):
        stats = BitParallelSimulator(adder_netlist).run(1, seed=0)
        assert all(t == 0 for t in stats.toggles.values())
        assert stats.toggle_rate("sum[0]") == 0.0

    def test_state_subsampling(self, adder_netlist):
        stats = BitParallelSimulator(adder_netlist).run(
            4096, seed=5, state_patterns=128)
        assert stats.n_state_patterns == 128
        for counts in stats.state_counts.values():
            assert counts.sum() == 128
