"""Technology mapping: functional equivalence and structural sanity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.synth.aig import Aig, TRUE, lit_not
from repro.synth.mapper import MappingOptions, build_match_table, map_aig
from repro.synth.truth import flip_variable, permute
from repro.timing import arrival_times


def netlist_evaluate(netlist, values):
    """Reference interpreter for mapped netlists."""
    library = netlist.library
    state = dict(zip(netlist.pi_names, values))
    for gate in netlist.gates:
        cell = library.cell(gate.cell)
        state[gate.output] = cell.evaluate([state[n] for n in gate.inputs])
    outputs = []
    for _, (kind, value) in netlist.po_bindings:
        outputs.append(bool(value) if kind == "const" else state[value])
    return outputs


@st.composite
def random_aigs(draw, n_pis=4):
    aig = Aig()
    literals = [aig.add_pi(f"x{i}") for i in range(n_pis)]
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        op = draw(st.sampled_from(["and", "or", "xor", "mux"]))
        picks = [draw(st.sampled_from(literals)) for _ in range(3)]
        if draw(st.booleans()):
            picks[0] = lit_not(picks[0])
        if op == "mux":
            literals.append(aig.mux_(*picks))
        else:
            literals.append(getattr(aig, f"{op}_")(picks[0], picks[1]))
    aig.add_po(literals[-1], "f")
    aig.add_po(lit_not(literals[-2]) if len(literals) > n_pis else TRUE, "g")
    return aig


class TestMatchTable:
    def test_entries_realize_their_tables(self, mlib):
        """Every (cell, perm, phases) entry must reproduce the table it
        is filed under."""
        table = build_match_table(mlib, 4)
        checked = 0
        for arity, bucket in table.items():
            for tt, entry in list(bucket.items())[:50]:
                cell = mlib.cell(entry.cell)
                rebuilt = permute(cell.truth_table, entry.perm, arity)
                for var in range(arity):
                    if (entry.phases >> var) & 1:
                        rebuilt = flip_variable(rebuilt, var, arity)
                assert rebuilt == tt
                checked += 1
        assert checked > 50

    def test_two_input_coverage_complete(self, mlib):
        """All non-degenerate 2-input functions must be matchable (with
        phases), since the mapper relies on the 2-cut fallback: the
        direct-fanin cut of an AND node always depends on both leaves."""
        from repro.synth.truth import support
        table = build_match_table(mlib, 4)
        bucket = table[2]
        for tt in range(16):
            if len(support(tt, 2)) < 2:
                continue  # degenerate: never produced by a fanin cut
            covered = tt in bucket or (tt ^ 0xF) in bucket
            assert covered, f"function {tt:04b} unmatchable"


class TestEquivalence:
    @pytest.mark.parametrize("fixture", ["glib", "clib", "mlib"])
    @given(aig=random_aigs())
    @settings(max_examples=15, deadline=None)
    def test_mapping_preserves_function(self, fixture, request, aig):
        library = request.getfixturevalue(fixture)
        netlist = map_aig(aig, library)
        netlist.validate()
        for minterm in range(16):
            values = [bool((minterm >> i) & 1) for i in range(4)]
            assert netlist_evaluate(netlist, values) == aig.evaluate(values)

    def test_adder_exhaustive(self, glib):
        from repro.circuits.adders import ripple_adder_circuit
        aig = ripple_adder_circuit(3)
        netlist = map_aig(aig, glib)
        for minterm in range(1 << 7):
            values = [bool((minterm >> i) & 1) for i in range(7)]
            assert netlist_evaluate(netlist, values) == aig.evaluate(values)


class TestStructure:
    def test_po_of_pi_direct(self, mlib):
        aig = Aig()
        a = aig.add_pi("a")
        aig.add_po(a, "out")
        netlist = map_aig(aig, mlib)
        assert netlist.gate_count == 0
        assert netlist.po_bindings[0][1] == ("net", "a")

    def test_po_of_negated_pi_gets_inverter(self, mlib):
        aig = Aig()
        a = aig.add_pi("a")
        aig.add_po(lit_not(a), "out")
        netlist = map_aig(aig, mlib)
        assert netlist.gate_count == 1
        assert netlist.gates[0].cell == "INV"

    def test_constant_po(self, mlib):
        aig = Aig()
        aig.add_pi("a")
        aig.add_po(TRUE, "one")
        netlist = map_aig(aig, mlib)
        assert netlist.po_bindings[0][1] == ("const", 1)
        assert netlist_evaluate(netlist, [False]) == [True]

    def test_generalized_library_finds_xor_cells(self, glib):
        aig = Aig()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        aig.add_po(aig.xor_(a, b), "y")
        netlist = map_aig(aig, glib)
        assert netlist.gate_count == 1
        assert netlist.gates[0].cell in ("XOR2", "XNOR2")

    def test_area_rounds_do_not_break_function(self, glib):
        from repro.circuits.adders import ripple_adder_circuit
        aig = ripple_adder_circuit(4)
        fast = map_aig(aig, glib, MappingOptions(area_rounds=0))
        small = map_aig(aig, glib, MappingOptions(area_rounds=3))
        for minterm in (0, 5, 100, 300, 511):
            values = [bool((minterm >> i) & 1) for i in range(9)]
            assert (netlist_evaluate(fast, values)
                    == netlist_evaluate(small, values))
        assert small.total_area() <= fast.total_area() + 1e-9


class TestTiming:
    def test_sta_positive_and_load_sensitive(self, glib):
        from repro.circuits.adders import ripple_adder_circuit
        netlist = map_aig(ripple_adder_circuit(4), glib)
        delay, arrivals = arrival_times(netlist)
        assert delay > 0
        assert all(v >= 0 for v in arrivals.values())
        # POs see the critical path
        po_nets = [v for _, (k, v) in netlist.po_bindings if k == "net"]
        assert delay == pytest.approx(max(arrivals[n] for n in po_nets))

    def test_cmos_slower_than_cntfet(self, mlib, clib):
        from repro.circuits.adders import ripple_adder_circuit
        aig = ripple_adder_circuit(4)
        cmos_delay, _ = arrival_times(map_aig(aig, mlib))
        cnt_delay, _ = arrival_times(map_aig(aig, clib))
        assert cmos_delay > 3 * cnt_delay
