"""Mapped-netlist structural queries and validation."""

import pytest

from repro.circuits.adders import ripple_adder_circuit
from repro.errors import SimulationError
from repro.synth.mapper import map_aig
from repro.synth.netlist import MappedGate, MappedNetlist
from repro.timing import arrival_times


@pytest.fixture(scope="module")
def netlist(glib):
    return map_aig(ripple_adder_circuit(3), glib)


class TestQueries:
    def test_driver_map_unique(self, netlist):
        drivers = netlist.driver_of()
        assert len(drivers) == netlist.gate_count
        for gate in netlist.gates:
            assert drivers[gate.output] is gate

    def test_fanout_map_covers_all_pins(self, netlist):
        fanouts = netlist.fanouts_of()
        total_pins = sum(len(g.inputs) for g in netlist.gates)
        assert sum(len(v) for v in fanouts.values()) == total_pins

    def test_cell_histogram_sums_to_gate_count(self, netlist):
        assert sum(netlist.cell_histogram().values()) == netlist.gate_count

    def test_total_area_and_devices_positive(self, netlist):
        assert netlist.total_area() > 0
        assert netlist.total_devices() >= 2 * netlist.gate_count

    def test_all_nets_ordering(self, netlist):
        nets = netlist.all_nets()
        assert nets[:len(netlist.pi_names)] == netlist.pi_names

    def test_net_loads_include_po_load(self, netlist):
        bare = netlist.net_loads(po_extra_load=0.0)
        loaded = netlist.net_loads(po_extra_load=1e-15)
        po_nets = {v for _, (k, v) in netlist.po_bindings if k == "net"}
        for net in po_nets:
            assert loaded[net] == pytest.approx(bare[net] + 1e-15)


class TestValidation:
    def _broken(self, netlist, gates):
        return MappedNetlist(
            name="broken", library=netlist.library,
            pi_names=list(netlist.pi_names),
            po_bindings=list(netlist.po_bindings), gates=gates)

    def test_use_before_definition(self, netlist):
        gates = [MappedGate("g0", "INV", ("nowhere",), "n_bad")]
        with pytest.raises(SimulationError):
            self._broken(netlist, gates).validate()

    def test_redefined_net(self, netlist):
        pi = netlist.pi_names[0]
        gates = [MappedGate("g0", "INV", (pi,), "x"),
                 MappedGate("g1", "INV", (pi,), "x")]
        with pytest.raises(SimulationError):
            self._broken(netlist, gates).validate()

    def test_multiply_driven_net_detected(self, netlist):
        pi = netlist.pi_names[0]
        gates = [MappedGate("g0", "INV", (pi,), "x"),
                 MappedGate("g1", "INV", (pi,), "x")]
        broken = self._broken(netlist, gates)
        with pytest.raises(SimulationError):
            broken.driver_of()

    def test_undefined_po_net(self, netlist):
        broken = MappedNetlist(
            name="broken", library=netlist.library,
            pi_names=list(netlist.pi_names),
            po_bindings=[("out", ("net", "missing"))], gates=[])
        with pytest.raises(SimulationError):
            broken.validate()


class TestTimingDetails:
    def test_arrival_monotone_along_paths(self, netlist):
        _, arrivals = arrival_times(netlist)
        for gate in netlist.gates:
            gate_arrival = arrivals[gate.output]
            for net in gate.inputs:
                assert gate_arrival > arrivals[net]

    def test_po_load_affects_delay(self, netlist):
        small, _ = arrival_times(netlist, po_extra_load=0.0)
        large, _ = arrival_times(netlist, po_extra_load=1e-14)
        assert large > small
