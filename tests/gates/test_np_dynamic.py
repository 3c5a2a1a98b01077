"""The NP-domino ambipolar demo library (gates/np_dynamic.py)."""

import itertools

import pytest

from repro import registry
from repro.devices.parameters import CMOS_32NM, CNTFET_32NM
from repro.errors import LibraryError
from repro.experiments.flow import run_circuit_flow
from repro.gates.np_dynamic import (
    NP_DYNAMIC,
    NP_DYNAMIC_FUNCTIONS,
    np_domino_cells,
    np_dynamic_library,
)


@pytest.fixture(scope="module")
def nplib():
    return np_dynamic_library(CNTFET_32NM)


class TestNpDynamicCells:
    def test_domino_cell_functions(self, nplib):
        for name, function in NP_DYNAMIC_FUNCTIONS.items():
            cell = nplib.cell(name)
            for values in itertools.product(
                    (False, True), repeat=len(cell.inputs)):
                assert cell.evaluate(values) == bool(function(*values)), \
                    (name, values)

    def test_composites_are_non_inverting_two_stage(self):
        for cell in np_domino_cells():
            assert len(cell.stages) == 2, cell.name
            assert cell.stages[-1].name == "y", cell.name

    def test_parity_chain_uses_transmission_gates(self, nplib):
        assert nplib.cell("NPXOR3").generalized
        assert nplib.cell("NPXNOR3").generalized
        assert nplib.cell("NPXOR3").uses_transmission_gates()
        # The domino AND/OR composites stay purely static.
        assert not nplib.cell("NPAND3").uses_transmission_gates()

    def test_extends_the_conventional_base_set(self, nplib):
        for name in ("INV", "NAND2", "NOR2", "XOR2", "MUX2"):
            assert name in nplib
        assert len(nplib) == 20 + len(np_domino_cells())

    def test_requires_ambipolar_technology(self):
        with pytest.raises(LibraryError):
            np_dynamic_library(CMOS_32NM)


class TestNpDynamicRegistration:
    def test_registered_key_and_aliases(self):
        assert NP_DYNAMIC in registry.available_libraries()
        assert registry.canonical_library("np-dynamic") == NP_DYNAMIC
        assert registry.canonical_library("np-domino") == NP_DYNAMIC

    def test_cached_library_resolves_it(self):
        library = registry.cached_library("np-dynamic")
        assert library.name == NP_DYNAMIC
        assert library is registry.cached_library(NP_DYNAMIC)

    def test_end_to_end_flow(self, tiny_config):
        from repro.circuits.adders import ripple_adder_circuit

        library = registry.cached_library("np-dynamic")
        flow = run_circuit_flow(ripple_adder_circuit(4), library,
                                tiny_config)
        assert flow.library == NP_DYNAMIC
        assert flow.gate_count > 0
        assert flow.pt_w > 0

    def test_foundry_lists_it_as_build_target(self):
        from repro import foundry

        rows = {row["key"]: row for row in foundry.library_listing()}
        assert NP_DYNAMIC in rows
        assert rows[NP_DYNAMIC]["description"]


def test_vdd_aware_factory():
    library = registry.build_library("np-dynamic", 0.7)
    assert library.tech.vdd == pytest.approx(0.7)


def test_tiny_sweep_over_np_dynamic(tmp_path):
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import ResultStore

    spec = SweepSpec(circuits=("t481",), libraries=("np-dynamic",),
                     n_patterns=(512,), state_patterns=512)
    assert spec.libraries == (NP_DYNAMIC,)
    store = ResultStore(tmp_path / "np.jsonl")
    report = run_sweep(spec, store)
    assert report.executed == 1
    record = store.records()[0]
    assert record["library"] == NP_DYNAMIC
    assert record["result"]["pt_w"] > 0
