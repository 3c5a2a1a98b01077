"""The library and circuit registries: registration, aliases,
discovery, vdd-aware construction, the hybrid pass-transistor demo
library, the circuit suite as a registry view, and the deprecated flow
shims."""

import itertools

import pytest

from repro import registry
from repro.circuits.suite import CMOS, CONVENTIONAL, GENERALIZED
from repro.errors import ExperimentError, LibraryError
from repro.gates.conventional import conventional_cells
from repro.gates.hybrid_pass import (
    HYBRID_FUNCTIONS,
    HYBRID_PASS,
    hybrid_pass_library,
)
from repro.gates.library import Library


@pytest.fixture
def toy_registration():
    """Register a toy library for one test and clean it up after."""
    def factory(vdd=None):
        from repro.devices.parameters import CMOS_32NM
        return Library("toy", registry.tech_at(CMOS_32NM, vdd),
                       conventional_cells())

    entry = registry.register_library(
        "toy", factory, aliases=("t",), description="test library")
    yield entry
    registry.unregister_library("toy")


class TestRegistryBasics:
    def test_builtins_registered(self):
        keys = registry.available_libraries()
        assert keys[:3] == [GENERALIZED, CONVENTIONAL, CMOS]
        assert HYBRID_PASS in keys

    def test_alias_resolution(self):
        assert registry.canonical_library("generalized") == GENERALIZED
        assert registry.canonical_library("conventional") == CONVENTIONAL
        assert registry.canonical_library("cmos") == CMOS
        assert registry.canonical_library("hybrid") == HYBRID_PASS
        # Canonical keys resolve to themselves.
        assert registry.canonical_library(GENERALIZED) == GENERALIZED

    def test_unknown_key_raises_with_choices(self):
        with pytest.raises(ExperimentError, match="unknown library"):
            registry.canonical_library("no-such-library")
        with pytest.raises(ExperimentError, match="choose from"):
            registry.build_library("no-such-library")

    def test_entry_metadata(self):
        entry = registry.library_entry("hybrid")
        assert entry.key == HYBRID_PASS
        assert "hybrid" in entry.aliases
        assert entry.description

    def test_cached_library_identity(self):
        a = registry.cached_library("generalized")
        b = registry.cached_library(GENERALIZED)
        assert a is b
        assert registry.build_library("generalized") is not a

    def test_vdd_aware_construction(self):
        native = registry.cached_library("cmos")
        scaled = registry.cached_library("cmos", 0.7)
        assert native.tech.vdd == pytest.approx(0.9)
        assert scaled.tech.vdd == pytest.approx(0.7)
        assert scaled is not native
        assert scaled is registry.cached_library("cmos", 0.7)


class TestRegistration:
    def test_register_and_resolve(self, toy_registration):
        assert "toy" in registry.available_libraries()
        assert registry.canonical_library("t") == "toy"
        library = registry.cached_library("t")
        assert library.name == "toy"
        assert library is registry.cached_library("toy")

    def test_duplicate_key_rejected(self, toy_registration):
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register_library("toy", toy_registration.factory)

    def test_alias_collision_rejected(self, toy_registration):
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register_library("other", toy_registration.factory,
                                      aliases=("t",))

    def test_replace_evicts_cache(self, toy_registration):
        before = registry.cached_library("toy")
        registry.register_library("toy", toy_registration.factory,
                                  aliases=("t",), replace=True)
        after = registry.cached_library("toy")
        assert after is not before

    def test_unregister(self):
        registry.register_library(
            "ephemeral", lambda vdd=None: None)  # factory never called
        registry.unregister_library("ephemeral")
        assert "ephemeral" not in registry.available_libraries()
        with pytest.raises(ExperimentError):
            registry.unregister_library("ephemeral")
        registry.unregister_library("ephemeral", missing_ok=True)

    def test_paper_libraries_cached_trio(self):
        trio = registry.paper_libraries()
        assert list(trio) == [GENERALIZED, CONVENTIONAL, CMOS]
        for key, library in trio.items():
            assert library is registry.cached_library(key)


class TestHybridPassLibrary:
    def test_cell_functions(self):
        library = hybrid_pass_library()
        for name, expected in HYBRID_FUNCTIONS.items():
            cell = library.cell(name)
            for bits in itertools.product([False, True],
                                          repeat=cell.n_inputs):
                assert cell.evaluate(bits) == expected(*bits), (name, bits)

    def test_pass_transistor_xors(self):
        library = hybrid_pass_library()
        assert library.cell("XOR2").uses_transmission_gates()
        assert library.cell("XNOR2").uses_transmission_gates()
        # The static base keeps its CMOS-style topologies.
        assert not library.cell("NAND2").uses_transmission_gates()

    def test_requires_ambipolar_technology(self):
        from repro.devices.parameters import CMOS_32NM
        with pytest.raises(LibraryError, match="ambipolar"):
            hybrid_pass_library(CMOS_32NM)

    def test_maps_and_estimates_end_to_end(self, tiny_config):
        """The registry-only fourth library runs the full pipeline."""
        from repro.circuits.adders import ripple_adder_circuit
        from repro.experiments.flow import run_circuit_flow

        library = registry.cached_library("hybrid")
        flow = run_circuit_flow(ripple_adder_circuit(4), library,
                                tiny_config)
        assert flow.library == HYBRID_PASS
        assert flow.gate_count > 0
        assert flow.pt_w > 0

    def test_sweepable_without_experiment_edits(self, tmp_path):
        """The hybrid library joins sweep grids purely via the registry."""
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import SweepSpec
        from repro.sweep.store import ResultStore

        spec = SweepSpec(circuits=("t481",), libraries=("hybrid",),
                         n_patterns=(512,), state_patterns=512)
        assert spec.libraries == (HYBRID_PASS,)
        store = ResultStore(tmp_path / "hybrid.jsonl")
        report = run_sweep(spec, store)
        assert report.executed == 1
        record = store.records()[0]
        assert record["library"] == HYBRID_PASS
        assert record["result"]["pt_w"] > 0


@pytest.fixture
def toy_circuit():
    """Register a toy circuit for one test and clean it up after."""
    from repro.circuits.adders import ripple_adder_circuit

    entry = registry.register_circuit(
        "toy-adder", lambda: ripple_adder_circuit(3, name="toy-adder"),
        aliases=("ta",), description="three-bit ripple adder",
        function="Adder")
    yield entry
    registry.unregister_circuit("toy-adder", missing_ok=True)


class TestCircuitRegistry:
    def test_paper_benchmarks_registered(self):
        keys = registry.available_circuits()
        assert keys[0] == "C2670" and "t481" in keys and "C1355" in keys
        assert registry.paper_benchmarks() == [
            "C2670", "C1908", "C3540", "dalu", "C7552", "C6288",
            "C5315", "des", "i10", "t481", "i8", "C1355"]

    def test_suite_is_a_registry_view(self):
        from repro.circuits.suite import benchmark_suite

        suite = {spec.name for spec in benchmark_suite()}
        assert suite == set(registry.paper_benchmarks())
        for spec in benchmark_suite():
            entry = registry.circuit_entry(spec.name)
            assert entry.build is spec.build
            assert dict(entry.paper) == spec.paper

    def test_register_and_resolve(self, toy_circuit):
        assert "toy-adder" in registry.available_circuits()
        assert registry.canonical_circuit("ta") == "toy-adder"
        aig = registry.build_circuit("ta")
        assert aig.name == "toy-adder"
        # User circuits never join the paper suite implicitly.
        assert "toy-adder" not in registry.paper_benchmarks()

    def test_unknown_circuit_raises_with_choices(self):
        with pytest.raises(ExperimentError, match="unknown circuit"):
            registry.canonical_circuit("no-such-circuit")
        with pytest.raises(ExperimentError, match="choose from"):
            registry.build_circuit("no-such-circuit")

    def test_duplicate_and_alias_collisions(self, toy_circuit):
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register_circuit("toy-adder", toy_circuit.build)
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register_circuit("other", toy_circuit.build,
                                      aliases=("ta",))
        # Circuit and library namespaces are independent.
        registry.register_circuit("cmos-like", toy_circuit.build,
                                  aliases=("cmos",))
        try:
            assert registry.canonical_circuit("cmos") == "cmos-like"
            assert registry.canonical_library("cmos") == CMOS
        finally:
            registry.unregister_circuit("cmos-like")

    def test_unregister(self, toy_circuit):
        registry.unregister_circuit("toy-adder")
        assert "toy-adder" not in registry.available_circuits()
        with pytest.raises(ExperimentError):
            registry.unregister_circuit("toy-adder")
        registry.unregister_circuit("toy-adder", missing_ok=True)

    def test_factory_error_not_rewritten_as_unknown_name(self):
        from repro.circuits.suite import build_benchmark

        def broken():
            raise ExperimentError("bad parameter")

        registry.register_circuit("broken-factory", broken)
        try:
            with pytest.raises(ExperimentError, match="bad parameter"):
                build_benchmark("broken-factory")
            with pytest.raises(ExperimentError, match="unknown"):
                build_benchmark("no-such-circuit")
        finally:
            registry.unregister_circuit("broken-factory")

    def test_blif_snapshot_replays_in_workers(self, tiny_config):
        """The spawn-start-method contract: a worker that re-imported
        the registry rebuilds --blif circuits from the snapshot."""
        from pathlib import Path

        from repro.experiments.parallel import _worker_init

        fixture = (Path(__file__).parent / "circuits" / "data"
                   / "majority_parity.blif")
        registry.register_blif_circuit(str(fixture), replace=True)
        try:
            snapshot = registry.blif_registrations()
            assert [entry["key"] for entry in snapshot] \
                == ["majority_parity"]
            # Simulate the worker side: registration gone, replayed.
            registry.unregister_circuit("majority_parity")
            assert "majority_parity" not in registry.available_circuits()
            _worker_init(snapshot)
            assert "majority_parity" in registry.available_circuits()
            aig = registry.build_circuit("majority_parity")
            assert aig.pi_names == ["a", "b", "c"]
        finally:
            registry.unregister_circuit("majority_parity",
                                        missing_ok=True)
        assert registry.blif_registrations() == []

    def test_blif_runs_under_spawn_pool(self, tiny_config):
        """End to end under the spawn start method: a worker process
        with a fresh interpreter serves a --blif Table 1 cell."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from pathlib import Path

        from repro.experiments import parallel
        from repro.experiments.table1 import run_table1_cell

        fixture = (Path(__file__).parent / "circuits" / "data"
                   / "majority_parity.blif")
        registry.register_blif_circuit(str(fixture), replace=True)
        config = tiny_config.scaled(256)
        try:
            direct = run_table1_cell(("majority_parity", CMOS, config))
            with ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=parallel._worker_init,
                    initargs=(registry.blif_registrations(),)) as pool:
                via_spawn = pool.submit(
                    run_table1_cell,
                    ("majority_parity", CMOS, config)).result(timeout=300)
        finally:
            registry.unregister_circuit("majority_parity",
                                        missing_ok=True)
        assert via_spawn == direct

    def test_runs_through_session_and_table1_cell(self, toy_circuit,
                                                  tiny_config):
        from repro.api import Session
        from repro.experiments.table1 import run_table1_cell

        flow = Session(tiny_config).run("ta", "cmos")
        assert flow.circuit == "toy-adder"
        cell = run_table1_cell(("toy-adder", CMOS, tiny_config))
        assert cell.circuit == "toy-adder"
        assert cell.gate_count == flow.gate_count
        assert cell.pt_w == flow.pt_w


class TestShimRetirement:
    """The deprecation shims of the registry migration are gone."""

    def test_flow_shims_removed(self):
        import repro.experiments
        import repro.experiments.flow as flow

        assert not hasattr(flow, "three_libraries")
        assert not hasattr(flow, "cached_libraries")
        assert not hasattr(repro.experiments, "three_libraries")
        assert "three_libraries" not in repro.experiments.__all__

    def test_table1_underscore_aliases_removed(self):
        import repro.experiments.table1 as table1

        assert not hasattr(table1, "_run_table1_cell")
        assert not hasattr(table1, "_verbose_line")

    def test_paper_libraries_is_the_replacement(self):
        trio = registry.paper_libraries()
        assert list(trio) == [GENERALIZED, CONVENTIONAL, CMOS]
        for key, library in trio.items():
            assert library is registry.cached_library(key)
        resupplied = registry.paper_libraries(0.8)
        assert resupplied[CMOS].tech.vdd == pytest.approx(0.8)
        assert resupplied[CMOS] is registry.cached_library(CMOS, 0.8)
