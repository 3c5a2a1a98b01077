"""The parametric circuit-family grammar: ``family(param=value,...)``
specs anywhere a circuit name is accepted.

Covers the grammar itself (parse / normalize / error paths), instance
resolution through the registry (content-addressed: resolving an
instance keeps served answers hot), the ``synth:rand`` family, and end-to-end flow through
:class:`repro.api.Session` and sweep stores.
"""

from __future__ import annotations

import pytest

from repro.synth.aig import Aig
from repro.circuits.families import random_mapped_netlist, synth_rand
from repro.errors import ExperimentError
from repro.registry import (
    available_circuit_families,
    available_circuits,
    build_circuit,
    canonical_circuit,
    circuit_entry,
    circuit_family_entry,
    is_family_spec,
    normalize_family_spec,
    parse_family_spec,
    register_circuit_family,
    resolve_family_spec,
    unregister_circuit_family,
)
from repro.schema import PowerQuery
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore

CANONICAL = "synth:rand(gates=60,seed=1,inputs=64,outputs=32)"


class TestSpecGrammar:
    def test_is_family_spec_is_syntactic(self):
        assert is_family_spec("synth:rand(gates=3)")
        assert is_family_spec("no-such-family()")
        assert not is_family_spec("t481")
        assert not is_family_spec("synth:rand(")
        assert not is_family_spec("f(g(x))")

    def test_parse_overlays_defaults(self):
        family, params = parse_family_spec("synth:rand(gates=80)")
        assert family == "synth:rand"
        assert params == {"gates": 80, "seed": 7,
                          "inputs": 64, "outputs": 32}
        assert isinstance(params["gates"], int)

    def test_parse_tolerates_whitespace(self):
        _, params = parse_family_spec("synth:rand( gates = 80 , seed=3 )")
        assert (params["gates"], params["seed"]) == (80, 3)

    def test_unknown_family_rejected(self):
        with pytest.raises(ExperimentError, match="circuit family"):
            parse_family_spec("synth:nope(gates=3)")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            parse_family_spec("synth:rand(depth=3)")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ExperimentError, match="given twice"):
            parse_family_spec("synth:rand(gates=3,gates=4)")

    def test_malformed_argument_rejected(self):
        with pytest.raises(ExperimentError, match="param=value"):
            parse_family_spec("synth:rand(gates)")

    def test_bad_value_rejected(self):
        with pytest.raises(ExperimentError, match="not a valid int"):
            parse_family_spec("synth:rand(gates=many)")

    def test_normalize_makes_every_parameter_explicit(self):
        # any spelling, any order -> one canonical string
        assert normalize_family_spec("synth:rand(seed=1,gates=60)") == \
            CANONICAL
        assert normalize_family_spec("synth:rand(gates=60,seed=1)") == \
            CANONICAL
        assert normalize_family_spec(CANONICAL) == CANONICAL


class TestResolution:
    def test_resolve_registers_instance(self):
        key = resolve_family_spec("synth:rand(gates=60,seed=1)")
        assert key == CANONICAL
        assert key in available_circuits()
        entry = circuit_entry(key)
        assert entry.family == "synth:rand"

    def test_canonical_circuit_accepts_any_spelling(self):
        assert canonical_circuit("synth:rand(seed=1,gates=60)") == CANONICAL
        assert canonical_circuit(CANONICAL) == CANONICAL
        # plain names keep resolving as before
        assert canonical_circuit("t481") == "t481"

    def test_resolve_keeps_served_answers_hot(self, tiny_config):
        """Resolving a new spec registers one more instance and changes
        no other definition, so every served answer stays hot."""
        from repro.api import Session
        from repro.serve import Engine

        engine = Engine(Session(tiny_config))
        engine.estimate_request("t481", "cmos")
        key = resolve_family_spec("synth:rand(gates=61,seed=987)")
        assert key in available_circuits()
        assert engine.estimate_request("t481", "cmos").cache_status == "hot"

    def test_family_registered_in_listing(self):
        assert "synth:rand" in available_circuit_families()
        entry = circuit_family_entry("synth:rand")
        assert dict(entry.defaults) == {"gates": 50000, "seed": 7,
                                        "inputs": 64, "outputs": 32}

    def test_replace_purges_instances_and_cools_their_answers(
            self, tiny_config):
        """Replacing a family replaces what its instance names mean:
        their answers go cold and are recomputed from the new family."""
        from repro.api import Session
        from repro.serve import Engine

        register_circuit_family(
            "test:fam", lambda n=4: synth_rand(gates=n, seed=0),
            defaults={"n": 4}, replace=True)
        try:
            key = resolve_family_spec("test:fam(n=5)")
            assert key in available_circuits()
            engine = Engine(Session(tiny_config))
            engine.estimate_request(key, "cmos")
            assert engine.estimate_request(key, "cmos").cache_status \
                == "hot"
            register_circuit_family(
                "test:fam", lambda n=4: synth_rand(gates=n, seed=1),
                defaults={"n": 4}, replace=True)
            assert key not in available_circuits()
            replaced = engine.estimate_request(key, "cmos")
            direct = Session(tiny_config).run(key, "cmos")
        finally:
            unregister_circuit_family("test:fam", missing_ok=True)
        assert "test:fam" not in available_circuit_families()
        assert replaced.cache_status == "cold"
        assert replaced.result == direct

    def test_unregister_purges_instances(self):
        register_circuit_family(
            "test:gone", lambda n=4: synth_rand(gates=n, seed=0),
            defaults={"n": 4})
        key = resolve_family_spec("test:gone(n=6)")
        unregister_circuit_family("test:gone")
        assert key not in available_circuits()
        with pytest.raises(ExperimentError):
            parse_family_spec("test:gone(n=6)")

    def test_unspellable_default_rejected(self):
        with pytest.raises(ExperimentError, match="cannot be spelled"):
            register_circuit_family(
                "test:bad", lambda xs=(): synth_rand(gates=4, seed=0),
                defaults={"xs": (1, 2)})
        assert "test:bad" not in available_circuit_families()


class TestSynthRand:
    def test_builds_the_requested_interface(self):
        aig = synth_rand(gates=40, seed=2, inputs=8, outputs=4)
        assert isinstance(aig, Aig)
        assert aig.n_pis == 8
        assert aig.n_pos == 4
        assert aig.n_nodes >= 40

    def test_deterministic_per_seed(self):
        one = synth_rand(gates=50, seed=3, inputs=8, outputs=4)
        two = synth_rand(gates=50, seed=3, inputs=8, outputs=4)
        assert one.n_nodes == two.n_nodes
        assert one.name == two.name
        other = synth_rand(gates=50, seed=4, inputs=8, outputs=4)
        assert (one.n_nodes, one.name) != (other.n_nodes, other.name)

    def test_instance_builds_through_registry(self):
        key = resolve_family_spec("synth:rand(gates=40,seed=2,"
                                  "inputs=8,outputs=4)")
        aig = build_circuit(key)
        assert aig.n_pis == 8 and aig.n_pos == 4

    def test_random_mapped_netlist_is_valid_and_deterministic(self, mlib):
        one = random_mapped_netlist(mlib, gates=30, seed=5)
        two = random_mapped_netlist(mlib, gates=30, seed=5)
        assert len(one.gates) == 30
        assert [g.cell for g in one.gates] == [g.cell for g in two.gates]
        assert [g.inputs for g in one.gates] == [
            g.inputs for g in two.gates]
        other = random_mapped_netlist(mlib, gates=30, seed=6)
        assert [g.cell for g in one.gates] != [g.cell for g in other.gates]


class TestEndToEnd:
    SPEC = "synth:rand(gates=120,seed=3,inputs=16,outputs=8)"

    def test_session_runs_a_family_spec(self, tiny_config):
        from repro.api import Session

        flow = Session(tiny_config).run(self.SPEC, "cmos")
        assert flow.circuit == normalize_family_spec(self.SPEC)
        assert flow.gate_count > 0
        assert flow.pt_w > 0

    def test_sweep_resumes_family_points_from_store(self, tmp_path):
        spec = SweepSpec(circuits=(self.SPEC,), libraries=("cmos",),
                         vdd=(0.9,), n_patterns=(512,))
        # the spec canonicalizes eagerly, so task keys are spelled-out
        assert spec.circuits == (normalize_family_spec(self.SPEC),)
        store = ResultStore(tmp_path / "fam.jsonl")
        first = run_sweep(spec, store)
        assert (first.total, first.cached, first.executed) == (1, 0, 1)

        # a different spelling of the same point resumes from the store
        respelled = SweepSpec(
            circuits=("synth:rand(outputs=8,seed=3,gates=120,inputs=16)",),
            libraries=("cmos",), vdd=(0.9,), n_patterns=(512,))
        again = run_sweep(respelled, store)
        assert (again.total, again.cached, again.executed) == (1, 1, 0)

    def test_sweep_spec_rejects_bad_family_specs(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            SweepSpec(circuits=("synth:rand(depth=9)",),
                      libraries=("cmos",), vdd=(0.9,), n_patterns=(512,))
        with pytest.raises(ExperimentError, match="unknown circuits"):
            SweepSpec(circuits=("nonsense",), libraries=("cmos",),
                      vdd=(0.9,), n_patterns=(512,))

    def test_family_parameters_fork_query_keys(self):
        base = PowerQuery(circuit=canonical_circuit(self.SPEC),
                          library="cmos")
        other = PowerQuery(
            circuit=canonical_circuit("synth:rand(gates=120,seed=4,"
                                      "inputs=16,outputs=8)"),
            library="cmos")
        assert base.query_key != other.query_key
