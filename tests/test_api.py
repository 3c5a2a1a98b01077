"""The repro.api Session facade: single-cell runs, the Table 1 grid
(bit-identical to the pre-redesign harness), sweeps, and wiring."""

import pytest

from repro.api import Session
from repro.circuits.suite import CMOS, CONVENTIONAL, GENERALIZED
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG

#: Output of the pre-redesign ``reproduce_table1`` (commit c737f07) at
#: n_patterns=4096/state_patterns=4096 on t481 + C1355 — the
#: seed-equivalent golden values the redesign must reproduce bit for
#: bit: (circuit, library, gates, delay_s, pd_w, ps_w, pg_w, pt_w,
#: edp_js).
PRE_REDESIGN_GOLDEN = [
    ("t481", "cntfet-generalized", 46, 7.286833019619122e-11,
     2.0113207912087918e-06, 2.2962900422452302e-08, 1.404e-10,
     2.3361222103125626e-06, 1.7022932459971188e-25),
    ("t481", "cntfet-conventional", 50, 1.0894176098638491e-10,
     2.114334989010989e-06, 2.3935315481484576e-08,
     1.9034999999999994e-10, 2.455610902844122e-06,
     2.675185760532052e-25),
    ("t481", "cmos", 50, 5.445543603246099e-10, 3.0540394285714302e-06,
     2.392227760796267e-07, 1.903500000000001e-08,
     3.7704031189367715e-06, 2.053189458598528e-24),
    ("C1355", "cntfet-generalized", 260, 1.46217639469585e-10,
     1.2218121890109895e-05, 1.2719535372012171e-07, 9.4905e-10,
     1.41789845773465e-05, 2.0732176549752566e-24),
    ("C1355", "cntfet-conventional", 257, 1.7603834225614512e-10,
     1.2347707648351642e-05, 1.2309150145990397e-07,
     1.1663999999999998e-09, 1.4324121697064292e-05,
     2.521594637826478e-24),
    ("C1355", "cmos", 262, 9.160053478308007e-10,
     1.8055769142857154e-05, 1.2566523189398892e-06,
     1.1879999999999993e-07, 2.2139586833225615e-05,
     2.0279979937999045e-23),
]


@pytest.fixture(scope="module")
def golden_config():
    return ExperimentConfig(n_patterns=4096, state_patterns=4096)


class TestSessionConstruction:
    def test_defaults_are_the_paper(self):
        session = Session()
        assert session.config == PAPER_CONFIG
        assert session.libraries == (GENERALIZED, CONVENTIONAL, CMOS)

    def test_libraries_resolve_aliases(self):
        session = Session(libraries=["generalized", "hybrid"])
        assert session.libraries == (GENERALIZED, "cntfet-hybrid-pass")

    def test_unknown_library_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="unknown library"):
            Session(libraries=["nope"])

    def test_empty_library_selection_rejected(self):
        with pytest.raises(ExperimentError, match="at least one library"):
            Session(libraries=[])

    def test_with_config(self):
        session = Session().with_config(n_patterns=1024,
                                        state_patterns=1024)
        assert session.config.n_patterns == 1024
        assert session.config.vdd == PAPER_CONFIG.vdd

    def test_discovery(self):
        assert GENERALIZED in Session.available_libraries()
        assert "bitsim" in Session.available_backends()


class TestSessionRun:
    def test_benchmark_by_name(self, tiny_config):
        flow = Session(tiny_config).run("t481", "generalized")
        assert flow.circuit == "t481"
        assert flow.library == GENERALIZED
        assert flow.pt_w > 0

    def test_raw_aig(self, tiny_config):
        from repro.circuits.adders import ripple_adder_circuit

        flow = Session(tiny_config).run(ripple_adder_circuit(4), "cmos")
        assert flow.library == "cmos"
        assert flow.gate_count > 0

    def test_library_object_passthrough(self, tiny_config, mlib):
        flow = Session(tiny_config).run("t481", mlib)
        assert flow.library == "cmos"

    def test_all_session_libraries(self, tiny_config):
        results = Session(tiny_config).run("t481")
        assert set(results) == {GENERALIZED, CONVENTIONAL, CMOS}
        assert results[GENERALIZED].pt_w < results[CMOS].pt_w

    def test_unknown_benchmark(self, tiny_config):
        with pytest.raises(ExperimentError, match="unknown benchmark"):
            Session(tiny_config).run("b17", "cmos")


class TestSessionTable1:
    def test_bit_identical_to_pre_redesign(self, golden_config):
        """The acceptance anchor: Session.table1 reproduces the seed
        harness exactly at the same config."""
        result = Session(golden_config).table1(benchmarks=["t481", "C1355"])
        got = [
            (name, key, r.gate_count, r.delay_s, r.pd_w, r.ps_w, r.pg_w,
             r.pt_w, r.edp_js)
            for name in result.benchmark_order
            for key in result.library_order
            for r in [result.results[name][key]]
        ]
        assert got == PRE_REDESIGN_GOLDEN

    def test_array_kernel_reproduces_golden(self, golden_config):
        """The levelized array kernel, run cold, reproduces the
        per-gate goldens bit for bit.  The activity memo is cleared
        first — a warm entry would answer without simulating, and the
        golden would then say nothing about the kernel."""
        from repro import obs
        from repro.sim import activity

        activity.LADDER.lru.clear()
        before = obs.snapshot()
        result = Session(golden_config).table1(benchmarks=["t481", "C1355"])
        got = [
            (name, key, r.gate_count, r.delay_s, r.pd_w, r.ps_w, r.pg_w,
             r.pt_w, r.edp_js)
            for name in result.benchmark_order
            for key in result.library_order
            for r in [result.results[name][key]]
        ]
        assert got == PRE_REDESIGN_GOLDEN
        # the kernel really ran (six cells; topologically identical
        # mappings may share one activity entry)
        delta = obs.diff(before)
        assert delta["activity.computes"] >= 5
        assert delta["sim.gate_evals"] > 0
        activity.LADDER.lru.clear()

    def test_wrapper_delegates(self, golden_config):
        """reproduce_table1 is the Session, bit for bit."""
        from repro.experiments.table1 import reproduce_table1

        via_wrapper = reproduce_table1(golden_config,
                                       benchmarks=["t481"])
        via_session = Session(golden_config).table1(benchmarks=["t481"])
        assert via_wrapper.results == via_session.results
        assert via_wrapper.benchmark_order == via_session.benchmark_order

    def test_custom_library_columns(self, tiny_config):
        session = Session(tiny_config, libraries=["hybrid", "cmos"])
        result = session.table1(benchmarks=["t481"])
        assert result.library_order == ["cntfet-hybrid-pass", "cmos"]
        assert set(result.results["t481"]) == {"cntfet-hybrid-pass",
                                               "cmos"}
        rendered = result.render()
        assert "cntfet-hybrid-pass" in rendered
        assert "Improvement vs CMOS" in rendered

    def test_alias_and_key_dedupe_in_benchmarks(self, tiny_config):
        """A key and its alias are one circuit: the Average row must
        not double-weight it."""
        result = Session(tiny_config, libraries=["cmos"]).table1(
            benchmarks=["t481", "t481"])
        assert result.benchmark_order == ["t481"]
        single = Session(tiny_config, libraries=["cmos"]).table1(
            benchmarks=["t481"])
        assert result.averages("cmos") == single.averages("cmos")

    def test_cmos_less_table_renders_and_guards_improvement(self,
                                                            tiny_config):
        session = Session(tiny_config, libraries=["hybrid", "generalized"])
        result = session.table1(benchmarks=["t481"])
        rendered = result.render()
        assert "Improvement vs CMOS" not in rendered
        with pytest.raises(ExperimentError, match="cmos"):
            result.improvement_vs_cmos(GENERALIZED)


class TestSessionSweep:
    def test_in_memory_store_by_default(self, tiny_config):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(circuits=("t481",), libraries=("cmos",),
                         n_patterns=(512,), state_patterns=512)
        report = Session(tiny_config).sweep(spec)
        assert report.executed == 1
        assert report.store_path == ":memory:"
        assert len(report.store.records()) == 1

    def test_path_store_and_resume(self, tiny_config, tmp_path):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(circuits=("t481",), libraries=("cmos",),
                         n_patterns=(512,), state_patterns=512)
        path = tmp_path / "session-sweep.jsonl"
        first = Session(tiny_config).sweep(spec, path)
        again = Session(tiny_config).sweep(spec, path)
        assert first.executed == 1
        assert again.executed == 0
        assert again.cached == 1

    def test_matches_table1_at_paper_point(self, golden_config):
        """Sweep results through the Session agree with the Table 1 grid
        (the bit-identity chain: golden -> table1 -> sweep)."""
        from repro.schema import flow_from_record
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(circuits=("t481",),
                         n_patterns=(golden_config.n_patterns,),
                         state_patterns=golden_config.state_patterns)
        report = Session(golden_config).sweep(spec)
        stored = {record["library"]: flow_from_record(record)
                  for record in report.store.records()}
        table = Session(golden_config).table1(benchmarks=["t481"])
        for key, flow in table.results["t481"].items():
            assert stored[key] == flow
