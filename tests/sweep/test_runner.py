"""Sweep execution: resume semantics and bit-identity with Table 1."""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import reproduce_table1
from repro.experiments.flow import price_mapped
from repro.sweep.runner import _task_netlist, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.store import JsonlResultStore, flow_result, record_for

#: Tiny but non-degenerate budget; matches the parallel-runner tests.
PATTERNS = 2048


def _tiny_spec(**overrides) -> SweepSpec:
    base = dict(circuits=("t481",), libraries=("generalized", "cmos"),
                vdd=(0.8, 0.9), n_patterns=(PATTERNS,))
    base.update(overrides)
    return SweepSpec(**base)


class TestRunAndResume:
    def test_full_run_then_all_cached(self, tmp_path):
        spec = _tiny_spec()
        store = JsonlResultStore(tmp_path / "s.jsonl")
        first = run_sweep(spec, store)
        assert (first.total, first.cached, first.executed) == (4, 0, 4)
        assert store.keys() == {task.task_key for task in spec.expand()}

        again = run_sweep(spec, store)
        assert (again.total, again.cached, again.executed) == (4, 4, 0)

    def test_partial_store_runs_only_missing(self, tmp_path):
        spec = _tiny_spec()
        store = JsonlResultStore(tmp_path / "s.jsonl")
        tasks = spec.expand()
        # Pre-seed two of the four points.
        for task in tasks[:2]:
            (flow,) = price_mapped([(task, _task_netlist(task))])
            store.append(record_for(task, flow, 0.0))
        report = run_sweep(spec, store)
        assert (report.total, report.cached, report.executed) == (4, 2, 2)
        assert store.keys() == {task.task_key for task in tasks}

    def test_overlapping_specs_share_points(self, tmp_path):
        store = JsonlResultStore(tmp_path / "s.jsonl")
        run_sweep(_tiny_spec(vdd=(0.9,)), store)
        # The wider sweep reuses the vdd=0.9 points it contains.
        report = run_sweep(_tiny_spec(vdd=(0.8, 0.9)), store)
        assert (report.total, report.cached, report.executed) == (4, 2, 2)

    def test_verbose_stream(self, tmp_path):
        lines = []
        spec = _tiny_spec(vdd=(0.9,), libraries=("cmos",))
        run_sweep(spec, JsonlResultStore(tmp_path / "s.jsonl"),
                  verbose=True, echo=lines.append)
        assert len(lines) == 1
        assert "t481" in lines[0] and "vdd=0.90V" in lines[0]

    def test_report_render_is_greppable(self, tmp_path):
        spec = _tiny_spec(vdd=(0.9,), libraries=("cmos",))
        store = JsonlResultStore(tmp_path / "s.jsonl")
        text = run_sweep(spec, store).render()
        assert "executed=1" in text and "cached=0" in text
        assert "executed=0" in run_sweep(spec, store).render()


class TestBitIdentity:
    def test_paper_point_matches_table1(self, tmp_path):
        """The acceptance criterion: a sweep containing the paper's
        operating point reproduces the Table 1 cells bit-identically
        (at the test-scale pattern budget)."""
        config = ExperimentConfig(n_patterns=PATTERNS,
                                  state_patterns=PATTERNS)
        table1 = reproduce_table1(config, benchmarks=["t481", "C1908"])

        spec = SweepSpec(circuits=("t481", "C1908"),
                         vdd=(0.8, 0.9),  # paper point plus one more
                         n_patterns=(PATTERNS,))
        store = JsonlResultStore(tmp_path / "s.jsonl")
        run_sweep(spec, store)

        for task in spec.expand():
            if task.config != config:
                continue
            stored = flow_result(store.get(task.task_key))
            expected = table1.results[task.circuit][task.library]
            # Frozen dataclasses of floats: equality is bit-exact.
            assert stored == expected

    def test_vdd_axis_recharacterizes_the_library(self, tmp_path):
        """The vdd axis must reach characterization, not just the Eq.
        2-5 scaling: cell timing (and so circuit delay) is a function
        of the supply, so delay has to differ across vdd points."""
        spec = _tiny_spec(vdd=(0.7, 0.9), libraries=("cmos",))
        store = JsonlResultStore(tmp_path / "s.jsonl")
        run_sweep(spec, store)
        flows = {task.config.vdd: flow_result(store.get(task.task_key))
                 for task in spec.expand()}
        assert flows[0.7].delay_s != flows[0.9].delay_s
        # Static power must not be a pure linear rescale of the 0.9 V
        # leakage solve (Ioff itself depends on the supply).
        assert flows[0.7].ps_w / 0.7 != flows[0.9].ps_w / 0.9

    def test_jobs_knob_is_bit_identical(self, tmp_path):
        spec = _tiny_spec(vdd=(0.9,))
        serial = JsonlResultStore(tmp_path / "serial.jsonl")
        fanned = JsonlResultStore(tmp_path / "fanned.jsonl")
        run_sweep(spec, serial, jobs=1)
        run_sweep(spec, fanned, jobs=2)
        for task in spec.expand():
            assert flow_result(serial.get(task.task_key)) == \
                   flow_result(fanned.get(task.task_key))
