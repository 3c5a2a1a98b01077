"""The grouped sweep runner: one simulation per activity group,
bit-identical to the per-point path — including the full 12x3 paper
grid acceptance check."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import price_mapped
from repro.sim import activity
from repro.sweep.runner import (
    _task_netlist,
    activity_group_key,
    group_tasks,
)
from repro.sweep.spec import SweepSpec
from repro.sweep.store import flow_result, record_for


def _per_point(task):
    """One point priced alone through the shared routine."""
    (flow,) = price_mapped([(task, _task_netlist(task))])
    return record_for(task, flow, 0.0)

PATTERNS = 2048

FIVE_FREQUENCIES = (0.5e9, 1.0e9, 1.5e9, 2.0e9, 2.5e9)


def _smoke_spec(**overrides) -> SweepSpec:
    base = dict(circuits=("t481", "C1908"),
                libraries=("generalized", "cmos"),
                frequency=FIVE_FREQUENCIES,
                n_patterns=(PATTERNS,), state_patterns=PATTERNS)
    base.update(overrides)
    return SweepSpec(**base)


class TestGrouping:
    def test_2x2x5_grid_collapses_to_4_groups(self):
        spec = _smoke_spec()
        tasks = spec.expand()
        assert len(tasks) == 20
        groups = group_tasks(tasks)
        assert len(groups) == 4
        assert sorted(len(group) for group in groups) == [5, 5, 5, 5]
        # Grid order is preserved within and across groups.
        flat = [task.task_key for group in groups for task in group]
        assert len(set(flat)) == 20

    def test_pricing_axes_share_a_group(self):
        spec = _smoke_spec(circuits=("t481",), libraries=("cmos",),
                           vdd=(0.8, 0.9), fanout=(1, 3))
        keys = {activity_group_key(task) for task in spec.expand()}
        assert len(keys) == 1

    def test_activity_axes_split_groups(self):
        spec = _smoke_spec(circuits=("t481",), libraries=("cmos",),
                           frequency=(1.0e9,), n_patterns=(512, 1024))
        keys = {activity_group_key(task) for task in spec.expand()}
        assert len(keys) == 2


class TestGroupedExecution:
    def test_one_simulation_per_group(self, tmp_path):
        activity.LADDER.lru.clear()
        spec = _smoke_spec()
        report = Session().sweep(spec, tmp_path / "smoke.jsonl")
        assert report.executed == 20
        assert report.groups == 4
        # The four groups have four distinct netlist structures here
        # (two circuits x two structurally different libraries).
        assert report.simulations == 4
        assert "groups=4" in report.render()
        assert "simulations=4" in report.render()

        again = Session().sweep(spec, tmp_path / "smoke.jsonl")
        assert again.executed == 0
        assert again.simulations == 0

    def test_bit_identical_to_per_point_path(self, tmp_path):
        spec = _smoke_spec(frequency=(0.5e9, 2.0e9), vdd=(0.8, 0.9),
                           fanout=(1, 3))
        report = Session().sweep(spec, tmp_path / "grid.jsonl")
        store = report.store
        for task in spec.expand():
            grouped = store.get(task.task_key)
            per_point = _per_point(task)
            assert grouped["result"] == per_point["result"]
            assert flow_result(grouped) == flow_result(per_point)

    def test_non_bitsim_backend_falls_back_per_point(self, tmp_path):
        spec = SweepSpec(circuits=("t481",), libraries=("generalized",),
                         frequency=(1.0e9, 2.0e9), n_patterns=(512,),
                         state_patterns=512, backend="spice-transient")
        report = Session().sweep(spec, tmp_path / "transient.jsonl")
        assert report.executed == 2
        assert report.groups == 1
        # The fallback still shares the cached activity: one simulation.
        assert report.simulations <= 1
        for task in spec.expand():
            stored = report.store.get(task.task_key)
            per_point = _per_point(task)
            assert stored["result"] == per_point["result"]


class TestReregistration:
    def test_reregistered_circuit_is_not_served_a_stale_netlist(self):
        """A name registered again means another circuit: a later sweep
        must map the new definition, not reuse the old one's netlist."""
        from repro import registry
        from repro.sweep.store import MemoryResultStore

        registry.register_circuit("x", registry.circuit_entry("t481").build)
        try:
            spec = _smoke_spec(circuits=("x",), libraries=("cmos",),
                               frequency=(1.0e9,))
            config = spec.expand()[0].config
            Session().sweep(spec)
            registry.register_circuit(
                "x", registry.circuit_entry("C1355").build, replace=True)
            report = Session().sweep(spec, MemoryResultStore())
            direct = Session(config).run("x", "cmos")
        finally:
            registry.unregister_circuit("x", missing_ok=True)
        (record,) = report.store.records()
        assert flow_result(record) == direct
        assert direct.gate_count != Session(config).run("t481",
                                                        "cmos").gate_count


class TestFullPaperGridIdentity:
    """The acceptance criterion: the grouped runner reproduces the
    per-point ``estimate_circuit_power`` path bit for bit across the
    full 12-benchmark x 3-library paper grid at 4096 patterns."""

    @pytest.fixture(scope="class")
    def grid(self):
        spec = SweepSpec(frequency=(1.0e9, 2.0e9),
                         n_patterns=(4096,), state_patterns=4096)
        report = Session().sweep(spec)
        return spec, report

    def test_dimensions(self, grid):
        spec, report = grid
        assert report.executed == 12 * 3 * 2
        assert report.groups == 12 * 3
        # cmos and cntfet-conventional share cell topologies, so some
        # circuits map structurally identically on both — the content-
        # addressed stats cache legitimately shares those simulations.
        assert report.simulations <= report.groups

    def test_every_cell_matches_estimate_circuit_power(self, grid):
        from repro.experiments.config import PAPER_CONFIG
        from repro.power.model import PowerParameters
        from repro.sim.estimator import estimate_circuit_power
        from repro.sweep.runner import _task_netlist

        spec, report = grid
        checked = 0
        for task in spec.expand():
            config = task.config
            netlist = _task_netlist(task)
            expected = estimate_circuit_power(
                netlist,
                PowerParameters(vdd=config.vdd,
                                frequency=config.frequency,
                                fanout=config.fanout),
                n_patterns=config.n_patterns, seed=config.seed,
                state_patterns=config.state_patterns)
            stored = flow_result(report.store.get(task.task_key))
            assert stored.pd_w == expected.p_dynamic
            assert stored.ps_w == expected.p_static
            assert stored.pg_w == expected.p_gate_leak
            assert stored.pt_w == expected.p_total
            assert stored.delay_s == expected.delay
            assert stored.gate_count == expected.gate_count
            checked += 1
        assert checked == 72
        assert PAPER_CONFIG.n_patterns == 640_000  # grid is the fast twin

    def test_paper_point_matches_table1(self, grid):
        """Chain the identity through the Table 1 harness as well."""
        spec, report = grid
        config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
        table = Session(config).table1(benchmarks=["t481", "C1355"])
        for name in table.benchmark_order:
            for key, flow in table.results[name].items():
                match = [task for task in spec.expand()
                         if task.circuit == name and task.library == key
                         and task.config == config]
                assert len(match) == 1
                assert flow_result(report.store.get(
                    match[0].task_key)) == flow
