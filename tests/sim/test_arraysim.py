"""The levelized array kernel: bit-identity with the per-gate path,
levelization structure, kernel selection and metering.

The array kernel is pure performance policy — every test here reduces
to "same bits as :class:`BitParallelSimulator`" plus structural
invariants of the levelized schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.families import random_mapped_netlist
from repro.errors import ExperimentError, SimulationError
from repro.experiments.config import SIM_KERNELS, ExperimentConfig
from repro.experiments.flow import map_subject, synthesized_benchmark
from repro.registry import cached_library, paper_benchmarks
from repro.sim.arraysim import ArraySimulator, LevelizedNetlist, levelized
from repro.sim.bitsim import BitParallelSimulator
from repro.sim.kernels import (
    AUTO_ARRAY_THRESHOLD,
    run_simulation,
    select_kernel,
)


def assert_bit_identical(gate_stats, array_stats):
    """Both kernels must agree bit for bit, not approximately."""
    assert array_stats.n_patterns == gate_stats.n_patterns
    assert array_stats.n_state_patterns == gate_stats.n_state_patterns
    assert array_stats.toggles == gate_stats.toggles
    assert set(array_stats.state_counts) == set(gate_stats.state_counts)
    for gate, counts in gate_stats.state_counts.items():
        got = array_stats.state_counts[gate]
        assert np.array_equal(got, counts), (
            f"state histogram differs for {gate}: {got} != {counts}")


class TestBitIdentity:
    """array kernel == gate kernel, exactly, on everything."""

    @settings(max_examples=25, deadline=None)
    @given(gates=st.integers(min_value=1, max_value=150),
           netlist_seed=st.integers(min_value=0, max_value=2**32 - 1),
           inputs=st.integers(min_value=2, max_value=24),
           n_patterns=st.integers(min_value=1, max_value=400),
           state_patterns=st.one_of(
               st.none(), st.integers(min_value=1, max_value=500)))
    def test_property_random_netlists(self, mlib, gates, netlist_seed,
                                      inputs, n_patterns, state_patterns):
        netlist = random_mapped_netlist(mlib, gates=gates,
                                        seed=netlist_seed, inputs=inputs)
        sim_seed = netlist_seed ^ 0x5EED
        gate_stats = BitParallelSimulator(netlist).run(
            n_patterns, seed=sim_seed, state_patterns=state_patterns)
        array_stats = ArraySimulator(netlist).run(
            n_patterns, seed=sim_seed, state_patterns=state_patterns)
        assert_bit_identical(gate_stats, array_stats)

    @pytest.mark.parametrize("gates,seed", [(1, 0), (9, 1), (300, 5)])
    def test_identical_across_libraries(self, glib, clib, mlib, gates, seed):
        for library in (glib, clib, mlib):
            netlist = random_mapped_netlist(library, gates=gates, seed=seed)
            gate_stats = BitParallelSimulator(netlist).run(
                257, seed=seed, state_patterns=129)
            array_stats = ArraySimulator(netlist).run(
                257, seed=seed, state_patterns=129)
            assert_bit_identical(gate_stats, array_stats)

    def test_identical_on_all_paper_benchmarks(self, mlib):
        """The acceptance bar: every Table 1 subject, same bits."""
        config = ExperimentConfig(n_patterns=512, state_patterns=512,
                                  synthesize=False)
        for name in paper_benchmarks():
            netlist = map_subject(
                synthesized_benchmark(name, config.synthesize),
                mlib, config)
            gate_stats = BitParallelSimulator(netlist).run(512, 2010, 512)
            array_stats = ArraySimulator(netlist).run(512, 2010, 512)
            assert_bit_identical(gate_stats, array_stats)


class TestLevelizedNetlist:
    """Structural invariants of the struct-of-arrays form."""

    @pytest.fixture(scope="class")
    def netlist(self, mlib):
        return random_mapped_netlist(mlib, gates=400, seed=11)

    @pytest.fixture(scope="class")
    def arrays(self, netlist):
        return LevelizedNetlist(netlist)

    def test_net_index_space(self, netlist, arrays):
        assert arrays.net_names[:arrays.n_pis] == list(netlist.pi_names)
        assert arrays.net_names[arrays.n_pis:] == [
            gate.output for gate in netlist.gates]
        assert arrays.gate_names == [gate.name for gate in netlist.gates]
        assert arrays.n_nets == arrays.n_pis + arrays.n_gates

    def test_schedule_respects_dependencies(self, arrays):
        """Every fanin of a level-L gate is computed strictly earlier."""
        level = np.zeros(arrays.n_nets, dtype=np.int64)
        for li, groups in enumerate(arrays.schedule, start=1):
            for group in groups:
                assert np.all(level[group.fanins] < li)
                level[group.outputs] = li
        # every gate output was scheduled exactly once
        assert np.all(level[arrays.n_pis:] >= 1)

    def test_schedule_partitions_gates(self, arrays):
        outputs = np.concatenate([
            group.outputs for groups in arrays.schedule for group in groups])
        assert sorted(outputs) == list(
            range(arrays.n_pis, arrays.n_nets))
        positions = np.concatenate([
            group.gate_positions for group in arrays.cell_groups])
        assert sorted(positions) == list(range(arrays.n_gates))

    def test_groups_are_cell_homogeneous(self, netlist, arrays):
        for groups in arrays.schedule:
            cells_at_level = [group.cell_id for group in groups]
            assert len(cells_at_level) == len(set(cells_at_level))
            for group in groups:
                name = arrays.cell_names[group.cell_id]
                arity = arrays.arity[group.cell_id]
                assert group.fanins.shape == (len(group.outputs), arity)
                for net in group.outputs:
                    gate = netlist.gates[net - arrays.n_pis]
                    assert gate.cell == name

    def test_levelized_memoizes_per_instance(self, netlist):
        assert levelized(netlist) is levelized(netlist)
        assert ArraySimulator(netlist).arrays is levelized(netlist)

    def test_rejects_bad_pattern_counts(self, netlist):
        with pytest.raises(SimulationError):
            ArraySimulator(netlist).run(0)

    def test_zero_state_patterns_matches_gate_kernel(self, netlist):
        # state_patterns=0 is clamped, not rejected — same as bitsim
        gate_stats = BitParallelSimulator(netlist).run(
            16, state_patterns=0)
        array_stats = ArraySimulator(netlist).run(16, state_patterns=0)
        assert_bit_identical(gate_stats, array_stats)


class TestKernelSelection:
    """The ``sim_kernel`` policy knob and its metering."""

    def test_forced_kernels(self):
        assert select_kernel("gate", 10**6) == "gate"
        assert select_kernel("array", 1) == "array"

    def test_auto_threshold(self):
        assert select_kernel("auto", AUTO_ARRAY_THRESHOLD - 1) == "gate"
        assert select_kernel("auto", AUTO_ARRAY_THRESHOLD) == "array"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError, match="unknown sim kernel"):
            select_kernel("simd", 100)

    def test_run_simulation_meters_each_kernel(self, mlib):
        netlist = random_mapped_netlist(mlib, gates=40, seed=3)
        before = obs.snapshot()
        gate_stats = run_simulation(netlist, 64, kernel="gate")
        array_stats = run_simulation(netlist, 64, kernel="array")
        auto_stats = run_simulation(netlist, 64, kernel="auto")
        assert_bit_identical(gate_stats, array_stats)
        assert_bit_identical(gate_stats, auto_stats)
        counters = obs.diff(before)
        # auto resolves to the gate kernel below the threshold
        assert counters["sim.kernel.gate.simulations"] == 2
        assert counters["sim.kernel.array.simulations"] == 1
        evals = netlist.gate_count * 64
        assert counters["sim.kernel.gate.gate_evals"] == 2 * evals
        assert counters["sim.kernel.array.gate_evals"] == evals
        assert counters["sim.kernel.array.elapsed_s"] > 0.0

    def test_config_validates_kernel(self):
        for kernel in SIM_KERNELS:
            assert ExperimentConfig(sim_kernel=kernel).sim_kernel == kernel
        with pytest.raises(ExperimentError, match="sim_kernel"):
            ExperimentConfig(sim_kernel="simd")

    def test_kernel_serialized_but_not_keyed(self):
        config = ExperimentConfig(n_patterns=128, sim_kernel="array")
        payload = config.to_dict()
        assert payload["sim_kernel"] == "array"
        assert ExperimentConfig.from_dict(payload) == config
        assert "sim_kernel" not in config.key_dict()
        assert config.key_dict() == ExperimentConfig(
            n_patterns=128, sim_kernel="gate").key_dict()

    def test_cached_library_independent_of_kernel(self):
        # keys aside, the *libraries* must be byte-identical objects so
        # kernels share characterization work within a process
        assert cached_library("cmos") is cached_library("cmos")
