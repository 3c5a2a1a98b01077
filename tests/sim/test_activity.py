"""The cached activity layer: content keys, the stats LRU, disk
persistence and the payload round trip."""

import numpy as np
import pytest

from repro import obs
from repro.circuits.adders import ripple_adder_circuit
from repro.experiments.config import ExperimentConfig
from repro.sim import activity
from repro.sim.arraysim import SimulationStats
from repro.sim.bitsim import BitParallelSimulator
from repro.synth.mapper import map_aig


@pytest.fixture(autouse=True)
def counts():
    """Each test sees an empty stats LRU; calling the fixture reports
    the ``activity.*`` counters gained since the test started."""
    activity.LADDER.lru.clear()
    before = obs.snapshot()
    yield lambda: obs.section(obs.diff(before), "activity")
    activity.LADDER.lru.clear()


@pytest.fixture(scope="module")
def adder(glib):
    return map_aig(ripple_adder_circuit(3), glib)


class TestEffectiveStatePatterns:
    def test_default_clamps_to_budget(self):
        assert activity.effective_state_patterns(2048) == 2048
        assert activity.effective_state_patterns(1 << 20) == 65536

    def test_rounds_to_whole_words(self):
        # 100 and 128 state patterns are the same two 64-bit words.
        assert activity.effective_state_patterns(4096, 100) == 128
        assert activity.effective_state_patterns(4096, 128) == 128

    def test_never_exceeds_n_patterns(self):
        assert activity.effective_state_patterns(100, 1000) == 100


class TestNetlistActivityKey:
    def test_same_structure_other_supply_hashes_equal(self, glib):
        """Library electricals price, they do not simulate: the same
        mapping at another vdd shares the activity key."""
        from repro.registry import cached_library

        aig = ripple_adder_circuit(3)
        base = map_aig(aig, glib)
        other = map_aig(aig, cached_library("generalized", 0.7))
        if [g.cell for g in base.gates] == [g.cell for g in other.gates]:
            assert (activity.netlist_activity_key(base)
                    == activity.netlist_activity_key(other))

    def test_different_circuits_differ(self, glib):
        a = map_aig(ripple_adder_circuit(3), glib)
        b = map_aig(ripple_adder_circuit(4), glib)
        assert (activity.netlist_activity_key(a)
                != activity.netlist_activity_key(b))

    def test_key_is_memoized_on_the_instance(self, adder):
        first = activity.netlist_activity_key(adder)
        assert activity.netlist_activity_key(adder) is first

    def test_budget_changes_full_key(self, adder):
        k1 = activity.activity_key(adder, 2048, 7)
        assert k1 != activity.activity_key(adder, 4096, 7)
        assert k1 != activity.activity_key(adder, 2048, 8)
        # Immaterial state-budget differences collapse (word rounding).
        assert (activity.activity_key(adder, 4096, 7, state_patterns=100)
                == activity.activity_key(adder, 4096, 7,
                                         state_patterns=128))


class TestSimulationStatsCache:
    def test_second_call_is_a_hit(self, adder, counts):
        first = activity.simulation_stats(adder, 2048, seed=3)
        info = counts()
        assert info["computes"] == 1
        second = activity.simulation_stats(adder, 2048, seed=3)
        assert second is first
        info = counts()
        assert info["hits"] == 1
        assert info["computes"] == 1

    def test_cached_equals_direct_simulation(self, adder):
        cached = activity.simulation_stats(adder, 2048, seed=3)
        direct = BitParallelSimulator(adder).run(2048, 3)
        assert cached.toggles == direct.toggles
        assert cached.n_state_patterns == direct.n_state_patterns
        for name, counts in direct.state_counts.items():
            assert np.array_equal(cached.state_counts[name], counts)

    def test_different_seed_simulates_again(self, adder, counts):
        activity.simulation_stats(adder, 2048, seed=3)
        activity.simulation_stats(adder, 2048, seed=4)
        assert counts()["computes"] == 2

    def test_clear_cache_forgets(self, adder, counts):
        activity.simulation_stats(adder, 2048, seed=3)
        activity.LADDER.lru.clear()
        activity.simulation_stats(adder, 2048, seed=3)
        assert counts()["computes"] == 2


class TestDiskPersistence:
    def test_round_trip_bit_identical(self, adder, tmp_path, monkeypatch,
                                      counts):
        from repro.cache import ENV_CACHE_DIR, ENV_CACHE_DISABLE

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.setenv(ENV_CACHE_DISABLE, "0")
        first = activity.simulation_stats(adder, 2048, seed=5)
        assert counts()["computes"] == 1
        # A "new process": empty LRU, warm disk.
        activity.LADDER.lru.clear()
        second = activity.simulation_stats(adder, 2048, seed=5)
        info = counts()
        assert info["computes"] == 1
        assert info["disk_hits"] == 1
        assert second.toggles == first.toggles
        for name, states in first.state_counts.items():
            assert np.array_equal(second.state_counts[name], states)

    def test_corrupt_entry_degrades_to_recompute(self, adder, tmp_path,
                                                 monkeypatch, counts):
        from repro.cache import ENV_CACHE_DIR, ENV_CACHE_DISABLE, DiskCache

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.setenv(ENV_CACHE_DISABLE, "0")
        key = activity.activity_key(adder, 2048, 5)
        DiskCache().put(activity.ACTIVITY_NAMESPACE, key,
                        {"n_patterns": 2048, "garbage": True})
        stats = activity.simulation_stats(adder, 2048, seed=5)
        assert counts()["computes"] == 1
        assert stats.n_patterns == 2048


class TestPayloadRoundTrip:
    def test_exact(self, adder):
        stats = BitParallelSimulator(adder).run(1024, 9)
        back = SimulationStats.from_payload(stats.to_payload())
        assert back.n_patterns == stats.n_patterns
        assert back.n_state_patterns == stats.n_state_patterns
        assert back.toggles == stats.toggles
        for name, counts in stats.state_counts.items():
            restored = back.state_counts[name]
            assert restored.dtype == np.int64
            assert np.array_equal(restored, counts)


class TestPricingGroupKey:
    def test_pricing_axes_do_not_split_groups(self):
        base = ExperimentConfig(n_patterns=2048, state_patterns=2048)
        key = activity.pricing_group_key("t481", "cmos", base)
        for variant in (
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 vdd=0.7),
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 frequency=2.0e9),
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 fanout=5)):
            assert activity.pricing_group_key("t481", "cmos",
                                              variant) == key

    def test_activity_axes_split_groups(self):
        base = ExperimentConfig(n_patterns=2048, state_patterns=2048)
        key = activity.pricing_group_key("t481", "cmos", base)
        assert activity.pricing_group_key("C1908", "cmos", base) != key
        assert activity.pricing_group_key("t481", "generalized",
                                          base) != key
        for variant in (
                ExperimentConfig(n_patterns=4096, state_patterns=2048),
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 seed=7),
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 synthesize=False),
                ExperimentConfig(n_patterns=2048, state_patterns=2048,
                                 backend="spice-transient")):
            assert activity.pricing_group_key("t481", "cmos",
                                              variant) != key
