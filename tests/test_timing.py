"""The timing subsystem (:mod:`repro.timing`): bit-identity with the
mapper's internal delay DP, feasibility semantics, critical-path
structure and the cache ladder.

:func:`repro.timing.arrival_times` is the one propagation routine: with
the mapper's load estimates it must replay the mapper's DP arrivals
float for float (below), and with real loads it is the Table 1 delay
column, which the paper-grid goldens lock.
"""

from __future__ import annotations

import math

import pytest

from repro import obs, timing
from repro.cache import DiskCache
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import map_subject, synthesized_benchmark
from repro.registry import paper_benchmarks
from repro.synth.netlist import MappedNetlist
from repro.timing import (
    TIMING_NAMESPACE,
    PathSegment,
    TimingReport,
    analyze_timing,
    arrival_times,
    netlist_timing_key,
    timing_report,
)

NO_SYNTH = ExperimentConfig(synthesize=False)


def mapped(name, library, config=NO_SYNTH):
    return map_subject(synthesized_benchmark(name, config.synthesize),
                       library, config)


class TestMapperArrivalReplay:
    """Replaying the mapper's load model reproduces the mapper's own
    per-node DP arrivals bit for bit — the mapper provenance is a
    consistent fixed point of the emitted cover, not a stale DP
    artifact."""

    def assert_replay_exact(self, netlist):
        assert netlist.mapper_arrivals is not None
        assert netlist.mapper_loads is not None
        # every net of the netlist carries provenance
        assert set(netlist.mapper_arrivals) == set(netlist.all_nets())
        _, arrivals = arrival_times(netlist, loads=netlist.mapper_loads)
        assert arrivals == netlist.mapper_arrivals

    def test_all_paper_benchmarks(self, mlib):
        for name in paper_benchmarks():
            netlist = mapped(name, mlib)
            self.assert_replay_exact(netlist)

    def test_across_libraries(self, glib, clib):
        for library in (glib, clib):
            self.assert_replay_exact(mapped("t481", library))

    def test_synth_rand_instances(self, glib, mlib):
        for spec, library in (
                ("synth:rand(gates=400,seed=1,inputs=32,outputs=16)", glib),
                ("synth:rand(gates=900,seed=5,inputs=48,outputs=8)", mlib)):
            self.assert_replay_exact(mapped(spec, library))

    def test_pis_anchor_at_zero(self, mlib):
        netlist = mapped("t481", mlib)
        for pi in netlist.pi_names:
            assert netlist.mapper_arrivals[pi] == 0.0


class TestTimingReport:
    @pytest.fixture(scope="class")
    def report(self, mlib):
        return analyze_timing(mapped("C1355", mlib))

    def test_critical_is_worst_po_arrival(self, report):
        assert report.critical_delay_s == max(report.po_arrivals.values())
        assert report.po_arrivals[report.critical_po] == \
            report.critical_delay_s

    def test_fmax_is_reciprocal(self, report):
        assert report.fmax_hz == 1.0 / report.critical_delay_s

    def test_feasibility_boundary(self, report):
        fmax = report.fmax_hz
        assert report.feasible(fmax * 0.999)
        assert not report.feasible(fmax * 1.001)
        assert report.slack_s(fmax * 0.999) >= 0.0
        assert report.slack_s(fmax * 1.001) < 0.0

    def test_slack_rejects_nonpositive_frequency(self, report):
        with pytest.raises(SimulationError):
            report.slack_s(0.0)
        with pytest.raises(SimulationError):
            report.slack_s(-1e9)

    def test_critical_path_structure(self, report):
        path = report.critical_path
        assert path, "a mapped benchmark has a nonempty critical path"
        assert path[-1].arrival_s == report.critical_delay_s
        arrivals = [segment.arrival_s for segment in path]
        assert arrivals == sorted(arrivals)
        for segment in path:
            assert report.arrivals[segment.output] == segment.arrival_s

    def test_gateless_netlist_zero_delay_unbounded_fmax(self, mlib):
        netlist = MappedNetlist(
            name="wire", library=mlib, pi_names=["a"],
            po_bindings=[("z", ("net", "a"))], gates=[])
        netlist.validate()
        report = analyze_timing(netlist)
        assert report.critical_delay_s == 0.0
        assert report.fmax_hz == math.inf
        assert report.critical_path == ()
        assert report.feasible(1e15)

    def test_payload_roundtrip(self, report):
        restored = TimingReport.from_payload(report.to_payload())
        assert restored == report
        assert isinstance(restored.critical_path[0], PathSegment)


def _timing_since(before):
    """The ladder's ``timing.*`` counters gained since ``before``."""
    return obs.section(obs.diff(before), "timing",
                       ("hits", "misses", "disk_hits", "computes"))


class TestTimingCache:
    def test_ladder_instance_then_lru(self, mlib):
        timing.LADDER.lru.clear()
        before = obs.snapshot()
        netlist = mapped("t481", mlib)
        first = timing_report(netlist)
        after_first = _timing_since(before)
        assert after_first["computes"] == 1
        # same instance: memoized on the netlist, no cache traffic
        assert timing_report(netlist) is first
        assert _timing_since(before)["hits"] == after_first["hits"]
        # structurally identical fresh instance: LRU hit, no recompute
        again = timing_report(mapped("t481", mlib))
        assert again is first
        info = _timing_since(before)
        assert info["computes"] == 1
        assert info["hits"] == after_first["hits"] + 1

    def test_key_depends_on_library_electricals(self, glib, mlib):
        one = netlist_timing_key(mapped("t481", glib))
        two = netlist_timing_key(mapped("t481", mlib))
        assert one != two

    def test_key_depends_on_vdd(self):
        from repro.registry import cached_library

        keys = set()
        for vdd in (0.8, 0.9):
            library = cached_library("cmos", vdd)
            keys.add(netlist_timing_key(mapped("t481", library)))
        assert len(keys) == 2

    def test_disk_roundtrip(self, mlib, tmp_path, monkeypatch):
        from repro.cache import ENV_CACHE_DIR, ENV_CACHE_DISABLE

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        monkeypatch.setenv(ENV_CACHE_DISABLE, "0")
        disk = DiskCache(tmp_path, enabled=True)
        timing.LADDER.lru.clear()
        before = obs.snapshot()
        netlist = mapped("t481", mlib)
        first = timing_report(netlist)
        assert _timing_since(before)["computes"] == 1
        assert disk.get(TIMING_NAMESPACE,
                        netlist_timing_key(netlist)) is not None
        # fresh process simulation: clear LRU + instance memo, keep disk
        timing.LADDER.lru.clear()
        fresh = mapped("t481", mlib)
        restored = timing_report(fresh)
        info = _timing_since(before)
        assert info["computes"] == 1
        assert info["disk_hits"] == 1
        assert restored == first

    def test_two_cold_processes_time_once(self, mlib, cold_race,
                                          monkeypatch):
        """Cross-process single-flight: two processes cold on one key
        propagate once; the other waits for the leader's entry."""
        import time

        def slow_analyze(netlist, po_extra_load=None):
            time.sleep(0.5)  # hold the lock while the rival arrives
            return analyze_timing(netlist, po_extra_load)

        monkeypatch.setattr(timing, "analyze_timing", slow_analyze)
        timing.LADDER.lru.clear()
        netlist = mapped("t481", mlib)
        expected = analyze_timing(netlist)

        def cold_timing_report():
            assert timing_report(mapped("t481", mlib)) == expected

        diffs = cold_race(cold_timing_report)
        assert sum(d["timing.computes"] for d in diffs) == 1
        assert sum(d["disk.flight_leader"] for d in diffs) == 1
        assert sum(d["disk.flight_follower"] for d in diffs) == 1


class TestEstimatorIntegration:
    """The power model's delay column is the timing subsystem's."""

    def test_pricing_model_delay_is_timing_report(self, mlib):
        from repro.sim.estimator import PricingModel

        netlist = mapped("t481", mlib)
        model = PricingModel(netlist)
        report = timing_report(netlist)
        assert model.delay == report.critical_delay_s
        assert model.delay == arrival_times(netlist)[0]
