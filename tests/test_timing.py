"""The timing subsystem (:mod:`repro.timing`): bit-identity with the
mapper's internal delay DP, feasibility semantics, critical-path
structure and the per-netlist memo, which is the only place a report
is kept.

:func:`repro.timing.arrival_times` is the one propagation routine: with
the mapper's load estimates it must replay the mapper's DP arrivals
float for float (below), and with real loads it is the Table 1 delay
column, which the paper-grid goldens lock.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from repro import timing
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import map_subject, synthesized_benchmark
from repro.registry import paper_benchmarks
from repro.synth.netlist import MappedNetlist
from repro.timing import analyze_timing, arrival_times, timing_report

NO_SYNTH = ExperimentConfig(synthesize=False)

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


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


#: Shared set-up of the cold-process calls: a small pattern budget.
COLD_PREAMBLE = (
    "from repro.api import Session\n"
    "from repro.experiments.config import ExperimentConfig\n"
    "from repro.schema import OptimizeQuery, PowerQuery\n"
    "from repro.serve.engine import Engine\n"
    "config = ExperimentConfig(n_patterns=512, state_patterns=512)\n")

#: One cold call per entry point; each prints a critical delay.
COLD_CALLS = {
    "session-run": (
        "print(Session(config).run('t481', 'cmos').delay_ps)\n"),
    "engine-estimate": (
        "report = Engine(Session(config)).estimate(PowerQuery(\n"
        "    circuit='t481', library='cmos', config=config))\n"
        "print(report.delay_ns)\n"),
    "engine-optimize": (
        "report = Engine(Session(config)).optimize(OptimizeQuery(\n"
        "    circuit='t481', libraries=('cmos',), vdds=(0.9,),\n"
        "    frequencies=(1e9, 50e9), config=config))\n"
        "assert report.n_infeasible == 1, report.n_infeasible\n"
        "print(report.frontier[0].delay_ns)\n"),
}


class TestTimingCache:
    def test_report_is_memoized_per_netlist(self, mlib, monkeypatch):
        calls = []

        def counted(netlist, po_extra_load=None):
            calls.append(netlist)
            return analyze_timing(netlist, po_extra_load)

        monkeypatch.setattr(timing, "analyze_timing", counted)
        netlist = mapped("t481", mlib)
        first = timing_report(netlist)
        assert calls == [netlist]
        # same instance: memoized on the netlist, no recompute
        assert timing_report(netlist) is first
        assert calls == [netlist]
        # structurally identical fresh instance: computed again, equal
        fresh = mapped("t481", mlib)
        assert fresh is not netlist
        assert timing_report(fresh) == first
        assert calls == [netlist, fresh]

    def test_report_depends_on_library_electricals(self, glib, mlib):
        one = timing_report(mapped("t481", glib)).critical_delay_s
        two = timing_report(mapped("t481", mlib)).critical_delay_s
        assert one != two

    def test_report_depends_on_vdd(self):
        from repro.registry import cached_library

        delays = set()
        for vdd in (0.8, 0.9):
            library = cached_library("cmos", vdd)
            delays.add(timing_report(mapped("t481", library))
                       .critical_delay_s)
        assert len(delays) == 2

    @pytest.mark.parametrize("call", sorted(COLD_CALLS))
    def test_cold_process_stores_no_timing(self, call, tmp_path):
        """A cold process on an enabled disk cache writes activity
        entries and no timing entry or timing lock.  It runs fresh: in
        this process, memos and LRUs left by earlier tests could skip
        the cold path."""
        env = dict(os.environ, PYTHONPATH=SRC,
                   REPRO_CACHE_DIR=str(tmp_path), REPRO_CACHE_DISABLE="0")
        done = subprocess.run(
            [sys.executable, "-c", COLD_PREAMBLE + COLD_CALLS[call]],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        # Every call reads the critical delay: timing did run.
        assert float(done.stdout) > 0.0
        assert list((tmp_path / "activity").glob("*.json"))
        assert not (tmp_path / "timing").exists()
        assert not (tmp_path / "_locks" / "timing").exists()


class TestEstimatorIntegration:
    """The power model's delay column is the timing subsystem's."""

    def test_pricing_model_delay_is_timing_report(self, mlib):
        from repro.sim.estimator import PricingModel

        netlist = mapped("t481", mlib)
        model = PricingModel(netlist)
        report = timing_report(netlist)
        assert model.delay == report.critical_delay_s
        assert model.delay == arrival_times(netlist)[0]
