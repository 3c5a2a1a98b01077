"""The design-space optimizer (:mod:`repro.optimize`): frontier
correctness against an independent brute force, Pareto invariants,
timing-infeasibility pruning, cache economy and the Session facade.

The brute force deliberately avoids :mod:`repro.optimize`'s own
evaluation path: it prices every grid point with
:func:`repro.sim.estimator.estimate_many` directly, filters by the
timing report and applies the textbook O(n^2) dominance definition —
so agreement is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.api import Session
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import (
    flow_from_power_report,
    map_subject,
    synthesized_benchmark,
)
from repro.optimize import (
    frontier_point,
    normalized_value,
    pareto_frontier,
)
from repro.registry import cached_library, canonical_library
from repro.schema import (
    DEFAULT_OBJECTIVES,
    OPTIMIZE_OBJECTIVES,
    FrontierPoint,
    OptimizeQuery,
    OptimizeReport,
    PowerQuery,
    PowerQuoteReport,
)
from repro.serve import Engine
from repro.sim import activity
from repro.sim.activity import simulation_stats
from repro.sim.estimator import estimate_many
from repro.timing import timing_report

TINY = ExperimentConfig(n_patterns=1024, state_patterns=512)

#: A grid whose 20 GHz points are infeasible on t481 for both paper
#: CNTFET libraries while the rest stay feasible.
GRID = dict(circuit="t481",
            libraries=("generalized", "conventional"),
            vdds=(0.7, 0.9),
            frequencies=(0.5e9, 1e9, 2e9, 2e10))


def tiny_query(**overrides):
    fields = dict(GRID, config=TINY)
    fields.update(overrides)
    return OptimizeQuery(**fields)


def brute_force_frontier(query):
    """Independent evaluation: estimate_many over the full grid, then
    timing-filter, then textbook dominance."""
    points = []
    for alias in query.libraries:
        library_key = canonical_library(alias)
        for vdd in query.vdds:
            library = cached_library(library_key, vdd)
            config = replace(query.config, vdd=vdd)
            netlist = map_subject(
                synthesized_benchmark(query.circuit, config.synthesize),
                library, config)
            timing = timing_report(netlist)
            feasible = [f for f in query.frequencies
                        if 1.0 / f >= timing.critical_delay_s]
            if not feasible:
                continue
            stats = simulation_stats(netlist, config.n_patterns,
                                     config.seed, config.state_patterns)
            configs = [replace(config, frequency=f) for f in feasible]
            reports = estimate_many(netlist, stats,
                                    [c.power_parameters for c in configs])
            for point_config, report in zip(configs, reports):
                point_query = PowerQuery(query.circuit, library_key,
                                         point_config)
                flow = flow_from_power_report(
                    report, point_config, circuit=query.circuit,
                    library=library_key)
                quote = PowerQuoteReport.from_flow(point_query, flow)
                points.append(frontier_point(
                    quote, vdd, point_config.frequency,
                    library_key, "bitsim"))
    # textbook O(n^2) dominance, no sorting tricks
    def dominates(a, b):
        av = [normalized_value(a, o) for o in query.objectives]
        bv = [normalized_value(b, o) for o in query.objectives]
        return (all(x <= y for x, y in zip(av, bv))
                and any(x < y for x, y in zip(av, bv)))

    return [p for p in points
            if not any(dominates(q, p) for q in points if q is not p)]


def point_identity(point):
    return (point.library, point.backend, point.vdd, point.frequency)


class TestRunOptimize:
    @pytest.fixture(scope="class")
    def report(self):
        return Engine(Session(TINY)).optimize(tiny_query())

    def test_counter_identity(self, report):
        assert report.n_candidates == 16
        assert (report.n_infeasible + report.n_dominated
                + len(report.frontier)) == report.n_candidates

    def test_matches_brute_force(self, report):
        expected = brute_force_frontier(tiny_query())
        assert len(report.frontier) == len(expected)
        got = {point_identity(p) for p in report.frontier}
        want = {point_identity(p) for p in expected}
        assert got == want
        # and the numbers agree float for float (both paths reduce to
        # the same estimate_many/timing machinery)
        by_id = {point_identity(p): p for p in expected}
        for point in report.frontier:
            other = by_id[point_identity(point)]
            assert point.pt_w == other.pt_w
            assert point.delay_ns == other.delay_ns
            assert point.energy_per_cycle == other.energy_per_cycle
            assert point.pdp == other.pdp

    def test_no_dominated_point_in_frontier(self, report):
        objectives = report.objectives
        for a in report.frontier:
            av = [normalized_value(a, o) for o in objectives]
            for b in report.frontier:
                if a is b:
                    continue
                bv = [normalized_value(b, o) for o in objectives]
                assert not (all(x <= y for x, y in zip(bv, av))
                            and any(x < y for x, y in zip(bv, av))), \
                    (point_identity(b), "dominates", point_identity(a))

    def test_infeasible_points_excluded(self, report):
        assert report.n_infeasible > 0
        for point in report.frontier:
            assert point.slack_ns >= 0.0
            assert 1.0 / point.frequency >= point.delay_ns * 1e-9

    def test_deterministic_ordering(self, report):
        again = Engine(Session(TINY)).optimize(tiny_query())
        assert [point_identity(p) for p in again.frontier] == \
            [point_identity(p) for p in report.frontier]

    def test_provenance(self, report):
        for point in report.frontier:
            assert len(point.query_key) == 32
            assert point.cache_status in ("cold", "hot")


class TestCacheEconomy:
    def test_cold_run_simulates_once_per_mapping_warm_run_never(self):
        engine = Engine(Session(TINY))
        activity.LADDER.lru.clear()
        before = obs.snapshot()
        cold = engine.optimize(tiny_query())
        cold_sims = obs.diff(before)["activity.computes"]
        # one simulation per (library, vdd) mapping with feasible
        # points, not one per operating point
        assert 0 < cold_sims <= len(GRID["libraries"]) * len(GRID["vdds"])
        warm = engine.optimize(tiny_query())
        assert obs.diff(before)["activity.computes"] == cold_sims
        assert all(p.cache_status == "hot" for p in warm.frontier)
        assert [point_identity(p) for p in warm.frontier] == \
            [point_identity(p) for p in cold.frontier]

    def test_optimize_warm_starts_single_point_estimates(self):
        engine = Engine(Session(TINY))
        report = engine.optimize(tiny_query())
        point = report.frontier[0]
        config = replace(TINY, vdd=point.vdd, frequency=point.frequency,
                         backend=point.backend)
        quote = engine.estimate(PowerQuery(
            circuit="t481", library=point.library, config=config))
        assert quote.cache_status == "hot"
        assert quote.result.pt_w == point.pt_w

    def test_engine_counters(self):
        engine = Engine(Session(TINY))
        engine.optimize(tiny_query())
        assert engine.counters["optimize.requests"] == 1
        assert engine.counters["optimize.candidates"] == 16
        assert engine.counters["optimize.infeasible"] > 0
        assert engine.counters["optimize.frontier"] > 0


class TestParetoFrontier:
    def make_point(self, pt_w, frequency, library="lib", vdd=0.9):
        return FrontierPoint(
            library=library, backend="bitsim", vdd=vdd,
            frequency=frequency, gate_count=1, delay_ns=0.1,
            fmax_hz=1e10, slack_ns=0.1, pd_w=pt_w, ps_w=0.0, pg_w=0.0,
            pt_w=pt_w, energy_per_cycle=pt_w / frequency,
            pdp=pt_w * 1e-10, edp_js=1e-25)

    def test_strict_dominance_removes(self):
        worse = self.make_point(2.0, 1e9)
        better = self.make_point(1.0, 2e9)
        frontier, dominated = pareto_frontier([worse, better],
                                              ("power", "frequency"))
        assert frontier == [better]
        assert dominated == 1

    def test_tradeoff_keeps_both(self):
        low_power = self.make_point(1.0, 1e9)
        fast = self.make_point(2.0, 2e9)
        frontier, dominated = pareto_frontier([low_power, fast],
                                              ("power", "frequency"))
        assert dominated == 0
        assert set(map(point_identity, frontier)) == \
            {point_identity(low_power), point_identity(fast)}

    def test_equal_vectors_both_survive(self):
        one = self.make_point(1.0, 1e9, library="a")
        two = self.make_point(1.0, 1e9, library="b")
        frontier, dominated = pareto_frontier([two, one],
                                              ("power", "frequency"))
        assert dominated == 0
        # deterministic tiebreak: library ascending
        assert [p.library for p in frontier] == ["a", "b"]

    def test_empty(self):
        assert pareto_frontier([], ("power",)) == ([], 0)

    def test_single_objective_keeps_only_min(self):
        points = [self.make_point(w, 1e9, vdd=v)
                  for w, v in ((3.0, 0.7), (1.0, 0.8), (2.0, 0.9))]
        frontier, dominated = pareto_frontier(points, ("power",))
        assert [p.pt_w for p in frontier] == [1.0]
        assert dominated == 2


class TestOptimizeQueryValidation:
    def test_normalizes_and_sorts_axes(self):
        query = OptimizeQuery(circuit="t481", libraries=("generalized",),
                              vdds=(0.9, 0.7, 0.9),
                              frequencies=(2e9, 1e9), config=TINY)
        assert query.vdds == (0.7, 0.9)
        assert query.frequencies == (1e9, 2e9)
        assert query.objectives == DEFAULT_OBJECTIVES
        assert query.n_candidates == 4

    def test_rejects_unknown_objective(self):
        with pytest.raises(ExperimentError):
            OptimizeQuery(circuit="t481", libraries=("generalized",),
                          vdds=(0.9,), frequencies=(1e9,),
                          objectives=("power", "beauty"), config=TINY)

    def test_rejects_nonpositive_axes(self):
        for bad in ({"vdds": (0.0,)}, {"vdds": (-0.9,)},
                    {"frequencies": (0.0,)}, {"frequencies": (-1e9,)}):
            with pytest.raises(ExperimentError):
                tiny_query(**bad)

    def test_rejects_empty_axes(self):
        for bad in ({"libraries": ()}, {"vdds": ()},
                    {"frequencies": ()}, {"backends": ()},
                    {"objectives": ()}):
            with pytest.raises(ExperimentError):
                tiny_query(**bad)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ExperimentError):
            tiny_query(vdds=tuple(0.5 + i * 1e-4 for i in range(70)),
                       frequencies=tuple(1e9 + i for i in range(60)))

    def test_unknown_circuit_and_library_fail_cleanly(self):
        engine = Engine(Session(TINY))
        with pytest.raises(ExperimentError):
            engine.optimize(tiny_query(circuit="nonesuch"))
        with pytest.raises(ExperimentError):
            engine.optimize(tiny_query(libraries=("nonesuch",)))

    def test_wire_roundtrip(self):
        query = tiny_query(objectives=("energy", "fmax"),
                           deadline_ms=5000.0)
        restored = OptimizeQuery.from_dict(query.to_dict())
        assert restored == query

    def test_report_wire_roundtrip(self):
        report = Engine(Session(TINY)).optimize(tiny_query())
        restored = OptimizeReport.from_dict(report.to_dict())
        assert restored == report


class TestSessionFacade:
    def test_session_optimize_defaults_to_session_scope(self):
        session = Session(TINY, libraries=("generalized",))
        report = session.optimize("t481", frequencies=(1e9, 2e9))
        assert report.circuit == "t481"
        assert {p.library for p in report.frontier} == \
            {"cntfet-generalized"}
        assert {p.vdd for p in report.frontier} == {TINY.vdd}

    def test_alias_axes_collapse(self):
        session = Session(TINY)
        report = session.optimize(
            "t481", libraries=("generalized", "cntfet-generalized"),
            frequencies=(1e9,))
        assert report.n_candidates == 1

    def test_objectives_echoed(self):
        session = Session(TINY, libraries=("generalized",))
        report = session.optimize("t481", objectives=("energy", "vdd"),
                                  vdds=(0.8, 0.9))
        assert report.objectives == ("energy", "vdd")
        for objective in report.objectives:
            assert objective in OPTIMIZE_OBJECTIVES
