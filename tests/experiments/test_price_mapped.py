"""The one answer path, :func:`repro.experiments.flow.price_mapped`.

Over a shuffled grid that mixes circuits, libraries, supplies,
frequencies and fanouts, every flow must equal per-point
:func:`repro.sim.estimator.estimate_circuit_power` bit for bit, in
input order, with at most one simulation per distinct activity key.
The grid is chosen so the grouping has real work to do: every t481
mapping (cmos and cntfet-conventional, both supplies) shares one
activity key, while C1908's conventional mapping changes with vdd.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Session
from repro.experiments import flow
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import (
    FlowQuery,
    flow_from_power_report,
    mapped_netlist,
    price_mapped,
)
from repro.registry import cached_library
from repro.schema import PowerQuery
from repro.serve import Engine
from repro.sim import activity
from repro.sim.activity import activity_key
from repro.sim.estimator import estimate_circuit_power

TINY = ExperimentConfig(n_patterns=256, state_patterns=256)

CIRCUITS = ("t481", "C1908")
LIBRARIES = ("cmos", "cntfet-conventional")
VDDS = (0.8, 0.9)
FREQUENCIES = (0.5e9, 1.0e9, 2.0e9)
FANOUTS = (1, 3)

GRID = tuple(FlowQuery(circuit, library,
                       replace(TINY, vdd=vdd, frequency=frequency,
                               fanout=fanout))
             for circuit in CIRCUITS for library in LIBRARIES
             for vdd in VDDS for frequency in FREQUENCIES
             for fanout in FANOUTS)


@pytest.fixture(scope="module")
def netlists():
    """Every (circuit, library, vdd) mapping of the grid, pinned for
    the module so examples never re-map."""
    return {(circuit, library, vdd): mapped_netlist(
                circuit, cached_library(library, vdd), TINY)
            for circuit in CIRCUITS for library in LIBRARIES
            for vdd in VDDS}


def _point(query, netlists):
    return query, netlists[(query.circuit, query.library,
                            query.config.vdd)]


class TestMixedGrid:
    def test_grid_shares_keys_across_libraries(self, netlists):
        """The premise of the grid: grouping by supply alone would be
        wrong, because two libraries' netlists share a key at one vdd."""
        keys = {key: activity_key(netlist, TINY.n_patterns, TINY.seed,
                                  TINY.state_patterns)
                for key, netlist in netlists.items()}
        assert keys[("t481", "cmos", 0.9)] == \
            keys[("t481", "cntfet-conventional", 0.9)]
        assert netlists[("t481", "cmos", 0.9)] is not \
            netlists[("t481", "cntfet-conventional", 0.9)]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(order=st.permutations(GRID),
           size=st.integers(min_value=1, max_value=len(GRID)))
    def test_matches_per_point_estimation(self, netlists, order, size):
        points = [_point(query, netlists) for query in order[:size]]
        activity.LADDER.lru.clear()
        before = obs.snapshot()
        flows = price_mapped(points)
        simulations = obs.diff(before)["activity.computes"]

        distinct = {activity_key(netlist, query.config.n_patterns,
                                 query.config.seed,
                                 query.config.state_patterns)
                    for query, netlist in points}
        assert simulations <= len(distinct)
        assert len(flows) == len(points)
        for (query, netlist), got in zip(points, flows):
            config = query.config
            report = estimate_circuit_power(
                netlist, config.power_parameters,
                n_patterns=config.n_patterns, seed=config.seed,
                state_patterns=config.state_patterns)
            assert got == flow_from_power_report(
                report, config, circuit=query.circuit,
                library=query.library)
            assert got.pd_w == report.p_dynamic
            assert got.pt_w == report.p_total


class TestEngineBatchEconomy:
    def test_single_circuit_batch_prices_once(self, monkeypatch):
        """An N-point batch over one circuit: one simulation and one
        vectorized repricing, not N of either."""
        calls = []
        real = flow.estimate_many

        def spy(*args, **kwargs):
            calls.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "estimate_many", spy)
        queries = [PowerQuery("t481", "generalized",
                              replace(TINY, frequency=frequency,
                                      fanout=fanout))
                   for frequency in FREQUENCIES for fanout in FANOUTS]
        engine = Engine(Session(TINY))
        activity.LADDER.lru.clear()
        before = obs.snapshot()
        reports = engine.estimate_batch(queries)
        assert obs.diff(before)["activity.computes"] == 1
        assert calls == [len(queries)]
        assert [r.config for r in reports] == [q.config for q in queries]
        assert all(r.cache_status == "cold" for r in reports)
