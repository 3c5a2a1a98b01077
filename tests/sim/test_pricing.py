"""The vectorized pricing layer: bit-identity with the scalar path,
``estimate_many`` broadcasting, and the Eq. 2-5 scaling properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import ripple_adder_circuit
from repro.errors import SimulationError
from repro.power.model import PowerParameters
from repro.sim.activity import simulation_stats
from repro.sim.bitsim import BitParallelSimulator
from repro.sim.estimator import (
    PricingModel,
    estimate_circuit_power,
    estimate_many,
    leakage_currents,
)
from repro.synth.mapper import map_aig

N_PATTERNS = 2048


@pytest.fixture(scope="module")
def adder(glib):
    return map_aig(ripple_adder_circuit(4), glib)


@pytest.fixture(scope="module")
def stats(adder):
    return simulation_stats(adder, N_PATTERNS, seed=11)


class TestScalarEquivalence:
    def test_matches_reference_scalar_loops(self, adder, stats):
        """The vectorized reductions reproduce the historical per-gate
        Python accumulation bit for bit."""
        params = PowerParameters(vdd=0.85, frequency=1.7e9)
        report = estimate_circuit_power(adder, params, stats=stats)

        from repro.sim.estimator import (
            _LeakageTables,
            switched_capacitance,
        )

        caps = switched_capacitance(adder)
        p_dynamic = 0.0
        for gate in adder.gates:
            alpha = stats.toggle_rate(gate.output)
            p_dynamic += (alpha * caps[gate.output]
                          * params.frequency * params.vdd**2)
        assert report.p_dynamic == p_dynamic
        assert report.p_short_circuit == 0.15 * p_dynamic

        tables = _LeakageTables.for_library(adder.library)
        denominator = max(1, stats.n_state_patterns)
        total_i_off = 0.0
        total_i_gate = 0.0
        for gate in adder.gates:
            weights = stats.state_counts[gate.name] / denominator
            total_i_off += float(weights @ tables.i_off[gate.cell])
            total_i_gate += float(weights @ tables.i_gate[gate.cell])
        assert report.p_static == total_i_off * params.vdd
        assert report.p_gate_leak == total_i_gate * params.vdd
        assert leakage_currents(adder, stats) == (total_i_off,
                                                  total_i_gate)

    def test_toggle_rates_matches_scalar(self, adder, stats):
        nets = [gate.output for gate in adder.gates] + ["no-such-net"]
        vectorized = stats.toggle_rates(nets)
        for net, value in zip(nets, vectorized):
            assert float(value) == stats.toggle_rate(net)

    def test_explicit_stats_bypass_cache(self, adder):
        direct = BitParallelSimulator(adder).run(N_PATTERNS, 11)
        a = estimate_circuit_power(adder, stats=direct)
        b = estimate_circuit_power(adder, n_patterns=N_PATTERNS, seed=11)
        assert a == b

    def test_model_memoized_per_netlist(self, adder):
        assert PricingModel.for_netlist(adder) is \
            PricingModel.for_netlist(adder)

    def test_bind_memoized_per_stats(self, adder, stats):
        model = PricingModel.for_netlist(adder)
        assert model.bind(stats) is model.bind(stats)


class TestEstimateMany:
    def test_bit_identical_to_per_point(self, adder, stats):
        points = [(0.9, f, fo)
                  for f in (0.25e9, 1.0e9, 2.0e9, 7.5e9)
                  for fo in (1, 3, 8)]
        reports = estimate_many(adder, stats, points)
        assert len(reports) == len(points)
        for point, report in zip(points, reports):
            expected = estimate_circuit_power(
                adder, PowerParameters(*point), stats=stats)
            assert report == expected

    def test_vdd_axis_with_recharacterized_netlists(self, glib, stats,
                                                    adder):
        from repro.registry import cached_library

        aig = ripple_adder_circuit(4)
        lowered = map_aig(aig, cached_library("generalized", 0.8))
        points = [(0.9, 1.0e9, 3), (0.8, 1.0e9, 3), (0.8, 2.0e9, 3)]
        reports = estimate_many(adder, stats, points,
                                netlists={0.8: lowered})
        expected_low = estimate_circuit_power(
            lowered, PowerParameters(vdd=0.8), stats=stats)
        assert reports[1] == expected_low
        # Re-characterization is real: not a linear rescale in vdd.
        assert reports[1].p_static / 0.8 != reports[0].p_static / 0.9
        assert reports[1].delay != reports[0].delay

    def test_missing_vdd_netlist_is_an_error(self, adder, stats):
        with pytest.raises(SimulationError, match="no netlist for vdd"):
            estimate_many(adder, stats, [(0.5, 1.0e9, 3)])

    def test_structurally_different_netlist_rejected(self, glib, adder,
                                                     stats):
        other = map_aig(ripple_adder_circuit(3), glib)
        with pytest.raises(SimulationError, match="different structure"):
            estimate_many(adder, stats, [(0.5, 1.0e9, 3)],
                          netlists={0.5: other})

    def test_accepts_power_parameters(self, adder, stats):
        params = PowerParameters(frequency=3.0e9)
        many, = estimate_many(adder, stats, [params])
        assert many == estimate_circuit_power(adder, params, stats=stats)


class TestScalingProperties:
    """Eq. 2-5 structure, property-tested over the pricing layer."""

    @given(frequency=st.floats(min_value=1e6, max_value=1e11),
           scale=st.floats(min_value=1.001, max_value=64.0))
    @settings(max_examples=25, deadline=None)
    def test_pd_linear_in_frequency(self, pricing_fixture, frequency,
                                    scale):
        adder, stats = pricing_fixture
        base, scaled = estimate_many(
            adder, stats, [(0.9, frequency, 3), (0.9, frequency * scale, 3)])
        assert scaled.p_dynamic == pytest.approx(base.p_dynamic * scale,
                                                 rel=1e-12)
        # PS/PG do not move with frequency at all.
        assert scaled.p_static == base.p_static
        assert scaled.p_gate_leak == base.p_gate_leak

    @given(vdd=st.floats(min_value=0.3, max_value=1.5),
           scale=st.floats(min_value=1.001, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_leakage_linear_in_vdd_at_fixed_tables(self, pricing_fixture,
                                                   vdd, scale):
        """PS = Ioff * VDD and PG = Ig * VDD (Eq. 4-5): with the
        leakage tables held fixed (same netlist passed for both
        supplies), leakage power is exactly linear in the supply."""
        adder, stats = pricing_fixture
        high = vdd * scale
        base, scaled = estimate_many(
            adder, stats, [(vdd, 1.0e9, 3), (high, 1.0e9, 3)],
            netlists={vdd: adder, high: adder})
        assert scaled.p_static == pytest.approx(
            base.p_static / vdd * high, rel=1e-12)
        assert scaled.p_gate_leak == pytest.approx(
            base.p_gate_leak / vdd * high, rel=1e-12)
        # PD goes with VDD^2.
        assert scaled.p_dynamic == pytest.approx(
            base.p_dynamic * scale**2, rel=1e-12)

    @given(fanouts=st.lists(st.integers(min_value=1, max_value=64),
                            min_size=2, max_size=6, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_fanout_monotone(self, pricing_fixture, fanouts):
        """Raising the fanout knob never lowers circuit power.  (At the
        circuit level loads come from the real netlist fanouts, so the
        knob is characterization-only and the curve is flat — which is
        monotone; the assert documents the direction either way.)"""
        adder, stats = pricing_fixture
        ordered = sorted(fanouts)
        reports = estimate_many(adder, stats,
                                [(0.9, 1.0e9, fo) for fo in ordered])
        totals = [report.p_total for report in reports]
        assert all(later >= earlier
                   for earlier, later in zip(totals, totals[1:]))


@pytest.fixture(scope="module")
def pricing_fixture(glib):
    netlist = map_aig(ripple_adder_circuit(4), glib)
    return netlist, simulation_stats(netlist, N_PATTERNS, seed=11)
