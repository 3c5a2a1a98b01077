"""Experiment harnesses: configuration, flow, Table 1 orderings,
library study and figure reproductions."""

import pytest

from repro.circuits.suite import CMOS, CONVENTIONAL, GENERALIZED
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.experiments.figures import (
    reproduce_fig2_transmission,
    reproduce_fig4_patterns,
    reproduce_fig5_flow,
)
from repro.experiments.flow import run_circuit_flow
from repro.experiments.library_power import reproduce_library_study
from repro.experiments.reporting import format_ratio, format_saving, render_table
from repro.experiments.table1 import reproduce_table1


class TestConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.vdd == 0.9
        assert PAPER_CONFIG.frequency == 1e9
        assert PAPER_CONFIG.n_patterns == 640_000
        assert PAPER_CONFIG.fanout == 3

    def test_scaled(self):
        small = PAPER_CONFIG.scaled(1000)
        assert small.n_patterns == 1000
        assert small.state_patterns == 1000
        assert small.vdd == PAPER_CONFIG.vdd

    def test_scaled_preserves_explicit_state_budget(self):
        """An explicitly-smaller state budget survives rescaling."""
        explicit = ExperimentConfig(n_patterns=16_384, state_patterns=1000)
        assert explicit.scaled(8192).state_patterns == 1000
        assert explicit.scaled(640_000).state_patterns == 1000
        # ... and is still clamped to a budget below it.
        assert explicit.scaled(500).state_patterns == 500

    def test_scaled_preserves_explicitly_raised_state_budget(self):
        """A deliberately raised budget is explicit too, not a clamp."""
        raised = ExperimentConfig(n_patterns=640_000,
                                  state_patterns=131_072)
        assert raised.scaled(640_000).state_patterns == 131_072
        assert raised.scaled(200_000).state_patterns == 131_072
        assert raised.scaled(1000).state_patterns == 1000

    def test_scaled_up_restores_default_clamp(self):
        """A state budget that merely tracked the clamp is re-derived,
        so scaling a fast config back up restores the 64 K default."""
        from repro.experiments.config import DEFAULT_STATE_PATTERNS, FAST_CONFIG

        assert FAST_CONFIG.state_patterns == FAST_CONFIG.n_patterns
        restored = FAST_CONFIG.scaled(640_000)
        assert restored.state_patterns == DEFAULT_STATE_PATTERNS
        assert PAPER_CONFIG.scaled(640_000) == PAPER_CONFIG

    def test_pattern_budgets_validated(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="n_patterns"):
            ExperimentConfig(n_patterns=0)
        with pytest.raises(ExperimentError, match="n_patterns"):
            ExperimentConfig(n_patterns=-1)
        with pytest.raises(ExperimentError, match="state_patterns"):
            ExperimentConfig(state_patterns=0)

    def test_round_trip(self):
        config = ExperimentConfig(n_patterns=1024, state_patterns=512,
                                  vdd=0.8, backend="bitsim")
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        with pytest.raises(Exception, match="unknown ExperimentConfig"):
            ExperimentConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("data, match", [
        ([], "JSON object"),
        ("vdd=0.9", "JSON object"),
        ({"seed": None}, "'seed' must be an integer"),
        ({"vdd": "0.9"}, "'vdd' must be a number"),
        ({"fanout": "3"}, "'fanout' must be an integer"),
        ({"n_patterns": 1500.5}, "'n_patterns' must be an integer"),
        ({"synthesize": "no"}, "'synthesize' must be a boolean"),
        ({"synthesize": 1}, "'synthesize' must be a boolean"),
        ({"frequency": True}, "'frequency' must be a number"),
        ({"state_patterns": False}, "'state_patterns' must be an integer"),
        ({"backend": 7}, "'backend' must be a string"),
    ])
    def test_wrong_typed_fields_rejected(self, data, match):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match=match):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("field, value, match", [
        ("vdd", float("nan"), "'vdd' must be a finite number"),
        ("vdd", float("-inf"), "'vdd' must be a finite number"),
        ("frequency", float("inf"), "'frequency' must be a finite number"),
        ("frequency", 10**400, "'frequency' must be a finite number"),
        ("seed", -1, "'seed' must be a non-negative integer"),
    ])
    def test_unpriceable_values_rejected(self, field, value, match):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match=match):
            ExperimentConfig(**{field: value})

    def test_numeric_types_accepted(self):
        import numpy as np

        config = ExperimentConfig(vdd=np.float64(0.8), frequency=2,
                                  fanout=np.int64(4),
                                  n_patterns=np.int32(256))
        assert (config.vdd, config.frequency, config.fanout,
                config.n_patterns) == (0.8, 2, 4, 256)


class TestReporting:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["1", "2"], ["33", "4"]], "T")
        assert "T" in text and "33" in text

    def test_ratio_and_saving(self):
        assert format_ratio(10.0, 2.0) == "5.0x"
        assert format_saving(10.0, 4.0) == "60.0%"


class TestFlow:
    def test_result_consistency(self, glib, tiny_config):
        from repro.circuits.adders import ripple_adder_circuit
        result = run_circuit_flow(ripple_adder_circuit(4), glib, tiny_config)
        # PT = 1.15 PD + PS + PG (Table 1's internal relationship)
        assert result.pt_w == pytest.approx(
            1.15 * result.pd_w + result.ps_w + result.pg_w, rel=1e-9)
        assert result.edp_js == pytest.approx(
            result.pt_w / tiny_config.frequency * result.delay_s)
        assert result.gate_count > 0


@pytest.fixture(scope="module")
def mini_table1():
    config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
    return reproduce_table1(config, benchmarks=["t481", "C1355"])


class TestTable1:
    def test_all_libraries_present(self, mini_table1):
        for name in ("t481", "C1355"):
            assert set(mini_table1.results[name]) == {
                GENERALIZED, CONVENTIONAL, CMOS}

    def test_paper_orderings_hold(self, mini_table1):
        """The reproduction targets: generalized <= conventional < CMOS
        for power; CMOS much slower than both CNTFET libraries."""
        for name in mini_table1.benchmark_order:
            rows = mini_table1.results[name]
            assert rows[GENERALIZED].pt_w < rows[CMOS].pt_w
            assert rows[CONVENTIONAL].pt_w < rows[CMOS].pt_w
            assert rows[CMOS].delay_s > 3 * rows[CONVENTIONAL].delay_s
            assert rows[GENERALIZED].edp_js < rows[CMOS].edp_js / 3

    def test_static_far_below_dynamic(self, mini_table1):
        """Section 4: PS is 1-2 orders below PD in every technology."""
        for rows in mini_table1.results.values():
            for row in rows.values():
                assert row.ps_w < row.pd_w / 5

    def test_averages_and_improvements(self, mini_table1):
        avg = mini_table1.averages(GENERALIZED)
        assert avg.gate_count > 0
        improvements = mini_table1.improvement_vs_cmos(GENERALIZED)
        assert set(improvements) == {"gates", "delay", "pd", "ps", "pt",
                                     "edp"}

    def test_render(self, mini_table1):
        text = mini_table1.render()
        assert "cntfet-generalized" in text
        assert "Improvement vs CMOS" in text
        assert "(paper avg)" in text


class TestLibraryStudy:
    def test_section4_anchors(self):
        study = reproduce_library_study()
        assert study.cntfet_inverter_cin_af == pytest.approx(36.0)
        assert study.cmos_inverter_cin_af == pytest.approx(52.0)
        assert 10 <= study.distinct_patterns <= 40
        assert 0.20 <= study.comparison.total_saving <= 0.42
        assert study.comparison.reference_gate_leak_fraction == pytest.approx(
            0.10, abs=0.04)
        assert study.comparison.candidate_gate_leak_fraction < 0.01
        assert "46" in study.render() or "patterns" in study.render()


class TestFigures:
    def test_fig2_transmission_gate_beats_single_device(self):
        result = reproduce_fig2_transmission()
        assert result.tg_degradation < 0.01           # full rail
        assert result.single_device_degradation > 0.1  # threshold drop
        assert "Fig. 2" in result.render()

    def test_fig4_ratio_exceeds_three(self):
        result = reproduce_fig4_patterns()
        assert result.ratio > 3.0
        assert result.parallel_pattern == "p(d,d,d)"
        assert result.series_pattern == "s(d,d,d)"
        assert result.parallel_current == pytest.approx(
            3 * result.single_device_current, rel=1e-6)

    def test_fig5_flow_savings(self):
        result = reproduce_fig5_flow()
        assert result.n_cells == 46
        assert result.simulation_savings > 10
        assert result.distinct_patterns == result.distinct_patterns
        assert "reduction" in result.render()
