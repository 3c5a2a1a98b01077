"""The versioned power-query wire schema: strict (de)serialization,
key compatibility with sweep tasks, and the shared store-record shape."""

import dataclasses
import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.experiments.flow import CircuitFlowResult
from repro.schema import (
    OptimizeQuery,
    PowerQuery,
    PowerQuoteReport,
    SCHEMA_VERSION,
    TASK_SCHEMA_VERSION,
    batch_response_json,
    batch_response_payload,
    flow_from_record,
    quote_from_record,
    report_json,
    store_record,
)
from repro.sweep.spec import SweepTask


def _flow(**overrides):
    base = dict(circuit="t481", library="cmos", gate_count=50,
                delay_s=5.445543603246099e-10,
                pd_w=3.0540394285714302e-06,
                ps_w=2.392227760796267e-07,
                pg_w=1.903500000000001e-08,
                pt_w=3.7704031189367715e-06,
                edp_js=2.053189458598528e-24)
    base.update(overrides)
    return CircuitFlowResult(**base)


class TestPowerQuery:
    def test_round_trip(self):
        query = PowerQuery("t481", "cmos",
                           ExperimentConfig(n_patterns=4096,
                                            state_patterns=4096))
        again = PowerQuery.from_dict(query.to_dict())
        assert again == query
        assert again.query_key == query.query_key

    def test_query_key_equals_sweep_task_key(self):
        """The service cache and the sweep store share keys by design."""
        config = ExperimentConfig(vdd=0.8, n_patterns=2048,
                                  state_patterns=2048)
        query = PowerQuery("C1355", "cntfet-generalized", config)
        task = SweepTask("C1355", "cntfet-generalized", config)
        assert query.query_key == task.task_key
        assert isinstance(task, PowerQuery)

    def test_key_depends_on_every_determinant(self):
        base = PowerQuery("t481", "cmos", PAPER_CONFIG)
        assert PowerQuery("i8", "cmos", PAPER_CONFIG).query_key \
            != base.query_key
        assert PowerQuery("t481", "cntfet-generalized",
                          PAPER_CONFIG).query_key != base.query_key
        changed = ExperimentConfig(frequency=2.0e9)
        assert PowerQuery("t481", "cmos", changed).query_key \
            != base.query_key

    def test_unknown_fields_rejected(self):
        with pytest.raises(ExperimentError, match="unknown PowerQuery"):
            PowerQuery.from_dict({"circuit": "t481", "library": "cmos",
                                  "circiut": "typo"})

    def test_newer_schema_rejected(self):
        with pytest.raises(ExperimentError, match="schema version"):
            PowerQuery.from_dict({"schema_version": SCHEMA_VERSION + 1,
                                  "circuit": "t481", "library": "cmos"})

    def test_missing_config_takes_default(self):
        default = ExperimentConfig(n_patterns=512, state_patterns=512)
        query = PowerQuery.from_dict(
            {"circuit": "t481", "library": "cmos"},
            default_config=default)
        assert query.config == default
        bare = PowerQuery.from_dict({"circuit": "t481", "library": "cmos"})
        assert bare.config == PAPER_CONFIG

    def test_bad_subject_fields_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty string"):
            PowerQuery.from_dict({"circuit": "", "library": "cmos"})
        with pytest.raises(ExperimentError, match="non-empty string"):
            PowerQuery.from_dict({"circuit": "t481", "library": 3})
        with pytest.raises(ExperimentError, match="JSON object"):
            PowerQuery.from_dict(["t481", "cmos"])


class TestPowerQuoteReport:
    def test_round_trip_is_bit_exact(self):
        query = PowerQuery("t481", "cmos", PAPER_CONFIG)
        report = PowerQuoteReport.from_flow(
            query, _flow(), server_version="1.2.3", cache_status="cold",
            elapsed_s=0.25)
        # Through actual JSON text, as the HTTP layer would.
        again = PowerQuoteReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert again == report
        assert again.result == _flow()

    def test_provenance_fields(self):
        config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
        query = PowerQuery("t481", "cmos", config)
        report = PowerQuoteReport.from_flow(query, _flow(),
                                            server_version="x")
        assert report.schema_version == SCHEMA_VERSION
        assert report.backend == "bitsim"
        assert report.query_key == query.query_key
        assert report.config_hash
        assert report.config == config

    def test_with_status_validates(self):
        report = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow())
        hot = report.with_status("hot", 0.001)
        assert hot.cache_status == "hot"
        assert hot.result == report.result
        with pytest.raises(ExperimentError, match="cache_status"):
            report.with_status("lukewarm", 0.0)

    def test_unknown_fields_rejected(self):
        data = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow()).to_dict()
        data["surprise"] = 1
        with pytest.raises(ExperimentError,
                           match="unknown PowerQuoteReport"):
            PowerQuoteReport.from_dict(data)

    def test_missing_required_field_rejected(self):
        data = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow()).to_dict()
        del data["result"]
        with pytest.raises(ExperimentError, match="missing"):
            PowerQuoteReport.from_dict(data)

    def test_unknown_result_field_rejected_not_typeerror(self):
        """A newer peer's extra result field must fail the strict
        contract, not escape as a TypeError from the constructor."""
        data = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow()).to_dict()
        data["result"]["p_novel_w"] = 1.0
        with pytest.raises(ExperimentError, match="result fields"):
            PowerQuoteReport.from_dict(data)
        del data["result"]["p_novel_w"]
        del data["result"]["pt_w"]
        with pytest.raises(ExperimentError, match="missing fields"):
            PowerQuoteReport.from_dict(data)

    def test_malformed_record_result_rejected(self):
        with pytest.raises(ExperimentError, match="JSON object"):
            flow_from_record({"result": "oops"})


class TestSchemaV2TimingFields:
    """v2's optional delay/fmax/energy/PDP derivatives on the quote."""

    def _report(self, frequency=1.0e9, **flow_overrides):
        from dataclasses import replace

        query = PowerQuery("t481", "cmos",
                           replace(PAPER_CONFIG, frequency=frequency))
        return PowerQuoteReport.from_flow(query, _flow(**flow_overrides))

    def test_from_flow_derives_timing_fields(self):
        flow = _flow()
        report = self._report(frequency=2.0e9)
        assert report.delay_ns == flow.delay_s / 1e-9
        assert report.fmax_hz == 1.0 / flow.delay_s
        assert report.energy_per_cycle == flow.pt_w / 2.0e9
        assert report.pdp == flow.pt_w * flow.delay_s

    def test_zero_delay_has_no_finite_fmax(self):
        report = self._report(delay_s=0.0, edp_js=0.0)
        assert report.fmax_hz is None
        assert report.delay_ns == 0.0

    def test_round_trip_preserves_timing_fields(self):
        report = self._report()
        again = PowerQuoteReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert again.delay_ns == report.delay_ns
        assert again.fmax_hz == report.fmax_hz
        assert again.energy_per_cycle == report.energy_per_cycle
        assert again.pdp == report.pdp

    def test_v1_payload_still_parses(self):
        """Records written before v2 lack the fields entirely."""
        payload = self._report().to_dict()
        for field in ("delay_ns", "fmax_hz", "energy_per_cycle", "pdp"):
            assert field in payload
            del payload[field]
        payload["schema_version"] = 1
        old = PowerQuoteReport.from_dict(payload)
        assert old.delay_ns is None
        assert old.fmax_hz is None
        assert old.energy_per_cycle is None
        assert old.pdp is None
        assert old.result == _flow()

    def test_absent_optional_fields_not_serialized_as_null(self):
        """A v1-shaped report round-trips without emitting nulls."""
        payload = self._report().to_dict()
        for field in ("delay_ns", "fmax_hz", "energy_per_cycle", "pdp"):
            del payload[field]
        payload["schema_version"] = 1
        old = PowerQuoteReport.from_dict(payload)
        emitted = old.to_dict()
        for field in ("delay_ns", "energy_per_cycle", "pdp"):
            assert field not in emitted


class TestStoreRecordShape:
    def test_matches_sweep_store_layout(self):
        """store_record writes exactly what the sweep stores hold,
        stamped with the content key of the current definitions."""
        from repro import registry
        from repro.sweep.runner import run_sweep_group

        config = ExperimentConfig(n_patterns=2048, state_patterns=2048)
        task = SweepTask("t481", "cmos", config)
        flow = _flow()
        via_schema = store_record(task, flow, 1.5)
        (via_sweep,) = run_sweep_group([task])["records"]
        assert set(via_schema) == set(via_sweep) == {
            "task_key", "circuit", "library", "config", "content",
            "result", "elapsed_s"}
        assert via_schema["task_key"] == task.task_key
        assert via_schema["content"] == via_sweep["content"] \
            == registry.content_key("t481", "cmos")
        assert flow_from_record(via_schema) == flow

    def test_quote_from_record(self):
        config = ExperimentConfig(n_patterns=2048, state_patterns=2048)
        record = store_record(PowerQuery("t481", "cmos", config),
                              _flow(), 0.7)
        quote = quote_from_record(record, server_version="v")
        assert quote.cache_status == "hot"
        assert quote.circuit == "t481"
        assert quote.query_key == record["task_key"]
        assert quote.result == _flow()

    def test_task_schema_version_reexported(self):
        from repro.sweep import spec

        assert spec.TASK_SCHEMA_VERSION == TASK_SCHEMA_VERSION


class TestBatchEnvelopes:
    def _queries(self):
        return [PowerQuery(circuit="t481", library="cmos"),
                PowerQuery(circuit="C1908", library="generalized",
                           config=ExperimentConfig(frequency=2.0e9))]

    def test_request_round_trip(self):
        from repro.schema import batch_request_payload, queries_from_batch

        queries = self._queries()
        payload = json.loads(json.dumps(batch_request_payload(queries)))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert queries_from_batch(payload) == queries

    def test_request_default_config_applies(self):
        from repro.schema import queries_from_batch

        fallback = ExperimentConfig(n_patterns=512, state_patterns=512)
        payload = {"schema_version": SCHEMA_VERSION,
                   "queries": [{"circuit": "t481", "library": "cmos"}]}
        query, = queries_from_batch(payload, default_config=fallback)
        assert query.config == fallback

    def test_request_strictness(self):
        from repro.schema import MAX_BATCH_QUERIES, queries_from_batch

        with pytest.raises(ExperimentError, match="non-empty"):
            queries_from_batch({"schema_version": SCHEMA_VERSION,
                                "queries": []})
        with pytest.raises(ExperimentError, match="unknown batch"):
            queries_from_batch({"schema_version": SCHEMA_VERSION,
                                "queries": [], "surprise": 1})
        with pytest.raises(ExperimentError, match="schema version"):
            queries_from_batch({"schema_version": SCHEMA_VERSION + 1,
                                "queries": [{}]})
        too_many = [{"circuit": "t481", "library": "cmos"}
                    ] * (MAX_BATCH_QUERIES + 1)
        with pytest.raises(ExperimentError, match="limit"):
            queries_from_batch({"schema_version": SCHEMA_VERSION,
                                "queries": too_many})
        with pytest.raises(ExperimentError, match="JSON object"):
            queries_from_batch([])

    def test_response_round_trip_is_float_exact(self):
        from repro.schema import (
            batch_response_payload,
            reports_from_batch,
        )

        reports = [PowerQuoteReport.from_flow(query, _flow())
                   for query in self._queries()]
        payload = json.loads(json.dumps(batch_response_payload(reports)))
        assert reports_from_batch(payload) == reports

    def test_response_strictness(self):
        from repro.schema import reports_from_batch

        with pytest.raises(ExperimentError, match="must be a list"):
            reports_from_batch({"schema_version": SCHEMA_VERSION,
                                "reports": {}})
        with pytest.raises(ExperimentError, match="unknown batch"):
            reports_from_batch({"schema_version": SCHEMA_VERSION,
                                "reports": [], "surprise": 1})


class TestWireBytes:
    """``report_json`` / ``batch_response_json`` are exactly the
    ``json.dumps`` of the dict forms, whatever the report holds."""

    def _reports(self):
        cold = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow(), server_version="9.9",
            elapsed_s=0.125)
        gateless = PowerQuoteReport.from_flow(
            PowerQuery("t481", "cmos"), _flow(delay_s=0.0, gate_count=0))
        v1 = PowerQuoteReport.from_dict({
            "schema_version": 1, "circuit": "t481", "library": "cmos",
            "backend": "bitsim", "result": dataclasses.asdict(_flow())})
        unicode = PowerQuoteReport.from_flow(
            PowerQuery("adder-\u00e9\u4e2d", "cmos"),
            _flow(circuit="adder-\u00e9\u4e2d"))
        return [cold, cold.with_status("hot", 1.5e-05),
                cold.with_status("coalesced", 0), gateless, v1, unicode,
                unicode.with_status("hot", 3.0)]

    def test_report_bytes_equal_json_dumps(self):
        for report in self._reports():
            assert report_json(report) == \
                json.dumps(report.to_dict()).encode("utf-8")

    def test_batch_bytes_equal_json_dumps(self):
        reports = self._reports()
        for chunk in ([], reports[:1], reports):
            assert batch_response_json(chunk) == json.dumps(
                batch_response_payload(chunk)).encode("utf-8")

    def test_restamped_copies_share_one_encoding(self):
        report = PowerQuoteReport.from_flow(PowerQuery("t481", "cmos"),
                                            _flow())
        parts = report.stable_json()
        hot = report.with_status("hot", 0.001)
        assert hot.stable_json() is parts
        assert hot == dataclasses.replace(report, cache_status="hot",
                                          elapsed_s=0.001)


class TestWireBounds:
    """What a request body may ask for: the engine prices only finite
    operating points within the paper's pattern budget."""

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"),
                                             -1, 0])
    def test_bad_deadline_rejected(self, deadline_ms):
        with pytest.raises(ExperimentError, match="deadline_ms"):
            PowerQuery.from_dict({"circuit": "t481", "library": "cmos",
                                  "deadline_ms": deadline_ms})
        with pytest.raises(ExperimentError, match="deadline_ms"):
            OptimizeQuery(circuit="t481", libraries=("cmos",),
                          vdds=(0.9,), frequencies=(1e9,),
                          deadline_ms=deadline_ms)

    def test_pattern_budget_is_the_papers(self):
        budget = PAPER_CONFIG.n_patterns
        body = {"circuit": "t481", "library": "cmos",
                "config": {"n_patterns": budget}}
        assert PowerQuery.from_dict(body).config.n_patterns == budget
        body["config"]["n_patterns"] = budget + 1
        with pytest.raises(ExperimentError, match="n_patterns"):
            PowerQuery.from_dict(body)
        with pytest.raises(ExperimentError, match="n_patterns"):
            OptimizeQuery.from_dict({
                "circuit": "t481", "libraries": ["cmos"], "vdds": [0.9],
                "frequencies": [1e9], "config": body["config"]})
        # A server's own default is not a request's to bound, and
        # local sweeps keep any budget.
        big = ExperimentConfig(n_patterns=budget * 2)
        query = PowerQuery.from_dict({"circuit": "t481", "library": "cmos"},
                                     default_config=big)
        assert query.config is big
        assert SweepTask("t481", "cmos", big).config is big

    @pytest.mark.parametrize("axis", ["vdds", "frequencies"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_axis_rejected(self, axis, value):
        data = {"circuit": "t481", "libraries": ["cmos"], "vdds": [0.9],
                "frequencies": [1e9]}
        data[axis] = [value]
        with pytest.raises(ExperimentError, match="finite"):
            OptimizeQuery.from_dict(data)
