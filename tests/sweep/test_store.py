"""Result store backends and resume semantics."""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.errors import ExperimentError
from repro.experiments.flow import CircuitFlowResult
from repro.schema import flow_from_record, store_record
from repro.sweep.spec import SweepSpec
from repro.sweep.store import (
    JsonlResultStore,
    SqliteResultStore,
    open_store,
    require_store,
    sweep_status,
)


def _fake_record(key_suffix: str = "a", pt_w: float = 1e-6) -> dict:
    return {
        "task_key": f"key-{key_suffix}",
        "circuit": "t481",
        "library": "cmos",
        "config": SweepSpec(circuits=("t481",)).expand()[0].config.to_dict(),
        "result": {
            "circuit": "t481", "library": "cmos", "gate_count": 50,
            "delay_s": 5.445e-10, "pd_w": 2.4e-6, "ps_w": 2.1e-7,
            "pg_w": 1.7e-8, "pt_w": pt_w, "edp_js": 1.6e-24,
        },
        "elapsed_s": 0.01,
    }


class TestOpenStore:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_store(tmp_path / "s.jsonl"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "s.txt"), JsonlResultStore)
        assert isinstance(open_store(tmp_path / "s.sqlite"),
                          SqliteResultStore)
        assert isinstance(open_store(tmp_path / "s.db"), SqliteResultStore)

    def test_require_store_missing(self, tmp_path):
        with pytest.raises(ExperimentError, match="does not exist"):
            require_store(tmp_path / "absent.jsonl")

    def test_open_for_read_creates_nothing(self, tmp_path):
        from repro.sweep.store import open_store_for_read

        path = tmp_path / "absent.sqlite"
        store = open_store_for_read(path)
        assert store.keys() == set()
        assert not path.exists()
        # An existing sqlite store still opens as sqlite.
        real = tmp_path / "real.sqlite"
        SqliteResultStore(real).append(_fake_record("a"))
        assert open_store_for_read(real).keys() == {"key-a"}


@pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
class TestBackends:
    def test_roundtrip_and_keys(self, tmp_path, suffix):
        store = open_store(tmp_path / f"s.{suffix}")
        assert store.keys() == set()
        assert len(store) == 0
        store.append(_fake_record("a"))
        store.append(_fake_record("b"))
        assert store.keys() == {"key-a", "key-b"}
        assert len(store) == 2
        assert store.get("key-a")["circuit"] == "t481"
        assert store.get("key-zzz") is None

    def test_last_write_wins(self, tmp_path, suffix):
        store = open_store(tmp_path / f"s.{suffix}")
        store.append(_fake_record("a", pt_w=1e-6))
        store.append(_fake_record("a", pt_w=2e-6))
        records = store.records()
        assert len(records) == 1
        assert records[0]["result"]["pt_w"] == 2e-6

    def test_reopen_persists(self, tmp_path, suffix):
        path = tmp_path / f"s.{suffix}"
        open_store(path).append(_fake_record("a"))
        assert open_store(path).keys() == {"key-a"}


class TestJsonlRobustness:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = JsonlResultStore(path)
        store.append(_fake_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"task_key": "key-b", "trunc')  # killed writer
        assert store.keys() == {"key-a"}
        assert len(store.records()) == 1

    def test_blank_lines_and_foreign_json_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = JsonlResultStore(path)
        store.append(_fake_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n[1, 2, 3]\n{}\n")
        assert store.keys() == {"key-a"}


class TestRecordHelpers:
    def test_record_roundtrips_floats_exactly(self, tmp_path):
        flow = CircuitFlowResult(
            circuit="t481", library="cmos", gate_count=50,
            delay_s=5.445543603246099e-10, pd_w=3.02435612524462e-06,
            ps_w=2.3945957189475917e-07, pg_w=1.9035000000000014e-08,
            pt_w=3.7365041159260723e-06, edp_js=2.0347296086983944e-24)
        task = SweepSpec(circuits=("t481",),
                         libraries=("cmos",)).expand()[0]
        record = store_record(task, flow, 0.5)
        store = JsonlResultStore(tmp_path / "s.jsonl")
        store.append(record)
        loaded = store.records()[0]
        # JSON round-trips doubles exactly: frozen-dataclass equality
        # is bit-exact.
        assert flow_from_record(loaded) == flow
        assert json.dumps(loaded["result"], sort_keys=True) == \
               json.dumps(record["result"], sort_keys=True)


class TestStatus:
    def test_counts_and_missing_preview(self, tmp_path):
        spec = SweepSpec(circuits=("t481",), libraries=("cmos",),
                         vdd=(0.8, 0.9), n_patterns=(1024,))
        store = JsonlResultStore(tmp_path / "s.jsonl")
        tasks = spec.expand()
        record = _fake_record("x")
        record["task_key"] = tasks[0].task_key
        record["content"] = registry.content_key(tasks[0].circuit,
                                                 tasks[0].library)
        store.append(record)
        status = sweep_status(spec, store)
        assert status["total"] == 2
        assert status["done"] == 1
        assert status["missing"] == 1
        assert status["missing_preview"][0]["vdd"] == tasks[1].config.vdd
