"""The result store: one JSON-lines file (or memory), resume semantics."""

from __future__ import annotations

import hashlib
import json
import sqlite3
import sys
import threading
from pathlib import Path

import pytest

from repro import registry
from repro.errors import ExperimentError
from repro.experiments.flow import CircuitFlowResult
from repro.schema import flow_from_record, store_record
from repro.sweep.spec import SweepSpec
from repro.sweep.store import (
    ResultStore,
    poison_record,
    require_store,
    sweep_status,
)

#: A store written by the release before the one-store layout, with
#: records with and without ``content``, a rewritten key, poison
#: markers and a torn last line; and what that release read back.
DATA = Path(__file__).parent / "data"


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
    def test_every_suffix_writes_json_lines(self, tmp_path):
        """No suffix selects another format: each store appends the
        record's sorted, compact JSON as one line."""
        record = _fake_record("a")
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        for suffix in ("jsonl", "txt", "sqlite", "db"):
            path = tmp_path / f"s.{suffix}"
            ResultStore(path).append(record)
            assert path.read_text(encoding="utf-8") == line

    def test_require_store_missing(self, tmp_path):
        with pytest.raises(ExperimentError, match="does not exist"):
            require_store(tmp_path / "absent.jsonl")

    def test_open_for_read_creates_nothing(self, tmp_path):
        for name in ("absent.jsonl", "absent.sqlite", "dir/absent.jsonl"):
            path = tmp_path / name
            store = ResultStore(path)
            assert store.keys() == set()
            assert store.records() == []
            assert not path.exists()
        assert not (tmp_path / "dir").exists()

    def test_existing_sqlite_store_is_refused_untouched(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE sweep_results ("
                         " task_key TEXT PRIMARY KEY,"
                         " record TEXT NOT NULL)")
            record = _fake_record("a")
            conn.execute("INSERT INTO sweep_results VALUES (?, ?)",
                         (record["task_key"], json.dumps(record)))
        conn.close()
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        with pytest.raises(ExperimentError,
                           match="is a SQLite result store.*SELECT record "
                                 "FROM sweep_results ORDER BY rowid"):
            ResultStore(path)
        with pytest.raises(ExperimentError, match="SQLite"):
            require_store(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before

    def test_parent_written_store_reads_the_same(self):
        store = ResultStore(DATA / "parent-store.jsonl")
        expected = json.loads(
            (DATA / "parent-store.expected.json").read_text())
        assert store.records() == expected["records"]
        assert sorted(store.keys()) == expected["keys"]
        assert sorted(store.poison_keys()) == expected["poison_keys"]


@pytest.mark.parametrize("suffix", ["jsonl", "db"])
class TestBackends:
    """Every path is a JSON-lines store, whatever its suffix."""

    def test_roundtrip_and_keys(self, tmp_path, suffix):
        store = ResultStore(tmp_path / f"s.{suffix}")
        assert store.keys() == set()
        assert len(store) == 0
        store.append(_fake_record("a"))
        store.append(_fake_record("b"))
        assert store.keys() == {"key-a", "key-b"}
        assert len(store) == 2
        assert store.get("key-a")["circuit"] == "t481"
        assert store.get("key-zzz") is None

    def test_last_write_wins(self, tmp_path, suffix):
        store = ResultStore(tmp_path / f"s.{suffix}")
        store.append(_fake_record("a", pt_w=1e-6))
        store.append(_fake_record("a", pt_w=2e-6))
        records = store.records()
        assert len(records) == 1
        assert records[0]["result"]["pt_w"] == 2e-6

    def test_reopen_persists(self, tmp_path, suffix):
        path = tmp_path / f"s.{suffix}"
        ResultStore(path).append(_fake_record("a"))
        assert ResultStore(path).keys() == {"key-a"}


class TestPoison:
    @pytest.mark.parametrize("where", ["path", "memory"])
    def test_get_of_poisoned_key_is_none(self, tmp_path, where):
        store = ResultStore(tmp_path / "s.jsonl" if where == "path"
                            else None)
        store.append(_fake_record("a"))
        store.append(poison_record("key-p", "quarantined"))
        assert store.get("key-p") is None
        assert store.poison_keys() == {"key-p"}
        assert store.keys() == {"key-a"}
        # A later result for the key clears its marker.
        store.append(_fake_record("p"))
        assert store.get("key-p")["circuit"] == "t481"
        assert store.poison_keys() == set()


class TestConcurrentAppends:
    def test_threads_appending_lose_no_record(self, tmp_path):
        """Engine leaders append from their own threads: every record
        lands in the index and, whole, in the file."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        n_threads, per_thread = 8, 50

        def writer(thread: int) -> None:
            for i in range(per_thread):
                store.append(_fake_record(f"{thread}-{i}"))

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = {f"key-{t}-{i}" for t in range(n_threads)
                    for i in range(per_thread)}
        assert store.keys() == expected
        assert ResultStore(path).keys() == expected


class TestCurrent:
    def test_only_a_record_of_the_current_definition_counts(self):
        builds = []

        def build():
            builds.append(1)
            return registry.build_circuit("t481")

        registry.register_circuit("counted", build)
        try:
            (task,) = SweepSpec(circuits=("counted",),
                                libraries=("cmos",)).expand()
            store = ResultStore()
            store.append(dict(_fake_record(), task_key=task.task_key))
            assert store.current(task) is None
            assert builds == []  # no content: a miss that builds nothing
            content = registry.content_key("counted", "cmos")
            store.append(dict(_fake_record(), task_key=task.task_key,
                              content=content))
            assert store.current(task) is store.get(task.task_key)
            store.append(dict(_fake_record(), task_key=task.task_key,
                              content="older/definition"))
            assert store.current(task) is None
            assert len(builds) == 1
        finally:
            registry.unregister_circuit("counted", missing_ok=True)


class TestJsonlRobustness:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(_fake_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"task_key": "key-b", "trunc')  # killed writer
        store = ResultStore(path)
        assert store.keys() == {"key-a"}
        assert len(store.records()) == 1

    def test_blank_lines_and_foreign_json_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(_fake_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n[1, 2, 3]\n{}\n")
        store = ResultStore(path)
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
        store = ResultStore(tmp_path / "s.jsonl")
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
        store = ResultStore(tmp_path / "s.jsonl")
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
