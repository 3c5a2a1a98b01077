"""Sweep reporting pivots and the ``repro sweep`` CLI commands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.sweep.report import render_csv, render_table1, render_vdd_series
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore

#: One small grid shared (session-cached via lru_cache-warmed workers)
#: by every reporting test.
SPEC = SweepSpec(circuits=("t481",), libraries=("generalized", "cmos"),
                 vdd=(0.8, 0.9), n_patterns=(1024,))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "store.jsonl"
    store = ResultStore(path)
    run_sweep(SPEC, store)
    return store


class TestReportPivots:
    def test_table1_pivot(self, store):
        text = render_table1(store.records())
        assert "### VDD=0.8 V, f=1 GHz, fanout=3, 1024 patterns" in text
        assert "### VDD=0.9 V" in text
        assert "**cntfet-generalized**" in text and "**cmos**" in text
        assert "| t481 |" in text

    def test_vdd_series_pivot(self, store):
        text = render_vdd_series(store.records())
        assert "### t481 on cntfet-generalized" in text
        assert "### t481 on cmos" in text
        # One row per supply voltage, ascending.
        block = text.split("### t481 on cmos")[1]
        assert block.index("| 0.8 |") < block.index("| 0.9 |")

    def test_csv_dump(self, store):
        text = render_csv(store.records())
        lines = text.strip().splitlines()
        assert lines[0].startswith("circuit,library,vdd,")
        assert len(lines) == 1 + SPEC.size()

    def test_backends_never_merge(self, store):
        """Records from different estimator backends stay in separate
        blocks/series and are never averaged together."""
        import copy

        records = [record for record in store.records()
                   if record["config"]["vdd"] == 0.9]
        other = []
        for record in records:
            clone = copy.deepcopy(record)
            clone["config"]["backend"] = "spice-transient"
            clone["task_key"] = record["task_key"] + "-spice"
            other.append(clone)
        mixed = records + other
        table = render_table1(mixed)
        assert ", spice-transient" in table
        # Two point blocks, each listing t481 exactly once per library.
        for block in table.split("### ")[1:]:
            assert block.count("| t481 |") == 2  # two libraries
            assert "Average" not in block        # never across backends
        series = render_vdd_series(mixed)
        assert series.count("### t481 on cmos") == 2
        csv_text = render_csv(mixed)
        assert "backend" in csv_text.splitlines()[0]
        assert csv_text.count("spice-transient") == len(other)

    def test_legacy_records_without_backend_field(self, store):
        """Pre-backend stores report as bitsim (no crash, no suffix)."""
        import copy

        legacy = []
        for record in store.records():
            clone = copy.deepcopy(record)
            del clone["config"]["backend"]
            legacy.append(clone)
        assert "spice" not in render_table1(legacy)
        assert render_csv(legacy).count(",bitsim,") == len(legacy)

    def test_empty_store_rejected(self, tmp_path):
        empty = ResultStore(tmp_path / "empty.jsonl")
        with pytest.raises(ExperimentError, match="no points"):
            render_table1(empty.records())
        with pytest.raises(ExperimentError, match="no points"):
            render_vdd_series(empty.records())


class TestSweepCli:
    def test_parser_accepts_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "--vdd", "0.8,0.9", "--circuits", "t481",
             "--store", "s.jsonl", "--jobs", "2", "--quiet"])
        assert args.vdd == "0.8,0.9"
        assert args.store == "s.jsonl"
        assert args.jobs == 2

    def test_run_report_status_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        grid = ["--circuits", "t481", "--libraries", "cmos",
                "--vdd", "0.8,0.9", "--patterns", "512"]
        assert main(["sweep", "run", *grid, "--store", store,
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed=2" in out and "cached=0" in out

        # Re-run: everything served from the store.
        assert main(["sweep", "run", *grid, "--store", store,
                     "--quiet"]) == 0
        assert "executed=0" in capsys.readouterr().out

        assert main(["sweep", "status", *grid, "--store", store]) == 0
        assert "missing=0" in capsys.readouterr().out

        assert main(["sweep", "report", "--store", store,
                     "--pivot", "vdd"]) == 0
        assert "t481 on cmos" in capsys.readouterr().out

    def test_status_incomplete_exits_nonzero(self, tmp_path, capsys):
        store = str(tmp_path / "missing.jsonl")
        assert main(["sweep", "status", "--circuits", "t481",
                     "--libraries", "cmos", "--patterns", "512",
                     "--store", store]) == 1
        assert "missing=1" in capsys.readouterr().out

    def test_spec_emit_and_reuse(self, tmp_path, capsys):
        spec_file = str(tmp_path / "spec.json")
        assert main(["sweep", "spec", "--circuits", "t481",
                     "--vdd", "0.8", "--patterns", "512",
                     "--libraries", "cmos", "-o", spec_file]) == 0
        assert "1 points" in capsys.readouterr().out

        # Axis flags override the spec file's entries.
        store = str(tmp_path / "spec-run.jsonl")
        assert main(["sweep", "run", "--spec", spec_file,
                     "--vdd", "0.9", "--store", store, "--quiet"]) == 0
        assert "total=1" in capsys.readouterr().out
        loaded = ResultStore(store)
        assert [record["config"]["vdd"]
                for record in loaded.records()] == [0.9]

    def test_report_to_file_and_csv(self, tmp_path, capsys):
        store = str(tmp_path / "csv.jsonl")
        assert main(["sweep", "run", "--circuits", "t481", "--libraries",
                     "cmos", "--patterns", "512", "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        out_file = str(tmp_path / "dump.csv")
        assert main(["sweep", "report", "--store", store,
                     "--format", "csv", "-o", out_file]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out_file, "r", encoding="utf-8") as handle:
            header = handle.readline()
        assert header.startswith("circuit,library,vdd,")

    def test_report_on_missing_store_is_a_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["sweep", "report", "--store",
                  str(tmp_path / "missing.jsonl")])

    def test_status_on_sqlite_store_is_a_one_line_error(self, tmp_path):
        old = tmp_path / "old.sqlite"
        old.write_bytes(b"SQLite format 3\0" + bytes(84))
        with pytest.raises(SystemExit, match="is a SQLite result store"):
            main(["sweep", "status", "--circuits", "t481", "--libraries",
                  "cmos", "--patterns", "512", "--store", str(old)])

    def test_bad_synthesize_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "run", "--synthesize", "maybe"])
