"""The library foundry: ladder entries, index rows, CLI, service."""

import numpy as np
import pytest

from repro import foundry, obs, registry
from repro.cache import DiskCache
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.sim.estimator import (
    _LEAKAGE_LADDER,
    _LeakageTables,
    _library_content_key,
)

VDDS = (0.8, 0.9)
LEAKAGE = _LEAKAGE_LADDER.namespace


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh enabled store wired in as the default cache."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "0")
    registry.clear_library_cache()
    yield DiskCache(root=root, enabled=True)
    registry.clear_library_cache()


def _leakage_since(before):
    """Leakage-ladder disk hits, computes and SPICE solves since
    ``before``."""
    delta = obs.diff(before)
    return {"disk_hits": delta["leakage.disk_hits"],
            "computes": delta["leakage.computes"],
            "spice_solves": delta["spice.solves"]}


def _ladder_key(name, vdd):
    return _library_content_key(registry.build_library(name, vdd))


def _entry_path(store, name, vdd):
    return store.root / LEAKAGE / f"{_ladder_key(name, vdd)}.json"


def _assert_tables_equal(a, b):
    assert set(a.i_off) == set(b.i_off)
    for name in a.i_off:
        np.testing.assert_array_equal(a.i_off[name], b.i_off[name])
        np.testing.assert_array_equal(a.i_gate[name], b.i_gate[name])


def _config(vdd):
    return ExperimentConfig(n_patterns=512, state_patterns=512, vdd=vdd)


class TestArtifact:
    def test_build_save_load_round_trip(self, store):
        """A build stores the tables under their ladder key and indexes
        the slot with its provenance."""
        foundry.characterize(["cmos"], (0.9,), cache=store)
        library = registry.build_library("cmos", 0.9)
        key = _library_content_key(library)
        stored = _LEAKAGE_LADDER.stored(key, library, store)
        _assert_tables_equal(stored, _LeakageTables(library))
        row = foundry.store_index(store)[foundry.artifact_key("cmos", 0.9)]
        assert row["leakage_key"] == key
        assert row["library"] == "cmos" and row["vdd"] == 0.9
        assert row["cells"] == len(library)
        assert row["hash"] == foundry.verify_artifact(
            "cmos", 0.9, store)["rebuilt_hash"]

    def test_alias_and_key_address_the_same_artifact(self, store):
        assert (foundry.artifact_key("cmos32", 0.9)
                == foundry.artifact_key("cmos", 0.9))

    def test_hydration_runs_zero_spice_solves(self, store):
        """A fresh library finds its tables in the store: one disk hit
        of the leakage ladder, no SPICE."""
        foundry.characterize(["cntfet-conventional"], (0.9,), cache=store)
        before = obs.snapshot()
        library = registry.build_library("conventional", 0.9)
        for cell in library:
            library.timing(cell.name)
            library.pin_capacitances(cell.name)
            library.output_capacitance(cell.name)
        _LeakageTables.for_library(library)
        assert _leakage_since(before) == {"disk_hits": 1, "computes": 0,
                                          "spice_solves": 0}

    def test_hydrated_values_match_live(self, store):
        foundry.characterize(["cmos"], (0.8,), cache=store)
        stored = _LeakageTables.for_library(registry.build_library("cmos",
                                                                   0.8))
        _assert_tables_equal(stored,
                             _LeakageTables(registry.build_library("cmos",
                                                                   0.8)))


class TestRoundTripBitIdentity:
    def test_paper_benchmarks_at_two_vdds(self, store):
        """A store built by the foundry answers Session.run exactly as
        live characterization does, float for float, 12x2."""
        from repro.api import Session
        from repro.sim import activity

        benchmarks = registry.paper_benchmarks()
        assert len(benchmarks) == 12
        live = {}
        for vdd in VDDS:
            session = Session(_config(vdd))
            for name in benchmarks:
                live[(name, vdd)] = session.run(name, "cmos")

        report = foundry.characterize(["cmos"], VDDS, cache=store)
        assert report.counts()["failed"] == 0

        registry.clear_library_cache()
        activity.LADDER.lru.clear()
        before = obs.snapshot()
        for vdd in VDDS:
            session = Session(_config(vdd))
            for name in benchmarks:
                stored = session.run(name, "cmos")
                assert stored == live[(name, vdd)], (name, vdd)
        assert _leakage_since(before) == {"disk_hits": len(VDDS),
                                          "computes": 0, "spice_solves": 0}


class TestMissPaths:
    def test_missing_artifact_is_counted_miss(self, store):
        before = obs.snapshot()
        _LeakageTables.for_library(registry.build_library("cmos", 0.9))
        counters = _leakage_since(before)
        assert counters["computes"] == 1
        assert counters["disk_hits"] == 0
        assert counters["spice_solves"] > 0

    def test_corrupt_artifact_quarantined_clean_miss(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        path = _entry_path(store, "cmos", 0.9)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        before = obs.snapshot()
        library = registry.cached_library("cmos", 0.9)
        tables = _LeakageTables.for_library(library)
        assert obs.diff(before)["disk.quarantined"] == 1
        assert _leakage_since(before)["computes"] == 1    # live fallback
        _assert_tables_equal(tables, _LeakageTables(library))
        assert path.exists()                   # rewritten by the recompute
        assert foundry.verify_artifact("cmos", 0.9, store)["status"] == "ok"

    def test_truncated_leakage_tables_rejected(self, store):
        """An entry missing a cell passes its checksum but not the
        decode against the library: recomputed and overwritten."""
        foundry.characterize(["cmos"], (0.9,), cache=store)
        key = _ladder_key("cmos", 0.9)
        stored = store.get(LEAKAGE, key)
        del stored["INV"]
        store.put(LEAKAGE, key, stored)
        before = obs.snapshot()
        _LeakageTables.for_library(registry.build_library("cmos", 0.9))
        assert _leakage_since(before)["computes"] == 1
        assert "INV" in store.get(LEAKAGE, key)


class TestCharacterize:
    def test_disabled_cache_refused(self, store):
        with pytest.raises(ExperimentError, match="disabled"):
            foundry.characterize(["cmos"], (0.9,),
                                 cache=DiskCache(root=store.root,
                                                 enabled=False))

    def test_resumable_and_force(self, store):
        first = foundry.characterize(["cmos", "cmos32"], (0.9,),
                                     cache=store)
        assert first.counts() == {"built": 1, "cached": 0, "failed": 0}
        second = foundry.characterize(["cmos"], (0.9,), cache=store)
        assert second.counts()["cached"] == 1
        before = obs.snapshot()
        forced = foundry.characterize(["cmos"], (0.9,), cache=store,
                                      force=True)
        assert forced.counts()["built"] == 1
        assert obs.diff(before)["spice.solves"] > 0
        assert forced.outcomes[0].hash == first.outcomes[0].hash

    def test_live_entry_is_cached_and_indexed(self, store):
        """A cold live worker and a build write the same entry: the
        build finds it, solves nothing and indexes it."""
        _LeakageTables.for_library(registry.build_library("cmos", 0.9))
        assert foundry.store_index(store) == {}
        before = obs.snapshot()
        report = foundry.characterize(["cmos"], (0.9,), cache=store)
        assert report.counts()["cached"] == 1
        assert obs.diff(before)["spice.solves"] == 0
        assert [row["library"] for row in foundry.store_index(store).values()] \
            == ["cmos"]

    def test_all_registered_libraries_are_build_targets(self, store):
        report = foundry.characterize(vdd_points=(0.9,), cache=store)
        built = {outcome.library for outcome in report.outcomes}
        assert built == set(registry.available_libraries())
        assert "cntfet-np-dynamic" in built
        assert report.counts()["failed"] == 0

    def test_report_renders_greppable_summary(self, store):
        report = foundry.characterize(["cmos"], (0.9,), cache=store)
        text = report.render()
        assert "built=1" in text
        assert "failed=0" in text


class TestVerifyAndExport:
    def test_verify_ok_and_mismatch(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        assert foundry.verify_artifact("cmos", 0.9, store)["status"] == "ok"
        key = _ladder_key("cmos", 0.9)
        stored = store.get(LEAKAGE, key)
        stored["INV"]["i_off"][0] *= 2.0
        store.put(LEAKAGE, key, stored)
        outcome = foundry.verify_artifact("cmos", 0.9, store)
        assert outcome["status"] == "mismatch"
        assert outcome["stored_hash"] != outcome["rebuilt_hash"]

    def test_verify_missing(self, store):
        assert (foundry.verify_artifact("cmos", 0.9, store)["status"]
                == "missing")

    def test_export_standalone_store(self, store, tmp_path):
        foundry.characterize(["cmos", "conventional"], (0.9,),
                             cache=store)
        target = tmp_path / "export"
        assert foundry.export_store(str(target), ["cmos"],
                                    cache=store) == 1
        exported = DiskCache(root=target, enabled=True)
        cmos = registry.build_library("cmos", 0.9)
        conventional = registry.build_library("conventional", 0.9)
        assert _LEAKAGE_LADDER.stored(_library_content_key(cmos), cmos,
                                      exported) is not None
        assert _LEAKAGE_LADDER.stored(_library_content_key(conventional),
                                      conventional, exported) is None
        index = foundry.store_index(exported)
        assert len(index) == 1


class TestListing:
    def test_listing_carries_provenance(self, store):
        foundry.characterize(["cmos"], VDDS, cache=store)
        registry.cached_library("cmos", 0.9)
        rows = {row["key"]: row
                for row in foundry.library_listing(store)}
        row = rows["cmos"]
        assert row["characterized_vdds"] == [0.8, 0.9]
        assert [a["leakage_key"] for a in row["artifacts"]] \
            == [_ladder_key("cmos", vdd) for vdd in VDDS]
        assert all(a["hash"] for a in row["artifacts"])
        assert 0.9 in row["hot_vdds"]
        assert rows["cntfet-np-dynamic"]["artifacts"] == []

    def test_format_helper_renders_rows(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        lines = "\n".join(foundry.format_library_listing(
            foundry.library_listing(store), verbose=True))
        assert "cmos (aliases: cmos32)" in lines
        assert "artifacts: 1 (vdd: 0.9V)" in lines
        assert f"leakage/{_ladder_key('cmos', 0.9)}" in lines


class TestRegistryIntegration:
    def test_cached_library_prefers_artifact(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        registry.clear_library_cache()
        before = obs.snapshot()
        library = registry.cached_library("cmos", 0.9)
        _LeakageTables.for_library(library)
        assert _leakage_since(before) == {"disk_hits": 1, "computes": 0,
                                          "spice_solves": 0}
        assert registry.cached_library("cmos", 0.9) is library

    def test_cached_library_vdds_tracks_hot_slots(self, store):
        registry.cached_library("cmos", 0.8)
        registry.cached_library("cmos")
        assert set(registry.cached_library_vdds("cmos32")) \
            == {0.8, None}
        registry.clear_library_cache("cmos")
        assert registry.cached_library_vdds("cmos") == []


class TestEngineSurface:
    def test_stats_grows_foundry_section(self, store, tiny_config):
        from repro.api import Session
        from repro.serve import Engine

        engine = Engine(Session(tiny_config))
        stats = engine.stats()
        assert stats["foundry"] == {"spice_solves": 0}
        assert stats["caches"]["leakage"] == {"disk_hits": 0,
                                              "computes": 0}

    def test_prebuilt_server_answers_with_zero_solves(self, store):
        from repro.api import Session
        from repro.serve import Engine

        config = _config(0.9)
        foundry.characterize(["cmos"], (0.9,), cache=store)
        live = Engine(Session(config)).estimate_request("t481", "cmos")

        registry.clear_library_cache()
        from repro.sim import activity
        activity.LADDER.lru.clear()
        engine = Engine(Session(config))
        prebuilt = engine.estimate_request("t481", "cmos")
        assert prebuilt.result == live.result
        stats = engine.stats()
        assert stats["foundry"]["spice_solves"] == 0
        assert stats["caches"]["leakage"] == {"disk_hits": 1,
                                              "computes": 0}

    def test_libraries_payload_shares_listing(self, store):
        from repro.serve import Engine

        foundry.characterize(["cmos"], (0.9,), cache=store)
        rows = {row["key"]: row for row in Engine.libraries()}
        assert rows["cmos"]["characterized_vdds"] == [0.9]
        assert rows["cmos"]["artifacts"][0]["hash"]


class TestFoundryCli:
    def test_build_list_verify_export(self, store, tmp_path, capsys):
        from repro.cli import main

        root = str(store.root)
        assert main(["foundry", "build", "--libraries", "cmos",
                     "--vdd", "0.9", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "built=1" in out

        assert main(["foundry", "list", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "artifacts: 1 (vdd: 0.9V)" in out

        assert main(["foundry", "verify", "--libraries", "cmos",
                     "--vdd", "0.9", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "0 problem(s)" in out

        # With no axes, verify covers exactly what the store holds.
        assert main(["foundry", "verify", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "cmos @ 0.9V" in out
        assert "0 problem(s)" in out
        assert "native" not in out

        target = str(tmp_path / "exported")
        assert main(["foundry", "export", target, "--cache-dir",
                     root]) == 0
        out = capsys.readouterr().out
        assert "exported 1 artifact(s)" in out
        exported = DiskCache(root=tmp_path / "exported", enabled=True)
        assert len(foundry.store_index(exported)) == 1

    def test_verify_exits_one_on_mismatch(self, store, capsys):
        from repro.cli import main

        foundry.characterize(["cmos"], (0.9,), cache=store)
        key = _ladder_key("cmos", 0.9)
        stored = store.get(LEAKAGE, key)
        stored["INV"]["i_gate"][0] += 1e-12
        store.put(LEAKAGE, key, stored)
        assert main(["foundry", "verify", "--cache-dir",
                     str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "mismatch" in out and "1 problem(s)" in out

    def test_libraries_cli_shows_provenance(self, store, capsys):
        from repro.cli import main

        foundry.characterize(["cmos"], (0.9,), cache=store)
        assert main(["libraries"]) == 0
        out = capsys.readouterr().out
        assert "artifacts: 1 (vdd: 0.9V)" in out
        assert "cntfet-np-dynamic" in out
        assert "estimator backends:" in out
