"""The library foundry: artifacts, hydration, counters, CLI, service."""

import dataclasses

import pytest

from repro import foundry, obs, registry
from repro.cache import DiskCache
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig

VDDS = (0.8, 0.9)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh enabled artifact store wired in as the default cache."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "0")
    registry.clear_library_cache()
    yield DiskCache(root=root, enabled=True)
    registry.clear_library_cache()


def _foundry_since(before):
    """The foundry's artifact counters gained since ``before``."""
    return obs.section(obs.diff(before), "foundry",
                       foundry.FOUNDRY_COUNTERS)


def _artifact_path(store, name, vdd):
    return (store.root / foundry.FOUNDRY_NAMESPACE /
            f"{foundry.artifact_key(name, vdd)}.json")


def _config(vdd):
    return ExperimentConfig(n_patterns=512, state_patterns=512, vdd=vdd)


class TestArtifact:
    def test_build_save_load_round_trip(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        foundry.save_artifact(artifact, store)
        loaded = foundry.load_artifact("cmos", 0.9, store)
        assert loaded == artifact
        assert loaded.content_hash == artifact.content_hash
        assert loaded.schema_version == foundry.FOUNDRY_SCHEMA_VERSION

    def test_content_hash_excludes_builder_version(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        renumbered = dataclasses.replace(artifact,
                                         builder_version="99.0.0")
        assert renumbered.content_hash == artifact.content_hash

    def test_alias_and_key_address_the_same_artifact(self, store):
        assert (foundry.artifact_key("cmos32", 0.9)
                == foundry.artifact_key("cmos", 0.9))

    def test_hydration_runs_zero_spice_solves(self, store):
        artifact = foundry.build_artifact("cntfet-conventional", 0.9,
                                          cache=store)
        foundry.save_artifact(artifact, store)
        before = obs.snapshot()
        library = foundry.load_library("conventional", 0.9, store)
        assert library is not None
        # Exercise everything an estimate needs: timing, pin and
        # output capacitance, leakage tables.
        from repro.sim.estimator import _LeakageTables
        for cell in library:
            library.timing(cell.name)
            library.pin_capacitances(cell.name)
            library.output_capacitance(cell.name)
        assert library in _LeakageTables._cache
        assert obs.diff(before)["spice.solves"] == 0
        counters = _foundry_since(before)
        assert counters["artifact_hits"] == 1
        assert counters["artifact_misses"] == 0

    def test_hydrated_values_match_live(self, store):
        artifact = foundry.build_artifact("cmos", 0.8, cache=store)
        foundry.save_artifact(artifact, store)
        hydrated = foundry.load_library("cmos", 0.8, store)
        live = registry.build_library("cmos", 0.8)
        for cell in live:
            assert (hydrated.timing(cell.name)
                    == live.timing(cell.name)), cell.name
            assert (hydrated.pin_capacitances(cell.name)
                    == live.pin_capacitances(cell.name)), cell.name


class TestRoundTripBitIdentity:
    def test_paper_benchmarks_at_two_vdds(self, store):
        """Hydrated Session.run equals live float-for-float, 12x2."""
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
                hydrated = session.run(name, "cmos")
                assert hydrated == live[(name, vdd)], (name, vdd)
        assert obs.diff(before)["spice.solves"] == 0
        counters = _foundry_since(before)
        assert counters["artifact_hits"] == len(VDDS)
        assert counters["artifact_misses"] == 0


class TestMissPaths:
    def test_missing_artifact_is_counted_miss(self, store):
        before = obs.snapshot()
        assert foundry.load_library("cmos", 0.9, store) is None
        counters = _foundry_since(before)
        assert counters["artifact_misses"] == 1
        assert counters["artifact_hits"] == 0

    def test_corrupt_artifact_quarantined_clean_miss(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        foundry.save_artifact(artifact, store)
        path = _artifact_path(store, "cmos", 0.9)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        before = obs.snapshot()
        registry.clear_library_cache()
        library = registry.cached_library("cmos", 0.9)
        assert library is not None            # live fallback
        assert obs.diff(before)["disk.quarantined"] >= 1
        counters = _foundry_since(before)
        assert counters["artifact_misses"] >= 1
        assert counters["artifact_hits"] == 0
        assert not path.exists()              # moved aside, not re-read

    def test_stale_schema_version_rejected(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        key = foundry.save_artifact(artifact, store)
        stored = store.get(foundry.FOUNDRY_NAMESPACE, key)
        stored["schema_version"] = foundry.FOUNDRY_SCHEMA_VERSION + 1
        store.put(foundry.FOUNDRY_NAMESPACE, key, stored)
        before = obs.snapshot()
        assert foundry.load_library("cmos", 0.9, store) is None
        counters = _foundry_since(before)
        assert counters["artifact_stale_schema"] == 1
        assert counters["artifact_misses"] == 1

    def test_content_key_mismatch_rejected(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        key = foundry.save_artifact(artifact, store)
        stored = store.get(foundry.FOUNDRY_NAMESPACE, key)
        stored["library_key"] = "0" * 32
        store.put(foundry.FOUNDRY_NAMESPACE, key, stored)
        before = obs.snapshot()
        assert foundry.load_library("cmos", 0.9, store) is None
        assert _foundry_since(before)["artifact_mismatch"] == 1

    def test_truncated_leakage_tables_rejected(self, store):
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        key = foundry.save_artifact(artifact, store)
        stored = store.get(foundry.FOUNDRY_NAMESPACE, key)
        del stored["leakage"]["INV"]
        store.put(foundry.FOUNDRY_NAMESPACE, key, stored)
        before = obs.snapshot()
        assert foundry.load_library("cmos", 0.9, store) is None
        assert _foundry_since(before)["artifact_invalid"] == 1


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
        forced = foundry.characterize(["cmos"], (0.9,), cache=store,
                                      force=True)
        assert forced.counts()["built"] == 1

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
        artifact = foundry.build_artifact("cmos", 0.9, cache=store)
        key = foundry.save_artifact(artifact, store)
        assert foundry.verify_artifact("cmos", 0.9, store)["status"] == "ok"
        stored = store.get(foundry.FOUNDRY_NAMESPACE, key)
        stored["timing"]["INV"][0] *= 2.0
        store.put(foundry.FOUNDRY_NAMESPACE, key, stored)
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
        assert foundry.load_library("cmos", 0.9, exported) is not None
        assert foundry.load_library("conventional", 0.9,
                                    exported) is None
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
        assert row["prebuilt"] is True
        assert [a["schema_version"] for a in row["artifacts"]] \
            == [foundry.FOUNDRY_SCHEMA_VERSION] * 2
        assert all(a["hash"] for a in row["artifacts"])
        assert 0.9 in row["hot_vdds"]
        assert rows["cntfet-np-dynamic"]["artifacts"] == []

    def test_format_helper_renders_rows(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        lines = "\n".join(foundry.format_library_listing(
            foundry.library_listing(store), verbose=True))
        assert "cmos (aliases: cmos32)" in lines
        assert "artifacts: 1 (vdd: 0.9V)" in lines
        assert "schema=v1" in lines


class TestRegistryIntegration:
    def test_cached_library_prefers_artifact(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        registry.clear_library_cache()
        before = obs.snapshot()
        library = registry.cached_library("cmos", 0.9)
        assert obs.diff(before)["spice.solves"] == 0
        assert _foundry_since(before)["artifact_hits"] == 1
        assert registry.cached_library("cmos", 0.9) is library

    def test_artifact_flag_opts_out(self, store):
        foundry.characterize(["cmos"], (0.9,), cache=store)
        entry = registry.library_entry("cmos")
        registry.register_library(
            "cmos", entry.factory, aliases=entry.aliases,
            description=entry.description, artifact=False,
            replace=True)
        try:
            before = obs.snapshot()
            registry.cached_library("cmos", 0.9)
            counters = _foundry_since(before)
            assert counters["artifact_hits"] == 0
            assert counters["artifact_misses"] == 0
        finally:
            registry.register_library(
                "cmos", entry.factory, aliases=entry.aliases,
                description=entry.description, artifact=True,
                replace=True)

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
        section = stats["foundry"]
        for field in ("artifact_hits", "artifact_misses",
                      "artifact_stale_schema", "artifact_mismatch",
                      "artifact_invalid", "spice_solves"):
            assert section[field] == 0, section

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
        hydrated = engine.estimate_request("t481", "cmos")
        assert hydrated.result == live.result
        section = engine.stats()["foundry"]
        assert section["spice_solves"] == 0
        assert section["artifact_hits"] >= 1

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

    def test_libraries_cli_shows_provenance(self, store, capsys):
        from repro.cli import main

        foundry.characterize(["cmos"], (0.9,), cache=store)
        assert main(["libraries"]) == 0
        out = capsys.readouterr().out
        assert "artifacts: 1 (vdd: 0.9V)" in out
        assert "cntfet-np-dynamic" in out
        assert "estimator backends:" in out
