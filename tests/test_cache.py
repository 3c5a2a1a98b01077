"""The persistent characterization cache (repro.cache and its hooks)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache import Canonical, DiskCache, canonical, stable_hash
from repro.devices.parameters import cmos_32nm, cntfet_32nm
from repro.power.pattern_sim import PatternSimulator
from repro.power.characterize import characterize_library
from repro.sim.estimator import _LeakageTables, _library_content_key


class TestStableHash:
    def test_deterministic_across_constructions(self):
        assert stable_hash(cmos_32nm()) == stable_hash(cmos_32nm())

    def test_distinguishes_technologies(self):
        assert stable_hash(cmos_32nm()) != stable_hash(cntfet_32nm())

    def test_any_field_change_changes_key(self):
        base = cntfet_32nm()
        assert stable_hash(base.with_vdd(0.8)) != stable_hash(base)
        nmos = dataclasses.replace(base.nmos, ig_on=base.nmos.ig_on * 2)
        tweaked = dataclasses.replace(base, nmos=nmos,
                                      pmos=nmos.as_polarity("p"))
        assert stable_hash(tweaked) != stable_hash(base)

    def test_plain_structures(self):
        assert stable_hash([1, "a", 0.5]) == stable_hash((1, "a", 0.5))
        assert stable_hash({"b": 1, "a": 2}) == stable_hash({"a": 2, "b": 1})
        assert stable_hash([1]) != stable_hash([2])


def _reference_normalize(value: Any) -> Any:
    """The normalization ``stable_hash`` used before it encoded in one
    pass (kept as the oracle the keys must not drift from)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _reference_normalize(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _reference_normalize(v)
                for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_reference_normalize(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def reference_stable_hash(value: Any) -> str:
    payload = json.dumps(_reference_normalize(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclasses.dataclass(frozen=True)
class _Point:
    x: Any
    label: str = "p"


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_))

_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
        st.builds(_Point, inner, st.text(max_size=4))),
    max_leaves=12)

#: Every type an ExperimentConfig float field accepts.
_NUMBERS = st.one_of(
    st.floats(min_value=0.1, max_value=5.0),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.1, max_value=5.0).map(np.float64),
    st.integers(min_value=1, max_value=5).map(np.int64))


class TestCanonicalEncoding:
    """The one-pass encoder hashes exactly what the reference formula
    (normalize, ``json.dumps``, sha256) hashes."""

    @settings(max_examples=300, deadline=None)
    @given(_NESTED)
    def test_nested_structures_match_the_reference(self, value):
        assert stable_hash(value) == reference_stable_hash(value)

    @settings(max_examples=200, deadline=None)
    @given(vdd=_NUMBERS, frequency=_NUMBERS.map(lambda f: f * 1e9),
           seed=st.one_of(st.integers(0, 10**6),
                          st.integers(0, 10**6).map(np.int64)),
           n_patterns=st.integers(1, 10**6), synthesize=st.booleans(),
           backend=st.sampled_from(["bitsim", "spice-transient"]))
    def test_config_keys_match_the_reference(self, vdd, frequency, seed,
                                             n_patterns, synthesize,
                                             backend):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.flow import CircuitFlowResult
        from repro.schema import (
            TASK_SCHEMA_VERSION, PowerQuery, PowerQuoteReport)

        config = ExperimentConfig(
            vdd=vdd, frequency=frequency, seed=seed, n_patterns=n_patterns,
            synthesize=synthesize, backend=backend)
        query = PowerQuery("t481", "cntfet-generalized", config)
        expected = reference_stable_hash({
            "schema": TASK_SCHEMA_VERSION, "circuit": query.circuit,
            "library": query.library, "config": config.to_dict()})
        assert query.query_key == expected
        assert stable_hash(config) == reference_stable_hash(config)
        flow = CircuitFlowResult("t481", "cntfet-generalized", 10, 1e-9,
                                 1e-6, 2e-7, 3e-8, 1.23e-6, 4e-24)
        report = PowerQuoteReport.from_flow(query, flow)
        assert report.query_key == expected
        assert report.config_hash == reference_stable_hash(config)

    def test_equal_configs_of_different_types_keep_their_own_keys(self):
        """1, 1.0 and np.float64(1.0) compare (and hash) equal, but
        their keys differ: no memo may be keyed by value."""
        from repro.experiments.config import ExperimentConfig
        from repro.schema import PowerQuery

        configs = [ExperimentConfig(vdd=1), ExperimentConfig(vdd=1.0),
                   ExperimentConfig(vdd=np.float64(1.0))]
        assert configs[0] == configs[1] == configs[2]
        keys = [PowerQuery("t481", "cmos", config).query_key
                for config in configs]
        assert len(set(keys)) == 3
        for config, key in zip(configs, keys):
            assert key == reference_stable_hash({
                "schema": 2, "circuit": "t481", "library": "cmos",
                "config": config.to_dict()})

    def test_canonical_is_encoded_once_and_embedded_verbatim(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(vdd=0.8)
        memo = canonical(config)
        assert canonical(config) is memo
        assert isinstance(memo, Canonical)
        assert stable_hash(memo) == stable_hash(config)
        assert stable_hash({"c": memo}) == stable_hash({"c": config})
        # The memo is per instance: an equal config encodes afresh.
        assert canonical(ExperimentConfig(vdd=0.8)) is not memo


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=True)
        cache.put("ns", "key", {"x": [1.5, 2.5]})
        assert cache.get("ns", "key") == {"x": [1.5, 2.5]}

    def test_missing_is_none(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=True)
        assert cache.get("ns", "nope") is None

    def test_corrupt_entry_is_none(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=True)
        cache.put("ns", "key", {"ok": 1})
        path = tmp_path / "ns" / "key.json"
        path.write_text("{not json")
        assert cache.get("ns", "key") is None

    def test_merge_accumulates(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=True)
        cache.merge("ns", "key", {"a": 1})
        merged = cache.merge("ns", "key", {"b": 2})
        assert merged == {"a": 1, "b": 2}
        assert cache.get("ns", "key") == {"a": 1, "b": 2}

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=False)
        cache.put("ns", "key", {"x": 1})
        assert cache.get("ns", "key") is None
        assert not (tmp_path / "ns").exists()

    def test_clear(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=True)
        cache.put("a", "k1", 1)
        cache.put("b", "k2", 2)
        assert cache.clear("a") == 1
        assert cache.get("a", "k1") is None
        assert cache.get("b", "k2") == 2


class TestPatternSimulatorPersistence:
    def test_solves_do_not_grow_on_second_characterization(self, glib):
        simulator = PatternSimulator(glib.tech)
        characterize_library(glib, simulator=simulator)
        solves_after_first = simulator.solves
        assert solves_after_first > 0
        characterize_library(glib, simulator=simulator)
        assert simulator.solves == solves_after_first


class TestLeakageTablesPersistence:
    def test_content_key_tracks_technology(self, mlib):
        from repro.gates.conventional import cmos_library

        assert (_library_content_key(mlib)
                == _library_content_key(cmos_library()))
        scaled = cmos_library(mlib.tech.with_vdd(0.8))
        assert (_library_content_key(scaled)
                != _library_content_key(mlib))

    def test_disk_roundtrip_matches_fresh_build(self, tmp_path, mlib,
                                                monkeypatch):
        from repro import cache as cache_module
        from repro.gates.conventional import cmos_library
        from repro.sim import estimator

        monkeypatch.setenv(cache_module.ENV_CACHE_DISABLE, "0")
        monkeypatch.setenv(cache_module.ENV_CACHE_DIR, str(tmp_path))
        _LeakageTables._cache.clear()
        built = _LeakageTables.for_library(mlib)
        key = _library_content_key(mlib)
        stored = cache_module.default_cache().get(
            estimator._LEAKAGE_NAMESPACE, key)
        assert stored is not None

        fresh_library = cmos_library()  # new instance, same content
        loaded = _LeakageTables.for_library(fresh_library)
        assert loaded is not built  # separate instance, loaded from disk
        for name in built.i_off:
            np.testing.assert_array_equal(built.i_off[name],
                                          loaded.i_off[name])
            np.testing.assert_array_equal(built.i_gate[name],
                                          loaded.i_gate[name])
        _LeakageTables._cache.clear()

    def test_in_memory_reuse_per_library_instance(self, mlib):
        first = _LeakageTables.for_library(mlib)
        assert _LeakageTables.for_library(mlib) is first

    def test_two_cold_processes_characterize_once(self, cold_race,
                                                  monkeypatch):
        """Cross-process single-flight: two processes cold on one
        library build its tables once; the other waits for the
        leader's entry."""
        import time

        from repro.registry import build_library

        expected = _LeakageTables(build_library("cmos", 0.9))
        original = _LeakageTables.__init__

        def slow_init(self, library, stored=None):
            if stored is None:
                time.sleep(0.5)  # hold the lock while the rival arrives
            original(self, library, stored)

        monkeypatch.setattr(_LeakageTables, "__init__", slow_init)

        def cold_tables():
            tables = _LeakageTables.for_library(build_library("cmos", 0.9))
            for name in expected.i_off:
                np.testing.assert_array_equal(tables.i_off[name],
                                              expected.i_off[name])
                np.testing.assert_array_equal(tables.i_gate[name],
                                              expected.i_gate[name])

        diffs = cold_race(cold_tables)
        assert sum(d["leakage.computes"] for d in diffs) == 1
        assert sum(d["disk.flight_leader"] for d in diffs) == 1
        assert sum(d["disk.flight_follower"] for d in diffs) == 1


class TestCacheIntegrity:
    """Checksummed envelopes, quarantine, and the corrupt-read fault."""

    @pytest.fixture(autouse=True)
    def _baseline(self):
        self.before = obs.snapshot()

    def _cache(self, tmp_path):
        return DiskCache(root=tmp_path, enabled=True)

    def _disk(self):
        """The disk tier's counters gained since the test started."""
        return obs.section(obs.diff(self.before), "disk")

    def test_entries_are_checksummed_envelopes(self, tmp_path):
        import json

        cache = self._cache(tmp_path)
        cache.put("ns", "key", {"x": 1})
        payload = json.loads((tmp_path / "ns" / "key.json").read_text())
        assert payload["__repro_cache__"] == 1
        assert len(payload["sha256"]) == 64
        assert payload["value"] == {"x": 1}

    def test_truncated_entry_is_clean_miss_and_quarantined(self, tmp_path):
        """A write killed mid-file must read as a miss, move the debris
        aside, and never poison a future read (the satellite
        regression test)."""
        from repro.cache import QUARANTINE_DIRNAME

        cache = self._cache(tmp_path)
        cache.put("ns", "key", {"big": list(range(100))})
        path = tmp_path / "ns" / "key.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write
        assert cache.get("ns", "key") is None
        assert not path.exists()  # moved aside, not re-read forever
        quarantined = list((tmp_path / QUARANTINE_DIRNAME / "ns").iterdir())
        assert len(quarantined) == 1
        stats = self._disk()
        assert stats["quarantined"] == 1
        assert stats["unparseable"] == 1
        # The miss is clean: a recompute can re-put and read back.
        cache.put("ns", "key", {"big": [1]})
        assert cache.get("ns", "key") == {"big": [1]}

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        import json

        cache = self._cache(tmp_path)
        cache.put("ns", "key", {"x": 1})
        path = tmp_path / "ns" / "key.json"
        payload = json.loads(path.read_text())
        payload["value"] = {"x": 2}  # bit-flipped value, stale checksum
        path.write_text(json.dumps(payload))
        assert cache.get("ns", "key") is None
        assert self._disk()["checksum_mismatch"] == 1

    def test_legacy_entry_is_quarantined(self, tmp_path):
        """An entry without the checksummed envelope cannot be
        verified: a clean miss, moved aside like any corrupt entry."""
        import json

        from repro.cache import QUARANTINE_DIRNAME

        cache = self._cache(tmp_path)
        path = tmp_path / "ns" / "key.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"old": "format"}))  # pre-envelope
        assert cache.get("ns", "key") is None
        assert not path.exists()
        assert len(list((tmp_path / QUARANTINE_DIRNAME / "ns").iterdir())) \
            == 1
        stats = self._disk()
        assert stats["quarantined"] == 1
        assert stats["unparseable"] == 1
        assert stats["verified"] == 0
        cache.put("ns", "key", {"new": "format"})
        assert cache.get("ns", "key") == {"new": "format"}

    def test_verified_reads_are_counted(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("ns", "key", [1, 2])
        cache.get("ns", "key")
        cache.get("ns", "key")
        assert self._disk()["verified"] == 2

    def test_corrupt_read_fault_triggers_quarantine(self, tmp_path):
        from repro import faults

        cache = self._cache(tmp_path)
        cache.put("ns", "key", {"x": 1})
        cache.put("ns", "other", {"y": 2})
        faults.activate("cache.corrupt_read:times=1,match=ns/key")
        try:
            assert cache.get("ns", "key") is None  # garbled once
            assert cache.get("ns", "other") == {"y": 2}  # no match
            assert self._disk()["quarantined"] == 1
            # The budget is spent: a recompute survives.
            cache.put("ns", "key", {"x": 1})
            assert cache.get("ns", "key") == {"x": 1}
        finally:
            faults.deactivate()


class TestLadder:
    """LRU -> checksummed disk -> single-flight compute, one namespace."""

    def _ladder(self, maxsize=4):
        from repro.cache import Ladder

        def decode(payload, subject):
            value = payload["value"]
            return value if value == subject else None

        return Ladder("test-ladder", lambda value: {"value": value},
                      decode, maxsize=maxsize)

    def _get(self, ladder, disk, value=7):
        computed = []

        def compute():
            computed.append(True)
            return value

        assert ladder.get("key", value, compute, disk) == value
        return bool(computed)

    def _counts(self, before):
        return obs.section(obs.diff(before), "test-ladder",
                           ("hits", "misses", "disk_hits", "computes"))

    def test_tiers_in_order(self, tmp_path):
        disk = DiskCache(root=tmp_path, enabled=True)
        ladder = self._ladder()
        before = obs.snapshot()
        assert self._get(ladder, disk)           # cold: computes
        assert disk.get("test-ladder", "key") == {"value": 7}
        assert not self._get(ladder, disk)       # LRU hit
        ladder.lru.clear()
        assert not self._get(ladder, disk)       # disk hit
        assert self._counts(before) == {"hits": 1, "misses": 2,
                                        "disk_hits": 1, "computes": 1}

    def test_entry_that_does_not_fit_is_recomputed(self, tmp_path):
        disk = DiskCache(root=tmp_path, enabled=True)
        disk.put("test-ladder", "key", {"value": 8})    # fits another
        disk.put("test-ladder", "other", {"junk": 1})   # decode raises
        ladder = self._ladder()
        assert self._get(ladder, disk, value=7)
        assert disk.get("test-ladder", "key") == {"value": 7}
        computed = []
        assert ladder.get("other", 1, lambda: computed.append(1) or 1,
                          disk) == 1
        assert computed == [1]

    def test_zero_size_lru_sends_every_lookup_to_disk(self, tmp_path):
        disk = DiskCache(root=tmp_path, enabled=True)
        ladder = self._ladder(maxsize=0)
        before = obs.snapshot()
        assert self._get(ladder, disk)
        assert not self._get(ladder, disk)
        assert not self._get(ladder, disk)
        assert self._counts(before) == {"hits": 0, "misses": 3,
                                        "disk_hits": 2, "computes": 1}

    def test_disabled_disk_computes_behind_the_lru(self, tmp_path):
        disk = DiskCache(root=tmp_path, enabled=False)
        ladder = self._ladder()
        assert self._get(ladder, disk)
        assert not self._get(ladder, disk)
        assert not (tmp_path / "_locks").exists()


class TestSingleFlight:
    """Cross-process single-flight over the disk cache's lock files."""

    def _cache(self, tmp_path):
        return DiskCache(root=tmp_path, enabled=True)

    def test_leader_computes_once_and_unlocks(self, tmp_path):
        from repro.cache import single_flight

        cache = self._cache(tmp_path)
        computed = []

        def compute():
            computed.append(True)
            cache.put("ns", "key", {"v": 42})
            return {"v": 42}

        def probe():
            return cache.get("ns", "key")

        before = obs.snapshot()
        assert single_flight(cache, "ns", "key", compute, probe) \
            == {"v": 42}
        assert computed == [True]
        assert obs.diff(before)["disk.flight_leader"] == 1
        # The lock is gone: a second call probes the entry instead of
        # recomputing.
        assert not cache.lock_path("ns", "key").exists()
        assert single_flight(cache, "ns", "key", compute, probe) \
            == {"v": 42}
        assert computed == [True]

    def test_follower_waits_for_leader_entry(self, tmp_path):
        import threading
        import time

        from repro.cache import single_flight

        cache = self._cache(tmp_path)
        # Simulate a live leader: hold the lock from this very
        # process (the owner pid is alive, so it is never stale),
        # then publish the entry and release.
        assert cache.try_lock("ns", "key")

        def leader():
            time.sleep(0.1)
            cache.put("ns", "key", {"v": 7})
            cache.unlock("ns", "key")

        thread = threading.Thread(target=leader)
        thread.start()
        before = obs.snapshot()

        def compute():
            raise AssertionError("the follower must never compute")

        value = single_flight(cache, "ns", "key", compute,
                              lambda: cache.get("ns", "key"),
                              poll_s=0.01)
        thread.join()
        assert value == {"v": 7}
        assert obs.diff(before)["disk.flight_follower"] == 1

    def test_stale_lock_of_dead_process_is_taken_over(self, tmp_path):
        import json
        import multiprocessing

        from repro.cache import single_flight

        cache = self._cache(tmp_path)
        # A real dead pid: fork a child that exits immediately.
        proc = multiprocessing.get_context("fork").Process(target=lambda: None)
        proc.start()
        dead_pid = proc.pid
        proc.join()
        assert cache.try_lock("ns", "key")
        lock = cache.lock_path("ns", "key")
        payload = json.loads(lock.read_text())
        payload["pid"] = dead_pid
        lock.write_text(json.dumps(payload))
        assert cache.lock_stale("ns", "key", stale_s=3600.0)

        computed = []

        def compute():
            computed.append(True)
            cache.put("ns", "key", {"v": 1})
            return {"v": 1}

        before = obs.snapshot()
        value = single_flight(cache, "ns", "key", compute,
                              lambda: cache.get("ns", "key"),
                              poll_s=0.01)
        assert value == {"v": 1}
        assert computed == [True]
        assert obs.diff(before)["disk.flight_takeover"] == 1

    def test_live_lock_is_not_stale_by_age(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.try_lock("ns", "key")
        # Our own pid is alive on this host: age must not matter.
        assert not cache.lock_stale("ns", "key", stale_s=0.0)
        cache.unlock("ns", "key")

    def test_wait_timeout_computes_redundantly(self, tmp_path):
        from repro.cache import single_flight

        cache = self._cache(tmp_path)
        assert cache.try_lock("ns", "key")  # held, live, never freed

        before = obs.snapshot()
        value = single_flight(cache, "ns", "key",
                              lambda: {"v": "redundant"},
                              lambda: cache.get("ns", "key"),
                              poll_s=0.005, max_wait_s=0.05)
        assert value == {"v": "redundant"}
        assert obs.diff(before)["disk.flight_timeout"] == 1
        cache.unlock("ns", "key")

    def test_disabled_cache_computes_directly(self, tmp_path):
        from repro.cache import single_flight

        cache = DiskCache(root=tmp_path, enabled=False)
        assert single_flight(cache, "ns", "key", lambda: 5,
                             lambda: None) == 5
        assert not (tmp_path / "_locks").exists()
