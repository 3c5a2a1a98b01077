"""The serving engine: cache statuses, counters, warm-path guarantees,
coalescing, store warm-start and answers keyed by the content of the
circuit and library definitions."""

import threading
import time

import pytest

from repro import obs, registry
from repro.api import Session
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import MAPPED_NETLISTS
from repro.serve import Engine
from repro.sim import activity


@pytest.fixture
def engine(tiny_config):
    return Engine(Session(tiny_config))


class TestEngineCaching:
    @pytest.fixture(autouse=True)
    def cold_process(self):
        """A fresh engine's first query misses the library and netlist
        caches only if the process-wide memos are empty: empty them."""
        registry.clear_library_cache()
        MAPPED_NETLISTS.clear()

    def test_cold_then_hot(self, engine, tiny_config):
        first = engine.estimate_request("t481", "cmos")
        second = engine.estimate_request("t481", "cmos")
        assert first.cache_status == "cold"
        assert second.cache_status == "hot"
        assert second.result == first.result
        assert engine.counters["results.cold"] == 1
        assert engine.counters["results.hot"] == 1

    def test_warm_repeat_skips_synthesis_and_characterization(
            self, engine):
        """The acceptance counter check: a repeated identical query
        touches no cache below the result layer."""
        engine.estimate_request("t481", "cmos")
        stats = engine.stats()["caches"]
        assert stats["netlists"]["misses"] == 1
        assert stats["libraries"]["misses"] == 1
        engine.estimate_request("t481", "cmos")
        stats = engine.stats()["caches"]
        # No further netlist/library traffic at all — the repeat was
        # answered entirely from the result cache.
        assert stats["netlists"]["misses"] + stats["netlists"]["hits"] == 1
        assert stats["libraries"]["misses"] + stats["libraries"]["hits"] \
            == 1
        assert stats["results"]["hits"] == 1

    def test_estimation_knob_change_reuses_netlist(self, engine,
                                                   tiny_config):
        """Frequency only affects estimation: re-estimate, don't re-map."""
        engine.estimate_request("t481", "cmos")
        changed = engine.estimate_request(
            "t481", "cmos",
            ExperimentConfig(frequency=2.0e9,
                             n_patterns=tiny_config.n_patterns,
                             state_patterns=tiny_config.state_patterns))
        assert changed.cache_status == "cold"
        stats = engine.stats()["caches"]
        assert stats["netlists"]["misses"] == 1
        assert stats["netlists"]["hits"] == 1
        assert stats["libraries"]["hits"] == 1

    def test_remap_free_requery_does_zero_bitsim_work(self, tiny_config):
        """The regression lock for the activity split: a second query
        that changes only pricing knobs (frequency here) must be served
        from the stats cache — not one bit-parallel pattern simulated."""
        activity.LADDER.lru.clear()
        before = obs.snapshot()
        engine = Engine(Session(tiny_config))
        engine.estimate_request("t481", "cmos")
        simulated = obs.diff(before)["activity.computes"]
        assert simulated >= 1
        requery = engine.estimate_request(
            "t481", "cmos",
            ExperimentConfig(frequency=2.0e9,
                             n_patterns=tiny_config.n_patterns,
                             state_patterns=tiny_config.state_patterns))
        assert requery.cache_status == "cold"  # new result key...
        assert obs.diff(before)["activity.computes"] == simulated  # no sim
        counters = engine.stats()["counters"]
        assert counters["stats.hot"] >= 1
        assert counters["stats.cold"] >= 1
        caches = engine.stats()["caches"]
        assert caches["stats"]["hits"] >= 1

    def test_vdd_change_remaps(self, engine, tiny_config):
        engine.estimate_request("t481", "cmos")
        engine.estimate_request(
            "t481", "cmos",
            ExperimentConfig(vdd=0.8,
                             n_patterns=tiny_config.n_patterns,
                             state_patterns=tiny_config.state_patterns))
        stats = engine.stats()["caches"]
        assert stats["netlists"]["misses"] == 2
        assert stats["libraries"]["misses"] == 2

    def test_alias_and_canonical_share_one_entry(self, engine):
        cold = engine.estimate_request("t481", "generalized")
        via_key = engine.estimate_request("t481", "cntfet-generalized")
        assert cold.cache_status == "cold"
        assert via_key.cache_status == "hot"
        assert via_key.library == "cntfet-generalized"

    def test_bit_identical_to_session_run(self, engine, tiny_config):
        report = engine.estimate_request("C1355", "conventional")
        direct = Session(tiny_config).run("C1355", "conventional")
        assert report.result == direct

    def test_unknown_names_rejected(self, engine):
        with pytest.raises(ExperimentError, match="unknown circuit"):
            engine.estimate_request("nope", "cmos")
        with pytest.raises(ExperimentError, match="unknown library"):
            engine.estimate_request("t481", "nope")

    def test_result_lru_evicts(self, tiny_config):
        engine = Engine(Session(tiny_config))
        engine._results.maxsize = 1
        engine.estimate_request("t481", "cmos")
        engine.estimate_request("t481", "generalized")  # evicts the first
        again = engine.estimate_request("t481", "cmos")
        assert again.cache_status == "cold"
        # ... but the netlist/library layers still made it cheap.
        assert engine.stats()["caches"]["netlists"]["hits"] == 1


class TestEngineBatch:
    def test_batch_matches_single_queries_in_order(self, tiny_config):
        from repro.schema import PowerQuery

        engine = Engine(Session(tiny_config))
        configs = [ExperimentConfig(frequency=f,
                                    n_patterns=tiny_config.n_patterns,
                                    state_patterns=tiny_config
                                    .state_patterns)
                   for f in (0.5e9, 1.0e9, 2.0e9)]
        queries = [PowerQuery(circuit="t481", library="cmos",
                              config=config) for config in configs]
        reports = engine.estimate_batch(queries)
        assert [r.config.frequency for r in reports] == \
            [0.5e9, 1.0e9, 2.0e9]
        for query, report in zip(queries, reports):
            assert report.result == engine.estimate(query).result
        counters = engine.stats()["counters"]
        assert counters["batch.requests"] == 1
        assert counters["batch.queries"] == 3

    def test_batch_grid_simulates_once(self, tiny_config):
        """The server-side grouping guarantee: an operating-point grid
        over one circuit costs one bit-parallel simulation."""
        from repro.schema import PowerQuery

        activity.LADDER.lru.clear()
        before = obs.snapshot()
        engine = Engine(Session(tiny_config))
        queries = [PowerQuery(circuit="t481", library="generalized",
                              config=ExperimentConfig(
                                  frequency=f, fanout=fo,
                                  n_patterns=tiny_config.n_patterns,
                                  state_patterns=tiny_config
                                  .state_patterns))
                   for f in (0.5e9, 1.0e9, 2.0e9) for fo in (1, 3)]
        reports = engine.estimate_batch(queries)
        assert len(reports) == 6
        assert obs.diff(before)["activity.computes"] == 1
        assert engine.stats()["counters"]["stats.cold"] == 1

    def test_batch_interleaved_groups_still_group(self, tiny_config):
        """Queries arriving interleaved across circuits are re-ordered
        by activity group server-side (answers stay in input order)."""
        from repro.schema import PowerQuery

        activity.LADDER.lru.clear()
        before = obs.snapshot()
        engine = Engine(Session(tiny_config))
        frequencies = (0.5e9, 1.0e9)
        queries = [PowerQuery(circuit=circuit, library="cmos",
                              config=ExperimentConfig(
                                  frequency=f,
                                  n_patterns=tiny_config.n_patterns,
                                  state_patterns=tiny_config
                                  .state_patterns))
                   for f in frequencies
                   for circuit in ("t481", "C1908")]
        reports = engine.estimate_batch(queries)
        assert [r.circuit for r in reports] == ["t481", "C1908",
                                               "t481", "C1908"]
        assert obs.diff(before)["activity.computes"] == 2


    def test_batch_is_bounded_by_one_deadline(self, tiny_config,
                                              tmp_path):
        """The tightest deadline_ms bounds the whole request from its
        arrival: three points that each price well inside the budget
        overrun it together, and the aborted batch writes nothing."""
        from dataclasses import replace

        from repro.errors import DeadlineExceeded
        from repro.schema import PowerQuery
        from repro.sweep.store import ResultStore

        path = tmp_path / "serve.jsonl"
        engine = Engine(Session(tiny_config), store=path)
        original = engine._price

        def slow_price(queries, deadline):
            time.sleep(0.08 * len(queries))
            return original(queries, deadline)

        engine._price = slow_price
        queries = [PowerQuery("t481", "cmos",
                              replace(tiny_config, frequency=frequency),
                              deadline_ms=budget)
                   for frequency, budget in ((0.5e9, 1000.0),
                                             (1.0e9, 150.0),
                                             (2.0e9, None))]
        with pytest.raises(DeadlineExceeded):
            engine.estimate_batch(queries)
        assert len(engine._results) == 0
        assert engine._store.records() == []
        assert ResultStore(path).records() == []
        assert engine.counters["deadline.exceeded"] == 1
        assert not engine._inflight


class TestEngineCoalescing:
    def test_identical_inflight_queries_coalesce(self, tiny_config):
        engine = Engine(Session(tiny_config))
        release = threading.Event()
        entered = threading.Event()
        original = engine._price

        def slow_price(queries, deadline):
            entered.set()
            release.wait(timeout=30)
            return original(queries, deadline)

        engine._price = slow_price
        results = {}

        def leader():
            results["leader"] = engine.estimate_request("i8", "cmos")

        def follower():
            entered.wait(timeout=30)
            results["follower"] = engine.estimate_request("i8", "cmos")

        t1 = threading.Thread(target=leader)
        t2 = threading.Thread(target=follower)
        t1.start()
        entered.wait(timeout=30)
        t2.start()
        # Give the follower a moment to register as in-flight, then
        # let the leader finish.
        for _ in range(1000):
            if engine.counters["results.coalesced"]:
                break
            time.sleep(0.001)
        release.set()
        t1.join(timeout=60)
        t2.join(timeout=60)
        assert results["leader"].cache_status == "cold"
        assert results["follower"].cache_status == "coalesced"
        assert results["follower"].result == results["leader"].result
        assert engine.counters["results.cold"] == 1
        assert engine.counters["results.coalesced"] == 1

    def test_batch_and_optimize_coalesce_onto_a_leader(self, tiny_config,
                                                        monkeypatch):
        """A batch and an optimize that both contain an in-flight key
        wait for its leader instead of pricing it again."""
        from repro.schema import OptimizeQuery, PowerQuery
        from repro.serve import engine as engine_module

        engine = Engine(Session(tiny_config))
        priced = []
        real_price_mapped = engine_module.price_mapped

        def spy(points, deadline=None):
            priced.extend(query.query_key for query, _ in points)
            return real_price_mapped(points, deadline)

        monkeypatch.setattr(engine_module, "price_mapped", spy)
        release = threading.Event()
        entered = threading.Event()
        original = engine._price

        def held_price(queries, deadline):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return original(queries, deadline)

        engine._price = held_price
        key = engine.normalize(
            PowerQuery("t481", "generalized", tiny_config)).query_key
        results = {}

        def leader():
            results["leader"] = engine.estimate_request("t481",
                                                        "generalized")

        def batch():
            results["batch"] = engine.estimate_batch([
                PowerQuery("t481", "generalized", tiny_config),
                PowerQuery("t481", "cmos", tiny_config)])

        def optimize():
            results["optimize"] = engine.optimize(OptimizeQuery(
                circuit="t481", libraries=("generalized",),
                vdds=(tiny_config.vdd,),
                frequencies=(tiny_config.frequency,
                             2 * tiny_config.frequency),
                config=tiny_config))

        first = threading.Thread(target=leader)
        first.start()
        assert entered.wait(timeout=30)
        others = [threading.Thread(target=batch),
                  threading.Thread(target=optimize)]
        for thread in others:
            thread.start()
        for _ in range(30000):
            if engine.counters["results.coalesced"] >= 2:
                break
            time.sleep(0.001)
        release.set()
        for thread in [first] + others:
            thread.join(timeout=60)
        assert engine.counters["results.coalesced"] == 2
        assert priced.count(key) == 1
        assert results["batch"][0].cache_status == "coalesced"
        assert results["batch"][0].result == results["leader"].result
        statuses = {point.frequency: point.cache_status
                    for point in results["optimize"].frontier}
        assert statuses[tiny_config.frequency] == "coalesced"


class TestEngineStoreIntegration:
    def test_answers_append_to_sweep_store(self, tiny_config, tmp_path):
        from repro.sweep.store import ResultStore

        path = tmp_path / "serve.jsonl"
        engine = Engine(Session(tiny_config), store=path)
        report = engine.estimate_request("t481", "cmos")
        records = ResultStore(path).records()
        assert len(records) == 1
        assert records[0]["task_key"] == report.query_key
        # The store's index tracks appends, so the store file is never
        # re-scanned on later misses.
        assert engine._store.get(report.query_key) == records[0]

    def test_result_hit_skips_store_and_build(self, tiny_config, tmp_path):
        """A result-LRU hit is a dictionary lookup: it neither asks the
        store nor builds the circuit."""
        from repro.circuits.adders import ripple_adder_circuit

        builds = []

        def build():
            builds.append(1)
            return ripple_adder_circuit(3, name="hot-probe")

        engine = Engine(Session(tiny_config),
                        store=tmp_path / "serve.jsonl")
        registry.register_circuit("hot-probe", build)
        try:
            first = engine.estimate_request("hot-probe", "cmos")
            built = len(builds)

            def forbidden(*args, **kwargs):  # pragma: no cover - guard
                raise AssertionError("a result hit reached the store")

            engine._store.current = forbidden
            again = engine.estimate_request("hot-probe", "cmos")
        finally:
            registry.unregister_circuit("hot-probe", missing_ok=True)
        assert (first.cache_status, again.cache_status) == ("cold", "hot")
        assert len(builds) == built == 1

    def test_store_is_scanned_once_not_per_miss(self, tiny_config,
                                                tmp_path):
        engine = Engine(Session(tiny_config),
                        store=tmp_path / "serve.jsonl")

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError(
                "engine must use its index, not per-miss store.get()")

        engine._store.get = forbidden
        engine._store.records = forbidden
        engine.estimate_request("t481", "cmos")
        assert engine.estimate_request(
            "t481", "cmos").cache_status == "hot"

    def test_sweep_store_warm_starts_engine(self, tiny_config, tmp_path):
        """A finished sweep is a warm cache for a fresh server."""
        from repro.schema import flow_from_record
        from repro.sweep.spec import SweepSpec

        path = tmp_path / "sweep.jsonl"
        spec = SweepSpec(circuits=("t481",), libraries=("cmos",),
                         n_patterns=(tiny_config.n_patterns,),
                         state_patterns=tiny_config.state_patterns)
        Session(tiny_config).sweep(spec, path)

        engine = Engine(Session(tiny_config), store=path)
        report = engine.estimate(spec.expand()[0])
        assert report.cache_status == "hot"
        assert engine.counters["results.store"] == 1
        assert engine.counters.get("results.cold", 0) == 0
        stored = flow_from_record(
            Session(tiny_config).sweep(spec, path).store.get(
                report.query_key))
        assert report.result == stored


class TestEngineInvalidation:
    def test_unrelated_registration_keeps_answers_hot(self, tiny_config):
        """Answers are keyed by content: registering another circuit
        leaves t481's definition, and so its answer, untouched."""
        from repro.circuits.adders import ripple_adder_circuit

        engine = Engine(Session(tiny_config))
        first = engine.estimate_request("t481", "cmos")
        registry.register_circuit(
            "flush-probe", lambda: ripple_adder_circuit(2, name="fp"))
        try:
            again = engine.estimate_request("t481", "cmos")
        finally:
            registry.unregister_circuit("flush-probe")
        assert again.cache_status == "hot"
        assert again.result == first.result
        assert engine.counters["results.cold"] == 1

    def test_replaced_circuit_not_served_stale_from_store(
            self, tiny_config, tmp_path):
        """Content keys cover the store index too: a re-registered name
        means a different circuit, so its stored record may not be
        served hot."""
        from repro.circuits.adders import (
            parity_tree_circuit,
            ripple_adder_circuit,
        )

        engine = Engine(Session(tiny_config),
                        store=tmp_path / "serve.jsonl")
        registry.register_circuit(
            "mutable", lambda: ripple_adder_circuit(3, name="mutable"))
        try:
            first = engine.estimate_request("mutable", "cmos")
            registry.register_circuit(
                "mutable", lambda: parity_tree_circuit(8, name="mutable"),
                replace=True)
            second = engine.estimate_request("mutable", "cmos")
            direct = Session(tiny_config).run("mutable", "cmos")
        finally:
            registry.unregister_circuit("mutable", missing_ok=True)
        assert second.cache_status == "cold"
        assert second.result == direct
        assert second.result.gate_count != first.result.gate_count

    def test_leader_spanning_reregistration_is_not_cached(
            self, tiny_config, tmp_path):
        """A computation that raced a re-registration may be answered
        to its caller, but must not poison the caches or the store."""
        from repro.circuits.adders import (
            parity_tree_circuit,
            ripple_adder_circuit,
        )

        engine = Engine(Session(tiny_config),
                        store=tmp_path / "serve.jsonl")
        registry.register_circuit(
            "racy", lambda: ripple_adder_circuit(3, name="racy"))
        original = engine._price

        def price_and_rereg(queries, deadline):
            flows = original(queries, deadline)
            # The re-registration lands while the leader is "still
            # computing" (before it re-takes the engine lock).
            registry.register_circuit(
                "racy", lambda: parity_tree_circuit(8, name="racy"),
                replace=True)
            return flows

        engine._price = price_and_rereg
        try:
            stale = engine.estimate_request("racy", "cmos")
            engine._price = original
            fresh = engine.estimate_request("racy", "cmos")
            direct = Session(tiny_config).run("racy", "cmos")
        finally:
            registry.unregister_circuit("racy", missing_ok=True)
        assert stale.cache_status == "cold"
        # The second query recomputed against the new registration
        # instead of serving the raced result hot.
        assert fresh.cache_status == "cold"
        assert fresh.result == direct
        assert fresh.result.gate_count != stale.result.gate_count

    def test_reregistration_before_mapping_is_not_kept(
            self, tiny_config, tmp_path, monkeypatch, define_foo):
        """A definition replaced between a leader's enrollment and its
        mapping is priced, but the answer is kept nowhere: once the
        first definition is restored, the next answer is its own."""
        from repro.serve import engine as engine_module

        engine = Engine(Session(tiny_config),
                        store=tmp_path / "serve.jsonl")
        real_mapped_netlist = engine_module.mapped_netlist

        def redefine_then_map(circuit, library, config):
            define_foo("or3")
            return real_mapped_netlist(circuit, library, config)

        define_foo("and3")
        monkeypatch.setattr(engine_module, "mapped_netlist",
                            redefine_then_map)
        raced = engine.estimate_request("foo", "cmos")
        monkeypatch.setattr(engine_module, "mapped_netlist",
                            real_mapped_netlist)
        define_foo("and3")
        restored = engine.estimate_request("foo", "cmos")
        direct = Session(tiny_config).run("foo", "cmos")
        assert raced.cache_status == "cold"
        assert raced.result != direct
        assert restored.cache_status == "cold"
        assert restored.result == direct

    def test_restart_on_a_redefined_circuit_recomputes(
            self, tiny_config, tmp_path, define_foo):
        """A store outlives the process, not the definitions: a fresh
        engine on a store written for ``foo`` as an AND answers ``foo``
        as an OR cold, not from the AND's record."""
        path = tmp_path / "serve.jsonl"
        define_foo("and3")
        first = Engine(Session(tiny_config), store=path).estimate_request(
            "foo", "cmos")
        define_foo("or3")
        restarted = Engine(Session(tiny_config), store=path)
        answer = restarted.estimate_request("foo", "cmos")
        assert first.cache_status == "cold"
        assert answer.cache_status == "cold"
        assert answer.result == Session(tiny_config).run("foo", "cmos")
        assert answer.result != first.result
        assert restarted.counters.get("results.store", 0) == 0
        # The recomputed answer replaced the stale record.
        again = Engine(Session(tiny_config), store=path).estimate_request(
            "foo", "cmos")
        assert again.cache_status == "hot"
        assert again.result == answer.result

    def test_redefinition_drops_the_old_subject(self, tiny_config,
                                                define_foo):
        """A circuit's subject graphs live on its registration: once
        ``foo`` is redefined, nothing keeps the old subject alive."""
        import gc
        import weakref

        from repro.experiments.flow import synthesized_benchmark

        engine = Engine(Session(tiny_config))
        define_foo("and3")
        engine.estimate_request("foo", "cmos")
        subject = weakref.ref(
            synthesized_benchmark("foo", tiny_config.synthesize))
        define_foo("or3")
        assert engine.estimate_request("foo", "cmos").cache_status == "cold"
        gc.collect()
        assert subject() is None

    def test_identical_reregistration_maps_from_the_memo(
            self, tiny_config, monkeypatch, define_foo):
        """Re-registering the same content drops the subjects with the
        old entry but not the netlist memo: the mapping is found by
        content before a subject is asked for, so nothing re-synthesizes."""
        from repro.experiments import flow

        library = registry.cached_library("cmos", tiny_config.vdd)
        define_foo("and3")
        first = flow.mapped_netlist("foo", library, tiny_config)
        define_foo("and3")

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("an unchanged circuit re-synthesized")

        monkeypatch.setattr(flow, "synthesize_subject", forbidden)
        assert flow.mapped_netlist("foo", library, tiny_config) is first

    def test_replaced_circuit_is_recomputed(self, tiny_config):
        from repro.circuits.adders import (
            parity_tree_circuit,
            ripple_adder_circuit,
        )

        engine = Engine(Session(tiny_config))
        registry.register_circuit(
            "mutable", lambda: ripple_adder_circuit(3, name="mutable"))
        try:
            first = engine.estimate_request("mutable", "cmos")
            registry.register_circuit(
                "mutable", lambda: parity_tree_circuit(8, name="mutable"),
                replace=True)
            second = engine.estimate_request("mutable", "cmos")
        finally:
            registry.unregister_circuit("mutable", missing_ok=True)
        assert second.cache_status == "cold"
        assert second.result.gate_count != first.result.gate_count


class TestEngineWarmPathUnderContention:
    def test_hot_answers_from_many_threads(self, tiny_config):
        """Memoized keys and encoded answers are written once and read
        by every thread: each of many concurrent hot servings on fresh
        queries still encodes to ``json.dumps`` of its own dict."""
        import json
        import sys

        from repro.schema import PowerQuery, report_json

        engine = Engine(Session(tiny_config))
        body = PowerQuery("t481", "cmos", tiny_config).to_dict()
        engine.estimate(PowerQuery.from_dict(body))
        served, errors = [], []

        def hammer():
            try:
                for _ in range(50):
                    report = engine.estimate(PowerQuery.from_dict(body))
                    served.append((report, report_json(report)))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(served) == 400
        assert engine.counters["results.hot"] == 400
        for report, raw in served:
            assert report.cache_status == "hot"
            assert raw == json.dumps(report.to_dict()).encode("utf-8")


class TestEngineDiscovery:
    def test_listings(self, engine):
        circuits = {c["key"]: c for c in engine.circuits()}
        assert circuits["t481"]["paper_benchmark"] is True
        libraries = {entry["key"] for entry in engine.libraries()}
        assert {"cmos", "cntfet-generalized"} <= libraries
        backends = engine.backends()
        assert "bitsim" in backends["backends"]
        assert backends["default"] == "bitsim"

    def test_stats_shape(self, engine):
        from repro import __version__

        stats = engine.stats()
        assert stats["version"] == __version__
        assert stats["uptime_s"] >= 0
        assert set(stats["caches"]) == {"results", "netlists", "libraries",
                                        "stats", "leakage", "disk"}
        assert set(stats["caches"]["leakage"]) == {"computes", "disk_hits"}
        assert set(stats["caches"]["disk"]) >= {"verified", "quarantined"}
        assert "stats.hot" in stats["counters"]
        assert "stats.cold" in stats["counters"]
