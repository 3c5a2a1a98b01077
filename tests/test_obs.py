"""The process-wide counter registry (:mod:`repro.obs`) and the LRU
that counts into it."""

from __future__ import annotations

import os
import sys
import threading
import time

from repro import obs
from repro.cache import LruCache


class TestSnapshotDiff:
    def test_diff_is_what_happened_since_the_snapshot(self):
        obs.count("test.obs.a")
        before = obs.snapshot()
        obs.count("test.obs.a", 2)
        obs.count("test.obs.b", 0.5)
        delta = obs.diff(before)
        assert delta["test.obs.a"] == 2
        assert delta["test.obs.b"] == 0.5
        assert delta["test.obs.never"] == 0

    def test_counters_cannot_be_reset(self):
        assert not hasattr(obs, "reset")

    def test_section_strips_the_prefix_and_defaults_names(self):
        counts = {"disk.verified": 3, "disk.flight_leader": 1,
                  "diskless.verified": 9}
        assert obs.section(counts, "disk", ("verified", "quarantined")) \
            == {"verified": 3, "quarantined": 0, "flight_leader": 1}


class TestLruCache:
    def test_counts_hits_and_misses_and_evicts_oldest(self):
        cache = LruCache("test.lru", 2)
        before = obs.snapshot()
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # "a" is now the freshest
        cache.put("c", 3)               # evicts "b"
        assert cache.get("b") is None
        assert len(cache) == 2
        delta = obs.diff(before)
        assert delta["test.lru.hits"] == 1
        assert delta["test.lru.misses"] == 2
        cache.clear()
        assert len(cache) == 0


class TestContention:
    def test_counts_are_exact_under_thread_contention(self):
        """More threads than cores, switching every microsecond: every
        increment lands, and the LRU stays within its bound."""
        n_threads = 4 * (os.cpu_count() or 1)
        per_thread = 500
        cache = LruCache("test.stress.lru", 8)
        start = threading.Barrier(n_threads)

        def hammer(offset: int) -> None:
            start.wait(timeout=30)
            for step in range(per_thread):
                obs.count("test.stress.count")
                obs.count("test.stress.half", 0.5)
                key = (offset + step) % 16
                if cache.get(key) is None:
                    cache.put(key, step + 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = obs.snapshot()
            threads = [threading.Thread(target=hammer, args=(index,))
                       for index in range(n_threads)]
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        total = n_threads * per_thread
        delta = obs.diff(before)
        assert delta["test.stress.count"] == total
        assert delta["test.stress.half"] == total / 2
        assert (delta["test.stress.lru.hits"]
                + delta["test.stress.lru.misses"]) == total
        assert len(cache) <= 8
