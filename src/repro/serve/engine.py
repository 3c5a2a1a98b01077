"""The warm estimation engine behind ``repro serve``.

An :class:`Engine` answers :class:`~repro.schema.PowerQuery` requests
with :class:`~repro.schema.PowerQuoteReport` responses, bit-identical
to :meth:`repro.api.Session.run` for the same (circuit, library,
config) triple, while keeping every expensive intermediate warm:

* **results** — finished reports, LRU-keyed by ``query_key`` (the
  sweep-task content hash), so a repeated identical query is a
  dictionary lookup (``cache_status: "hot"``);
* **netlists** — mapped netlists
  (:func:`repro.experiments.flow.mapped_netlist`), so changing only
  estimation knobs (frequency, fanout, pattern budget, backend)
  re-estimates without re-mapping;
* **libraries** — the registry's per-(key, vdd) library cache;
* **stats** and **timing** — the process-wide cache ladders of
  :mod:`repro.sim.activity` and :mod:`repro.timing`, so a
  pricing-only requery — same circuit at a new frequency, fanout or
  supply — does zero bit-parallel simulation work.  ``/healthz``
  reports the stats ladder with ``stats.hot`` / ``stats.cold``
  counters.

Every cache below the results counts into :mod:`repro.obs`; the engine
snapshots the registry when it is built and ``/healthz`` reports the
diff, i.e. the traffic since then.

Single queries, batches (``POST /v1/estimate_batch``) and the
optimizer's surviving points take one miss path, :meth:`Engine.answer`,
which prices every miss of a request in one
:func:`repro.experiments.flow.price_mapped` call: a grid of operating
points over one circuit pays for one simulation.

Identical queries that arrive *while one is still computing* are
coalesced, whichever endpoint sent them: the followers block on the
leader's future and are answered from its result (``cache_status:
"coalesced"``) — N clients asking for the same cold cell cost one
synthesis, not N.

All keys are ``stable_hash`` content hashes (:mod:`repro.cache`), so
an optional sweep-format result store can warm-start the engine and
every answer the engine computes can resume a sweep.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future, TimeoutError as FutureTimeout
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__, faults, foundry, obs, registry, timing
from repro.api import Session
from repro.cache import DISK_COUNTERS, LruCache
from repro.errors import DeadlineExceeded
from repro.experiments.config import ExperimentConfig
from repro.resilience import Deadline
from repro.experiments.flow import (
    MAPPED_NETLISTS,
    CircuitFlowResult,
    mapped_netlist,
    price_mapped,
)
from repro.schema import (
    OptimizeQuery,
    OptimizeReport,
    PowerQuery,
    PowerQuoteReport,
    quote_from_record,
    store_record,
)
from repro.sim import activity
from repro.sim.backends import available_backends

#: Default capacity of the result LRU (finished reports are tiny: a
#: dataclass of floats).
DEFAULT_MAX_RESULTS = 4096


class Engine:
    """A long-lived, thread-safe power-estimation service core.

    Args:
        session: the :class:`~repro.api.Session` whose config is the
            default for queries that omit one, and whose library
            selection seeds discovery.  Defaults to ``Session()``
            (the paper's configuration).
        max_results: result LRU capacity.
        store: optional sweep-format result store (a
            :class:`~repro.sweep.store.ResultStore` or a path, suffix
            selecting the backend).  Every computed answer is appended
            to it, and result-cache misses consult it before
            computing — a finished sweep therefore warm-starts the
            server, and a long-running server leaves a resumable sweep
            store behind.
    """

    def __init__(self, session: Optional[Session] = None, *,
                 max_results: int = DEFAULT_MAX_RESULTS,
                 store: Optional[Union[str, Path, Any]] = None):
        self.session = session if session is not None else Session()
        self._results = LruCache("results", max_results)
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._generation = registry.generation()
        self.counters: Counter = Counter()
        self.started_monotonic = time.monotonic()
        # /healthz reports the counter registry's diff against this
        # (other sessions in the process also move the counters).
        self._baseline = obs.snapshot()
        if store is None:
            self._store = None
            self._store_index: Dict[str, Any] = {}
        else:
            from repro.sweep.store import ResultStore, open_store

            self._store = store if isinstance(store, ResultStore) \
                else open_store(store)
            # One scan at startup; the JSONL backend's get() would
            # otherwise re-read the whole file per result-cache miss,
            # and inside the engine lock at that.  Appends keep the
            # index current, so the store is never re-scanned.
            self._store_index = {record["task_key"]: record
                                 for record in self._store.records()}

    # -- discovery ---------------------------------------------------------

    @staticmethod
    def circuits() -> List[Dict[str, Any]]:
        """Registered circuits with their metadata (the ``/v1/circuits``
        payload)."""
        out = []
        for key in registry.available_circuits():
            entry = registry.circuit_entry(key)
            out.append({
                "key": entry.key,
                "aliases": list(entry.aliases),
                "description": entry.description,
                "function": entry.function,
                "paper_benchmark": entry.paper is not None,
            })
        return out

    @staticmethod
    def libraries() -> List[Dict[str, Any]]:
        """Registered libraries with their metadata plus foundry
        artifact provenance (the ``/v1/libraries`` payload)."""
        return foundry.library_listing()

    def backends(self) -> Dict[str, Any]:
        """Registered estimator backends (the ``/v1/backends`` payload)."""
        return {"backends": available_backends(),
                "default": self.session.config.backend}

    def stats(self) -> Dict[str, Any]:
        """Uptime, cache occupancy and counters (the ``/healthz``
        payload body)."""
        delta = obs.diff(self._baseline)

        def lru(cache: LruCache) -> Dict[str, Any]:
            return {"size": len(cache), "max": cache.maxsize,
                    "hits": delta[cache.name + ".hits"],
                    "misses": delta[cache.name + ".misses"]}

        with self._lock:
            counters = dict(self.counters)
        counters["stats.hot"] = delta["activity.hits"]
        counters["stats.cold"] = delta["activity.computes"]
        return {
            "version": __version__,
            "uptime_s": time.monotonic() - self.started_monotonic,
            "default_config": self.session.config.to_dict(),
            "store": str(self._store.path) if self._store is not None
            else None,
            "caches": {
                "results": lru(self._results),
                "netlists": lru(MAPPED_NETLISTS),
                "libraries": obs.section(delta, "libraries",
                                         ("hits", "misses")),
                "stats": lru(activity.LADDER.lru),
                "timing": {**lru(timing.LADDER.lru),
                           "disk_hits": delta["timing.disk_hits"],
                           "computes": delta["timing.computes"]},
                # Leakage tables read from the store vs characterized.
                "leakage": {"disk_hits": delta["leakage.disk_hits"],
                            "computes": delta["leakage.computes"]},
                # quarantined > 0 means corrupt entries were found,
                # moved aside and transparently recomputed.
                "disk": obs.section(delta, "disk", DISK_COUNTERS),
            },
            # Simulations since this engine started and the kernel's
            # throughput over them (gates x patterns per second).
            "sim": {
                "simulations": delta["activity.computes"],
                "gate_evals_per_s": (
                    delta["sim.gate_evals"] / delta["sim.elapsed_s"]
                    if delta["sim.elapsed_s"] > 0 else 0.0),
            },
            # spice_solves is the acceptance meter: a server running
            # against a store the foundry built holds it at 0.
            "foundry": {"spice_solves": delta["spice.solves"]},
            "counters": counters,
        }

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a serve counter (thread-safe; shows in /healthz)."""
        with self._lock:
            self.counters[name] += amount

    def flush(self) -> None:
        """Flush durable state (the result store) to disk.

        Called by the server's graceful-shutdown path after the last
        in-flight request drains; safe to call at any time.
        """
        if self._store is not None:
            self._store.flush()

    # -- query handling ----------------------------------------------------

    def _revalidate_locked(self) -> None:
        """Drop every name-keyed warm entry after a (re/un)registration.

        A registration may have changed what a circuit/library name
        means; every name-keyed warm entry is then suspect — including
        stored records (their task_key hashes the *name*).  The store
        itself is last-write-wins, so recomputed answers simply
        overwrite the stale lines.  (The netlist memo keys on the
        generation itself, and the registry drops a re-registered
        library's builds.)  Caller holds the engine lock.
        """
        if registry.generation() != self._generation:
            self._results.clear()
            self._store_index.clear()
            self._generation = registry.generation()
            self.counters["caches.invalidated"] += 1

    def normalize(self, query: PowerQuery) -> PowerQuery:
        """Canonicalize a query so aliases hit the same cache entries.

        Circuit and library names resolve through the registry (raising
        the usual "choose from ..." errors for unknown names); a
        ``None`` config takes the session default.
        """
        config = query.config if query.config is not None \
            else self.session.config
        return PowerQuery(
            circuit=registry.canonical_circuit(query.circuit),
            library=registry.canonical_library(query.library),
            config=config,
            deadline_ms=query.deadline_ms)

    def estimate_request(self, circuit: str, library: str,
                         config: Optional[ExperimentConfig] = None
                         ) -> PowerQuoteReport:
        """Convenience wrapper: build the query, then :meth:`estimate`."""
        return self.estimate(PowerQuery(
            circuit=circuit, library=library,
            config=config if config is not None else self.session.config))

    def estimate(self, query: PowerQuery,
                 deadline: Optional[Deadline] = None) -> PowerQuoteReport:
        """Answer one query, warm where possible.

        The returned report's ``cache_status`` says how it was served:
        ``"hot"`` (result cache or store), ``"coalesced"`` (attached to
        an identical in-flight computation) or ``"cold"`` (computed
        now).  ``elapsed_s`` is the serving time of *this* call.

        The query's ``deadline_ms`` (or an explicit ``deadline``)
        bounds the call: the budget is checked *between* pipeline
        stages — never mid-kernel — and on expiry the call raises
        :class:`~repro.errors.DeadlineExceeded` having written nothing.
        ``deadline_ms`` is excluded from ``query_key``, so concurrent
        identical queries with different budgets still coalesce; a
        follower whose own budget outlives a leader that timed out
        simply retries as the new leader.
        """
        start = time.perf_counter()
        query = self.normalize(query)
        if deadline is None:
            deadline = Deadline.after_ms(query.deadline_ms)
        return self.answer([query], deadline, start)[0]

    def estimate_batch(self, queries: List[PowerQuery]
                       ) -> List[PowerQuoteReport]:
        """Answer many queries like :meth:`estimate`, pricing all their
        misses in one pass: a grid of N operating points over one
        circuit costs one simulation and one ``estimate_many``.  The
        tightest ``deadline_ms`` bounds the whole request from its
        arrival; reports come back in input order.
        """
        start = time.perf_counter()
        budgets = [query.deadline_ms for query in queries
                   if query.deadline_ms is not None]
        deadline = Deadline.after_ms(min(budgets) if budgets else None)
        normalized = [self.normalize(query) for query in queries]
        reports = self.answer(normalized, deadline, start)
        with self._lock:
            self.counters["batch.requests"] += 1
            self.counters["batch.queries"] += len(normalized)
        return reports

    # -- design-space optimization ----------------------------------------

    def optimize(self, query: OptimizeQuery,
                 deadline: Optional[Deadline] = None) -> OptimizeReport:
        """Answer one optimize query (see :func:`repro.optimize.
        run_optimize`): map + static-time each (library, vdd), prune
        timing-infeasible frequencies before pricing, price the
        survivors through :meth:`answer`, return the Pareto frontier.
        Every priced point lands in the result cache and the store, so
        the optimization warm-starts later single-point queries — and
        vice versa."""
        from repro.optimize import run_optimize

        report = run_optimize(self, query, deadline)
        with self._lock:
            self.counters["optimize.requests"] += 1
            self.counters["optimize.candidates"] += report.n_candidates
            self.counters["optimize.infeasible"] += report.n_infeasible
            self.counters["optimize.frontier"] += len(report.frontier)
        return report

    # -- the one miss path -------------------------------------------------

    def answer(self, queries: List[PowerQuery], deadline: Deadline,
               start: float) -> List[PowerQuoteReport]:
        """Answer normalized queries: the one miss path behind
        :meth:`estimate`, :meth:`estimate_batch` and :meth:`optimize`.

        Under the engine lock each query is served hot (the result LRU,
        then the store index), attached to an identical in-flight
        leader's future, or enrolled as a leader; :meth:`_lead` prices
        and commits every leader at once, then all wait on their
        futures.  A follower whose leader ran out of *its* budget goes
        round again as a leader.  Reports are stamped with how they
        were served and the time since ``start``.
        """
        reports: List[Optional[PowerQuoteReport]] = [None] * len(queries)
        pending = list(range(len(queries)))
        while pending:
            leaders: Dict[str, PowerQuery] = {}
            waiting: List[Tuple[int, Future, str]] = []
            with self._lock:
                self._revalidate_locked()
                generation = self._generation
                for index in pending:
                    key = queries[index].query_key
                    report = self._results.get(key)
                    if report is None and key in self._store_index:
                        report = quote_from_record(
                            self._store_index[key],
                            server_version=__version__)
                        self._results.put(key, report)
                        self.counters["results.store"] += 1
                    if report is not None:
                        self.counters["results.hot"] += 1
                        reports[index] = report.with_status(
                            "hot", time.perf_counter() - start)
                    elif key in self._inflight:
                        self.counters["results.coalesced"] += 1
                        waiting.append((index, self._inflight[key],
                                        "coalesced"))
                    else:
                        self._inflight[key] = Future()
                        leaders[key] = queries[index]
                        waiting.append((index, self._inflight[key],
                                        "cold"))
            if leaders:
                self._lead(leaders, deadline, generation)
            pending = []
            for index, future, status in waiting:
                try:
                    report = future.result(timeout=deadline.remaining())
                except FutureTimeout:
                    with self._lock:
                        self.counters["deadline.exceeded"] += 1
                    raise DeadlineExceeded(
                        "deadline exceeded while coalesced behind an "
                        "identical in-flight query", stage="coalesce")
                except DeadlineExceeded:
                    # The *leader's* budget ran out, not necessarily
                    # ours: budget permitting, lead the next round.
                    if deadline.expired():
                        with self._lock:
                            self.counters["deadline.exceeded"] += 1
                        raise
                    pending.append(index)
                    continue
                reports[index] = report.with_status(
                    status, time.perf_counter() - start)
        return reports  # type: ignore[return-value]

    def _lead(self, leaders: Dict[str, PowerQuery], deadline: Deadline,
              generation: int) -> None:
        """Price the enrolled leaders (query key -> query) in one
        :meth:`_price` call, commit them under the generation guard and
        resolve their futures.  On failure the futures carry the
        exception and nothing is written.
        """
        batch = list(leaders.values())
        start = time.perf_counter()
        try:
            flows = self._price(batch, deadline)
        except BaseException as exc:
            with self._lock:
                futures = [self._inflight.pop(key) for key in leaders]
                if isinstance(exc, DeadlineExceeded):
                    self.counters["deadline.exceeded"] += 1
            for future in futures:
                future.set_exception(exc)
            raise
        elapsed = (time.perf_counter() - start) / len(batch)
        quotes = [PowerQuoteReport.from_flow(
            query, flow, server_version=__version__, cache_status="cold",
            elapsed_s=elapsed) for query, flow in zip(batch, flows)]
        with self._lock:
            # A re-registration while we computed may have changed what
            # the circuit/library names mean; results built from the old
            # definitions must not enter any cache or the store.
            still_fresh = (registry.generation() == generation
                           and self._generation == generation)
            futures = [self._inflight.pop(key) for key in leaders]
            for key, quote in zip(leaders, quotes):
                if still_fresh:
                    self._results.put(key, quote)
            self.counters["results.cold"] += len(quotes)
        for future, quote in zip(futures, quotes):
            future.set_result(quote)
        if self._store is not None and still_fresh:
            records = [store_record(query, quote.result, quote.elapsed_s)
                       for query, quote in zip(batch, quotes)]
            for record in records:
                self._store.append(record)
            with self._lock:
                if self._generation == generation:
                    self._store_index.update(zip(leaders, records))

    def _price(self, queries: List[PowerQuery],
               deadline: Deadline) -> List[CircuitFlowResult]:
        """Map each query through the netlist memo, then price them all
        in one :func:`~repro.experiments.flow.price_mapped` call — the
        stages of :meth:`repro.api.Session.run`, so results are
        bit-identical.  The deadline is checked before each stage
        (characterize, map, estimate) and each simulation.
        """
        points = []
        for query in queries:
            faults.sleep_latency("engine.latency", context=query.circuit)
            deadline.check("characterize")
            library = registry.cached_library(query.library,
                                              query.config.vdd)
            deadline.check("map")
            points.append((query, mapped_netlist(query.circuit, library,
                                                 query.config)))
        deadline.check("estimate")
        return price_mapped(points, deadline)

    # -- registration passthroughs ----------------------------------------

    @staticmethod
    def register_blif_circuit(path: str, **kwargs):
        """Register a BLIF netlist on the live engine (see
        :func:`repro.registry.register_blif_circuit`)."""
        return registry.register_blif_circuit(path, **kwargs)
