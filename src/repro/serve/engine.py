"""The warm estimation engine behind ``repro serve``.

An :class:`Engine` answers :class:`~repro.schema.PowerQuery` requests
with :class:`~repro.schema.PowerQuoteReport` responses, bit-identical
to :meth:`repro.api.Session.run` for the same (circuit, library,
config) triple, while keeping every expensive intermediate warm:

* **results** — finished reports, LRU-keyed by ``query_key`` (the
  sweep-task content hash) and the content key of the circuit and
  library definitions that answered it
  (:func:`repro.registry.content_key`), so a repeated identical query
  is a dictionary lookup (``cache_status: "hot"``), and redefining a
  circuit or library under the same name makes its answers
  unreachable, never stale.  An answer whose circuit or library was
  re-registered while it was priced is returned but kept nowhere.
  Each report enters with its JSON already encoded
  (:meth:`~repro.schema.PowerQuoteReport.stable_json`), so the server
  encodes an answer once, not per request, and the encoding leaves
  with the entry;
* **netlists** — mapped netlists
  (:func:`repro.experiments.flow.mapped_netlist`), so changing only
  estimation knobs (frequency, fanout, pattern budget, backend)
  re-estimates without re-mapping;
* **libraries** — the registry's per-(key, vdd) library cache;
* **stats** — the process-wide cache ladder of
  :mod:`repro.sim.activity`, so a pricing-only requery — same circuit
  at a new frequency, fanout or supply — does zero bit-parallel
  simulation work.  ``/healthz`` reports it with ``stats.hot`` /
  ``stats.cold`` counters.  A mapped netlist's timing report is
  memoized on the netlist itself (:func:`repro.timing.timing_report`),
  so the **netlists** cache keeps it too.

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

All keys are content hashes, so an optional sweep-format result store
can warm-start the engine and every answer the engine computes can
resume a sweep.  A stored record counts only while it is
:meth:`~repro.sweep.store.ResultStore.current`; any other record is a
miss, recomputed and overwritten.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future, TimeoutError as FutureTimeout
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__, faults, foundry, obs, registry
from repro.api import Session
from repro.cache import DISK_COUNTERS, LruCache
from repro.errors import DeadlineExceeded, ExperimentError
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

#: Capacity of the result LRU (finished reports are tiny: a dataclass
#: of floats).
DEFAULT_MAX_RESULTS = 4096


def _registrations(query: PowerQuery) -> Optional[Tuple[Any, Any]]:
    """The circuit and library registrations a query is answered from
    (None once either name is gone)."""
    try:
        return (registry.circuit_entry(query.circuit),
                registry.library_entry(query.library))
    except ExperimentError:
        return None


def _priced_content(query: PowerQuery,
                    enrolled: Optional[Tuple[Any, Any]]) -> Optional[str]:
    """The content key to keep an answer under, or None when a
    (re/un)registration replaced its circuit or library since
    ``enrolled`` was taken: the answer may then be either
    definition's."""
    try:
        content = registry.content_key(query.circuit, query.library)
    except ExperimentError:
        return None
    current = _registrations(query)
    if (enrolled is None or current is None or current[0] is not enrolled[0]
            or current[1] is not enrolled[1]):
        return None
    return content


class Engine:
    """A long-lived, thread-safe power-estimation service core.

    Args:
        session: the :class:`~repro.api.Session` whose config is the
            default for queries that omit one, and whose library
            selection seeds discovery.  Defaults to ``Session()``
            (the paper's configuration).
        store: optional sweep-format result store (a
            :class:`~repro.sweep.store.ResultStore` or the path of its
            JSON-lines file).  Every computed answer is appended to it,
            and result-cache misses consult it before computing — a
            finished sweep therefore warm-starts the server, and a
            long-running server leaves a resumable sweep store behind.
    """

    def __init__(self, session: Optional[Session] = None, *,
                 store: Optional[Union[str, Path, Any]] = None):
        self.session = session if session is not None else Session()
        self._results = LruCache("results", DEFAULT_MAX_RESULTS)
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self.counters: Counter = Counter()
        self.started_monotonic = time.monotonic()
        # /healthz reports the counter registry's diff against this
        # (other sessions in the process also move the counters).
        self._baseline = obs.snapshot()
        self._store = None
        if store is not None:
            from repro.sweep.store import ResultStore

            self._store = store if isinstance(store, ResultStore) \
                else ResultStore(store)

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
            "store": str(self._store) if self._store is not None
            else None,
            "caches": {
                "results": lru(self._results),
                "netlists": lru(MAPPED_NETLISTS),
                "libraries": obs.section(delta, "libraries",
                                         ("hits", "misses")),
                "stats": lru(activity.LADDER.lru),
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

    # -- query handling ----------------------------------------------------

    def normalize(self, query: PowerQuery) -> PowerQuery:
        """Canonicalize a query so aliases hit the same cache entries.

        Circuit and library names resolve through the registry (raising
        the usual "choose from ..." errors for unknown names); a
        ``None`` config takes the session default.  An already
        canonical query comes back as itself, with its memoized key.
        """
        circuit = registry.canonical_circuit(query.circuit)
        library = registry.canonical_library(query.library)
        if (circuit == query.circuit and library == query.library
                and query.config is not None):
            return query
        return PowerQuery(
            circuit=circuit, library=library,
            config=query.config if query.config is not None
            else self.session.config,
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
        then the store's :meth:`~repro.sweep.store.ResultStore.current`
        record),
        attached to an identical in-flight leader's future, or enrolled
        as a leader; :meth:`_lead` prices and commits every leader at
        once, then all wait on their futures.  A follower whose leader
        ran out of *its* budget goes round again as a leader.  Reports
        are stamped with how they were served and the time since
        ``start``.
        """
        reports: List[Optional[PowerQuoteReport]] = [None] * len(queries)
        pending = list(range(len(queries)))
        while pending:
            # A result-LRU hit never reaches the store.  On a miss the
            # store is asked outside the lock: learning a content key
            # to check a record may build a circuit (a leader learns
            # it while mapping).
            lookups = []
            for index in pending:
                query = queries[index]
                key = query.query_key
                slot = (key, registry.content_key(
                    query.circuit, query.library, build=False))
                record = None
                if self._store is not None and slot not in self._results:
                    enrolled = _registrations(query)
                    record = self._store.current(query)
                    if record is not None:
                        # What the record was checked against (None
                        # if a registration changed meanwhile).
                        slot = (key, _priced_content(query, enrolled))
                lookups.append((index, key, slot, record))
            leaders: Dict[str, Tuple[PowerQuery, Any]] = {}
            waiting: List[Tuple[int, Future, str]] = []
            with self._lock:
                for index, key, slot, record in lookups:
                    query = queries[index]
                    report = self._results.get(slot)
                    if (report is None and record is not None
                            and slot[1] is not None):
                        report = quote_from_record(
                            record, server_version=__version__)
                        self._remember(slot, report)
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
                        leaders[key] = (query, _registrations(query))
                        waiting.append((index, self._inflight[key],
                                        "cold"))
            if leaders:
                self._lead(leaders, deadline)
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

    def _lead(self, leaders: Dict[str, Tuple[PowerQuery, Any]],
              deadline: Deadline) -> None:
        """Price the enrolled leaders (query key -> the query and the
        registrations it was enrolled against) in one :meth:`_price`
        call, commit each answer under the content key it was priced
        from and resolve their futures.  On failure the futures carry
        the exception and nothing is written.
        """
        batch = [query for query, _ in leaders.values()]
        start = time.perf_counter()
        try:
            flows = self._price(batch, deadline)
            contents = [_priced_content(query, enrolled)
                        for query, enrolled in leaders.values()]
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
        for quote in quotes:
            quote.stable_json()  # outside the lock; every serving shares it
        with self._lock:
            futures = [self._inflight.pop(key) for key in leaders]
            for key, content, quote in zip(leaders, contents, quotes):
                if content is not None:
                    self._remember((key, content), quote)
            self.counters["results.cold"] += len(quotes)
        for future, quote in zip(futures, quotes):
            future.set_result(quote)
        if self._store is not None:
            for query, quote, content in zip(batch, quotes, contents):
                if content is not None:
                    self._store.append(store_record(
                        query, quote.result, quote.elapsed_s, content))

    def _remember(self, key: Tuple[str, str],
                  report: PowerQuoteReport) -> None:
        """Put a report in the result LRU with its JSON encoded: the
        encoding lives and dies with the entry.  Caller holds the
        engine lock."""
        report.stable_json()
        self._results.put(key, report)

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
