"""Design-space optimization: the Pareto frontier over operating points.

The source paper explores the power–performance trade-off of ambipolar
CNT logic by hand-picking (vdd, frequency) points per library; the
follow-up literature compares designs by delay and power-delay product.
This module turns that exploration into a service primitive: given a
circuit and axes (library x backend x vdd x frequency), it

1. maps the circuit once per (library, backend-independent) supply and
   runs :func:`repro.timing.timing_report` on the mapping,
2. **prunes timing-infeasible frequencies before pricing** — a point
   whose clock period is shorter than the critical path is never
   simulated or priced,
3. answers the survivors through the engine's one miss path
   (:meth:`repro.serve.engine.Engine.answer`): cached points verbatim,
   points in flight elsewhere coalesced, all misses priced in one
   :func:`repro.experiments.flow.price_mapped` call,
4. returns the non-dominated set under the query's objectives with
   per-point provenance (the same ``query_key`` a ``/v1/estimate`` of
   that point would carry, and how this serving obtained it).

Every priced point is written back into the engine's result cache and
its store, so an optimization warm-starts later single-point queries
and a warm rerun of the same optimization re-simulates nothing (the
tests assert the activity cache's simulation counter does not move).

Dominance is the standard Pareto relation with per-objective
directions (:data:`repro.schema.OPTIMIZE_OBJECTIVES`): point A
dominates B iff A is at least as good in every objective and strictly
better in at least one.  Points with identical objective vectors do
not dominate each other — both survive.  The frontier is returned in
a deterministic order: ascending by the direction-normalized objective
vector, then by (library, backend, vdd, frequency).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__, registry
from repro.experiments.flow import mapped_netlist
from repro.resilience import Deadline
from repro.schema import (
    OPTIMIZE_OBJECTIVES,
    FrontierPoint,
    OptimizeQuery,
    OptimizeReport,
    PowerQuery,
    PowerQuoteReport,
)
from repro.sim.backends import get_backend
from repro.timing import TimingReport, timing_report

if TYPE_CHECKING:  # pragma: no cover - engine imports this module's users
    from repro.serve.engine import Engine


# -- objectives ---------------------------------------------------------------

_METRICS = {
    "power": lambda p: p.pt_w,
    "energy": lambda p: p.energy_per_cycle,
    "pdp": lambda p: p.pdp,
    "edp": lambda p: p.edp_js,
    "delay": lambda p: p.delay_ns,
    "vdd": lambda p: p.vdd,
    "frequency": lambda p: p.frequency,
    # An unbounded fmax (zero-delay circuit) is better than any finite
    # one under the "max" direction.
    "fmax": lambda p: p.fmax_hz if p.fmax_hz is not None else math.inf,
}


def objective_value(point: FrontierPoint, objective: str) -> float:
    """The raw metric an objective reads off a point."""
    return _METRICS[objective](point)


def normalized_value(point: FrontierPoint, objective: str) -> float:
    """The metric folded to minimize-direction (max objectives negate)."""
    value = objective_value(point, objective)
    return -value if OPTIMIZE_OBJECTIVES[objective] == "max" else value


def _sort_key(point: FrontierPoint, objectives: Sequence[str]):
    return (tuple(normalized_value(point, o) for o in objectives),
            point.library, point.backend, point.vdd, point.frequency)


def pareto_frontier(points: Sequence[FrontierPoint],
                    objectives: Sequence[str]
                    ) -> Tuple[List[FrontierPoint], int]:
    """The non-dominated subset, deterministically ordered.

    Returns ``(frontier, n_dominated)``.  Ties (identical objective
    vectors) all survive; dominance is strict in at least one
    objective.  Ordering: ascending direction-normalized objective
    tuple, then (library, backend, vdd, frequency).
    """
    if not points:
        return [], 0
    ordered = sorted(points, key=lambda p: _sort_key(p, objectives))
    vectors = np.array([[normalized_value(point, objective)
                         for objective in objectives]
                        for point in ordered])
    n = len(ordered)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            # Transitivity: whatever a dominated point dominates is
            # also dominated by its (kept) dominator.
            continue
        vector = vectors[i]
        dominated = ((vectors >= vector).all(axis=1)
                     & (vectors > vector).any(axis=1))
        keep &= ~dominated
    frontier = [point for point, kept in zip(ordered, keep) if kept]
    return frontier, n - len(frontier)


# -- point construction -------------------------------------------------------


def frontier_point(quote: PowerQuoteReport, vdd: float, frequency: float,
                   library: str, backend: str) -> FrontierPoint:
    """Lift one priced quote into a frontier candidate.

    All metrics derive from the quote's flow result, so a frontier
    point and the ``/v1/estimate`` answer of the same operating point
    agree float for float.
    """
    flow = quote.result
    period = 1.0 / frequency
    return FrontierPoint(
        library=library,
        backend=backend,
        vdd=vdd,
        frequency=frequency,
        gate_count=flow.gate_count,
        delay_ns=flow.delay_s / 1e-9,
        fmax_hz=(1.0 / flow.delay_s) if flow.delay_s > 0.0 else None,
        slack_ns=(period - flow.delay_s) / 1e-9,
        pd_w=flow.pd_w,
        ps_w=flow.ps_w,
        pg_w=flow.pg_w,
        pt_w=flow.pt_w,
        energy_per_cycle=flow.pt_w / frequency,
        pdp=flow.pt_w * flow.delay_s,
        edp_js=flow.edp_js,
        query_key=quote.query_key,
        cache_status=quote.cache_status,
    )


# -- evaluation ---------------------------------------------------------------


def normalize_query(query: OptimizeQuery) -> OptimizeQuery:
    """Canonicalize names so aliases share cache identity.

    Circuit and library names resolve through the registry; backends
    are validated against the backend registry.  Aliases that
    canonicalize to the same library collapse to one axis entry.
    """
    for backend in query.backends:
        get_backend(backend)  # raises with the known choices
    return replace(
        query,
        circuit=registry.canonical_circuit(query.circuit),
        libraries=tuple(registry.canonical_library(key)
                        for key in query.libraries))


def run_optimize(engine: "Engine", query: OptimizeQuery,
                 deadline: Optional[Deadline] = None) -> OptimizeReport:
    """Evaluate one optimize query against a serving engine.

    Walks the (library, backend, vdd) combinations; each maps once,
    runs (cached) static timing once and prunes infeasible frequencies
    *before* any pricing.  :meth:`Engine.answer` then serves every
    survivor at once, and the non-dominated set is kept.  The deadline
    is checked between stages, exactly like :meth:`Engine.estimate`.
    """
    start = time.perf_counter()
    query = normalize_query(query)
    if deadline is None:
        deadline = Deadline.after_ms(query.deadline_ms)
    points: List[PowerQuery] = []
    n_infeasible = 0
    for library_key in query.libraries:
        for backend in query.backends:
            for vdd in query.vdds:
                config = replace(query.config, vdd=vdd, backend=backend,
                                 frequency=query.frequencies[0])
                deadline.check("characterize")
                library = registry.cached_library(library_key, vdd)
                deadline.check("map")
                netlist = mapped_netlist(query.circuit, library, config)
                deadline.check("timing")
                timing: TimingReport = timing_report(netlist)
                feasible = [frequency for frequency in query.frequencies
                            if timing.feasible(frequency)]
                n_infeasible += len(query.frequencies) - len(feasible)
                points.extend(
                    PowerQuery(circuit=query.circuit, library=library_key,
                               config=replace(config, frequency=frequency))
                    for frequency in feasible)
    quotes = engine.answer(points, deadline, start)
    candidates = [frontier_point(quote, point.config.vdd,
                                 point.config.frequency, point.library,
                                 point.config.backend)
                  for point, quote in zip(points, quotes)]
    frontier, n_dominated = pareto_frontier(candidates, query.objectives)
    return OptimizeReport(
        circuit=query.circuit,
        objectives=query.objectives,
        frontier=tuple(frontier),
        n_candidates=query.n_candidates,
        n_infeasible=n_infeasible,
        n_dominated=n_dominated,
        server_version=__version__,
        elapsed_s=time.perf_counter() - start,
    )
