"""One front door: the :class:`Session` facade.

A ``Session`` owns everything a reproduction run needs — the
:class:`~repro.experiments.config.ExperimentConfig` (operating point,
pattern budget, estimator backend), the library selection (resolved
through :mod:`repro.registry`), process parallelism and the persistent
characterization-cache wiring — and exposes the three workloads every
entry point routes through::

    from repro.api import Session

    session = Session()                       # the paper's config
    session.run("C1355", "generalized")       # one Table 1 cell
    session.table1()                          # the whole table
    session.sweep(SweepSpec(vdd=(0.8, 0.9)))  # a scenario grid

``reproduce_table1`` and the sweep runner are thin wrappers over a
Session; the CLI builds one per command.  Table 1 cells, sweep groups
and the serving engine's misses are all priced by one routine,
:func:`repro.experiments.flow.price_mapped`.  Anything registered with
:func:`repro.registry.register_library` or
:func:`repro.sim.backends.register_backend` is immediately usable here
— no experiment code changes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cache import ENV_CACHE_DIR, ENV_CACHE_DISABLE
from repro.circuits.suite import benchmark_suite
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.experiments.flow import (
    CircuitFlowResult,
    FlowQuery,
    map_subject,
    price_mapped,
    synthesized_benchmark,
    synthesize_subject,
)
from repro.experiments.parallel import parallel_map_stream, resolve_jobs
from repro.experiments.table1 import (
    Table1Result,
    run_table1_cell,
    verbose_cell_line,
)
from repro.gates.library import Library
from repro.sim.backends import available_backends
from repro.synth.aig import Aig
from repro import registry

#: Types accepted wherever a circuit is expected.
CircuitLike = Union[str, Aig]
#: Types accepted wherever a library is expected.
LibraryLike = Union[str, Library]


class Session:
    """A configured reproduction session (the single public entry point).

    Args:
        config: the experiment configuration ``run`` and ``table1``
            use (the paper's by default).  The config's ``backend``
            field selects the estimator; its ``vdd`` is the supply all
            libraries are characterized at.  (``sweep`` grids carry
            their own per-point configs — see :meth:`sweep`.)
        jobs: worker processes for grid workloads (1 = serial,
            0/``None`` = all CPUs; clamped to the CPU count).  Results
            are bit-identical for any value.
        libraries: library keys/aliases this session targets for
            multi-library workloads (``table1``, ``run`` without an
            explicit library).  Defaults to the paper's three.
        cache_dir: redirect the persistent characterization cache
            (:mod:`repro.cache`) to this directory.  Applied via the
            process environment so worker processes inherit it — the
            setting is process-wide and persists after the session
            (later sessions see it unless they set their own).
        cache_enabled: force the characterization cache on/off.
            Process-wide like ``cache_dir``; ``None`` leaves the
            environment untouched.

    Registrations (libraries, circuits, backends) are per-process:
    with ``jobs != 1`` worker processes re-import the registries, so a
    factory registered at runtime (not from an imported module) is
    only visible to workers under the ``fork`` start method — put
    custom registrations in a module workers import, or run serially.
    The exception is BLIF circuits: :func:`repro.registry.
    register_blif_circuit` captures the netlist source, and the
    parallel runner replays it in every worker, so ``--blif`` netlists
    work for any ``jobs`` value under any start method.
    """

    def __init__(self, config: ExperimentConfig = PAPER_CONFIG, *,
                 jobs: Optional[int] = 1,
                 libraries: Optional[Sequence[str]] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 cache_enabled: Optional[bool] = None):
        self.config = config
        self.jobs = jobs
        keys = registry.PAPER_LIBRARIES if libraries is None else libraries
        self.libraries = tuple(registry.canonical_library(key)
                               for key in keys)
        if not self.libraries:
            raise ExperimentError(
                "a session needs at least one library (got an empty "
                "selection)")
        if cache_dir is not None:
            os.environ[ENV_CACHE_DIR] = str(cache_dir)
        if cache_enabled is not None:
            os.environ[ENV_CACHE_DISABLE] = "0" if cache_enabled else "1"

    # -- discovery ---------------------------------------------------------

    @staticmethod
    def available_libraries() -> List[str]:
        """Registered library keys (see :mod:`repro.registry`)."""
        return registry.available_libraries()

    @staticmethod
    def available_backends() -> List[str]:
        """Registered estimator backends (see :mod:`repro.sim.backends`)."""
        return available_backends()

    @staticmethod
    def available_circuits() -> List[str]:
        """Registered circuit keys (the 12 benchmarks plus any user
        registrations — see :mod:`repro.registry`)."""
        return registry.available_circuits()

    @property
    def effective_jobs(self) -> int:
        """The worker count grids actually run with."""
        return resolve_jobs(self.jobs)

    def with_config(self, **overrides) -> "Session":
        """A sibling session with config fields replaced."""
        from dataclasses import replace
        return Session(replace(self.config, **overrides), jobs=self.jobs,
                       libraries=self.libraries)

    # -- resolution --------------------------------------------------------

    def library(self, name: LibraryLike,
                vdd: Optional[float] = None) -> Library:
        """Resolve a key/alias (or pass a library through), characterized
        at ``vdd`` (default: this session's operating point)."""
        if isinstance(name, Library):
            return name
        return registry.cached_library(name,
                                       self.config.vdd if vdd is None
                                       else vdd)

    def _subject(self, circuit: CircuitLike) -> Aig:
        """A synthesized subject graph for a registered circuit name or
        raw AIG."""
        if isinstance(circuit, Aig):
            return synthesize_subject(circuit, self.config)
        try:
            key = registry.canonical_circuit(circuit)
        except ExperimentError:
            raise ExperimentError(
                f"unknown benchmark or registered circuit {circuit!r}; "
                f"choose from {', '.join(registry.available_circuits())} "
                f"(or pass an Aig)") from None
        return synthesized_benchmark(key, self.config.synthesize)

    # -- workloads ---------------------------------------------------------

    def run(self, circuit: CircuitLike,
            library: Optional[LibraryLike] = None
            ) -> Union[CircuitFlowResult, Dict[str, CircuitFlowResult]]:
        """Synthesize, map and estimate one circuit.

        Args:
            circuit: a Table 1 benchmark name or any :class:`Aig`.
            library: a registered key/alias or a :class:`Library`;
                ``None`` runs every library of the session and returns
                ``{canonical_key: result}``.
        """
        if library is None:
            return {key: self.run(circuit, key) for key in self.libraries}
        subject = self._subject(circuit)
        resolved = self.library(library)
        # Generators name their AIGs with a suffix, and the caller may
        # have used an alias; report the canonical registry key.
        name = circuit.name if isinstance(circuit, Aig) \
            else registry.canonical_circuit(circuit)
        netlist = map_subject(subject, resolved, self.config)
        query = FlowQuery(name, resolved.name, self.config)
        return price_mapped([(query, netlist)])[0]

    def table1(self, benchmarks: Optional[List[str]] = None,
               verbose: bool = False) -> Table1Result:
        """The Table 1 grid: every benchmark on every session library.

        ``benchmarks=None`` runs the paper's 12-row suite; an explicit
        list accepts *any* registered circuit (keys or aliases, user
        BLIF netlists included) and keeps the given order.  At the
        paper config with the paper's three libraries this is
        bit-identical to the historical ``reproduce_table1``.  Any
        ``jobs`` value streams the cells through one
        :func:`~repro.experiments.parallel.parallel_map_stream` call;
        ``verbose`` prints each cell as it lands.
        """
        if benchmarks is None:
            names = [spec.name for spec in benchmark_suite()]
        else:
            # Canonicalize, then dedupe: a key and its alias naming the
            # same circuit must not double-weight the Average row.
            names = list(dict.fromkeys(
                registry.canonical_circuit(name) for name in benchmarks))
        order = list(self.libraries)
        tasks = [(name, key, self.config)
                 for name in names for key in order]
        # chunksize=len(order) keeps one circuit's libraries on one
        # worker, so each circuit is synthesized once per process that
        # touches it.
        flows = parallel_map_stream(
            run_table1_cell, tasks, jobs=self.jobs, chunksize=len(order),
            callback=(lambda task, flow: print(verbose_cell_line(flow)))
            if verbose else None)

        cells = iter(flows)
        return Table1Result(
            config=self.config, library_order=order, benchmark_order=names,
            results={name: {key: next(cells) for key in order}
                     for name in names})

    def optimize(self, circuit: str, *,
                 vdds: Optional[Sequence[float]] = None,
                 frequencies: Optional[Sequence[float]] = None,
                 libraries: Optional[Sequence[str]] = None,
                 backends: Optional[Sequence[str]] = None,
                 objectives: Optional[Sequence[str]] = None,
                 store=None, deadline_ms: Optional[float] = None):
        """The Pareto frontier of one circuit over a design space.

        Maps the circuit per (library, vdd), static-times each mapping
        (:mod:`repro.timing`), drops timing-infeasible (vdd, frequency)
        points *before* pricing, prices the survivors (one simulation
        per mapping via the activity cache; vectorized repricing) and
        returns the non-dominated set under ``objectives``
        (:data:`repro.schema.OPTIMIZE_OBJECTIVES`; default: minimize
        total power, maximize frequency).

        Axes default to this session's scope: its libraries, its
        config's vdd/frequency/backend.  ``store`` (a path or
        :class:`~repro.sweep.store.ResultStore`) warm-starts the
        evaluation from stored points and records every priced point
        back — the same contract as a serving engine.

        Returns an :class:`~repro.schema.OptimizeReport`.
        """
        from repro.schema import OptimizeQuery
        # Engine imports this module; resolve it lazily to keep the
        # dependency one-directional at import time.
        from repro.serve.engine import Engine

        query = OptimizeQuery(
            circuit=circuit,
            libraries=tuple(libraries) if libraries is not None
            else self.libraries,
            vdds=tuple(vdds) if vdds is not None else (self.config.vdd,),
            frequencies=tuple(frequencies) if frequencies is not None
            else (self.config.frequency,),
            backends=tuple(backends) if backends is not None
            else (self.config.backend,),
            **({"objectives": tuple(objectives)}
               if objectives is not None else {}),
            config=self.config,
            deadline_ms=deadline_ms,
        )
        return Engine(session=self, store=store).optimize(query)

    def sweep(self, spec, store=None, verbose: bool = False,
              echo: Callable[[str], None] = print):
        """Run every not-yet-stored point of a sweep grid.

        Unlike ``run``/``table1``, a sweep's operating points, library
        axis and estimator backend are defined entirely by the *spec*
        (each grid point is its own :class:`ExperimentConfig`); the
        session contributes parallelism and cache wiring.  Build the
        spec with ``backend=...``/``libraries=...`` to vary those —
        the session's own config does not leak into the grid.

        Pending points are grouped by *activity*
        (:func:`repro.sweep.runner.activity_group_key`): each group —
        one (circuit, library, mapping, pattern budget) — runs a
        single bit-parallel simulation and re-prices every operating
        point from it, bit-identically to executing the points one by
        one.  Workers receive whole groups, so a frequency x fanout x
        pricing-vdd grid costs one simulation per group no matter how
        it is sharded.

        Args:
            spec: a :class:`~repro.sweep.spec.SweepSpec`.
            store: a :class:`~repro.sweep.store.ResultStore`, a path
                (suffix selects the backend), or ``None`` for a fresh
                in-memory store.
            verbose: one line per completed point, streamed.
            echo: sink for verbose lines (tests capture it).

        Returns:
            A :class:`~repro.sweep.runner.SweepRunReport`; the store
            holds every point (``store`` attribute of the report).
        """
        import time

        from repro.sweep.runner import (
            SweepRunReport,
            _group_chunksize,
            _verbose_line as _sweep_line,
            group_tasks,
            run_sweep_group,
        )
        from repro.sweep.store import (
            MemoryResultStore,
            ResultStore,
            open_store,
            poison_record,
        )

        if store is None:
            store = MemoryResultStore()
        elif not isinstance(store, ResultStore):
            store = open_store(store)

        start = time.perf_counter()
        tasks = spec.expand()
        done_keys = store.keys()
        pending = [task for task in tasks if task.task_key not in done_keys]
        groups = group_tasks(pending)
        jobs_effective = min(resolve_jobs(self.jobs), max(1, len(groups)))
        simulations = 0
        retried = 0
        quarantined = 0

        def checkpoint(group, result) -> None:
            nonlocal simulations
            simulations += result["simulations"]
            for task, record in zip(group, result["records"]):
                store.append(record)
                if verbose:
                    echo(_sweep_line(task, record))

        def on_retry(group) -> None:
            nonlocal retried
            retried += len(group)

        def on_poison(group, error) -> None:
            # A group that keeps killing workers: quarantine its tasks
            # in the store (flagged records, invisible to keys()/
            # records()) so the rest of the grid still completes and a
            # resume does not blindly re-crash on them.
            nonlocal quarantined
            quarantined += len(group)
            for task in group:
                store.append(poison_record(task.task_key, str(error)))
                if verbose:
                    echo(f"{task.circuit:6s} {task.library:20s} "
                         f"QUARANTINED: {error}")

        parallel_map_stream(
            run_sweep_group, groups, jobs=self.jobs,
            chunksize=_group_chunksize(len(groups), jobs_effective),
            callback=checkpoint, on_retry=on_retry, on_poison=on_poison)

        return SweepRunReport(
            spec_hash=spec.spec_hash,
            store_path=str(store.path),
            total=len(tasks),
            cached=len(tasks) - len(pending),
            executed=len(pending),
            jobs_requested=0 if self.jobs is None else self.jobs,
            jobs_effective=jobs_effective,
            elapsed_s=time.perf_counter() - start,
            groups=len(groups),
            simulations=simulations,
            retried=retried,
            quarantined=quarantined,
            store=store,
        )
