"""Process-parallel experiment execution.

The experiment grid (circuit x library cells, sweep points) is
embarrassingly parallel: every task is a pure function of picklable
inputs with a deterministic seed, so fanning it out over a
``ProcessPoolExecutor`` must produce bit-identical results to the
serial loop — the only thing that changes is wall-clock time.  This
module centralizes that fan-out so every harness exposes the same
``jobs`` knob with the same semantics:

* ``jobs=1`` (default): plain serial ``map`` in the calling process;
* ``jobs=N``: a pool of N worker processes, clamped to the CPU count
  (forking more workers than CPUs only adds scheduling overhead — on
  a 1-CPU machine ``jobs=2`` used to run *slower* than serial);
* ``jobs=0`` or ``None``: one worker per CPU.

Workers warm their own in-process caches (synthesized benchmarks,
libraries, match tables); the persistent characterization cache
(:mod:`repro.cache`) is shared through the filesystem, so workers also
skip any SPICE solve another process already did.

**Crash tolerance**: a worker process dying (OOM kill, segfault,
``os._exit``) breaks the whole ``ProcessPoolExecutor``, and every task
that was in flight is a *suspect* — the pool cannot say which task
killed the worker.  :func:`parallel_map_stream` therefore retries: the
unfinished tasks are resubmitted to a fresh pool (one task per chunk,
to sharpen attribution) and each crash round bumps a per-task suspect
count.  A task whose count exceeds ``crash_retries`` gets one final
attempt in an *isolated single-worker pool*: success clears it (it was
an innocent bystander of someone else's crash), another crash is
definitive — the task is poisoned.  By default a poisoned task raises
:class:`~repro.errors.WorkerCrashError`; sweep runs instead pass
``on_poison`` to quarantine the task in the result store and keep the
rest of the grid running.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from typing import Callable, Iterable, List, Optional, Sequence, Set, TypeVar

from repro.errors import WorkerCrashError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Default number of crash rounds a task may be a suspect of before it
#: is isolated (and then poisoned if it crashes alone).
DEFAULT_CRASH_RETRIES = 2


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request to a concrete worker count.

    The result is clamped to ``os.cpu_count()``: requesting more
    workers than CPUs cannot make the (CPU-bound, GIL-free) experiment
    grid faster and measurably slows it down, so the effective value
    is what harnesses should record in their reports.
    """
    cpus = os.cpu_count() or 1
    if jobs is None or jobs == 0:
        return cpus
    return max(1, min(jobs, cpus))


def parallel_map(func: Callable[[_T], _R], items: Iterable[_T],
                 jobs: Optional[int] = 1,
                 chunksize: int = 1) -> List[_R]:
    """Map ``func`` over ``items``, optionally across processes.

    Results come back in input order regardless of completion order,
    so callers are deterministic for any worker count.  ``chunksize``
    groups adjacent tasks onto one worker — order related tasks
    consecutively (e.g. the three libraries of one circuit) and chunk
    by that group size to let per-process caches amortize shared work.
    """
    return parallel_map_stream(func, items, jobs=jobs, chunksize=chunksize)


def _run_chunk(func: Callable[[_T], _R], chunk: List[_T]) -> List[_R]:
    """Worker-side helper: map ``func`` over one chunk of tasks."""
    return [func(item) for item in chunk]


def _worker_init(blif_snapshot) -> None:
    """Worker initializer: replay runtime circuit registrations.

    Under the ``spawn``/``forkserver`` start methods workers re-import
    the registry and would only know the built-in circuits; replaying
    the parent's BLIF registrations keeps ``--blif`` netlists buildable
    for any ``jobs`` value (under ``fork`` this is a no-op re-replace
    of what the worker already inherited).
    """
    if blif_snapshot:
        from repro import registry

        registry.restore_blif_registrations(blif_snapshot)


def _run_isolated(func: Callable[[_T], _R], item: _T,
                  blif_snapshot) -> _R:
    """One task in its own fresh single-worker pool.

    The definitive test for a crash suspect: nothing else shares the
    worker, so a broken pool here means *this* task kills workers.
    Raises :class:`WorkerCrashError` in that case.
    """
    with ProcessPoolExecutor(
            max_workers=1, initializer=_worker_init,
            initargs=(blif_snapshot,)) as pool:
        future = pool.submit(_run_chunk, func, [item])
        try:
            return future.result()[0]
        except BrokenExecutor:
            raise WorkerCrashError(
                "task crashed its worker even when run in isolation"
            ) from None


def parallel_map_stream(func: Callable[[_T], _R], items: Iterable[_T],
                        jobs: Optional[int] = 1,
                        chunksize: int = 1,
                        callback: Optional[Callable[[_T, _R], None]] = None,
                        crash_retries: int = DEFAULT_CRASH_RETRIES,
                        on_retry: Optional[Callable[[_T], None]] = None,
                        on_poison: Optional[
                            Callable[[_T, WorkerCrashError], None]] = None
                        ) -> List[_R]:
    """:func:`parallel_map` that streams results as they land.

    The returned list is always in input order; ``callback(item,
    result)`` fires in the calling process as soon as each result
    exists — serially that is right after each task in order, in a
    pool it is *completion* order (chunks are submitted individually
    and drained with ``as_completed``, so a slow head-of-line chunk
    cannot delay checkpointing of everything finishing behind it).
    Sweep runs use this to persist every finished point into the
    result store: an interrupted run keeps all completed work, not
    just the prefix before the slowest chunk.

    **Crash tolerance** (pools only; a serial run shares the caller's
    process, where a crash is not survivable): tasks unfinished when a
    worker death breaks the pool are retried on a fresh pool, up to
    ``crash_retries`` suspect rounds each, then isolated (see module
    docstring).  ``on_retry(item)`` fires per resubmitted task;
    ``on_poison(item, error)`` fires for a task that crashes in
    isolation, and its result slot stays ``None`` — without
    ``on_poison`` the :class:`WorkerCrashError` propagates instead.
    An exception *raised* by a task (as opposed to a killed worker)
    propagates immediately, exactly as before.
    """
    work: Sequence[_T] = list(items)
    n_workers = min(resolve_jobs(jobs), max(1, len(work)))
    if n_workers <= 1:
        results: List[_R] = []
        for item in work:
            result = func(item)
            results.append(result)
            if callback is not None:
                callback(item, result)
        return results
    chunksize = max(1, chunksize)
    from repro import registry

    snapshot = registry.blif_registrations()
    slots: List[Optional[_R]] = [None] * len(work)
    finished = [False] * len(work)
    crash_counts = [0] * len(work)
    pending = list(range(len(work)))
    first_round = True
    while pending:
        # Retry rounds resubmit one task per chunk: each further crash
        # then suspects as few innocents as possible.
        round_chunk = chunksize if first_round else 1
        chunks = [pending[start:start + round_chunk]
                  for start in range(0, len(pending), round_chunk)]
        crashed = False
        unsubmitted: Set[int] = set()
        with ProcessPoolExecutor(
                max_workers=min(n_workers, len(chunks)),
                initializer=_worker_init,
                initargs=(snapshot,)) as pool:
            futures = {}
            for position, chunk in enumerate(chunks):
                try:
                    future = pool.submit(_run_chunk, func,
                                         [work[i] for i in chunk])
                except BrokenExecutor:
                    # A worker died before this chunk went out: the
                    # round crashed, but no chunk from here on ever
                    # ran, so none of them is a suspect.  (A fresh
                    # pool accepts its first chunk, so every round
                    # still charges or finishes at least one.)
                    crashed = True
                    unsubmitted = {i for rest in chunks[position:]
                                   for i in rest}
                    break
                futures[future] = chunk
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    chunk_results = future.result()
                except BrokenExecutor:
                    # A worker died; every task of this chunk was (or
                    # may have been) in flight on it.  Keep draining —
                    # chunks that finished before the break are good.
                    crashed = True
                    continue
                for index, result in zip(chunk, chunk_results):
                    slots[index] = result
                    finished[index] = True
                    if callback is not None:
                        callback(work[index], result)
        if not crashed:
            break
        retry = [i for i in pending if i in unsubmitted]
        for index in pending:
            if finished[index] or index in unsubmitted:
                continue
            crash_counts[index] += 1
            if crash_counts[index] <= crash_retries:
                retry.append(index)
                if on_retry is not None:
                    on_retry(work[index])
                continue
            # A repeat suspect: give it one definitive isolated run.
            try:
                result = _run_isolated(func, work[index], snapshot)
            except WorkerCrashError as exc:
                error = WorkerCrashError(
                    f"task crashed workers in {crash_counts[index]} "
                    f"round(s) and again in isolation; quarantined")
                if on_poison is None:
                    raise error from exc
                on_poison(work[index], error)
                finished[index] = True  # resolved: poisoned
                continue
            slots[index] = result
            finished[index] = True
            if callback is not None:
                callback(work[index], result)
        pending = retry
        first_round = False
    return slots  # type: ignore[return-value]
