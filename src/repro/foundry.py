"""Library foundry: bulk characterization into indexed ladder entries.

A library's only stored characterization is its leakage-table entry in
the ``leakage`` ladder of :mod:`repro.cache` (``leakage/<key>``, keyed
by ``_library_content_key``: checksummed, decoded against the library,
single-flight).  Timing and capacitances are closed-form and rebuilt
with the library in milliseconds.  The foundry is a build pipeline
over that ladder:

* :func:`characterize` fans (library, vdd) jobs through
  :func:`repro.experiments.parallel.parallel_map_stream` (crash-tolerant;
  every stored entry is a checkpoint, so a re-run builds only what is
  missing).  A job reads and writes the tables through the ladder, so
  a foundry build and a cold live worker write the same entry;
* the parent records one provenance row per (library, vdd) in the
  ``foundry/index`` entry: the ladder key, the tables hash, the builder
  version and the cell count.  Listings and the CLI call such an
  indexed slot an *artifact*;
* :func:`verify_artifact` recomputes the tables from scratch and
  compares hashes; :func:`export_store` copies the selected
  ``leakage/`` entries with their index rows.

A process whose store holds the entries answers with zero SPICE solves
through the ladder's disk tier.  Invalidation is structural: the key
covers the technology parameters and every cell's pins, truth table
and stage topology, so any drift is a different key and a live
characterization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.cache import DiskCache, default_cache, stable_hash
from repro.errors import ExperimentError
from repro.gates.library import Library
from repro.sim.estimator import (
    _LEAKAGE_LADDER,
    _LeakageTables,
    _library_content_key,
)

#: Disk-cache namespace holding the store index.
FOUNDRY_NAMESPACE = "foundry"

#: Index entry mapping artifact keys to their provenance rows.
INDEX_KEY = "index"


def _builder_version() -> str:
    from repro import __version__
    return __version__


def artifact_key(name: str, vdd: Optional[float] = None) -> str:
    """Index key of one (library, vdd) slot; aliases share it."""
    key = registry.canonical_library(name)
    return stable_hash({"library": key, "vdd": vdd})


def _tables_hash(tables: _LeakageTables) -> str:
    """Stable hash of the tables' stored form (the ``verify`` identity)."""
    return stable_hash(_LEAKAGE_LADDER.encode(tables))


def _index_row(key: str, vdd: Optional[float], library: Library,
               tables: _LeakageTables) -> Dict[str, Any]:
    return {"library": key, "vdd": vdd,
            "leakage_key": _library_content_key(library),
            "hash": _tables_hash(tables),
            "builder_version": _builder_version(),
            "cells": len(library)}


# -- bulk characterization -----------------------------------------------------


@dataclass(frozen=True)
class BuildOutcome:
    """Result of one (library, vdd) foundry task."""

    library: str
    vdd: Optional[float]
    artifact_key: str
    hash: Optional[str]
    n_cells: int
    elapsed_s: float
    status: str            # built | cached | failed
    detail: str = ""


@dataclass(frozen=True)
class BuildReport:
    """What a :func:`characterize` run did, renderable for CI greps."""

    outcomes: Tuple[BuildOutcome, ...]
    elapsed_s: float
    jobs_requested: int
    jobs_effective: int
    cache_root: str

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"built": 0, "cached": 0, "failed": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def render(self) -> str:
        lines = []
        for outcome in self.outcomes:
            vdd = "native" if outcome.vdd is None else f"{outcome.vdd:g}V"
            extra = f" ({outcome.detail})" if outcome.detail else ""
            lines.append(
                f"{outcome.status:>6}  {outcome.library} @ {vdd}  "
                f"cells={outcome.n_cells} hash={outcome.hash or '-'} "
                f"[{outcome.elapsed_s:.2f}s]{extra}")
        counts = self.counts()
        lines.append(
            f"foundry: built={counts['built']} cached={counts['cached']} "
            f"failed={counts['failed']} jobs={self.jobs_effective} "
            f"elapsed={self.elapsed_s:.2f}s store={self.cache_root}")
        return "\n".join(lines)


def _build_worker(task: Tuple[str, Optional[float], str, bool]
                  ) -> Dict[str, Any]:
    """One foundry job, picklable for ``parallel_map_stream`` workers.

    The stored ladder entry is the checkpoint: a crashed-and-retried
    task redoes only its own (library, vdd), and the next run's
    pre-check finds completed siblings.  ``force`` recomputes from
    scratch and overwrites the entry (same key, encoding and atomic
    checksummed write).
    """
    key, vdd, root, force = task
    cache = DiskCache(root=Path(root), enabled=True)
    start = time.perf_counter()
    library = registry.build_library(key, vdd)
    if force:
        tables = _LeakageTables(library)
        cache.put(_LEAKAGE_LADDER.namespace, _library_content_key(library),
                  _LEAKAGE_LADDER.encode(tables))
    else:
        tables = _LeakageTables.for_library(library, cache)
    return {"row": _index_row(key, vdd, library, tables),
            "elapsed_s": time.perf_counter() - start}


def characterize(libraries: Optional[Sequence[str]] = None,
                 vdd_points: Sequence[Optional[float]] = (None,),
                 *, jobs: int = 1, cache: Optional[DiskCache] = None,
                 force: bool = False) -> BuildReport:
    """Bulk-characterize libraries × vdd points into the store.

    Crash-tolerant and resumable: work fans out through
    ``parallel_map_stream`` (same retry/poison discipline as sweeps)
    and every stored ladder entry is a checkpoint — a re-run reports
    those slots as ``cached`` without re-solving anything, unless
    ``force``.
    """
    from repro.experiments.parallel import parallel_map_stream, resolve_jobs

    cache = cache or default_cache()
    if not cache.enabled:
        raise ExperimentError(
            "the foundry needs a writable store; the cache is "
            "disabled (REPRO_CACHE_DISABLE) — nothing would persist")
    if libraries is None:
        libraries = registry.available_libraries()
    keys: List[str] = []
    for name in libraries:
        key = registry.canonical_library(name)
        if key not in keys:
            keys.append(key)
    tasks = [(key, vdd) for key in keys for vdd in vdd_points]

    start = time.perf_counter()
    index = store_index(cache)
    outcomes: Dict[Tuple[str, Optional[float]], BuildOutcome] = {}
    updates: Dict[str, Any] = {}
    pending: List[Tuple[str, Optional[float], str, bool]] = []
    for key, vdd in tasks:
        library = registry.build_library(key, vdd)
        tables = None if force else _LEAKAGE_LADDER.stored(
            _library_content_key(library), library, cache)
        if tables is None:
            pending.append((key, vdd, str(cache.root), force))
            continue
        slot = artifact_key(key, vdd)
        row = _index_row(key, vdd, library, tables)
        if index.get(slot) != row:
            # Characterized live, or indexed by another build.
            updates[slot] = row
        outcomes[(key, vdd)] = BuildOutcome(
            library=key, vdd=vdd, artifact_key=slot, hash=row["hash"],
            n_cells=row["cells"], elapsed_s=0.0, status="cached")

    if pending:
        results = parallel_map_stream(
            _build_worker, pending, jobs=jobs,
            on_poison=lambda item, error: None)
        for (key, vdd, _, _), result in zip(pending, results):
            slot = artifact_key(key, vdd)
            if result is None:
                outcomes[(key, vdd)] = BuildOutcome(
                    library=key, vdd=vdd, artifact_key=slot, hash=None,
                    n_cells=0, elapsed_s=0.0, status="failed",
                    detail="worker crashed repeatedly; slot poisoned")
                continue
            row = result["row"]
            updates[slot] = row
            outcomes[(key, vdd)] = BuildOutcome(
                library=key, vdd=vdd, artifact_key=slot, hash=row["hash"],
                n_cells=row["cells"], elapsed_s=result["elapsed_s"],
                status="built")
    if updates:
        # Only the parent writes the index, once the pool has drained:
        # concurrent workers never race a read-modify-write on it.
        cache.merge(FOUNDRY_NAMESPACE, INDEX_KEY, updates)

    return BuildReport(
        outcomes=tuple(outcomes[task] for task in tasks),
        elapsed_s=time.perf_counter() - start,
        jobs_requested=jobs, jobs_effective=resolve_jobs(jobs),
        cache_root=str(cache.root))


# -- verification and export ---------------------------------------------------


def verify_artifact(name: str, vdd: Optional[float] = None,
                    cache: Optional[DiskCache] = None) -> Dict[str, Any]:
    """Re-characterize from scratch and diff against the stored tables."""
    cache = cache or default_cache()
    key = registry.canonical_library(name)
    library = registry.build_library(key, vdd)
    stored = _LEAKAGE_LADDER.stored(_library_content_key(library),
                                    library, cache)
    if stored is None:
        return {"library": key, "vdd": vdd, "status": "missing",
                "stored_hash": None, "rebuilt_hash": None}
    stored_hash = _tables_hash(stored)
    rebuilt_hash = _tables_hash(_LeakageTables(library))
    return {"library": key, "vdd": vdd,
            "status": "ok" if stored_hash == rebuilt_hash else "mismatch",
            "stored_hash": stored_hash, "rebuilt_hash": rebuilt_hash}


def store_index(cache: Optional[DiskCache] = None) -> Dict[str, Any]:
    """The store index (artifact key -> provenance row)."""
    cache = cache or default_cache()
    index = cache.get(FOUNDRY_NAMESPACE, INDEX_KEY)
    return index if isinstance(index, dict) else {}


def export_store(target_dir: str,
                 libraries: Optional[Sequence[str]] = None,
                 vdds: Optional[Sequence[Optional[float]]] = None,
                 cache: Optional[DiskCache] = None) -> int:
    """Copy selected ladder entries into a standalone store directory.

    The result is a valid ``REPRO_CACHE_DIR`` holding the selected
    ``leakage/`` entries and their index rows — a server pointed at it
    characterizes every exported (library, vdd) with zero live solves.
    Returns the number of entries exported.
    """
    cache = cache or default_cache()
    target = DiskCache(root=Path(target_dir), enabled=True)
    wanted_keys = None
    if libraries is not None:
        wanted_keys = {registry.canonical_library(name)
                       for name in libraries}
    wanted_vdds = None if vdds is None else set(vdds)
    namespace = _LEAKAGE_LADDER.namespace
    index: Dict[str, Any] = {}
    for slot, row in sorted(store_index(cache).items()):
        if wanted_keys is not None and row.get("library") not in wanted_keys:
            continue
        if wanted_vdds is not None and row.get("vdd") not in wanted_vdds:
            continue
        ladder_key = str(row.get("leakage_key"))
        stored = cache.get(namespace, ladder_key)
        if stored is None:
            continue
        target.put(namespace, ladder_key, stored)
        index[slot] = row
    target.put(FOUNDRY_NAMESPACE, INDEX_KEY, index)
    return len(index)


# -- listings (shared by /v1/libraries and the CLI) ----------------------------


def library_listing(cache: Optional[DiskCache] = None) -> List[Dict[str, Any]]:
    """Per-library rows: registration metadata + artifact provenance.

    The single source for both ``GET /v1/libraries`` and the
    ``repro libraries`` CLI table, so the two can never drift.
    """
    cache = cache or default_cache()
    by_library: Dict[str, List[Dict[str, Any]]] = {}
    for key, entry in store_index(cache).items():
        summary = dict(entry)
        summary["artifact_key"] = key
        by_library.setdefault(entry.get("library", ""), []).append(summary)
    rows: List[Dict[str, Any]] = []
    for key in registry.available_libraries():
        entry = registry.library_entry(key)
        artifacts = sorted(
            by_library.get(key, ()),
            key=lambda a: (a.get("vdd") is not None, a.get("vdd") or 0.0))
        rows.append({
            "key": key,
            "aliases": list(entry.aliases),
            "description": entry.description,
            "artifacts": artifacts,
            "characterized_vdds": [a.get("vdd") for a in artifacts],
            "hot_vdds": registry.cached_library_vdds(key),
        })
    return rows


def _format_vdd(vdd: Optional[float]) -> str:
    return "native" if vdd is None else f"{vdd:g}V"


def format_library_listing(rows: Sequence[Dict[str, Any]], *,
                           verbose: bool = False) -> List[str]:
    """Render listing rows as CLI lines (one helper, no CLI drift)."""
    lines: List[str] = []
    for row in rows:
        aliases = (f" (aliases: {', '.join(row['aliases'])})"
                   if row["aliases"] else "")
        lines.append(f"{row['key']}{aliases}")
        if row["description"]:
            lines.append(f"    {row['description']}")
        artifacts = row.get("artifacts", ())
        if artifacts:
            vdds = ", ".join(_format_vdd(a.get("vdd")) for a in artifacts)
            lines.append(f"    artifacts: {len(artifacts)} "
                         f"(vdd: {vdds})")
            if verbose:
                for summary in artifacts:
                    lines.append(
                        f"      vdd={_format_vdd(summary.get('vdd'))} "
                        f"hash={summary.get('hash')} "
                        f"builder={summary.get('builder_version')} "
                        f"cells={summary.get('cells')} "
                        f"leakage/{summary.get('leakage_key')}")
        else:
            lines.append("    artifacts: none (live characterization)")
        if row.get("hot_vdds"):
            hot = ", ".join(_format_vdd(vdd) for vdd in row["hot_vdds"])
            lines.append(f"    hot in-process: {hot}")
    return lines
