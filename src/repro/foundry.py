"""Library foundry: bulk characterization into versioned artifacts.

Registered libraries are characterized on demand — every fresh server
or sweep worker re-solves the SPICE leakage patterns per (library,
vdd).  The foundry turns that into a build pipeline with versioned
outputs:

* :func:`characterize` fans (library, vdd) characterization jobs
  through :func:`repro.experiments.parallel.parallel_map_stream`
  (crash-tolerant; every finished artifact is a checkpoint, so a
  re-run only builds what is missing);
* each job produces one :class:`LibraryArtifact` — a serializable
  bundle of the timing, capacitance and leakage tables with a
  ``stable_hash`` content key, :data:`FOUNDRY_SCHEMA_VERSION`,
  technology provenance and the builder version — persisted under the
  ``foundry/`` namespace of :mod:`repro.cache` (checksummed, atomic,
  corrupt entries quarantined to a clean miss);
* :func:`load_library` hydrates a :class:`~repro.gates.library.Library`
  from its artifact **without touching the SPICE solver**, bit-identical
  to on-demand characterization: the artifact stores exactly what the
  live path memoizes (``CellTiming`` pairs, per-pin capacitances and
  the ``_LeakageTables`` arrays), and JSON round-trips floats exactly.

``registry.cached_library`` consults :func:`load_library` before
falling back to the live factory, so Engine, Session and sweep workers
all gain the prebuilt path for free.  Invalidation is structural, not
temporal: an artifact is only used when its recorded
``_library_content_key`` — covering the technology parameters and every
cell's pins, truth table and stage topology — matches a freshly-built
library skeleton; any code or parameter drift is a counted miss and a
live rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs, registry
from repro.cache import DiskCache, default_cache, stable_hash
from repro.errors import ExperimentError
from repro.gates.library import CellTiming, Library
from repro.sim.estimator import _LeakageTables, _library_content_key

#: Bump on any change to the artifact payload layout; stored artifacts
#: with a different version are rejected (counted ``stale_schema``).
FOUNDRY_SCHEMA_VERSION = 1

#: Disk-cache namespace holding artifacts and the store index.
FOUNDRY_NAMESPACE = "foundry"

#: Index entry mapping artifact keys to their provenance summaries.
INDEX_KEY = "index"

_PAYLOAD_FIELDS = ("schema_version", "library", "vdd", "library_key",
                   "builder_version", "tech", "timing", "pin_caps",
                   "output_caps", "leakage")


def _builder_version() -> str:
    from repro import __version__
    return __version__


def artifact_key(name: str, vdd: Optional[float] = None) -> str:
    """Content-addressed store key for one (library, vdd) artifact.

    Deliberately the same formula the serving engine uses for its
    per-library memo; the schema version is *not* part of the key, so a
    stale-schema artifact is found, rejected and counted rather than
    silently shadowed by a fresh key.
    """
    key = registry.canonical_library(name)
    return stable_hash({"library": key, "vdd": vdd})


#: The artifact outcomes :func:`load_library` counts, as
#: ``foundry.<name>`` counters of :mod:`repro.obs`.
FOUNDRY_COUNTERS = ("artifact_hits", "artifact_misses",
                    "artifact_stale_schema", "artifact_mismatch",
                    "artifact_invalid")


def _miss(cause: Optional[str] = None) -> None:
    """Count one artifact miss (and its cause, when it is not absence)."""
    if cause is not None:
        obs.count(f"foundry.artifact_{cause}")
    obs.count("foundry.artifact_misses")


# -- the artifact --------------------------------------------------------------


@dataclass(frozen=True)
class LibraryArtifact:
    """One characterized (library, vdd): everything a hydration needs.

    ``timing`` maps cell -> ``[intrinsic_s, slope_s_per_F]``;
    ``pin_caps`` maps cell -> pin -> F; ``output_caps`` maps cell -> F;
    ``leakage`` is the exact ``_LeakageTables`` serialization (per-cell
    ``i_off``/``i_gate`` arrays over all input vectors).
    """

    library: str
    vdd: Optional[float]
    schema_version: int
    library_key: str
    builder_version: str
    tech: Dict[str, Any]
    timing: Dict[str, List[float]]
    pin_caps: Dict[str, Dict[str, float]]
    output_caps: Dict[str, float]
    leakage: Dict[str, Dict[str, list]] = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.timing)

    def to_payload(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in _PAYLOAD_FIELDS}

    @property
    def content_hash(self) -> str:
        """Stable hash of the characterized content.

        Excludes ``builder_version`` (provenance only): a version bump
        that reproduces identical numbers must not fail ``verify``.
        """
        payload = self.to_payload()
        del payload["builder_version"]
        return stable_hash(payload)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LibraryArtifact":
        """Reconstruct from a stored payload; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("artifact payload must be a dict")
        try:
            artifact = cls(
                library=str(payload["library"]),
                vdd=(None if payload["vdd"] is None
                     else float(payload["vdd"])),
                schema_version=int(payload["schema_version"]),
                library_key=str(payload["library_key"]),
                builder_version=str(payload["builder_version"]),
                tech=dict(payload["tech"]),
                timing={str(k): [float(v[0]), float(v[1])]
                        for k, v in dict(payload["timing"]).items()},
                pin_caps={str(k): {str(p): float(c)
                                   for p, c in dict(v).items()}
                          for k, v in dict(payload["pin_caps"]).items()},
                output_caps={str(k): float(v)
                             for k, v in dict(payload["output_caps"]).items()},
                leakage=dict(payload["leakage"]))
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise ValueError(f"malformed artifact payload: {error}") from None
        return artifact


# -- building ------------------------------------------------------------------


def build_artifact(name: str, vdd: Optional[float] = None, *,
                   cache: Optional[DiskCache] = None,
                   reuse_tables: bool = True) -> LibraryArtifact:
    """Characterize one (library, vdd) into an artifact (live SPICE).

    ``reuse_tables=False`` forces a from-scratch leakage build even
    when cached tables exist — the honest path for ``verify``.
    """
    key = registry.canonical_library(name)
    library = registry.build_library(key, vdd)
    if reuse_tables:
        tables = _LeakageTables.for_library(library,
                                            cache or default_cache())
    else:
        tables = _LeakageTables(library)
    timing: Dict[str, List[float]] = {}
    pin_caps: Dict[str, Dict[str, float]] = {}
    output_caps: Dict[str, float] = {}
    for cell in library:
        cell_timing = library.timing(cell.name)
        timing[cell.name] = [cell_timing.intrinsic, cell_timing.slope]
        pin_caps[cell.name] = {pin: library.pin_capacitance(cell.name, pin)
                               for pin in cell.inputs}
        output_caps[cell.name] = library.output_capacitance(cell.name)
    tech = {"name": library.tech.name, "vdd": library.tech.vdd,
            "ambipolar": library.tech.ambipolar,
            "hash": stable_hash(library.tech)}
    return LibraryArtifact(
        library=key, vdd=vdd, schema_version=FOUNDRY_SCHEMA_VERSION,
        library_key=_library_content_key(library),
        builder_version=_builder_version(), tech=tech, timing=timing,
        pin_caps=pin_caps, output_caps=output_caps,
        leakage=tables._serialize())


def _index_entry(artifact: LibraryArtifact) -> Dict[str, Any]:
    return {"library": artifact.library, "vdd": artifact.vdd,
            "hash": artifact.content_hash,
            "schema_version": artifact.schema_version,
            "builder_version": artifact.builder_version,
            "cells": artifact.n_cells}


def save_artifact(artifact: LibraryArtifact,
                  cache: Optional[DiskCache] = None) -> str:
    """Persist an artifact and index it; returns the store key."""
    cache = cache or default_cache()
    key = artifact_key(artifact.library, artifact.vdd)
    stored = artifact.to_payload()
    stored["hash"] = artifact.content_hash
    cache.put(FOUNDRY_NAMESPACE, key, stored)
    cache.merge(FOUNDRY_NAMESPACE, INDEX_KEY, {key: _index_entry(artifact)})
    return key


def _read_artifact(name: str, vdd: Optional[float],
                   cache: DiskCache) -> Tuple[Optional[LibraryArtifact], str]:
    """(artifact, status) with no counter side effects.

    Status is one of ``ok | missing | stale_schema | invalid``.
    Corrupt/truncated files surface here as ``missing`` — the cache
    layer quarantines them into a clean miss before we ever parse.
    """
    stored = cache.get(FOUNDRY_NAMESPACE, artifact_key(name, vdd))
    if stored is None:
        return None, "missing"
    if not isinstance(stored, dict):
        return None, "invalid"
    if stored.get("schema_version") != FOUNDRY_SCHEMA_VERSION:
        return None, "stale_schema"
    try:
        return LibraryArtifact.from_payload(stored), "ok"
    except ValueError:
        return None, "invalid"


def artifact_status(name: str, vdd: Optional[float] = None,
                    cache: Optional[DiskCache] = None) -> Dict[str, Any]:
    """Inspect one (library, vdd) slot without touching the counters."""
    cache = cache or default_cache()
    artifact, status = _read_artifact(name, vdd, cache)
    info: Dict[str, Any] = {
        "library": registry.canonical_library(name), "vdd": vdd,
        "status": status}
    if artifact is not None:
        info.update(hash=artifact.content_hash, cells=artifact.n_cells,
                    builder_version=artifact.builder_version)
    return info


def load_artifact(name: str, vdd: Optional[float] = None,
                  cache: Optional[DiskCache] = None
                  ) -> Optional[LibraryArtifact]:
    """Load a stored artifact, counting the outcome."""
    cache = cache or default_cache()
    artifact, status = _read_artifact(name, vdd, cache)
    if artifact is None:
        _miss(None if status == "missing" else status)
    return artifact


def load_library(name: str, vdd: Optional[float] = None,
                 cache: Optional[DiskCache] = None) -> Optional[Library]:
    """Hydrate a library from its artifact — zero SPICE solves.

    Returns ``None`` (a counted miss) when no usable artifact exists;
    the caller falls back to live characterization.  On success the
    library's timing/pin-capacitance memos and its leakage tables are
    pre-filled from the artifact, so no later estimator call can reach
    the pattern simulator.
    """
    artifact = load_artifact(name, vdd, cache)
    if artifact is None:
        return None
    library = registry.build_library(name, vdd)
    if _library_content_key(library) != artifact.library_key:
        _miss("mismatch")
        return None
    try:
        tables = _LeakageTables._decode(artifact.leakage, library)
    except (KeyError, TypeError, ValueError):
        tables = None
    if tables is None:
        _miss("invalid")
        return None
    for cell in library:
        pair = artifact.timing.get(cell.name)
        pins = artifact.pin_caps.get(cell.name)
        if (pair is None or len(pair) != 2 or pins is None
                or set(pins) != set(cell.inputs)):
            _miss("invalid")
            return None
    # All-or-nothing hydration: memos are only written once every cell
    # checked out, so a bad artifact cannot leave a half-primed library.
    for cell in library:
        pair = artifact.timing[cell.name]
        library._timings[cell.name] = CellTiming(
            intrinsic=float(pair[0]), slope=float(pair[1]))
        for pin in cell.inputs:
            library._pin_caps[(cell.name, pin)] = float(
                artifact.pin_caps[cell.name][pin])
    _LeakageTables._cache[library] = tables
    obs.count("foundry.artifact_hits")
    return library


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

    Saving the artifact is the checkpoint: a crashed-and-retried task
    redoes only its own (library, vdd); completed siblings are skipped
    by the next run's ``artifact_status`` pre-check.
    """
    key, vdd, root, enabled = task
    cache = DiskCache(root=Path(root), enabled=enabled)
    start = time.perf_counter()
    artifact = build_artifact(key, vdd, cache=cache)
    store_key = save_artifact(artifact, cache)
    return {"library": key, "vdd": vdd, "artifact_key": store_key,
            "hash": artifact.content_hash, "n_cells": artifact.n_cells,
            "elapsed_s": time.perf_counter() - start}


def characterize(libraries: Optional[Sequence[str]] = None,
                 vdd_points: Sequence[Optional[float]] = (None,),
                 *, jobs: int = 1, cache: Optional[DiskCache] = None,
                 force: bool = False) -> BuildReport:
    """Bulk-characterize libraries × vdd points into the artifact store.

    Crash-tolerant and resumable: work fans out through
    ``parallel_map_stream`` (same retry/poison discipline as sweeps)
    and every saved artifact is a checkpoint — a re-run reports those
    slots as ``cached`` without re-solving anything, unless ``force``.
    """
    from repro.experiments.parallel import parallel_map_stream, resolve_jobs

    cache = cache or default_cache()
    if not cache.enabled:
        raise ExperimentError(
            "the foundry needs a writable artifact store; the cache is "
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
    outcomes: Dict[Tuple[str, Optional[float]], BuildOutcome] = {}
    pending: List[Tuple[str, Optional[float], str, bool]] = []
    for key, vdd in tasks:
        status = artifact_status(key, vdd, cache) if not force else None
        if status is not None and status["status"] == "ok":
            outcomes[(key, vdd)] = BuildOutcome(
                library=key, vdd=vdd, artifact_key=artifact_key(key, vdd),
                hash=status["hash"], n_cells=status["cells"],
                elapsed_s=0.0, status="cached")
        else:
            pending.append((key, vdd, str(cache.root), cache.enabled))

    built: List[Dict[str, Any]] = []
    if pending:
        results = parallel_map_stream(
            _build_worker, pending, jobs=jobs,
            on_poison=lambda item, error: None)
        for slot, result in zip(pending, results):
            key, vdd = slot[0], slot[1]
            if result is None:
                outcomes[(key, vdd)] = BuildOutcome(
                    library=key, vdd=vdd,
                    artifact_key=artifact_key(key, vdd), hash=None,
                    n_cells=0, elapsed_s=0.0, status="failed",
                    detail="worker crashed repeatedly; slot poisoned")
                continue
            built.append(result)
            outcomes[(key, vdd)] = BuildOutcome(
                library=key, vdd=vdd, artifact_key=result["artifact_key"],
                hash=result["hash"], n_cells=result["n_cells"],
                elapsed_s=result["elapsed_s"], status="built")
    if built:
        # Concurrent workers merge the index independently; a racing
        # read-modify-write can drop a sibling's entry.  The parent
        # re-merges every built entry once the pool has drained.
        updates = {}
        for result in built:
            artifact, status = _read_artifact(result["library"],
                                              result["vdd"], cache)
            if artifact is not None:
                updates[result["artifact_key"]] = _index_entry(artifact)
        if updates:
            cache.merge(FOUNDRY_NAMESPACE, INDEX_KEY, updates)

    return BuildReport(
        outcomes=tuple(outcomes[task] for task in tasks),
        elapsed_s=time.perf_counter() - start,
        jobs_requested=jobs, jobs_effective=resolve_jobs(jobs),
        cache_root=str(cache.root))


# -- verification and export ---------------------------------------------------


def verify_artifact(name: str, vdd: Optional[float] = None,
                    cache: Optional[DiskCache] = None) -> Dict[str, Any]:
    """Re-characterize from scratch and diff against the stored hash."""
    cache = cache or default_cache()
    key = registry.canonical_library(name)
    stored, status = _read_artifact(key, vdd, cache)
    if stored is None:
        return {"library": key, "vdd": vdd, "status": status,
                "stored_hash": None, "rebuilt_hash": None}
    rebuilt = build_artifact(key, vdd, cache=cache, reuse_tables=False)
    ok = rebuilt.content_hash == stored.content_hash
    return {"library": key, "vdd": vdd,
            "status": "ok" if ok else "mismatch",
            "stored_hash": stored.content_hash,
            "rebuilt_hash": rebuilt.content_hash}


def store_index(cache: Optional[DiskCache] = None) -> Dict[str, Any]:
    """The artifact-store index (key -> provenance summary)."""
    cache = cache or default_cache()
    index = cache.get(FOUNDRY_NAMESPACE, INDEX_KEY)
    return index if isinstance(index, dict) else {}


def export_store(target_dir: str,
                 libraries: Optional[Sequence[str]] = None,
                 vdds: Optional[Sequence[Optional[float]]] = None,
                 cache: Optional[DiskCache] = None) -> int:
    """Copy selected artifacts into a standalone store directory.

    The result is a valid ``REPRO_CACHE_DIR`` containing only the
    ``foundry/`` namespace — a server pointed at it hydrates every
    exported library with zero live solves.  Returns the number of
    artifacts exported.
    """
    cache = cache or default_cache()
    target = DiskCache(root=Path(target_dir), enabled=True)
    wanted_keys = None
    if libraries is not None:
        wanted_keys = {registry.canonical_library(name)
                       for name in libraries}
    wanted_vdds = None if vdds is None else set(vdds)
    exported = 0
    index: Dict[str, Any] = {}
    for key, entry in sorted(store_index(cache).items()):
        if wanted_keys is not None and entry.get("library") not in wanted_keys:
            continue
        if wanted_vdds is not None and entry.get("vdd") not in wanted_vdds:
            continue
        stored = cache.get(FOUNDRY_NAMESPACE, key)
        if stored is None:
            continue
        target.put(FOUNDRY_NAMESPACE, key, stored)
        index[key] = entry
        exported += 1
    target.put(FOUNDRY_NAMESPACE, INDEX_KEY, index)
    return exported


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
            "prebuilt": entry.artifact,
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
                        f"schema=v{summary.get('schema_version')} "
                        f"builder={summary.get('builder_version')} "
                        f"cells={summary.get('cells')}")
        elif not row.get("prebuilt", True):
            lines.append("    artifacts: disabled (live-only registration)")
        else:
            lines.append("    artifacts: none (live characterization)")
        if row.get("hot_vdds"):
            hot = ", ".join(_format_vdd(vdd) for vdd in row["hot_vdds"])
            lines.append(f"    hot in-process: {hot}")
    return lines
