"""The resumable result store of sweeps and served answers.

Every completed sweep point or served answer is kept as one
self-describing record keyed by its task's content hash
(``task_key``).  A :class:`ResultStore` is a JSON-lines file, one
record per line, or keeps its records in memory when it has no path.
Appends are single ``write()`` calls of one line, so concurrent
writers interleave whole records; a torn final line (from a killed
run) is skipped and its point recomputed.  The file is read once, when
the store is opened; an index of the last record per key answers every
lookup after that, and each append updates it.

Resume falls out of the keying: a sweep run only executes tasks the
store holds no current record for (:func:`missing_tasks`), so
interrupting a sweep loses at most the points in flight and re-running
a finished sweep executes nothing.  A record is current while its
``content`` matches the registered circuit and library
(:meth:`ResultStore.current`): redefining a circuit under the same name
re-executes its points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro import registry
from repro.errors import ExperimentError
from repro.schema import PowerQuery
from repro.sweep.spec import SweepSpec, SweepTask

#: The first bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"


class ResultStore:
    """Sweep records keyed by ``task_key``, last write per key wins.

    Args:
        path: the JSON-lines file, or ``None`` for a store that lives
            only as long as the object (:meth:`repro.api.Session.sweep`
            uses one when given no store).  A missing file reads as
            empty; nothing is created before the first append.

    Raises:
        ExperimentError: when ``path`` is a SQLite database, which
            earlier versions could write; the file is left untouched.
    """

    def __init__(self, path: Union[str, Path, None] = None):
        self.path = None if path is None else Path(path)
        self._index: Dict[str, Dict[str, Any]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def __str__(self) -> str:
        return ":memory:" if self.path is None else str(self.path)

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            if handle.read(len(_SQLITE_HEADER)) == _SQLITE_HEADER:
                raise ExperimentError(
                    f"{self.path} is a SQLite result store, which this "
                    f"version no longer reads; convert it to JSON lines "
                    f"by printing each row of 'SELECT record FROM "
                    f"sweep_results ORDER BY rowid' on its own line "
                    f"(README.md has the one-liner)")
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn line from a killed writer: that point is
                    # simply not finished and will be recomputed.
                    continue
                if isinstance(record, dict) and "task_key" in record:
                    self._index[record["task_key"]] = record

    def append(self, record: Dict[str, Any]) -> None:
        """Persist one completed point (or a :func:`poison_record`)."""
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps(record, separators=(",", ":"),
                              sort_keys=True) + "\n"
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        self._index[record["task_key"]] = record

    def all_records(self) -> List[Dict[str, Any]]:
        """Every stored record *including* poison markers, oldest key
        first.

        :meth:`records` (and therefore :meth:`keys`) exclude poison
        records so result consumers never mistake a quarantine marker
        for a completed point.
        """
        return list(self._index.values())

    def records(self) -> List[Dict[str, Any]]:
        """All stored points, oldest key first."""
        return [record for record in self.all_records()
                if not record.get("poison")]

    def keys(self) -> Set[str]:
        """Task keys of every stored point."""
        return {record["task_key"] for record in self.records()}

    def poison_keys(self) -> Set[str]:
        """Task keys quarantined as poison (see :func:`poison_record`)."""
        return {record["task_key"] for record in self.all_records()
                if record.get("poison")}

    def get(self, task_key: str) -> Optional[Dict[str, Any]]:
        """The stored point of one task key, or None (also for a
        quarantined key)."""
        record = self._index.get(task_key)
        return None if record is None or record.get("poison") else record

    def current(self, query: PowerQuery) -> Optional[Dict[str, Any]]:
        """The record under ``query.query_key`` while its ``content``
        equals :func:`repro.registry.content_key` of the query's circuit
        and library, else None.

        A record written for an older definition is a miss, and so is
        one without ``content`` (written before records carried it, or
        a poison marker) — without building anything.
        """
        record = self._index.get(query.query_key)
        if record is None or "content" not in record:
            return None
        if record["content"] != registry.content_key(query.circuit,
                                                     query.library):
            return None
        return record

    def __len__(self) -> int:
        return len(self.keys())


def poison_record(task_key: str, reason: str,
                  crashes: int = 0) -> Dict[str, Any]:
    """A quarantine marker for a task that kept crashing workers.

    Stored alongside result records (same key space) but flagged with
    ``"poison": True`` so :meth:`ResultStore.records`/``keys``/``get``
    skip it; resume logic can see *why* a point is absent and operators
    can clear the marker to retry.
    """
    return {"task_key": task_key, "poison": True,
            "reason": reason, "crashes": crashes}


def missing_tasks(tasks: Sequence[SweepTask],
                  store: ResultStore) -> List[SweepTask]:
    """The tasks ``store`` holds no current answer for
    (:meth:`ResultStore.current`), in task order: their points are
    recomputed and their records overwritten."""
    return [task for task in tasks if store.current(task) is None]


def sweep_status(spec: SweepSpec, store: ResultStore) -> Dict[str, Any]:
    """How much of a spec's grid a store already holds.

    Returns ``total`` / ``done`` / ``missing`` counts plus the
    (circuit, library, vdd) triples of up to 20 missing points for
    orientation.
    """
    tasks = spec.expand()
    missing = missing_tasks(tasks, store)
    return {
        "spec_hash": spec.spec_hash,
        "total": len(tasks),
        "done": len(tasks) - len(missing),
        "missing": len(missing),
        "missing_preview": [
            {"circuit": task.circuit, "library": task.library,
             "vdd": task.config.vdd, "frequency": task.config.frequency,
             "fanout": task.config.fanout,
             "n_patterns": task.config.n_patterns}
            for task in missing[:20]],
    }


def require_store(path: Union[str, Path]) -> ResultStore:
    """Open an existing store, failing clearly when it is absent."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"result store {path} does not exist")
    return ResultStore(path)
