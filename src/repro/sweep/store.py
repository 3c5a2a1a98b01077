"""Resumable result stores for sweep runs.

Every completed sweep point is persisted as one self-describing record
keyed by its task's content hash.  Two backends share one interface,
chosen by file suffix in :func:`open_store`:

* **JSONL** (default, any suffix): append-only, one JSON object per
  line.  Appends are single ``write()`` calls of one line, so
  concurrent writers interleave whole records; a torn final line (from
  a killed run) is tolerated and simply recomputed.
* **SQLite** (``.sqlite`` / ``.sqlite3`` / ``.db``): one table keyed
  by ``task_key``, ``INSERT OR REPLACE`` semantics.

Resume falls out of the keying: a sweep run only executes tasks the
store holds no current record for (:func:`missing_tasks`), so
interrupting a sweep loses at most the points in flight and re-running
a finished sweep executes nothing.  A record is current while its
``content`` matches the registered circuit and library: redefining a
circuit under the same name re-executes its points.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro import registry
from repro.errors import ExperimentError
from repro.sweep.spec import SweepSpec, SweepTask

#: Suffixes routed to the SQLite backend.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


class ResultStore:
    """Interface shared by the JSONL and SQLite backends."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def keys(self) -> Set[str]:
        """Task keys of every stored point."""
        return {record["task_key"] for record in self.records()}

    def records(self) -> List[Dict[str, Any]]:
        """All stored records, oldest first, last write per key wins."""
        return [record for record in self.all_records()
                if not record.get("poison")]

    def append(self, record: Dict[str, Any]) -> None:
        """Persist one completed point."""
        raise NotImplementedError

    def get(self, task_key: str) -> Optional[Dict[str, Any]]:
        """The record of one task key, or None."""
        for record in self.records():
            if record.get("task_key") == task_key:
                return record
        return None

    def poison_keys(self) -> Set[str]:
        """Task keys quarantined as poison (see :func:`poison_record`)."""
        return {record["task_key"] for record in self.all_records()
                if record.get("poison")}

    def all_records(self) -> List[Dict[str, Any]]:
        """Every stored record *including* poison markers.

        :meth:`records` (and therefore :meth:`keys`) exclude poison
        records so result consumers never mistake a quarantine marker
        for a completed point.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.keys())


def poison_record(task_key: str, reason: str,
                  crashes: int = 0) -> Dict[str, Any]:
    """A quarantine marker for a task that kept crashing workers.

    Stored alongside result records (same key space) but flagged with
    ``"poison": True`` so :meth:`ResultStore.records`/``keys`` skip it;
    resume logic can see *why* a point is absent and operators can
    clear the marker to retry.
    """
    return {"task_key": task_key, "poison": True,
            "reason": reason, "crashes": crashes}


class MemoryResultStore(ResultStore):
    """A dict-backed store for API sessions that never touch disk.

    Same key-addressed semantics as the persistent backends (last
    write per key wins), but the records live only as long as the
    object — :meth:`repro.api.Session.sweep` uses one when no store is
    given.
    """

    def __init__(self):
        super().__init__(":memory:")
        self._records: Dict[str, Dict[str, Any]] = {}

    def all_records(self) -> List[Dict[str, Any]]:
        return list(self._records.values())

    def append(self, record: Dict[str, Any]) -> None:
        self._records[record["task_key"]] = record

    def get(self, task_key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(task_key)


class JsonlResultStore(ResultStore):
    """Append-only JSON-lines store (the default backend)."""

    def all_records(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        by_key: Dict[str, Dict[str, Any]] = {}
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
                    by_key[record["task_key"]] = record
        return list(by_key.values())

    def append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)


class SqliteResultStore(ResultStore):
    """SQLite-backed store for sweeps too large to rescan as JSONL."""

    def __init__(self, path: Union[str, Path]):
        super().__init__(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS sweep_results ("
                " task_key TEXT PRIMARY KEY,"
                " record TEXT NOT NULL)")

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path)

    def all_records(self) -> List[Dict[str, Any]]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT record FROM sweep_results ORDER BY rowid")
            return [json.loads(row[0]) for row in rows]

    def append(self, record: Dict[str, Any]) -> None:
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO sweep_results (task_key, record) "
                "VALUES (?, ?)", (record["task_key"], payload))

    def get(self, task_key: str) -> Optional[Dict[str, Any]]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT record FROM sweep_results WHERE task_key = ?",
                (task_key,)).fetchone()
        return json.loads(row[0]) if row else None


def open_store(path: Union[str, Path]) -> ResultStore:
    """Open (creating lazily) the store for a path, by suffix."""
    path = Path(path)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return SqliteResultStore(path)
    return JsonlResultStore(path)


def missing_tasks(tasks: Sequence[SweepTask],
                  store: ResultStore) -> List[SweepTask]:
    """The tasks ``store`` holds no current answer for, in task order.

    A stored record counts only while its ``content`` matches the
    current registrations of its circuit and library.  One written for
    an older definition, or before records carried ``content``, is a
    miss: the point is recomputed and its record overwritten.
    """
    stored = {record["task_key"]: record.get("content")
              for record in store.records()}
    return [task for task in tasks
            if stored.get(task.task_key) is None
            or stored[task.task_key]
            != registry.content_key(task.circuit, task.library)]


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
    return open_store(path)


def open_store_for_read(path: Union[str, Path]) -> ResultStore:
    """Open a store for querying without creating anything on disk.

    A missing path reads as an empty store (the JSONL backend never
    touches the filesystem on read), where :func:`open_store` on a
    SQLite path would create the database file as a side effect —
    wrong for read-only queries like ``sweep status``.
    """
    path = Path(path)
    if not path.exists():
        return JsonlResultStore(path)
    return open_store(path)
