"""Persistent on-disk characterization cache.

SPICE-derived characterization data (per-library leakage tables) and
simulation statistics are identical for identical inputs, so they are
cached on disk keyed by a *stable content hash*:
change any field of :class:`~repro.devices.parameters.TechnologyParams`
(or a cell definition, a netlist, a pattern budget) and the key
changes, which is the whole invalidation story — stale entries are
simply never read again and are garbage-collected by
:meth:`DiskCache.clear`.

Layout and configuration:

* entries live under ``<root>/<namespace>/<key>.json``;
* the root is ``$REPRO_CACHE_DIR`` if set, else
  ``~/.cache/repro-ambipolar``;
* ``REPRO_CACHE_DISABLE=1`` turns all persistence off (every ``get``
  misses, every ``put`` is a no-op) — useful for hermetic tests;
* writes are atomic (temp file in the same directory + ``os.replace``)
  and merge-on-write, so concurrent processes can only lose a
  redundant update, never corrupt an entry.

**Crash tolerance**: no byte read from disk is trusted.  Entries are
written as a checksummed envelope (``{"__repro_cache__": 1, "sha256":
..., "value": ...}``); reads verify the checksum and *quarantine*
anything unparseable, truncated or mismatched — the file is moved
aside to ``<root>/_quarantine/<namespace>/`` (for post-mortem) and the
read reports a clean miss, so a process killed mid-anything can never
poison future runs.  An entry without the envelope is quarantined the
same way.  Quarantine/verification counters are ``disk.*`` counters of
:mod:`repro.obs` and surface in the server's ``/healthz``.

The read path carries the ``cache.corrupt_read`` fault-injection
point (:mod:`repro.faults`): a chaos run can garble any read and
assert that quarantine turns it into a recomputation, bit-identical
to the clean path.

**Cross-process single-flight**: the disk tier doubles as a
coordination point for a fleet of worker processes.  When N cold
workers miss the same content-addressed key at once, each paying the
full computation is a cache stampede; :func:`single_flight` elects
exactly one *leader* per key via an ``O_CREAT | O_EXCL`` lock file
under ``<root>/_locks/<namespace>/`` (the same ticket pattern
:mod:`repro.faults` uses for cross-process fault budgets) while the
other processes poll the disk entry the leader will write.  A leader
that dies mid-compute leaves its lock behind; followers detect the
stale lock (owner pid dead on this host, or older than the staleness
window) and take over leadership.  Because every computation here is
deterministic and content-addressed, the worst outcome of any race is
one redundant recomputation — never a wrong answer.  Leader/follower/
takeover counters are ``disk.flight_*`` counters of :mod:`repro.obs`
and surface in the server's ``/healthz``.

**The ladder**: every expensive content-addressed artifact (activity
statistics, leakage tables) is read through one :class:`Ladder` — an
:class:`LruCache`, then the disk entry, then the computation under
:func:`single_flight`.  Timing reports are not: computing one costs
less than reading it back, so :mod:`repro.timing` memoizes each on its
netlist only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Optional

from repro import obs

#: Environment variable naming the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Environment variable disabling persistence entirely when set to a
#: non-empty value other than "0".
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"

#: Version tag of the checksummed on-disk envelope.
CACHE_FORMAT_VERSION = 1

#: Directory (under the cache root) corrupt entries are moved to.
QUARANTINE_DIRNAME = "_quarantine"

#: Directory (under the cache root) single-flight lock files live in.
LOCKS_DIRNAME = "_locks"

#: Age past which a single-flight lock whose owner cannot be probed
#: (different host, unreadable payload) is considered abandoned.
DEFAULT_LOCK_STALE_S = 30.0

#: How long a single-flight follower polls for the leader's entry
#: before giving up and computing redundantly (never deadlock on a
#: lock, whatever happens to its owner).
DEFAULT_FLIGHT_WAIT_S = 600.0

_DEFAULT_ROOT = Path.home() / ".cache" / "repro-ambipolar"


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__

#: Per dataclass type: ``('"name":', name)`` of each field, sorted.
_FIELD_KEYS: Dict[type, tuple] = {}


class Canonical:
    """A value already reduced to its :func:`canonical_json` text.

    :func:`canonical_json` embeds the text verbatim, so a key that
    contains an already-encoded object does not encode it again.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def canonical(value: Any) -> Canonical:
    """A frozen dataclass's :func:`canonical_json`, encoded once per
    instance (the memo lives in the instance, so it is never shared
    between values that merely compare equal)."""
    memo = value.__dict__.get("_canonical")
    if memo is None:
        memo = value.__dict__["_canonical"] = Canonical(
            canonical_json(value))
    return memo


def canonical_json(value: Any) -> str:
    """The compact, key-sorted JSON text :func:`stable_hash` hashes.

    Dataclasses become objects of their fields, dict keys become
    ``str(key)``, tuples become lists, floats become the string of
    their ``repr`` (which round-trips doubles exactly and keeps ``1``,
    ``1.0`` and ``np.float64(1.0)`` apart), anything else that is not
    a JSON scalar becomes the string of its ``repr``.  Strings are
    ASCII-escaped.  Plain types take a fast path on their exact type.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        return '"' + _float_repr(value) + '"'
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return _int_repr(value)
    if value is None:
        return "null"
    if kind is list or kind is tuple:
        return "[" + ",".join([canonical_json(item) for item in value]) + "]"
    if kind is dict:
        return _object_json(value)
    if kind is Canonical:
        return value.text
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _fields_json(value)
    if isinstance(value, dict):
        return _object_json(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([canonical_json(item) for item in value]) + "]"
    if isinstance(value, float):
        return _encode_str(repr(value))
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return _int_repr(value)
    return _encode_str(repr(value))


def _object_json(value: Dict[Any, Any]) -> str:
    items = sorted(value.items())
    if not all(type(key) is str for key, _ in items):
        items = sorted({str(key): item for key, item in items}.items())
    return "{" + ",".join([_encode_str(key) + ":" + canonical_json(item)
                           for key, item in items]) + "}"


def _fields_json(value: Any) -> str:
    kind = type(value)
    keys = _FIELD_KEYS.get(kind)
    if keys is None:
        keys = _FIELD_KEYS[kind] = tuple(
            (_encode_str(name) + ":", name) for name in sorted(
                field.name for field in dataclasses.fields(value)))
    parts = []
    for key, name in keys:
        # The scalar fast paths of canonical_json, inlined: most
        # fields are plain floats, ints and strings.
        item = getattr(value, name)
        item_kind = type(item)
        if item_kind is float:
            parts.append(key + '"' + _float_repr(item) + '"')
        elif item_kind is int:
            parts.append(key + _int_repr(item))
        elif item_kind is str:
            parts.append(key + _encode_str(item))
        else:
            parts.append(key + canonical_json(item))
    return "{" + ",".join(parts) + "}"


def stable_hash(value: Any) -> str:
    """Deterministic content hash of dataclasses / plain structures.

    Two values hash equal iff their :func:`canonical_json` texts are
    equal, so e.g. two separately-constructed but identical
    ``TechnologyParams`` share cache entries while any field change
    produces a fresh key.
    """
    return hashlib.sha256(
        canonical_json(value).encode("utf-8")).hexdigest()[:32]


def _entry_checksum(value: Any) -> str:
    """Checksum of an entry's *serialized* value, as stored on disk."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_enabled() -> bool:
    """True unless ``REPRO_CACHE_DISABLE`` is set (and not \"0\")."""
    flag = os.environ.get(ENV_CACHE_DISABLE, "")
    return flag in ("", "0")


def cache_root() -> Path:
    """The configured cache root directory (may not exist yet)."""
    configured = os.environ.get(ENV_CACHE_DIR)
    return Path(configured) if configured else _DEFAULT_ROOT


#: The disk tier's ``disk.*`` counters, as ``/healthz`` reports them:
#: entries ``verified``; corrupt or envelope-less entries
#: ``quarantined`` (split into ``checksum_mismatch``/``unparseable``);
#: single-flight computations led, answers waited for, stale locks
#: taken over and waits given up (``flight_leader``/``_follower``/
#: ``_takeover``/``_timeout``).
DISK_COUNTERS = ("verified", "quarantined", "checksum_mismatch",
                 "unparseable", "flight_leader", "flight_follower",
                 "flight_takeover", "flight_timeout")


def _count(key: str) -> None:
    obs.count("disk." + key)


class DiskCache:
    """A tiny namespaced JSON key-value store on disk."""

    def __init__(self, root: Optional[Path] = None,
                 enabled: Optional[bool] = None):
        self.root = Path(root) if root is not None else cache_root()
        self.enabled = cache_enabled() if enabled is None else enabled

    def _path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / f"{key}.json"

    def _quarantine(self, path: Path, namespace: str, reason: str) -> None:
        """Move a corrupt entry aside; never raise, never re-read it."""
        _count("quarantined")
        _count(reason)
        target_dir = self.root / QUARANTINE_DIRNAME / namespace
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            # A nanosecond stamp keeps repeated quarantines of the same
            # key from overwriting each other's evidence.
            target = target_dir / f"{path.stem}.{time.time_ns()}{path.suffix}"
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, namespace: str, key: str) -> Optional[Any]:
        """Load an entry, or None when absent/disabled/corrupt.

        Corrupt or truncated entries are quarantined (moved aside and
        counted) so they are a miss now *and* on every future read.
        """
        if not self.enabled:
            return None
        path = self._path(namespace, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        from repro import faults

        if faults.fire("cache.corrupt_read",
                       context=f"{namespace}/{key}") is not None:
            text = faults.corrupt(text)
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, namespace, "unparseable")
            return None
        if not (isinstance(payload, dict)
                and payload.get("__repro_cache__") == CACHE_FORMAT_VERSION):
            # No envelope, so nothing to verify the value against.
            self._quarantine(path, namespace, "unparseable")
            return None
        value = payload.get("value")
        if payload.get("sha256") != _entry_checksum(value):
            self._quarantine(path, namespace, "checksum_mismatch")
            return None
        _count("verified")
        return value

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Atomically store a checksummed entry (no-op when disabled).

        The temp file lives in the destination directory so
        ``os.replace`` is a same-filesystem atomic rename: a killed
        process leaves either the old entry or the new one, never a
        partial file under the real name.
        """
        if not self.enabled:
            return
        path = self._path(namespace, key)
        envelope = {"__repro_cache__": CACHE_FORMAT_VERSION,
                    "sha256": _entry_checksum(value),
                    "value": value}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(envelope, handle, separators=(",", ":"))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full filesystem degrades to no persistence.
            pass

    def merge(self, namespace: str, key: str,
              updates: Dict[str, Any]) -> Dict[str, Any]:
        """Read-modify-write a dict entry; returns the merged dict.

        Concurrent writers each re-read before writing, so the worst
        outcome of a race is one writer redoing the other's (identical,
        content-addressed) work.
        """
        current = self.get(namespace, key)
        merged = dict(current) if isinstance(current, dict) else {}
        merged.update(updates)
        self.put(namespace, key, merged)
        return merged

    # -- single-flight locks ----------------------------------------------

    def lock_path(self, namespace: str, key: str) -> Path:
        return self.root / LOCKS_DIRNAME / namespace / f"{key}.lock"

    def try_lock(self, namespace: str, key: str) -> bool:
        """Claim the single-flight lock for a key (``O_CREAT|O_EXCL``).

        The lock file records the owner's pid/host/claim time so other
        processes can judge staleness.  Returns False when someone else
        holds it (or the filesystem refuses — a degraded filesystem
        must degrade to duplicate work, not to a crash).
        """
        path = self.lock_path(namespace, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(),
                           "host": os.uname().nodename,
                           "time": time.time()}, handle)
        except OSError:
            pass
        return True

    def unlock(self, namespace: str, key: str) -> None:
        """Release a single-flight lock (missing file is fine)."""
        try:
            self.lock_path(namespace, key).unlink()
        except OSError:
            pass

    def lock_stale(self, namespace: str, key: str,
                   stale_s: float = DEFAULT_LOCK_STALE_S) -> bool:
        """True when the key's lock exists but its owner is gone.

        A lock is stale when its recorded owner pid is dead on this
        host, or — when the owner cannot be probed (another host, a
        torn lock write) — when the file is older than ``stale_s``.
        A live same-host owner is *never* stale by age alone: a big
        computation legitimately outlives any fixed window.
        """
        path = self.lock_path(namespace, key)
        try:
            stat = path.stat()
        except OSError:
            return False  # no lock at all
        age = time.time() - stat.st_mtime
        try:
            with open(path, "r", encoding="utf-8") as handle:
                owner = json.load(handle)
            pid = int(owner["pid"])
            host = str(owner.get("host", ""))
        except (OSError, ValueError, KeyError, TypeError):
            return age > stale_s  # unreadable: trust only the clock
        if host and host != os.uname().nodename:
            return age > stale_s  # cannot probe a foreign pid
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # owner died mid-compute
        except OSError:
            pass  # EPERM etc.: the pid exists
        return False


    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete cached entries; returns the number of files removed."""
        base = self.root / namespace if namespace else self.root
        removed = 0
        if not base.exists():
            return removed
        for path in sorted(base.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def single_flight(cache: DiskCache, namespace: str, key: str,
                  compute, probe, *,
                  stale_s: float = DEFAULT_LOCK_STALE_S,
                  poll_s: float = 0.02,
                  max_wait_s: float = DEFAULT_FLIGHT_WAIT_S) -> Any:
    """Compute a content-addressed value exactly once across processes.

    ``probe()`` returns the finished value from the disk tier (or
    ``None``); ``compute()`` produces it *and persists it* so other
    processes' probes can see it.  The first process to claim the key's
    lock file computes; everyone else polls ``probe`` until the entry
    appears.  Recovery paths:

    * the leader's lock is released in a ``finally`` — an exception
      frees the key immediately;
    * a leader *killed* mid-compute (SIGKILL, power loss) leaves its
      lock behind; followers detect the dead owner (or, cross-host,
      the ``stale_s`` age) via :meth:`DiskCache.lock_stale`, break the
      lock and re-race for leadership;
    * a follower that has waited ``max_wait_s`` computes redundantly
      rather than wait forever — duplicate work, never a deadlock.

    With the cache disabled there is no shared tier to coordinate
    through, so the call degrades to a plain ``compute()``.
    """
    if not cache.enabled:
        return compute()
    deadline = time.monotonic() + max_wait_s
    waited = False
    while True:
        if cache.try_lock(namespace, key):
            try:
                # Between our probe miss and the lock claim another
                # leader may have finished: serve its entry, skip the
                # compute entirely.
                value = probe()
                if value is not None:
                    _count("flight_follower")
                    return value
                _count("flight_leader")
                return compute()
            finally:
                cache.unlock(namespace, key)
        value = probe()
        if value is not None:
            if waited:
                _count("flight_follower")
            return value
        if cache.lock_stale(namespace, key, stale_s):
            # The leader died mid-compute: break its lock and re-race.
            # Two followers may both unlink (one of them a fresh lock
            # in the worst interleaving); the cost is one redundant
            # deterministic compute, not corruption.
            cache.unlock(namespace, key)
            _count("flight_takeover")
            continue
        if time.monotonic() >= deadline:
            _count("flight_timeout")
            return compute()
        waited = True
        time.sleep(poll_s)


def default_cache() -> DiskCache:
    """A cache bound to the current environment configuration.

    Constructed fresh on every call so tests can redirect or disable the
    cache by setting the environment variables at any point.
    """
    return DiskCache()


class LruCache:
    """A thread-safe LRU counting ``<name>.hits`` / ``<name>.misses``.

    Values are never ``None`` (a ``None`` from :meth:`get` is a miss).
    """

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
        obs.count(f"{self.name}.{'misses' if value is None else 'hits'}")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is held, without counting or reordering."""
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class Ladder:
    """LRU -> checksummed disk -> single-flight compute, for one namespace.

    ``encode(value)`` turns a value into its JSON payload;
    ``decode(payload, subject)`` turns a payload read back (``None`` when
    absent) into a value for the requesting ``subject`` (a netlist, a
    library), returning ``None`` — or raising ``TypeError``/
    ``ValueError``/``KeyError`` — when it does not structurally fit.
    Such an entry is a miss, recomputed and overwritten.  ``maxsize=0``
    keeps nothing in the LRU (for values an instance memo holds).

    Counts ``<namespace>.hits`` / ``.misses`` (LRU), ``.disk_hits``
    (served from disk, directly or from a single-flight leader's entry)
    and ``.computes`` in :mod:`repro.obs`.  Keys are content hashes, so
    nothing ever needs invalidating.
    """

    def __init__(self, namespace: str, encode: Callable[[Any], Any],
                 decode: Callable[[Any, Any], Any], maxsize: int = 0):
        self.namespace = namespace
        self.encode = encode
        self.decode = decode
        self.lru = LruCache(namespace, maxsize)

    def get(self, key: str, subject: Any, compute: Callable[[], Any],
            disk: Optional[DiskCache] = None) -> Any:
        """The value under ``key``, computing it at most once fleet-wide.

        ``disk`` defaults to :func:`default_cache` (the environment's
        store).  The returned value is shared — treat it as immutable.
        """
        value = self.lru.get(key)
        if value is not None:
            return value
        if disk is None:
            disk = default_cache()
        computed = []

        def probe() -> Optional[Any]:
            return self.stored(key, subject, disk)

        def produce() -> Any:
            computed.append(compute())
            obs.count(self.namespace + ".computes")
            disk.put(self.namespace, key, self.encode(computed[0]))
            return computed[0]

        value = probe()
        if value is None:
            value = single_flight(disk, self.namespace, key, produce, probe)
        if not computed:
            obs.count(self.namespace + ".disk_hits")
        self.lru.put(key, value)
        return value

    def stored(self, key: str, subject: Any,
               disk: DiskCache) -> Optional[Any]:
        """The disk tier's value under ``key``, decoded for ``subject``.

        ``None`` when the entry is absent or does not fit; nothing is
        counted or computed.
        """
        try:
            return self.decode(disk.get(self.namespace, key), subject)
        except (TypeError, ValueError, KeyError):
            return None
