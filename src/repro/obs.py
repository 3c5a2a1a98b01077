"""The process-wide counter registry.

Every layer counts its work here under a dotted name: the caches
(``activity.hits``, ``timing.computes``, ...), the disk tier
(``disk.quarantined``, ``disk.flight_leader``, ...), the simulation
kernel (``sim.gate_evals``, ``sim.elapsed_s``), the foundry
(``foundry.artifact_hits``) and the SPICE solver (``spice.solves``).

Counters only grow; there is deliberately no reset.  A reader takes a
:func:`snapshot` and later reports the :func:`diff` against it — the
serving engine does so from its construction on, a test around the
code it exercises — so a diff can never go negative.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Iterable, Mapping

_LOCK = threading.Lock()
_COUNTS: Dict[str, float] = {}


def count(name: str, amount: float = 1) -> None:
    """Add ``amount`` to the counter ``name`` (thread-safe)."""
    with _LOCK:
        _COUNTS[name] = _COUNTS.get(name, 0) + amount


def snapshot() -> Counter:
    """Every counter's current value (absent names read as 0)."""
    with _LOCK:
        return Counter(_COUNTS)


def diff(before: Mapping[str, float]) -> Counter:
    """What every counter gained since the ``before`` snapshot."""
    now = snapshot()
    return Counter({name: value - before.get(name, 0)
                    for name, value in now.items()})


def section(counts: Mapping[str, float], prefix: str,
            names: Iterable[str] = ()) -> Dict[str, float]:
    """The counters under ``prefix.``, keyed without the prefix.

    ``names`` are always present (0 when never counted), so a report
    built from a section has a stable shape from the first request on.
    """
    out: Dict[str, float] = dict.fromkeys(names, 0)
    head = prefix + "."
    for name, value in counts.items():
        if name.startswith(head):
            out[name[len(head):]] = value
    return out
