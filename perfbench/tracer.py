"""Layer spans recorded from outside the program.

The benchmark times each layer by replacing the public entry point of
its module with a wrapper that records one span per call: the layer
name, start and end (``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so spans of different processes line up),
the span that was open on the same thread when it started, and the
phase the run was in.  Nothing inside ``src/`` is edited.

Spans stay in memory and are written to one JSON file per process when
the process ends (:meth:`Tracer.dump`).  Forked fleet workers inherit
the wrappers and the shared phase flag; each worker starts with an
empty span list and writes its own file when it exits.

:func:`summarize` turns the span files of a run into per-layer busy
(self) times and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.sharedctypes
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Phase flag values.  Wrappers record nothing while the flag is OFF.
OFF, SETUP, MEASURE = 0, 1, 2

#: (layer, module, attribute) for every public entry point timed.  A
#: dotted attribute names a method or classmethod.  An entry point a
#: later refactor removes is reported as missing, not as an error.
LAYERS = (
    ("synth", "repro.synth.scripts", "resyn2rs"),
    ("synth.cuts", "repro.synth.cuts", "enumerate_cuts"),
    ("synth.mapper", "repro.synth.mapper", "map_aig"),
    ("registry", "repro.registry", "cached_library"),
    ("sim.activity", "repro.sim.activity", "simulation_stats"),
    ("sim.estimator", "repro.sim.estimator", "estimate_circuit_power"),
    ("sim.estimator", "repro.sim.estimator", "estimate_many"),
    ("timing", "repro.timing", "timing_report"),
    ("timing", "repro.timing", "analyze_timing"),
    ("optimize", "repro.optimize", "run_optimize"),
    ("serve.engine.estimate", "repro.serve.engine", "Engine.estimate"),
    ("serve.engine", "repro.serve.engine", "Engine.estimate_batch"),
    ("serve.engine", "repro.serve.engine", "Engine.optimize"),
    ("schema.parse", "repro.schema", "PowerQuery.from_dict"),
    ("schema.parse", "repro.schema", "OptimizeQuery.from_dict"),
    ("schema.parse", "repro.schema", "queries_from_batch"),
    ("schema.serialize", "repro.schema", "PowerQuoteReport.to_dict"),
    ("schema.serialize", "repro.schema", "OptimizeReport.to_dict"),
    ("schema.serialize", "repro.schema", "batch_response_payload"),
)

#: Modules imported before patching, so every ``from x import f`` copy
#: of a timed function already exists and gets replaced too.
_IMPORTS = ("repro.api", "repro.serve", "repro.optimize")


def _activity_attrs(signature: inspect.Signature) -> Callable:
    """Describe a ``simulation_stats`` call: its cache key and its work
    (gate count x patterns), read from the call's own arguments."""

    def describe(args, kwargs) -> Optional[List[Any]]:
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return None
        bound.apply_defaults()
        values = bound.arguments
        netlist = values.get("netlist")
        n_patterns = values.get("n_patterns")
        try:
            key = "|".join(str(part) for part in (
                netlist.name, netlist.library.name,
                netlist.library.tech.vdd, n_patterns, values.get("seed"),
                values.get("state_patterns")))
            return [key, int(netlist.gate_count) * int(n_patterns)]
        except (AttributeError, TypeError, ValueError):
            return None

    return describe


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        # Shared memory: a forked worker sees the parent's flag flips.
        self.flag = multiprocessing.sharedctypes.RawValue("i", OFF)
        self.spans: List[tuple] = []
        self.installed: List[str] = []
        self.missing: List[str] = []
        self.dump_dir: Optional[Path] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def set_phase(self, phase: int) -> None:
        self.flag.value = phase

    def _after_fork(self) -> None:
        # multiprocessing clears its finalizers in a new child before it
        # runs after-fork hooks, so the dump is registered here.
        self.spans.clear()
        if self.dump_dir is not None:
            multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def wrap(self, layer: str, func: Callable,
             describe: Optional[Callable] = None) -> Callable:
        flag, spans, ids, local = self.flag, self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            phase = flag.value
            if not phase:
                return func(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                attrs = describe(args, kwargs) if describe else None
                spans.append((span_id, parent, layer, start, end, phase,
                              attrs))

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` wherever it is bound."""
        for name in _IMPORTS:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        replacements: Dict[int, Any] = {}
        for layer, module_name, attribute in LAYERS:
            label = f"{module_name}.{attribute}"
            try:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                func = raw.__func__
                setattr(owner, leaf, classmethod(self.wrap(layer, func)))
                self.installed.append(label)
                continue
            describe = None
            if layer == "sim.activity":
                describe = _activity_attrs(inspect.signature(raw))
            wrapped = self.wrap(layer, raw, describe)
            setattr(owner, leaf, wrapped)
            replacements[id(raw)] = (raw, wrapped)
            self.installed.append(label)
        # Rebind copies made by ``from module import name``.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> None:
        """Write this process's spans to ``dump_dir/spans-<pid>.json``."""
        if self.dump_dir is None:
            return
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        payload = {"pid": os.getpid(), "installed": self.installed,
                   "missing": self.missing, "spans": self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call (a wrapped no-op against
    the bare one), to turn span counts into tracing overhead."""
    tracer = Tracer()
    tracer.set_phase(MEASURE)

    def noop() -> None:
        return None

    wrapped = tracer.wrap("calibration", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock()
    for _ in range(calls):
        wrapped()
    end = clock()
    return max(0.0, ((end - bare) - (bare - start)) / calls)


# -- analysis ---------------------------------------------------------------

def load_spans(directory: Path) -> List[dict]:
    """Every span file a run wrote (one per process)."""
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("spans-*.json"))]


def summarize(files: Iterable[dict], phase: int = MEASURE) -> Dict[str, Any]:
    """Per-layer self time and calls over the spans of ``phase``.

    A span's self time is its duration minus the durations of its
    direct children (spans are strictly nested on one thread).  The
    first span of each activity key across all processes and phases is
    the one that simulated: the run starts on an empty disk cache, and
    the cache is single-flight across fleet workers.
    """
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    n_spans = 0
    first_activity: Dict[str, tuple] = {}
    installed, missing = set(), set()
    for payload in files:
        installed.update(payload.get("installed", ()))
        missing.update(payload.get("missing", ()))
        spans = payload["spans"]
        child_time: Dict[int, float] = {}
        for span_id, parent, layer, start, end, span_phase, attrs in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + (end - start)
        for span_id, parent, layer, start, end, span_phase, attrs in spans:
            if layer == "sim.activity" and attrs:
                key, work = attrs
                seen = first_activity.get(key)
                if seen is None or start < seen[0]:
                    first_activity[key] = (start, end - start, work,
                                           span_phase)
            if span_phase != phase:
                continue
            n_spans += 1
            own = (end - start) - child_time.get(span_id, 0.0)
            busy[layer] = busy.get(layer, 0.0) + own
            calls[layer] = calls.get(layer, 0) + 1
    simulated = [entry for entry in first_activity.values()
                 if entry[3] == phase]
    sim_time = sum(entry[1] for entry in simulated)
    return {
        "busy_s": busy,
        "calls": calls,
        "self_total_s": sum(busy.values()),
        "spans": n_spans,
        "simulations": len(simulated),
        "gate_evals_per_s": (sum(entry[2] for entry in simulated) / sim_time
                             if sim_time > 0 else 0.0),
        "installed": sorted(installed),
        "missing": sorted(missing - installed),
    }
