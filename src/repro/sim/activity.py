"""The cached activity layer of power estimation.

The Eq. 1-5 methodology factors into two halves: *activity extraction*
(toggle counts and input-state histograms from the random-pattern
bit-parallel simulation — expensive, a function of the mapped netlist
and the pattern budget only) and *pricing* (closed-form arithmetic in
VDD, frequency and the leakage tables — cheap).  This module owns the
first half as a first-class cacheable artifact:

* :func:`simulation_stats` returns the
  :class:`~repro.sim.arraysim.SimulationStats` of a netlist, keyed by a
  stable content hash of ``(netlist content, n_patterns, seed,
  state_patterns)``.  Results are held in a per-process LRU and,
  unless :mod:`repro.cache` persistence is disabled, on disk — a
  frequency sweep, a repeated server query or a re-run of a benchmark
  never re-simulates what any earlier run already measured.
* :func:`netlist_activity_key` hashes exactly what the simulation
  depends on: PI order, the gate list and each cell's truth table.
  Two netlists mapped at different supplies usually hash equal (the
  logic structure is the same; only timing and leakage differ), which
  is what lets a VDD sweep share one simulation.
* :func:`pricing_group_key` hashes everything *except* the pure
  pricing axes (vdd, frequency, fanout) of a task/query — tasks that
  collide on it share one simulation; the sweep runner deals its work
  out to workers by it.

The cache is content-addressed, so it never needs invalidating: any
change to the netlist, the pattern budget or the seed produces a fresh
key.  It is safe (if redundant) for two threads to race on the same
cold key; both simulations are deterministic and identical.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro import obs
from repro.cache import Ladder, stable_hash
from repro.sim.arraysim import (
    ArraySimulator,
    SimulationStats,
    effective_state_patterns,
)

#: Disk-cache namespace for persisted simulation statistics.
ACTIVITY_NAMESPACE = "activity"

#: Version of the hashed key payload *and* the stored layout.  Bump on
#: any change to either; old disk entries are then never read again.
ACTIVITY_VERSION = 1

#: Default capacity of the per-process stats LRU.  Entries are a few
#: hundred KB for the largest benchmarks, so this bounds the cache to
#: tens of MB worst case.
DEFAULT_MAX_CACHED_STATS = 32

#: Attribute name used to memoize a netlist's content key on the
#: instance (mapped netlists are effectively immutable once built).
_KEY_ATTR = "_repro_activity_key"


def netlist_activity_key(netlist) -> str:
    """Content hash of everything the bit-parallel simulation sees.

    PI order (the RNG assigns pattern words in that order), the gate
    list (names key the state histograms; inputs/outputs wire the
    evaluation) and each cell's logic function.  Library electricals —
    capacitances, timing, leakage — are deliberately absent: they
    price, they do not simulate.  The key is memoized on the netlist
    instance.
    """
    cached = netlist.__dict__.get(_KEY_ATTR)
    if cached is not None:
        return cached
    library = netlist.library
    cell_names = sorted({gate.cell for gate in netlist.gates})
    payload = {
        "version": ACTIVITY_VERSION,
        "pis": list(netlist.pi_names),
        "gates": [[gate.name, gate.cell, list(gate.inputs), gate.output]
                  for gate in netlist.gates],
        "cells": {name: [library.cell(name).n_inputs,
                         library.cell(name).truth_table]
                  for name in cell_names},
    }
    key = stable_hash(payload)
    netlist.__dict__[_KEY_ATTR] = key
    return key


def activity_key(netlist, n_patterns: int, seed: int = 2010,
                 state_patterns: Optional[int] = None) -> str:
    """The full cache key of one simulation request."""
    return stable_hash({
        "version": ACTIVITY_VERSION,
        "netlist": netlist_activity_key(netlist),
        "n_patterns": n_patterns,
        "seed": seed,
        "state_patterns": effective_state_patterns(n_patterns,
                                                   state_patterns),
    })


def pricing_group_key(circuit: str, library: str, config) -> str:
    """Hash of a task/query's activity-determining axes.

    Everything of an :class:`~repro.experiments.config.ExperimentConfig`
    except the pure pricing knobs (vdd, frequency, fanout): two sweep
    tasks or service queries that collide here can share one simulation
    — provided the mapped netlists also agree, which the runner checks
    per supply via :func:`netlist_activity_key` (vdd can, rarely,
    change the mapping).
    """
    return stable_hash({
        "version": ACTIVITY_VERSION,
        "circuit": circuit,
        "library": library,
        "synthesize": config.synthesize,
        "mapper_cut_size": config.mapper_cut_size,
        "mapper_cut_limit": config.mapper_cut_limit,
        "mapper_area_rounds": config.mapper_area_rounds,
        "n_patterns": config.n_patterns,
        "seed": config.seed,
        "state_patterns": effective_state_patterns(config.n_patterns,
                                                   config.state_patterns),
        "backend": config.backend,
    })


def _decode(payload: Any, request) -> Optional[SimulationStats]:
    """A disk entry as statistics, if it fits the requesting netlist."""
    netlist, n_patterns, state_patterns = request
    if not isinstance(payload, dict):
        return None
    if payload.get("n_patterns") != n_patterns:
        return None
    if payload.get("n_state_patterns") != state_patterns:
        return None
    toggles = payload.get("toggles")
    counts = payload.get("state_counts")
    if not isinstance(toggles, dict) or not isinstance(counts, dict):
        return None
    library = netlist.library
    for gate in netlist.gates:
        entry = counts.get(gate.name)
        size = 1 << library.cell(gate.cell).n_inputs
        if not isinstance(entry, list) or len(entry) != size:
            return None
        if gate.output not in toggles:
            return None
    if not all(name in toggles for name in netlist.pi_names):
        return None
    return SimulationStats.from_payload(payload)


#: The process-wide stats ladder (LRU, disk, single-flight).  Its
#: counters are ``activity.*``; ``activity.computes`` counts
#: simulations.
LADDER = Ladder(ACTIVITY_NAMESPACE, SimulationStats.to_payload, _decode,
                maxsize=DEFAULT_MAX_CACHED_STATS)


def simulation_stats(netlist, n_patterns: int, seed: int = 2010,
                     state_patterns: Optional[int] = None
                     ) -> SimulationStats:
    """The (cached) simulation statistics of a mapped netlist.

    Climbs :data:`LADDER` — the per-process LRU, then the
    :mod:`repro.cache` disk store — and only then runs the bit-parallel
    simulation (:class:`~repro.sim.arraysim.ArraySimulator`), metered
    as ``sim.gate_evals`` (gates x patterns) and ``sim.elapsed_s``.
    The returned object is shared — treat it as immutable.

    The cold path is **cross-process single-flight**
    (:func:`repro.cache.single_flight`): when several worker processes
    of a serving fleet miss the same key at once, exactly one runs the
    simulation while the others poll the disk tier for its entry — and
    take over leadership if it dies mid-compute.  The
    ``activity.computes`` counter therefore counts *fleet-wide* work
    when summed across workers.
    """
    key = activity_key(netlist, n_patterns, seed, state_patterns)
    request = (netlist, n_patterns,
               effective_state_patterns(n_patterns, state_patterns))

    def compute() -> SimulationStats:
        start = time.perf_counter()
        stats = ArraySimulator(netlist).run(n_patterns, seed,
                                            state_patterns)
        obs.count("sim.gate_evals", netlist.gate_count * n_patterns)
        obs.count("sim.elapsed_s", time.perf_counter() - start)
        return stats

    return LADDER.get(key, request, compute)
