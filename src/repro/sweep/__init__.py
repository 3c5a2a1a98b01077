"""Declarative scenario sweeps over the reproduction pipeline.

The paper evaluates everything at one operating point (VDD = 0.9 V,
1 GHz, fanout 3, 640 K patterns); its claims, though, are curves over
operating conditions.  This package turns the one-shot Table 1
reproduction into a batch workload engine:

* :mod:`repro.sweep.spec` — :class:`SweepSpec`, a declarative grid
  over vdd x frequency x fanout x n_patterns x library x circuit x
  synthesis that expands into content-hash-keyed tasks;
* :mod:`repro.sweep.store` — :class:`ResultStore`, an append-only
  JSON-lines result store keyed by those hashes, so re-running a sweep
  skips every already-computed point (resume for free);
* :mod:`repro.sweep.runner` — sharded execution of the pending tasks
  across processes via :mod:`repro.experiments.parallel`;
* :mod:`repro.sweep.report` — pivots of the stored points into
  Table-1-style tables, power-vs-VDD series and CSV dumps.

Driven from the CLI as ``python -m repro sweep run/report/status/spec``.
"""

from repro.sweep.report import render_csv, render_table1, render_vdd_series
from repro.sweep.runner import SweepRunReport, run_sweep
from repro.sweep.spec import SweepSpec, SweepTask
from repro.sweep.store import ResultStore, sweep_status

__all__ = [
    "SweepSpec",
    "SweepTask",
    "SweepRunReport",
    "run_sweep",
    "ResultStore",
    "sweep_status",
    "render_csv",
    "render_table1",
    "render_vdd_series",
]
