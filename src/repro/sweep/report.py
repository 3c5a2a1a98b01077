"""Aggregation and reporting over stored sweep points.

Three pivots over a result store:

* :func:`render_table1` — Table-1-style per-library tables, one block
  per operating point (the paper's single table becomes a family);
* :func:`render_vdd_series` — power-vs-VDD curves, one row per supply
  voltage for each (circuit, library) at fixed other conditions —
  the crossover-curve view the related work compares designs on;
* :func:`render_csv` — a flat dump of every stored point.

Markdown and CSV are supported where tabular; everything is computed
purely from store records, so reports work on partial sweeps.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from repro.circuits.suite import benchmark_suite
from repro.errors import ExperimentError
from repro.schema import flow_from_record
from repro.sweep.spec import DEFAULT_LIBRARIES

#: The config fields that define an operating point (everything except
#: the subject / library identity).  seed, state_patterns and the
#: estimator backend are part of the key so points differing only in
#: them never merge into one table as indistinguishable duplicate rows.
POINT_FIELDS = ("vdd", "frequency", "fanout", "n_patterns", "synthesize",
                "seed", "state_patterns", "backend")

#: Flat CSV column order.
CSV_COLUMNS = ("circuit", "library", "vdd", "frequency", "fanout",
               "n_patterns", "state_patterns", "seed", "synthesize",
               "backend", "gate_count", "delay_ps", "pd_uw", "ps_uw",
               "pg_uw", "pt_uw", "edp_1e24js", "task_key")


def _config_field(config: Dict[str, Any], name: str) -> Any:
    """A config field; records stored before ``backend`` existed read
    as the default estimator, mirroring ``ExperimentConfig.from_dict``."""
    if name == "backend":
        return config.get("backend", "bitsim")
    return config[name]


def _point_key(record: Dict[str, Any]) -> Tuple:
    config = record["config"]
    return tuple(_config_field(config, name) for name in POINT_FIELDS)


@lru_cache(maxsize=1)
def _circuit_order() -> Dict[str, int]:
    return {spec.name: index
            for index, spec in enumerate(benchmark_suite())}


_LIBRARY_ORDER = {library: index
                  for index, library in enumerate(DEFAULT_LIBRARIES)}


def _circuit_rank(name: str) -> Tuple[int, str]:
    order = _circuit_order()
    return (order.get(name, len(order)), name)


def _library_rank(key: str) -> Tuple[int, str]:
    return (_LIBRARY_ORDER.get(key, len(_LIBRARY_ORDER)), key)


def _flat_row(record: Dict[str, Any]) -> Dict[str, Any]:
    config = record["config"]
    flow = flow_from_record(record)
    return {
        "circuit": record["circuit"],
        "library": record["library"],
        "vdd": config["vdd"],
        "frequency": config["frequency"],
        "fanout": config["fanout"],
        "n_patterns": config["n_patterns"],
        "state_patterns": config["state_patterns"],
        "seed": config["seed"],
        "synthesize": config["synthesize"],
        "backend": _config_field(config, "backend"),
        "gate_count": flow.gate_count,
        "delay_ps": flow.delay_ps,
        "pd_uw": flow.pd_uw,
        "ps_uw": flow.ps_uw,
        "pg_uw": flow.pg_w / 1e-6,
        "pt_uw": flow.pt_uw,
        "edp_1e24js": flow.edp_paper_units,
        "task_key": record["task_key"],
    }


def _markdown_table(headers: Sequence[str],
                    rows: Sequence[Sequence[Any]]) -> str:
    lines = ["| " + " | ".join(str(cell) for cell in headers) + " |",
             "|" + "|".join("---:" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _point_title(point: Tuple) -> str:
    (vdd, frequency, fanout, n_patterns, synthesize, seed, _state,
     backend) = point
    synth = "resyn2rs" if synthesize else "no-synthesis"
    suffix = "" if backend == "bitsim" else f", {backend}"
    return (f"VDD={vdd:g} V, f={frequency / 1e9:g} GHz, fanout={fanout}, "
            f"{n_patterns} patterns, {synth}, seed {seed}{suffix}")


def render_table1(records: List[Dict[str, Any]]) -> str:
    """Table-1-style markdown, one block of tables per operating point."""
    if not records:
        raise ExperimentError("result store holds no points to report")
    by_point: Dict[Tuple, List[Dict[str, Any]]] = {}
    for record in records:
        by_point.setdefault(_point_key(record), []).append(record)

    blocks: List[str] = []
    for point in sorted(by_point):
        blocks.append(f"### {_point_title(point)}")
        group = by_point[point]
        libraries = sorted({record["library"] for record in group},
                           key=_library_rank)
        for library in libraries:
            rows_in = sorted(
                (record for record in group
                 if record["library"] == library),
                key=lambda record: _circuit_rank(record["circuit"]))
            headers = ["Circuit", "No.", "Delay(ps)", "PD(uW)",
                       "PS(uW)", "PT(uW)", "EDP(1e-24Js)"]
            rows: List[List[Any]] = []
            flows = [flow_from_record(record) for record in rows_in]
            for record, flow in zip(rows_in, flows):
                rows.append([record["circuit"], flow.gate_count,
                             f"{flow.delay_ps:.0f}", f"{flow.pd_uw:.2f}",
                             f"{flow.ps_uw:.3f}", f"{flow.pt_uw:.2f}",
                             f"{flow.edp_paper_units:.2f}"])
            if len(flows) > 1:
                count = len(flows)
                rows.append([
                    "Average",
                    round(sum(flow.gate_count for flow in flows) / count),
                    f"{sum(flow.delay_ps for flow in flows) / count:.0f}",
                    f"{sum(flow.pd_uw for flow in flows) / count:.2f}",
                    f"{sum(flow.ps_uw for flow in flows) / count:.3f}",
                    f"{sum(flow.pt_uw for flow in flows) / count:.2f}",
                    f"{sum(flow.edp_paper_units for flow in flows) / count:.2f}",
                ])
            blocks.append(f"**{library}** ({len(flows)} circuits)")
            blocks.append(_markdown_table(headers, rows))
    return "\n\n".join(blocks) + "\n"


def render_vdd_series(records: List[Dict[str, Any]]) -> str:
    """Power-vs-VDD markdown series per (circuit, library, conditions)."""
    if not records:
        raise ExperimentError("result store holds no points to report")
    series: Dict[Tuple, List[Dict[str, Any]]] = {}
    for record in records:
        config = record["config"]
        key = (record["circuit"], record["library"], config["frequency"],
               config["fanout"], config["n_patterns"], config["synthesize"],
               config["seed"], config["state_patterns"],
               _config_field(config, "backend"))
        series.setdefault(key, []).append(record)

    blocks: List[str] = []
    for key in sorted(series, key=lambda key: (
            _circuit_rank(key[0]), _library_rank(key[1]), key[2:])):
        (circuit, library, frequency, fanout, n_patterns, synthesize,
         seed, _state, backend) = key
        group = sorted(series[key],
                       key=lambda record: record["config"]["vdd"])
        synth = "resyn2rs" if synthesize else "no-synthesis"
        suffix = "" if backend == "bitsim" else f", {backend}"
        blocks.append(
            f"### {circuit} on {library} "
            f"(f={frequency / 1e9:g} GHz, fanout={fanout}, "
            f"{n_patterns} patterns, {synth}, seed {seed}{suffix})")
        headers = ["VDD(V)", "PD(uW)", "PS(uW)", "PT(uW)", "EDP(1e-24Js)"]
        rows = []
        for record in group:
            flow = flow_from_record(record)
            rows.append([f"{record['config']['vdd']:g}",
                         f"{flow.pd_uw:.3f}", f"{flow.ps_uw:.4f}",
                         f"{flow.pt_uw:.3f}",
                         f"{flow.edp_paper_units:.2f}"])
        blocks.append(_markdown_table(headers, rows))
    return "\n\n".join(blocks) + "\n"


def render_csv(records: List[Dict[str, Any]]) -> str:
    """Flat CSV of every stored point (grid-sorted, stable)."""
    rows = sorted((_flat_row(record) for record in records),
                  key=lambda row: (_circuit_rank(row["circuit"]),
                                   _library_rank(row["library"]),
                                   row["vdd"], row["frequency"],
                                   row["fanout"], row["n_patterns"]))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
