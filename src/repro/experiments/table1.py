"""Table 1 reproduction: logic synthesis, mapping and power for 12
benchmarks on the three libraries.

Each benchmark is synthesized once with resyn2rs, mapped onto the
generalized-CNTFET, conventional-CNTFET and CMOS libraries, and power-
estimated with random patterns.  The result object carries per-cell
data, the column averages and the improvement rows exactly as the paper
formats them, plus the paper's own numbers for side-by-side reporting.

:func:`reproduce_table1` is a thin wrapper over the
:class:`repro.api.Session` front door, kept for its established
signature; the grid orchestration itself lives in ``Session.table1``.
Each cell is priced by :func:`repro.experiments.flow.price_mapped`,
like every sweep point and served answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.suite import (
    CMOS,
    CONVENTIONAL,
    GENERALIZED,
    PAPER_AVERAGES,
)
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.experiments.flow import (
    CircuitFlowResult,
    FlowQuery,
    map_subject,
    price_mapped,
    synthesized_benchmark,
)
from repro.experiments.reporting import format_ratio, format_saving, render_table
from repro.registry import cached_library

LIBRARY_ORDER = [GENERALIZED, CONVENTIONAL, CMOS]


@dataclass
class Table1Result:
    """All data of the reproduced Table 1."""

    config: ExperimentConfig
    #: results[benchmark][library_key]
    results: Dict[str, Dict[str, CircuitFlowResult]] = field(
        default_factory=dict)
    benchmark_order: List[str] = field(default_factory=list)
    #: Library columns, in presentation order (the paper's three by
    #: default; sessions over other registrations set their own).
    library_order: List[str] = field(
        default_factory=lambda: list(LIBRARY_ORDER))

    # -- aggregates ----------------------------------------------------------

    def averages(self, library: str) -> CircuitFlowResult:
        """Column averages for one library (the paper's Average row)."""
        rows = [self.results[name][library] for name in self.benchmark_order]
        count = len(rows)
        return CircuitFlowResult(
            circuit="Average",
            library=library,
            gate_count=round(sum(r.gate_count for r in rows) / count),
            delay_s=sum(r.delay_s for r in rows) / count,
            pd_w=sum(r.pd_w for r in rows) / count,
            ps_w=sum(r.ps_w for r in rows) / count,
            pg_w=sum(r.pg_w for r in rows) / count,
            pt_w=sum(r.pt_w for r in rows) / count,
            edp_js=sum(r.edp_js for r in rows) / count,
        )

    def improvement_vs_cmos(self, library: str) -> Dict[str, str]:
        """The paper's "Improvement vs. CMOS" row for one library.

        Raises :class:`ExperimentError` when the result was computed
        without the CMOS baseline column.
        """
        if CMOS not in self.library_order:
            from repro.errors import ExperimentError
            raise ExperimentError(
                "improvement_vs_cmos needs the 'cmos' library column; "
                f"this table was computed over {self.library_order}")
        ours = self.averages(library)
        cmos = self.averages(CMOS)
        return {
            "gates": format_saving(cmos.gate_count, ours.gate_count),
            "delay": format_ratio(cmos.delay_s, ours.delay_s),
            "pd": format_saving(cmos.pd_w, ours.pd_w),
            "ps": format_saving(cmos.ps_w, ours.ps_w),
            "pt": format_saving(cmos.pt_w, ours.pt_w),
            "edp": format_ratio(cmos.edp_js, ours.edp_js),
        }

    # -- rendering -------------------------------------------------------------

    def render(self, include_paper: bool = True) -> str:
        """Monospace rendition of the reproduced table."""
        blocks: List[str] = []
        for library in self.library_order:
            headers = ["Circuit", "No.", "Delay(ps)", "PD(uW)", "PS(uW)",
                       "PT(uW)", "EDP(1e-24Js)"]
            rows = []
            for name in self.benchmark_order:
                r = self.results[name][library]
                rows.append([name, r.gate_count, f"{r.delay_ps:.0f}",
                             f"{r.pd_uw:.2f}", f"{r.ps_uw:.3f}",
                             f"{r.pt_uw:.2f}", f"{r.edp_paper_units:.2f}"])
            avg = self.averages(library)
            rows.append(["Average", avg.gate_count, f"{avg.delay_ps:.0f}",
                         f"{avg.pd_uw:.2f}", f"{avg.ps_uw:.3f}",
                         f"{avg.pt_uw:.2f}", f"{avg.edp_paper_units:.2f}"])
            if include_paper and library in PAPER_AVERAGES:
                paper = PAPER_AVERAGES[library]
                rows.append(["(paper avg)", paper.gates,
                             f"{paper.delay_ps:.0f}", f"{paper.pd_uw:.2f}",
                             f"{paper.ps_uw:.3f}", f"{paper.pt_uw:.2f}",
                             f"{paper.edp:.2f}"])
            blocks.append(render_table(headers, rows,
                                       title=f"== {library} =="))
            if library != CMOS and CMOS in self.library_order:
                imp = self.improvement_vs_cmos(library)
                blocks.append(
                    f"Improvement vs CMOS: gates {imp['gates']}, "
                    f"delay {imp['delay']}, PD {imp['pd']}, "
                    f"PS {imp['ps']}, PT {imp['pt']}, EDP {imp['edp']}")
        return "\n\n".join(blocks)


def run_table1_cell(task: Tuple[str, str, ExperimentConfig]
                    ) -> CircuitFlowResult:
    """Run one Table 1 cell: a picklable task to a picklable result.

    ``task`` is ``(circuit, library_key, config)`` — a registered
    circuit name, a registered library key and the experiment config.
    This is the unit of work :meth:`repro.api.Session.table1` fans out
    over worker processes; it is deliberately module-level and
    argument-pure so it pickles under every multiprocessing start
    method.  The cell maps outside the netlist memo, so a finished
    cell pins nothing.  The reported ``circuit`` / ``library`` are the
    registry keys the task named (not the generator's internal name).
    """
    cell = FlowQuery(*task)
    subject = synthesized_benchmark(cell.circuit, cell.config.synthesize)
    library = cached_library(cell.library, cell.config.vdd)
    netlist = map_subject(subject, library, cell.config)
    return price_mapped([(cell, netlist)])[0]


def verbose_cell_line(flow: CircuitFlowResult) -> str:
    """One human-readable progress line for a completed Table 1 cell."""
    return (f"{flow.circuit:6s} {flow.library:20s} "
            f"gates={flow.gate_count:5d} delay={flow.delay_ps:7.1f}ps "
            f"PT={flow.pt_uw:8.2f}uW EDP={flow.edp_paper_units:8.2f}")


def reproduce_table1(config: ExperimentConfig = PAPER_CONFIG,
                     benchmarks: Optional[List[str]] = None,
                     verbose: bool = False,
                     jobs: Optional[int] = 1) -> Table1Result:
    """Run the full Table 1 experiment (via :class:`repro.api.Session`).

    Args:
        config: operating point and pattern budget.
        benchmarks: optional subset of Table 1 names (default: all 12).
        verbose: print one line per (circuit, library), streamed as
            each result lands (completion order with worker processes).
        jobs: worker processes for the (circuit x library) grid; 1 runs
            serially in-process, 0/None uses every CPU.  Results are
            bit-identical for any value — tasks carry deterministic
            seeds and come back in grid order.
    """
    from repro.api import Session

    return Session(config, jobs=jobs).table1(benchmarks=benchmarks,
                                             verbose=verbose)
