"""The per-circuit experiment pipeline: synthesize -> map -> estimate.

This mirrors the paper's methodology exactly: circuits are first
synthesized with the resyn2rs script (library-independent), then mapped
onto genlib-characterized libraries, and finally power is estimated on
the mapped netlists by the config-selected estimator backend (the
paper's random-pattern bitsim by default).

Libraries are resolved through :mod:`repro.registry`
(:func:`repro.registry.build_library` / :func:`~repro.registry.paper_libraries`
replaced the historical ``three_libraries`` / ``cached_libraries``
helpers, whose deprecation shims have been removed).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.cache import LruCache
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG
from repro.gates.library import Library
from repro.power.model import energy_delay_product
from repro.sim.backends import estimate_with_backend
from repro.sim.estimator import CircuitPowerReport
from repro.synth.aig import Aig
from repro.synth.mapper import MappingOptions, map_aig
from repro.synth.netlist import MappedNetlist
from repro.synth.scripts import resyn2rs
from repro import registry


@lru_cache(maxsize=None)
def synthesized_benchmark(name: str, synthesize: bool) -> Aig:
    """Build (and optionally resyn2rs) one circuit, memoized per process.

    Any circuit registered with :func:`repro.registry.register_circuit`
    — the 12 Table 1 benchmarks, user BLIF netlists — resolves here.
    Worker processes touching several (library, operating point) tasks
    of one circuit pay for construction and synthesis once; both are
    deterministic, so every process derives the same subject graph.
    """
    aig = registry.build_circuit(name)
    if not synthesize:
        return aig
    return synthesize_subject(aig, ExperimentConfig(synthesize=True))


@dataclass(frozen=True)
class CircuitFlowResult:
    """One Table 1 cell: a circuit mapped and estimated on one library."""

    circuit: str
    library: str
    gate_count: int
    delay_s: float
    pd_w: float
    ps_w: float
    pg_w: float
    pt_w: float
    edp_js: float

    @property
    def delay_ps(self) -> float:
        return self.delay_s / 1e-12

    @property
    def pd_uw(self) -> float:
        return self.pd_w / 1e-6

    @property
    def ps_uw(self) -> float:
        return self.ps_w / 1e-6

    @property
    def pt_uw(self) -> float:
        return self.pt_w / 1e-6

    @property
    def edp_paper_units(self) -> float:
        """EDP in the paper's 1e-24 J*s unit."""
        return self.edp_js / 1e-24


#: resyn2rs results per subject graph, so mapping one circuit onto
#: several libraries synthesizes once.  Keyed weakly on the AIG with
#: its mutation stamp: a mutated graph re-synthesizes.
_SYNTH_CACHE: "weakref.WeakKeyDictionary[Aig, Tuple[int, Aig]]"
_SYNTH_CACHE = weakref.WeakKeyDictionary()


def synthesize_subject(aig: Aig,
                       config: ExperimentConfig = PAPER_CONFIG) -> Aig:
    """The library-independent synthesis step, cached per circuit."""
    if not config.synthesize:
        return aig
    return aig.cached_derivation(_SYNTH_CACHE, resyn2rs)


def map_subject(subject: Aig, library: Library,
                config: ExperimentConfig = PAPER_CONFIG) -> MappedNetlist:
    """The technology-mapping step with the config's mapper options."""
    options = MappingOptions(
        cut_size=config.mapper_cut_size,
        cut_limit=config.mapper_cut_limit,
        area_rounds=config.mapper_area_rounds,
    )
    return map_aig(subject, library, options)


#: Mapped netlists shared by the serving engine, the optimizer and the
#: sweep runner (counters ``netlists.hits`` / ``netlists.misses``).
MAPPED_NETLISTS = LruCache("netlists", 64)


def mapped_netlist(circuit: str, library: Library,
                   config: ExperimentConfig = PAPER_CONFIG
                   ) -> MappedNetlist:
    """A registered circuit mapped onto ``library``, memoized per process.

    Keyed by the registry generation (a re-registration retires every
    older entry), the circuit, the library instance — whose id no other
    library can take while the entry's netlist holds it — and the
    synthesis and mapper options.
    """
    key = (registry.generation(), circuit, id(library), config.synthesize,
           config.mapper_cut_size, config.mapper_cut_limit,
           config.mapper_area_rounds)
    netlist = MAPPED_NETLISTS.get(key)
    if netlist is None:
        subject = synthesized_benchmark(circuit, config.synthesize)
        netlist = map_subject(subject, library, config)
        MAPPED_NETLISTS.put(key, netlist)
    return netlist


def flow_from_power_report(report: CircuitPowerReport,
                           config: ExperimentConfig,
                           circuit: Optional[str] = None,
                           library: Optional[str] = None
                           ) -> CircuitFlowResult:
    """The single place a :class:`CircuitPowerReport` becomes a
    :class:`CircuitFlowResult`.

    The Table 1 grid, the per-point and grouped sweep runners and the
    :mod:`repro.serve` engine all finish here, which is what makes
    their results comparable field for field.  ``circuit`` / ``library``
    override the reported names (callers that resolved a registry key
    report the canonical key, not the generator's internal name).
    """
    params = config.power_parameters
    return CircuitFlowResult(
        circuit=circuit if circuit is not None else report.circuit,
        library=library if library is not None else report.library,
        gate_count=report.gate_count,
        delay_s=report.delay,
        pd_w=report.p_dynamic,
        ps_w=report.p_static,
        pg_w=report.p_gate_leak,
        pt_w=report.p_total,
        edp_js=energy_delay_product(report.p_total, report.delay, params),
    )


def estimate_mapped(netlist: MappedNetlist,
                    config: ExperimentConfig = PAPER_CONFIG,
                    circuit: Optional[str] = None,
                    library: Optional[str] = None) -> CircuitFlowResult:
    """Estimate an already-mapped netlist (the tail of the pipeline)."""
    report: CircuitPowerReport = estimate_with_backend(
        netlist, config.power_parameters, config)
    return flow_from_power_report(
        report, config,
        circuit=circuit if circuit is not None else netlist.name,
        library=library if library is not None else netlist.library.name)


def run_circuit_flow(aig: Aig, library: Library,
                     config: ExperimentConfig = PAPER_CONFIG,
                     presynthesized: bool = False,
                     netlist: Optional[MappedNetlist] = None
                     ) -> CircuitFlowResult:
    """Run the full pipeline for one circuit on one library.

    ``netlist`` short-circuits the synthesize+map stages with an
    already-mapped circuit — mapping is deterministic, so passing the
    cached netlist of the same (subject, library, mapper options) is
    bit-identical to remapping.  Sweeps over operating points lean on
    this: the netlist is fixed while VDD / frequency / fanout vary.

    Estimation runs on the backend named by ``config.backend``
    (:mod:`repro.sim.backends`); the default ``"bitsim"`` is the
    paper's random-pattern method.
    """
    subject = aig
    if netlist is None:
        if config.synthesize and not presynthesized:
            subject = synthesize_subject(aig, config)
        netlist = map_subject(subject, library, config)
    return estimate_mapped(netlist, config, circuit=aig.name,
                           library=library.name)
