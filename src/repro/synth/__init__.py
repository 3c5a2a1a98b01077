"""Logic synthesis and technology mapping (the ABC substitute).

The paper synthesizes benchmarks with ABC's ``resyn2rs`` script and maps
them onto genlib libraries.  This package provides the equivalent
pipeline:

* :mod:`repro.synth.aig` — And-Inverter Graph with structural hashing;
* :mod:`repro.synth.balance`, :mod:`repro.synth.rewrite`,
  :mod:`repro.synth.refactor`, :mod:`repro.synth.scripts` — the
  optimization passes and the ``resyn2rs`` pipeline;
* :mod:`repro.synth.cuts` — k-feasible priority cuts with truth tables;
* :mod:`repro.synth.mapper` — phase-aware structural technology mapping
  with delay-oriented covering and area recovery;
* :mod:`repro.synth.netlist` — the mapped netlist.

Submodules are exposed lazily (PEP 562) because :mod:`repro.gates`
imports the truth-table helpers from here while the mapper imports the
gate library — eager re-exports would create an import cycle.
"""

from repro.synth.aig import Aig, AigError, lit, lit_not, lit_node, lit_phase

__all__ = [
    "Aig",
    "AigError",
    "lit",
    "lit_not",
    "lit_node",
    "lit_phase",
    "resyn2rs",
    "balance_only",
    "compress",
    "map_aig",
    "MappingOptions",
    "MappedNetlist",
    "MappedGate",
]

_LAZY = {
    "resyn2rs": "repro.synth.scripts",
    "balance_only": "repro.synth.scripts",
    "compress": "repro.synth.scripts",
    "map_aig": "repro.synth.mapper",
    "MappingOptions": "repro.synth.mapper",
    "MappedNetlist": "repro.synth.netlist",
    "MappedGate": "repro.synth.netlist",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.synth' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
