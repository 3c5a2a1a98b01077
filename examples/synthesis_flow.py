#!/usr/bin/env python3
"""The full synthesis flow on one XOR-rich circuit (the C6288 class).

Demonstrates the ABC-substitute pipeline of Section 4: resyn2rs
optimization, technology mapping onto the three libraries, static
timing, and genlib export — and shows *why* the generalized library
wins on XOR-rich datapaths (cell histogram comparison).

Run:  python examples/synthesis_flow.py [width]
"""

import sys

from repro.circuits.multiplier import array_multiplier
from repro.gates.genlib import write_genlib
from repro.registry import paper_libraries
from repro.synth.mapper import map_aig
from repro.synth.scripts import resyn2rs
from repro.timing import timing_report

width = int(sys.argv[1]) if len(sys.argv) > 1 else 8

aig = array_multiplier(width)
print(f"== {width}x{width} array multiplier ==")
print(f"AIG: {aig.n_nodes} nodes, depth {aig.depth()}")

optimized = resyn2rs(aig, verify=True)
print(f"after resyn2rs: {optimized.n_nodes} nodes, "
      f"depth {optimized.depth()} (function verified)")

for key, library in paper_libraries().items():
    netlist = map_aig(optimized, library)
    netlist.validate()
    delay = timing_report(netlist).critical_delay_s
    histogram = sorted(netlist.cell_histogram().items(),
                       key=lambda kv: -kv[1])
    top = ", ".join(f"{name} x{count}" for name, count in histogram[:6])
    print(f"\n-- {key} --")
    print(f"gates: {netlist.gate_count}, devices: "
          f"{netlist.total_devices()}, delay: {delay * 1e12:.1f} ps")
    print(f"top cells: {top}")
    xor_cells = sum(count for name, count in histogram
                    if "X" in name or name.startswith("G"))
    print(f"XOR-embedding cells used: {xor_cells}")

# genlib export (portable to ABC/SIS-style tools)
library = paper_libraries()["cntfet-generalized"]
path = "generalized_cntfet.genlib"
with open(path, "w") as handle:
    handle.write(write_genlib(library))
print(f"\nwrote {path} ({len(library)} cells)")
