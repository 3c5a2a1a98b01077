"""Synthesis and mapping engine benches.

Not a paper artifact per se, but the substrate whose quality the Table 1
results depend on: resyn2rs cost/benefit and mapper throughput, plus a
mapper ablation (delay-only vs area-recovered covers).
"""

import pytest

from repro.circuits.multiplier import array_multiplier
from repro.circuits.suite import build_benchmark
from repro.synth.mapper import MappingOptions, map_aig
from repro.synth.scripts import resyn2rs
from repro.timing import arrival_times


def test_bench_resyn2rs_multiplier(benchmark):
    aig = array_multiplier(8)
    optimized = benchmark.pedantic(lambda: resyn2rs(aig), rounds=1,
                                   iterations=1)
    assert (optimized.random_simulation_signature()
            == aig.random_simulation_signature())
    print(f"\n  nodes: {aig.n_nodes} -> {optimized.n_nodes}, "
          f"depth: {aig.depth()} -> {optimized.depth()}")


def test_bench_mapping_throughput(benchmark, glib):
    aig = resyn2rs(build_benchmark("dalu"))

    def run():
        return map_aig(aig, glib)

    netlist = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  mapped gates: {netlist.gate_count}")
    assert netlist.gate_count > 0


@pytest.mark.parametrize("area_rounds", [0, 2])
def test_bench_area_recovery_ablation(benchmark, glib, area_rounds):
    """Area recovery trades a little delay for a smaller cover."""
    aig = resyn2rs(array_multiplier(8))
    options = MappingOptions(area_rounds=area_rounds)
    netlist = benchmark.pedantic(lambda: map_aig(aig, glib, options),
                                 rounds=1, iterations=1)
    delay, _ = arrival_times(netlist)
    print(f"\n  area_rounds={area_rounds}: gates={netlist.gate_count}, "
          f"delay={delay * 1e12:.1f} ps")
    assert netlist.gate_count > 0
