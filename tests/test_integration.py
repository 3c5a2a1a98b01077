"""End-to-end integration: the full pipeline on small circuits, plus
the package-level helpers."""

import pytest

from repro import __version__
from repro.circuits.adders import ripple_adder_circuit
from repro.circuits.ecc import hamming_corrector
from repro.experiments.config import ExperimentConfig
from repro.experiments.flow import run_circuit_flow
from repro.registry import paper_libraries
from repro.gates.genlib import parse_genlib, write_genlib
from repro.sim.arraysim import ArraySimulator, random_pi_words
from repro.synth.mapper import map_aig
from repro.synth.scripts import resyn2rs
from repro.units import engineering, to_attofarads, to_picoseconds


class TestFullPipeline:
    def test_synthesize_map_simulate_everywhere(self):
        """Adder: synth once, map on all three libraries, verify
        function via bit-parallel simulation against the AIG."""
        aig = ripple_adder_circuit(4)
        optimized = resyn2rs(aig, verify=True)
        for library in paper_libraries().values():
            netlist = map_aig(optimized, library)
            netlist.validate()
            pi_words = random_pi_words(len(netlist.pi_names), 512, 99)
            words = ArraySimulator(netlist).output_words(pi_words, 512)
            reference = _aig_output_words(optimized, 512, seed=99)
            for name in optimized.po_names:
                assert (words[name] == reference[name]).all(), (
                    f"{library.name}:{name}")

    def test_power_flow_on_real_circuit(self):
        config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
        libraries = paper_libraries()
        aig = hamming_corrector(4)
        results = {key: run_circuit_flow(aig, lib, config)
                   for key, lib in libraries.items()}
        cmos = results["cmos"]
        generalized = results["cntfet-generalized"]
        assert generalized.pt_w < cmos.pt_w
        assert generalized.delay_s < cmos.delay_s / 3
        assert generalized.edp_js < cmos.edp_js / 5

    def test_genlib_files_written_for_all_libraries(self, tmp_path):
        for key, library in paper_libraries().items():
            path = tmp_path / f"{key}.genlib"
            path.write_text(write_genlib(library))
            parsed = parse_genlib(path.read_text())
            assert len(parsed) == len(library)


def _aig_output_words(aig, n_patterns, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    n_words = (n_patterns + 63) // 64
    tail = n_patterns - (n_words - 1) * 64
    mask = np.uint64((1 << tail) - 1) if tail < 64 else np.uint64(2**64 - 1)
    pi_words = []
    for _ in range(aig.n_pis):
        w = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        w[-1] &= mask
        pi_words.append(int.from_bytes(
            w.astype("<u8").tobytes(), "little"))
    outs = aig.simulate(pi_words, n_words * 64)
    result = {}
    for name, value in zip(aig.po_names, outs):
        words = np.frombuffer(
            value.to_bytes(n_words * 8, "little"), dtype="<u8").copy()
        words[-1] &= mask
        result[name] = words
    return result


class TestPackageSurface:
    def test_version(self):
        assert __version__

    def test_units(self):
        assert to_attofarads(52e-18) == pytest.approx(52.0)
        assert to_picoseconds(20e-12) == pytest.approx(20.0)
        assert engineering(3.2e-9, "A") == "3.200 nA"
        assert engineering(0.0) == "0.000"

    def test_public_imports(self):
        import repro
        assert hasattr(repro, "devices")
