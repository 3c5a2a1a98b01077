"""Command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

BLIF_FIXTURE = (Path(__file__).parent / "circuits" / "data"
                / "majority_parity.blif")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_flags(self):
        args = build_parser().parse_args(
            ["table1", "--fast", "--benchmarks", "t481,C1355"])
        assert args.fast
        assert args.benchmarks == "t481,C1355"

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_and_query_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--fast", "--patterns", "4096"])
        assert args.port == 0 and args.fast and args.patterns == 4096
        args = build_parser().parse_args(
            ["query", "t481", "cmos", "--url", "http://x:1", "--json"])
        assert args.circuit == "t481" and args.json


class TestCommands:
    def test_techs(self, capsys):
        assert main(["techs"]) == 0
        out = capsys.readouterr().out
        assert "cmos-32nm" in out and "cntfet-32nm" in out

    def test_cell_report(self, capsys):
        assert main(["cell", "GNAND2A"]) == 0
        out = capsys.readouterr().out
        assert "GNAND2A" in out and "Ioff" in out

    def test_cell_in_cmos_library(self, capsys):
        assert main(["cell", "NAND2", "--library", "cmos"]) == 0
        assert "NAND2" in capsys.readouterr().out

    def test_genlib_to_stdout(self, capsys):
        assert main(["genlib", "cmos"]) == 0
        out = capsys.readouterr().out
        assert out.count("GATE") == 20

    def test_genlib_to_file(self, tmp_path, capsys):
        target = tmp_path / "lib.genlib"
        assert main(["genlib", "generalized", "-o", str(target)]) == 0
        assert "46 cells" in capsys.readouterr().out
        assert target.read_text().count("GATE") == 46

    def test_table1_fast_subset(self, capsys):
        assert main(["table1", "--fast", "--benchmarks", "t481",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "t481" in out
        assert "Improvement vs CMOS" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 4" in out and "Fig. 5" in out


class TestRegistryCommands:
    def test_libraries_lists_registrations_and_backends(self, capsys):
        assert main(["libraries"]) == 0
        out = capsys.readouterr().out
        assert "cntfet-generalized" in out
        assert "cntfet-hybrid-pass" in out
        assert "aliases: hybrid" in out
        assert "bitsim" in out and "spice-transient" in out

    def test_genlib_accepts_registered_alias(self, capsys):
        """The hybrid library is addressable with no CLI edits."""
        assert main(["genlib", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert out.count("GATE") == 25

    def test_genlib_unknown_library_fails_cleanly(self):
        with pytest.raises(SystemExit, match="unknown library"):
            main(["genlib", "nope"])

    def test_table1_unknown_backend_fails_fast(self):
        with pytest.raises(SystemExit, match="unknown estimator backend"):
            main(["table1", "--fast", "--benchmarks", "t481",
                  "--backend", "bogus"])

    def test_sweep_spec_includes_hybrid_and_backend(self, capsys):
        assert main(["sweep", "spec", "--libraries", "hybrid,cmos",
                     "--circuits", "t481", "--backend",
                     "spice-transient"]) == 0
        out = capsys.readouterr().out
        assert '"cntfet-hybrid-pass"' in out
        assert '"spice-transient"' in out

    def test_sweep_spec_accepts_family_specs(self, capsys):
        """Commas inside a family spec's parentheses must not split
        the --circuits axis."""
        assert main(["sweep", "spec", "--libraries", "cmos",
                     "--circuits",
                     "t481,synth:rand(gates=120,seed=3)"]) == 0
        out = capsys.readouterr().out
        assert '"t481"' in out
        # canonicalized: every family parameter spelled out
        assert ('"synth:rand(gates=120,seed=3,inputs=64,outputs=32)"'
                in out)

    def test_circuit_values_split_is_paren_aware(self):
        from repro.cli import _circuit_values

        assert _circuit_values(
            "t481,synth:rand(gates=5,seed=1),C1355") == (
            "t481", "synth:rand(gates=5,seed=1)", "C1355")
        assert _circuit_values("t481") == ("t481",)
        assert _circuit_values("") == ()

    def test_circuits_lists_registrations(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "C2670" in out and "t481" in out and "C1355" in out
        assert "Table 1 benchmark" in out

    def test_circuits_with_blif_registration(self, capsys):
        from repro import registry

        try:
            assert main(["circuits", "--blif", str(BLIF_FIXTURE)]) == 0
            out = capsys.readouterr().out
            assert "majority_parity" in out
            assert "[user circuit]" in out
        finally:
            registry.unregister_circuit("majority_parity",
                                        missing_ok=True)

    def test_sweep_spec_accepts_blif_circuit(self, capsys):
        import json

        from repro import registry

        try:
            assert main(["sweep", "spec", "--blif", str(BLIF_FIXTURE),
                         "--circuits", "majority_parity,t481",
                         "--libraries", "cmos"]) == 0
            captured = capsys.readouterr()
            # stdout must stay machine-readable: the registration note
            # goes to stderr.
            spec = json.loads(captured.out)
            assert spec["circuits"] == ["majority_parity", "t481"]
            assert "registered circuit" in captured.err
        finally:
            registry.unregister_circuit("majority_parity",
                                        missing_ok=True)

    def test_table1_runs_blif_benchmark(self, capsys):
        from repro import registry

        try:
            assert main(["table1", "--fast", "--quiet",
                         "--blif", str(BLIF_FIXTURE),
                         "--benchmarks", "majority_parity"]) == 0
            out = capsys.readouterr().out
            assert "majority_parity" in out
        finally:
            registry.unregister_circuit("majority_parity",
                                        missing_ok=True)


class TestServeCommands:
    def test_query_against_live_server(self, capsys, tiny_config):
        import threading

        from repro.api import Session
        from repro.serve import Engine, serve

        server = serve(Engine(Session(tiny_config)))
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            assert main(["query", "t481", "cmos", "--url", server.url,
                         "--patterns", str(tiny_config.n_patterns),
                         "--state-patterns",
                         str(tiny_config.state_patterns)]) == 0
            human = capsys.readouterr().out
            assert "t481 on cmos" in human and "cache=cold" in human
            assert main(["query", "t481", "cmos", "--url", server.url,
                         "--patterns", str(tiny_config.n_patterns),
                         "--state-patterns",
                         str(tiny_config.state_patterns),
                         "--json"]) == 0
            import json

            payload = json.loads(capsys.readouterr().out)
            assert payload["cache_status"] == "hot"
            assert payload["result"]["gate_count"] > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_serve_unknown_backend_fails_at_startup(self):
        with pytest.raises(SystemExit, match="unknown estimator backend"):
            main(["serve", "--port", "0", "--backend", "bitsm"])

    def test_query_unreachable_server_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["query", "t481", "cmos",
                  "--url", "http://127.0.0.1:9", "--timeout", "2"])


class TestOptimizeCommand:
    OPTIMIZE_LOCAL = ["optimize", "t481", "--libraries", "generalized",
                      "--vdd", "0.9", "--frequency", "0.5e9,1e9,5e10",
                      "--patterns", "1024", "--state-patterns", "512"]

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["optimize", "C1908", "--vdd", "0.7,0.9",
             "--frequency", "1e9,2e9", "--objectives", "energy,fmax",
             "--format", "csv"])
        assert args.circuit == "C1908"
        assert args.vdd == "0.7,0.9"
        assert args.objectives == "energy,fmax"
        assert args.format == "csv"
        assert args.url is None

    def test_local_table(self, capsys):
        assert main(self.OPTIMIZE_LOCAL) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier over (power, frequency)" in out
        assert "timing-infeasible" in out
        assert "cntfet-generalized" in out
        assert "local session" in out

    def test_local_csv(self, capsys):
        assert main(self.OPTIMIZE_LOCAL + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("library,backend,vdd,frequency")
        # the 50 GHz point is infeasible on t481, so at most two rows
        assert 2 <= len(lines) <= 3
        assert all("cntfet-generalized" in line for line in lines[1:])

    def test_local_json(self, capsys):
        import json

        assert main(self.OPTIMIZE_LOCAL + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["circuit"] == "t481"
        assert payload["n_candidates"] == 3
        assert payload["n_infeasible"] >= 1
        assert payload["frontier"]

    def test_unknown_objective_fails_cleanly(self):
        with pytest.raises(SystemExit, match="objective"):
            main(self.OPTIMIZE_LOCAL + ["--objectives", "beauty"])

    def test_against_live_server(self, capsys, tiny_config):
        import threading

        from repro.api import Session
        from repro.serve import Engine, serve

        server = serve(Engine(Session(tiny_config)))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.mark_ready()
        try:
            assert main(["optimize", "t481", "--libraries", "cmos",
                         "--vdd", "0.9", "--frequency", "0.5e9,1e9",
                         "--patterns", str(tiny_config.n_patterns),
                         "--state-patterns",
                         str(tiny_config.state_patterns),
                         "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "Pareto frontier" in out and server.url in out
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_grid_marks_infeasible_points(self, capsys, tiny_config):
        import threading

        from repro.api import Session
        from repro.serve import Engine, serve

        server = serve(Engine(Session(tiny_config)))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.mark_ready()
        try:
            assert main(["query", "t481", "cmos", "--url", server.url,
                         "--patterns", str(tiny_config.n_patterns),
                         "--state-patterns",
                         str(tiny_config.state_patterns),
                         "--grid", "frequency=1e9,5e10"]) == 0
            out = capsys.readouterr().out
            assert "E/cyc/fJ" in out and "PDP/fJ" in out
            assert "INFEAS" in out and "timing-INFEASIBLE" in out
            assert "repro optimize" in out
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
