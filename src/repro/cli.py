"""Command-line interface: ``python -m repro <command>``.

Commands mirror the experiment harnesses so the reproduction can be
driven without writing Python:

* ``table1 [--fast] [--benchmarks A,B,...]`` — the Table 1 experiment;
* ``library`` — the Section 4 gate-level study;
* ``figures`` — Fig. 2 / Fig. 4 / Fig. 5 demonstrations;
* ``genlib <LIBRARY> [-o FILE]`` — export a characterized library in
  genlib format (any key or alias from ``repro libraries``);
* ``cell <NAME>`` — per-vector leakage report of one library cell;
* ``libraries`` — every registered library and estimator backend;
* ``circuits`` — every registered circuit (the 12 benchmarks plus any
  ``--blif`` registrations);
* ``techs`` — the calibrated technology summaries;
* ``sweep run/report/status/spec`` — declarative scenario grids over
  vdd x frequency x fanout x patterns x library x circuit with a
  resumable result store (see :mod:`repro.sweep`);
* ``serve`` — the long-lived estimation server (:mod:`repro.serve`);
  ``--workers N`` runs the self-healing multi-process fleet
  (:mod:`repro.serve.fleet`);
* ``fleet status`` — per-worker liveness and fleet-wide counters from
  a running supervisor's aggregated ``/v1/healthz``;
* ``query`` — one power query against a running server, or a whole
  operating-point grid in one batched request (``--grid``).

Libraries and circuits are resolved through :mod:`repro.registry`, so
anything registered there — including third-party libraries and
``--blif FILE`` netlists — is addressable from every
``--library``/``--libraries``/``--circuits`` flag.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devices import CMOS_32NM, CNTFET_32NM, technology_report


def _register_blifs(paths: Optional[List[str]]) -> None:
    """Register ``--blif`` netlists before a command runs."""
    if not paths:
        return
    from repro.registry import register_blif_circuit

    for path in paths:
        try:
            entry = register_blif_circuit(path)
        except Exception as exc:
            raise SystemExit(str(exc))
        # stderr: several commands (sweep spec, query --json) emit
        # machine-readable stdout that this note must not corrupt.
        print(f"registered circuit {entry.key!r} from {path}",
              file=sys.stderr)


def _cmd_table1(args) -> int:
    from dataclasses import replace

    from repro.experiments.config import FAST_CONFIG, PAPER_CONFIG
    from repro.experiments.table1 import reproduce_table1

    _register_blifs(args.blif)
    config = FAST_CONFIG if args.fast else PAPER_CONFIG
    if args.backend:
        from repro.sim.backends import available_backends

        if args.backend not in available_backends():
            raise SystemExit(
                f"unknown estimator backend {args.backend!r}; choose "
                f"from {', '.join(available_backends())}")
        config = replace(config, backend=args.backend)
    benchmarks = (list(_circuit_values(args.benchmarks))
                  if args.benchmarks else None)
    result = reproduce_table1(config, benchmarks=benchmarks,
                              verbose=not args.quiet, jobs=args.jobs)
    print(result.render())
    return 0


def _cmd_library(args) -> int:
    from repro.experiments.library_power import reproduce_library_study

    study = reproduce_library_study(jobs=args.jobs)
    print(study.render())
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments.figures import (
        reproduce_fig2_transmission,
        reproduce_fig4_patterns,
        reproduce_fig5_flow,
    )

    print(reproduce_fig2_transmission().render())
    print()
    print(reproduce_fig4_patterns().render())
    print()
    print(reproduce_fig5_flow().render())
    return 0


def _library_by_key(key: str):
    from repro import registry
    from repro.errors import ExperimentError

    try:
        return registry.cached_library(key)
    except ExperimentError as exc:
        raise SystemExit(str(exc))


def _cmd_libraries(args) -> int:
    from repro import foundry, registry
    from repro.sim.backends import available_backends

    # The same rows /v1/libraries serves, through the same formatter —
    # characterized-vdd and artifact provenance cannot drift between
    # the CLI table and the service payload.
    for row in foundry.library_listing():
        for line in foundry.format_library_listing([row],
                                                   verbose=args.verbose):
            print(line)
        if args.verbose:
            library = registry.cached_library(row["key"])
            print(f"    {len(library)} cells, technology "
                  f"{library.tech.name}, vdd={library.tech.vdd:g}V")
    print(f"estimator backends: {', '.join(available_backends())}")
    return 0


def _cmd_circuits(args) -> int:
    from repro import registry

    _register_blifs(args.blif)
    for key in registry.available_circuits():
        entry = registry.circuit_entry(key)
        aliases = f" (aliases: {', '.join(entry.aliases)})" \
            if entry.aliases else ""
        paper = "" if entry.paper is not None else "  [user circuit]"
        print(f"{key}{aliases}{paper}")
        detail = entry.description or entry.function
        if detail:
            print(f"    {detail}")
        if args.verbose:
            aig = registry.cached_circuit(key)
            print(f"    {aig.n_pis} inputs, {aig.n_pos} outputs, "
                  f"{aig.n_nodes} AND nodes")
    return 0


def _cmd_genlib(args) -> int:
    from repro.gates.genlib import write_genlib

    library = _library_by_key(args.library)
    text = write_genlib(library)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(library)} cells)")
    else:
        print(text, end="")
    return 0


def _cmd_cell(args) -> int:
    from repro.power.vector_report import cell_leakage_report

    library = _library_by_key(args.library)
    cell = library.cell(args.name)
    print(f"{cell.name}: {cell.description}  "
          f"(pins {', '.join(cell.inputs)}, {cell.n_devices} devices)")
    print(cell_leakage_report(cell, library).render())
    return 0


def _cmd_techs(args) -> int:
    print(technology_report(CMOS_32NM))
    print(technology_report(CNTFET_32NM))
    return 0


# -- foundry subcommands ------------------------------------------------------

def _foundry_cache(args):
    from pathlib import Path

    from repro.cache import DiskCache, default_cache

    if getattr(args, "cache_dir", None):
        return DiskCache(root=Path(args.cache_dir), enabled=True)
    return default_cache()


def _foundry_axes(args):
    libraries = (_csv_values(args.libraries, str)
                 if args.libraries else None)
    vdds = _csv_values(args.vdd, float) if args.vdd else (None,)
    return libraries, vdds


def _cmd_foundry_build(args) -> int:
    from repro import foundry
    from repro.errors import ExperimentError

    libraries, vdds = _foundry_axes(args)
    try:
        report = foundry.characterize(
            libraries, vdds, jobs=args.jobs, cache=_foundry_cache(args),
            force=args.force)
    except ExperimentError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    return 1 if report.counts()["failed"] else 0


def _cmd_foundry_list(args) -> int:
    from repro import foundry

    cache = _foundry_cache(args)
    rows = foundry.library_listing(cache)
    for line in foundry.format_library_listing(rows, verbose=True):
        print(line)
    n = sum(len(row["artifacts"]) for row in rows)
    print(f"{n} artifact(s) in {cache.root}")
    return 0


def _cmd_foundry_verify(args) -> int:
    from repro import foundry, registry

    cache = _foundry_cache(args)
    libraries, vdds = _foundry_axes(args)
    if libraries is None and args.vdd is None:
        # No axes given: verify exactly what the store holds.
        tasks = [(entry["library"], entry["vdd"])
                 for entry in foundry.store_index(cache).values()]
        if not tasks:
            print("foundry verify: store is empty")
            return 0
    else:
        if libraries is None:
            libraries = registry.available_libraries()
        tasks = [(name, vdd) for name in libraries for vdd in vdds]
    failures = 0
    for name, vdd in sorted(tasks, key=lambda t: (t[0], t[1] or 0.0)):
        outcome = foundry.verify_artifact(name, vdd, cache)
        vdd_text = "native" if vdd is None else f"{vdd:g}V"
        print(f"{outcome['status']:>12}  {outcome['library']} @ "
              f"{vdd_text}  stored={outcome['stored_hash'] or '-'} "
              f"rebuilt={outcome['rebuilt_hash'] or '-'}")
        if outcome["status"] != "ok":
            failures += 1
    print(f"foundry verify: {failures} problem(s)")
    return 1 if failures else 0


def _cmd_foundry_export(args) -> int:
    from repro import foundry

    libraries, vdds = _foundry_axes(args)
    exported = foundry.export_store(
        args.target, libraries,
        None if args.vdd is None else vdds,
        cache=_foundry_cache(args))
    print(f"exported {exported} artifact(s) to {args.target}")
    return 0 if exported else 1


# -- sweep subcommands --------------------------------------------------------

def _csv_values(text: str, cast):
    return tuple(cast(part) for part in text.split(",") if part)


def _circuit_values(text: str):
    """Split a circuits axis on commas — except inside a family spec's
    parentheses: ``t481,synth:rand(gates=5,seed=1)`` is two values."""
    parts, current, depth = [], [], 0
    for char in text:
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        current.append(char)
    parts.append("".join(current))
    return tuple(part for part in parts if part)


def _parse_bool_axis(text: str):
    """``on`` / ``off`` / ``both`` -> synthesize axis tuple."""
    axis = {"on": (True,), "off": (False,), "both": (True, False)}
    if text not in axis:
        raise SystemExit(f"--synthesize must be on, off or both (got {text!r})")
    return axis[text]


def _spec_from_args(args):
    """Build a SweepSpec from ``--spec FILE`` plus axis-flag overrides."""
    from repro.sweep.spec import SweepSpec

    data = SweepSpec.from_file(args.spec).to_dict() if args.spec else {}
    overrides = {
        "vdd": (args.vdd, lambda text: _csv_values(text, float)),
        "frequency": (args.frequency, lambda text: _csv_values(text, float)),
        "fanout": (args.fanout, lambda text: _csv_values(text, int)),
        "n_patterns": (args.patterns, lambda text: _csv_values(text, int)),
        "circuits": (args.circuits, _circuit_values),
        "libraries": (args.libraries, lambda text: _csv_values(text, str)),
        "synthesize": (args.synthesize, _parse_bool_axis),
        "seed": (args.seed, int),
        "backend": (args.backend, str),
    }
    for name, (value, parse) in overrides.items():
        if value is not None:
            data[name] = parse(value)
    return SweepSpec.from_dict(data)


def _cmd_sweep_run(args) -> int:
    from repro.sweep.runner import run_sweep
    from repro.sweep.store import open_store

    _register_blifs(args.blif)
    spec = _spec_from_args(args)
    store = open_store(args.store)
    report = run_sweep(spec, store, jobs=args.jobs,
                       verbose=not args.quiet)
    print(report.render())
    return 0


def _cmd_sweep_report(args) -> int:
    from repro.sweep.report import render_csv, render_table1, render_vdd_series
    from repro.sweep.store import require_store

    records = require_store(args.store).records()
    if args.format == "csv":
        text = render_csv(records)
    elif args.pivot == "vdd":
        text = render_vdd_series(records)
    else:
        text = render_table1(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(records)} points)")
    else:
        print(text, end="")
    return 0


def _cmd_sweep_status(args) -> int:
    from repro.sweep.store import open_store_for_read, sweep_status

    _register_blifs(args.blif)
    spec = _spec_from_args(args)
    status = sweep_status(spec, open_store_for_read(args.store))
    print(f"sweep {status['spec_hash'][:12]}: "
          f"total={status['total']} done={status['done']} "
          f"missing={status['missing']} store={args.store}")
    for point in status["missing_preview"]:
        print(f"  missing: {point['circuit']} / {point['library']} "
              f"vdd={point['vdd']:g} f={point['frequency']:g} "
              f"fo={point['fanout']} n={point['n_patterns']}")
    if status["missing"] > len(status["missing_preview"]):
        print(f"  ... and {status['missing'] - len(status['missing_preview'])}"
              f" more")
    # Exit code doubles as a completeness check for CI gating.
    return 0 if status["missing"] == 0 else 1


def _cmd_sweep_spec(args) -> int:
    _register_blifs(args.blif)
    spec = _spec_from_args(args)
    text = spec.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({spec.size()} points)")
    else:
        print(text, end="")
    return 0


# -- serve / query ------------------------------------------------------------

def _config_from_flags(args):
    """An ExperimentConfig from the serve/query operating-point flags,
    or ``None`` when no flag was given (meaning: server default)."""
    from dataclasses import replace

    from repro.experiments.config import FAST_CONFIG, PAPER_CONFIG

    overrides = {}
    for flag, field in (("vdd", "vdd"), ("frequency", "frequency"),
                        ("fanout", "fanout"), ("patterns", "n_patterns"),
                        ("state_patterns", "state_patterns"),
                        ("seed", "seed"), ("backend", "backend")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if not args.fast and not overrides:
        return None
    base = FAST_CONFIG if args.fast else PAPER_CONFIG
    return replace(base, **overrides)


def _add_config_flags(parser) -> None:
    """Operating-point flags shared by ``serve`` and ``query``."""
    parser.add_argument("--fast", action="store_true",
                        help="16K patterns instead of 640K")
    parser.add_argument("--vdd", type=float, default=None, metavar="V")
    parser.add_argument("--frequency", type=float, default=None,
                        metavar="HZ")
    parser.add_argument("--fanout", type=int, default=None, metavar="N")
    parser.add_argument("--patterns", type=int, default=None, metavar="N",
                        help="random-pattern budget")
    parser.add_argument("--state-patterns", type=int, default=None,
                        metavar="N", dest="state_patterns",
                        help="leakage-state histogram budget")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="estimator backend (default bitsim)")


def _serve_fleet(args, config) -> int:
    """``repro serve --workers N``: the supervised multi-process fleet."""
    import signal

    from repro import __version__
    from repro.serve import FleetConfig, FleetSupervisor

    control_port = args.control_port
    if control_port is None:
        # Service port + 1 by convention; OS-assigned when the service
        # port itself is OS-assigned.
        control_port = args.port + 1 if args.port else 0
    max_inflight = args.max_inflight if args.max_inflight > 0 else None
    fleet = FleetSupervisor(FleetConfig(
        workers=args.workers, host=args.host, port=args.port,
        control_port=control_port, config=config, store=args.store,
        max_inflight=max_inflight, drain_timeout_s=args.drain_timeout))
    fleet.start()
    print(f"repro-fleet {__version__}: {args.workers} workers on "
          f"{fleet.service_url} (control {fleet.control_url}, "
          f"backend={config.backend}, n_patterns={config.n_patterns})",
          flush=True)

    def on_signal(signum, frame):
        fleet.initiate_shutdown(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    fleet.run_forever()
    print("fleet shutdown complete", flush=True)
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro import __version__
    from repro.api import Session
    from repro.experiments.config import PAPER_CONFIG
    from repro.serve import Engine, serve
    from repro.sim.backends import available_backends

    _register_blifs(args.blif)
    config = _config_from_flags(args) or PAPER_CONFIG
    # Fail at startup, not on the first client request, for a typo'd
    # backend (same up-front check the table1 command makes).
    if config.backend not in available_backends():
        raise SystemExit(
            f"unknown estimator backend {config.backend!r}; choose "
            f"from {', '.join(available_backends())}")
    if args.workers > 1:
        return _serve_fleet(args, config)
    engine = Engine(Session(config), store=args.store)
    max_inflight = args.max_inflight if args.max_inflight > 0 else None
    server = serve(engine, host=args.host, port=args.port,
                   max_inflight=max_inflight, ready=False)
    print(f"repro-serve {__version__} listening on {server.url} "
          f"(backend={config.backend}, n_patterns={config.n_patterns})",
          flush=True)

    # Graceful shutdown: stop admitting (readiness flips 503 so load
    # balancers stop routing here), let in-flight requests finish up
    # to --drain-timeout, flush the result store, exit 0.  The drain
    # runs in its own thread because server.shutdown() deadlocks when
    # called from the thread running serve_forever() — which is where
    # Python delivers signals.
    drained = threading.Event()

    def drain(signame: str) -> None:
        if drained.is_set():
            return
        drained.set()
        print(f"{signame}: draining "
              f"({server.inflight} request(s) in flight)", flush=True)
        if not server.wait_idle(timeout=args.drain_timeout):
            print(f"drain timeout of {args.drain_timeout:g}s hit; "
                  f"shutting down with requests in flight", flush=True)
        engine.flush()
        server.shutdown()

    def on_signal(signum, frame):
        # Stop admitting before the handler returns, so a request the
        # main thread accepts after the signal already sees the server
        # draining.  Safe to lock here: once the handlers are installed
        # the main thread only runs serve_forever, which takes no
        # server lock.
        server.begin_drain()
        threading.Thread(target=drain, name="drain",
                         args=(signal.Signals(signum).name,),
                         daemon=True).start()

    server.mark_ready()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("shutdown complete", flush=True)
    return 0


def _cmd_fleet_status(args) -> int:
    """``repro fleet status``: render the supervisor's aggregated
    ``/v1/healthz`` as a table (exit 1 when the fleet is degraded)."""
    import json as json_module
    import urllib.request

    url = args.url.rstrip("/") + "/v1/healthz"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            payload = json_module.loads(response.read().decode("utf-8"))
    except Exception as exc:
        raise SystemExit(f"cannot reach fleet supervisor at {url}: {exc}")
    if args.json:
        print(json_module.dumps(payload, indent=2))
        return 0 if payload.get("status") == "ok" else 1
    print(f"fleet {payload.get('status', '?')}: "
          f"{payload.get('n_live', 0)}/{payload.get('n_workers', 0)} live, "
          f"{payload.get('n_ready', 0)} ready, "
          f"{payload.get('n_benched', 0)} benched, "
          f"{payload.get('restarts_total', 0)} restart(s), "
          f"{payload.get('deaths_total', 0)} death(s)  "
          f"[supervisor pid {payload.get('pid')}, "
          f"up {payload.get('uptime_s', 0):.0f}s, "
          f"{'SO_REUSEPORT' if payload.get('reuse_port') else 'inherited FD'}]")
    print(f"  service {payload.get('service_url')}  via {args.url}")
    print(f"{'slot':>4} {'state':>8} {'pid':>8} {'ready':>5} "
          f"{'restarts':>8} {'deaths':>6} {'hb-age/s':>8} {'inflight':>8} "
          f"{'last exit':<24}")
    for row in payload.get("workers", ()):
        age = row.get("heartbeat_age_s")
        print(f"{row.get('slot', '?'):>4} {row.get('state', '?'):>8} "
              f"{row.get('pid') or '-':>8} "
              f"{'yes' if row.get('ready') else 'no':>5} "
              f"{row.get('restarts', 0):>8} {row.get('deaths', 0):>6} "
              f"{age if age is not None else '-':>8} "
              f"{row.get('inflight', '-'):>8} "
              f"{row.get('last_exit') or '-':<24}")
    aggregate = payload.get("aggregate") or {}
    counters = aggregate.get("counters") or {}
    caches = aggregate.get("caches") or {}
    disk = caches.get("disk") or {}
    answers = (counters.get("results.hot", 0)
               + counters.get("results.cold", 0)
               + counters.get("results.coalesced", 0))
    print(f"  aggregate: {answers} answer(s) "
          f"({counters.get('results.cold', 0)} cold), "
          f"{counters.get('stats.cold', 0)} simulation(s) fleet-wide, "
          f"{counters.get('stats.hot', 0)} hot stats hit(s), "
          f"single-flight leader/follower/takeover = "
          f"{disk.get('flight_leader', 0)}/"
          f"{disk.get('flight_follower', 0)}/"
          f"{disk.get('flight_takeover', 0)}")
    return 0 if payload.get("status") == "ok" else 1


#: Axes ``repro query --grid`` may sweep, with their value parsers.
#: These are the *pricing* axes: the server prices every point of the
#: grid off one cached simulation.
_GRID_AXES = {"vdd": float, "frequency": float, "fanout": int}


def _parse_grid(values: List[str]):
    """``--grid vdd=0.8,0.9,frequency=1e9,2e9`` -> ``{axis: tuple}``.

    Each ``--grid`` argument holds one or more ``axis=v1,v2,...``
    segments (a new segment starts wherever ``,name=`` appears, so the
    flag reads naturally with commas); repeated flags merge.
    """
    import re

    axes = {}
    for text in values:
        for part in re.split(r",(?=[A-Za-z_]+=)", text.strip()):
            name, sep, csv = part.partition("=")
            name = name.strip()
            if not sep or name not in _GRID_AXES:
                raise SystemExit(
                    f"--grid axes are {', '.join(_GRID_AXES)} "
                    f"(got {part!r})")
            try:
                parsed = tuple(_GRID_AXES[name](value)
                               for value in csv.split(",") if value)
            except ValueError:
                raise SystemExit(f"bad --grid values in {part!r}")
            if not parsed:
                raise SystemExit(f"--grid axis {name!r} has no values")
            axes[name] = tuple(dict.fromkeys(axes.get(name, ()) + parsed))
    return axes


def _cmd_query_grid(args, client) -> int:
    """One batched ``/v1/estimate_batch`` round trip over a point grid."""
    import json as json_module
    from dataclasses import replace
    from itertools import product

    from repro.errors import ExperimentError
    from repro.experiments.config import ExperimentConfig
    from repro.schema import PowerQuery

    axes = _parse_grid(args.grid)
    base = _config_from_flags(args)
    try:
        if base is None:
            # No local operating-point flags: anchor the grid on the
            # *server's* default configuration.
            base = ExperimentConfig.from_dict(
                client.healthz()["default_config"])
        queries = [
            PowerQuery(circuit=args.circuit, library=args.library,
                       config=replace(base, **dict(zip(axes, values))),
                       deadline_ms=args.deadline_ms)
            for values in product(*axes.values())]
        reports = client.estimate_batch(queries)
    except ExperimentError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json_module.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    first = reports[0]
    print(f"{first.circuit} on {first.library} [{first.backend}] "
          f"via {args.url} — {len(reports)} operating points")
    print(f"{'vdd/V':>7} {'f/GHz':>8} {'fanout':>6} {'PD/uW':>10} "
          f"{'PS/uW':>10} {'PT/uW':>10} {'E/cyc/fJ':>10} {'PDP/fJ':>10} "
          f"{'EDP/1e-24Js':>12} {'cache':>9} {'timing':>7}")
    infeasible = 0
    for report in reports:
        r = report.result
        c = report.config
        # Schema-v1 servers do not send the timing fields; derive them
        # from the flow result so old servers still render fully.
        delay_ns = (report.delay_ns if report.delay_ns is not None
                    else r.delay_ps / 1e3)
        energy = (report.energy_per_cycle
                  if report.energy_per_cycle is not None
                  else r.pt_uw * 1e-6 / c.frequency)
        pdp = (report.pdp if report.pdp is not None
               else r.pt_uw * 1e-6 * delay_ns * 1e-9)
        feasible = delay_ns * 1e-9 <= 1.0 / c.frequency
        infeasible += not feasible
        print(f"{c.vdd:7.2f} {c.frequency / 1e9:8.3f} {c.fanout:6d} "
              f"{r.pd_uw:10.3f} {r.ps_uw:10.4f} {r.pt_uw:10.3f} "
              f"{energy / 1e-15:10.3f} {pdp / 1e-15:10.3f} "
              f"{r.edp_paper_units:12.3f} {report.cache_status:>9} "
              f"{'ok' if feasible else 'INFEAS':>7}")
    cold = sum(1 for r in reports if r.cache_status == "cold")
    print(f"  {cold} cold / {len(reports) - cold} warm, "
          f"server={first.server_version}")
    if infeasible:
        print(f"  {infeasible} point(s) timing-INFEASIBLE: clock period "
              f"shorter than the critical path — the estimate is the "
              f"would-be power, not an operable design point "
              f"(try 'repro optimize' to prune them)")
    return 0


def _cmd_query(args) -> int:
    import json as json_module

    from repro.errors import ExperimentError
    from repro.resilience import RetryPolicy
    from repro.serve import Client

    retry = RetryPolicy(retries=args.retries) if args.retries > 0 else None
    client = Client(args.url, timeout=args.timeout, retry=retry)
    if args.grid:
        return _cmd_query_grid(args, client)
    try:
        report = client.estimate(args.circuit, args.library,
                                 _config_from_flags(args),
                                 deadline_ms=args.deadline_ms)
    except ExperimentError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
        return 0
    r = report.result
    print(f"{report.circuit} on {report.library} "
          f"[{report.backend}] via {args.url}")
    print(f"  gates={r.gate_count} delay={r.delay_ps:.1f}ps "
          f"PD={r.pd_uw:.3f}uW PS={r.ps_uw:.4f}uW PT={r.pt_uw:.3f}uW "
          f"EDP={r.edp_paper_units:.3f}e-24Js")
    print(f"  cache={report.cache_status} elapsed={report.elapsed_s:.3f}s "
          f"server={report.server_version} key={report.query_key[:12]}")
    return 0


def _render_frontier(report, where: str, fmt: str) -> None:
    """Print an OptimizeReport as a table, CSV or JSON."""
    import csv as csv_module
    import json as json_module
    import sys

    from repro.schema import _FRONTIER_POINT_FIELDS

    if fmt == "json":
        print(json_module.dumps(report.to_dict(), indent=2))
        return
    if fmt == "csv":
        writer = csv_module.writer(sys.stdout)
        writer.writerow(_FRONTIER_POINT_FIELDS)
        for point in report.frontier:
            row = point.to_dict()
            writer.writerow([row.get(field, "")
                             for field in _FRONTIER_POINT_FIELDS])
        return
    print(f"{report.circuit}: {len(report.frontier)}-point Pareto "
          f"frontier over ({', '.join(report.objectives)}) via {where}")
    print(f"  {report.n_candidates} candidates = "
          f"{report.n_infeasible} timing-infeasible + "
          f"{report.n_dominated} dominated + {len(report.frontier)} "
          f"frontier  [{report.elapsed_s:.3f}s, "
          f"server {report.server_version}]")
    if not report.frontier:
        print("  (empty frontier: every point is timing-infeasible — "
              "lower the frequency axis or raise vdd)")
        return
    print(f"{'library':>24} {'backend':>8} {'vdd/V':>6} {'f/GHz':>8} "
          f"{'delay/ns':>9} {'slack/ns':>9} {'PT/uW':>9} {'E/cyc/fJ':>9} "
          f"{'PDP/fJ':>9} {'EDP/1e-24Js':>12} {'cache':>5}")
    for p in report.frontier:
        print(f"{p.library:>24} {p.backend:>8} {p.vdd:6.2f} "
              f"{p.frequency / 1e9:8.3f} {p.delay_ns:9.3f} "
              f"{p.slack_ns:+9.3f} {p.pt_w / 1e-6:9.3f} "
              f"{p.energy_per_cycle / 1e-15:9.3f} {p.pdp / 1e-15:9.3f} "
              f"{p.edp_js / 1e-24:12.3f} {p.cache_status:>5}")


def _cmd_optimize(args) -> int:
    from dataclasses import replace

    from repro.errors import ExperimentError
    from repro.experiments.config import FAST_CONFIG, PAPER_CONFIG

    _register_blifs(args.blif)
    # vdd / frequency / backend are *axes* here; the base config only
    # contributes the shared knobs (pattern budget, fanout, seed, ...).
    base = FAST_CONFIG if args.fast else PAPER_CONFIG
    overrides = {}
    for flag, field in (("fanout", "fanout"), ("patterns", "n_patterns"),
                        ("state_patterns", "state_patterns"),
                        ("seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    config = replace(base, **overrides) if overrides else base

    libraries = (_csv_values(args.libraries, str)
                 if args.libraries else None)
    vdds = _csv_values(args.vdd, float) if args.vdd else None
    frequencies = (_csv_values(args.frequency, float)
                   if args.frequency else None)
    backends = _csv_values(args.backend, str) if args.backend else None
    objectives = (_csv_values(args.objectives, str)
                  if args.objectives else None)
    try:
        if args.url:
            from repro import registry
            from repro.resilience import RetryPolicy
            from repro.schema import DEFAULT_OBJECTIVES, OptimizeQuery
            from repro.serve import Client

            query = OptimizeQuery(
                circuit=args.circuit,
                libraries=(libraries if libraries
                           else registry.PAPER_LIBRARIES),
                vdds=vdds if vdds else (config.vdd,),
                frequencies=(frequencies if frequencies
                             else (config.frequency,)),
                backends=backends if backends else (config.backend,),
                objectives=(objectives if objectives
                            else DEFAULT_OBJECTIVES),
                config=config,
                deadline_ms=args.deadline_ms)
            retry = (RetryPolicy(retries=args.retries)
                     if args.retries > 0 else None)
            client = Client(args.url, timeout=args.timeout, retry=retry)
            report = client.optimize(query)
            where = args.url
        else:
            from repro.api import Session

            session = Session(config=config, libraries=libraries)
            report = session.optimize(
                args.circuit, vdds=vdds, frequencies=frequencies,
                backends=backends, objectives=objectives,
                store=args.store, deadline_ms=args.deadline_ms)
            where = "local session"
    except ExperimentError as exc:
        raise SystemExit(str(exc))
    _render_frontier(report, where, args.format)
    return 0


def _add_axis_flags(parser, with_spec: bool = True) -> None:
    """The shared grid-definition flags of the sweep subcommands."""
    if with_spec:
        parser.add_argument("--spec", default=None, metavar="FILE",
                            help="JSON sweep spec; axis flags below "
                                 "override its entries")
    parser.add_argument("--vdd", default=None, metavar="V1,V2,...",
                        help="supply voltages in volts (default 0.9)")
    parser.add_argument("--frequency", default=None, metavar="F1,F2,...",
                        help="clock frequencies in Hz (default 1e9)")
    parser.add_argument("--fanout", default=None, metavar="N1,N2,...",
                        help="fanout loads (default 3)")
    parser.add_argument("--patterns", default=None, metavar="N1,N2,...",
                        help="random-pattern budgets (default 640000)")
    parser.add_argument("--circuits", default=None, metavar="A,B,...",
                        help="benchmark subset (default: all 12); "
                             "family specs like synth:rand(gates=5000,"
                             "seed=1) are accepted (commas inside "
                             "parentheses do not split)")
    parser.add_argument("--libraries", default=None, metavar="L1,L2,...",
                        help="registered library keys or aliases (see "
                             "'repro libraries'; default: the paper's "
                             "three)")
    parser.add_argument("--synthesize", default=None,
                        choices=["on", "off", "both"],
                        help="resyn2rs before mapping (default on)")
    parser.add_argument("--seed", default=None, type=int,
                        help="pattern RNG seed (default 2010)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="estimator backend for every point "
                             "(default bitsim)")
    parser.add_argument("--blif", action="append", default=None,
                        metavar="FILE",
                        help="register a BLIF netlist as a circuit "
                             "before running (repeatable); it is then "
                             "a valid --circuits value")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Power Consumption of Logic Circuits "
                    "in Ambipolar Carbon Nanotube Technology' (DATE 2010)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="reproduce Table 1")
    table1.add_argument("--fast", action="store_true",
                        help="16K patterns instead of 640K")
    table1.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset (any "
                             "registered circuit name)")
    table1.add_argument("--blif", action="append", default=None,
                        metavar="FILE",
                        help="register a BLIF netlist as a circuit "
                             "(repeatable); name it in --benchmarks to "
                             "run it")
    table1.add_argument("--quiet", action="store_true")
    table1.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the circuit x library "
                             "grid (0 = all CPUs; clamped to the CPU "
                             "count); results are bit-identical to the "
                             "serial run")
    table1.add_argument("--backend", default=None, metavar="NAME",
                        help="estimator backend (default bitsim; see "
                             "'repro libraries' for the registered set)")
    table1.set_defaults(func=_cmd_table1)

    library = sub.add_parser("library",
                             help="Section 4 gate-level study")
    library.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all CPUs)")
    library.set_defaults(func=_cmd_library)

    figures = sub.add_parser("figures", help="Fig. 2/4/5 demonstrations")
    figures.set_defaults(func=_cmd_figures)

    genlib = sub.add_parser("genlib", help="export a library as genlib")
    genlib.add_argument("library", metavar="LIBRARY",
                        help="registered library key or alias "
                             "(see 'repro libraries')")
    genlib.add_argument("-o", "--output", default=None)
    genlib.set_defaults(func=_cmd_genlib)

    cell = sub.add_parser("cell", help="per-vector leakage of one cell")
    cell.add_argument("name")
    cell.add_argument("--library", default="generalized",
                      help="registered library key or alias")
    cell.set_defaults(func=_cmd_cell)

    libraries = sub.add_parser(
        "libraries", help="registered libraries and estimator backends")
    libraries.add_argument("-v", "--verbose", action="store_true",
                           help="build each library and show cell counts")
    libraries.set_defaults(func=_cmd_libraries)

    circuits = sub.add_parser(
        "circuits", help="registered circuits (benchmarks + user netlists)")
    circuits.add_argument("-v", "--verbose", action="store_true",
                          help="build each circuit and show its size")
    circuits.add_argument("--blif", action="append", default=None,
                          metavar="FILE",
                          help="register a BLIF netlist first (repeatable)")
    circuits.set_defaults(func=_cmd_circuits)

    techs = sub.add_parser("techs", help="technology summaries")
    techs.set_defaults(func=_cmd_techs)

    serve = sub.add_parser(
        "serve", help="long-lived estimation server (POST /v1/estimate)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port; 0 binds a free one (printed on "
                            "startup)")
    serve.add_argument("--store", default=None, metavar="FILE",
                       help="sweep-format result store to warm-start "
                            "from and append every computed answer to")
    serve.add_argument("--blif", action="append", default=None,
                       metavar="FILE",
                       help="register a BLIF netlist before serving "
                            "(repeatable)")
    serve.add_argument("--max-inflight", type=int, default=32,
                       metavar="N", dest="max_inflight",
                       help="admission limit: estimate requests "
                            "processed at once before shedding with "
                            "429 (0 = unbounded; default %(default)s)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S", dest="drain_timeout",
                       help="seconds SIGTERM/SIGINT waits for in-flight "
                            "requests before forcing shutdown "
                            "(default %(default)s)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes sharing the service port "
                            "(N>1 runs the self-healing fleet "
                            "supervisor; default %(default)s)")
    serve.add_argument("--control-port", type=int, default=None,
                       metavar="PORT", dest="control_port",
                       help="fleet supervisor health port serving the "
                            "aggregated /v1/healthz (default: service "
                            "port + 1, or OS-assigned with --port 0; "
                            "only with --workers > 1)")
    _add_config_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    fleet = sub.add_parser(
        "fleet", help="inspect a running multi-worker serving fleet")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fstatus = fleet_sub.add_parser(
        "status",
        help="per-worker liveness and fleet-wide counters from the "
             "supervisor's aggregated /v1/healthz (exit 1 when "
             "degraded)")
    fstatus.add_argument("--url", default="http://127.0.0.1:8322",
                         help="supervisor control URL (default "
                              "%(default)s — service port + 1)")
    fstatus.add_argument("--timeout", type=float, default=10.0,
                         metavar="S", help="HTTP timeout in seconds")
    fstatus.add_argument("--json", action="store_true",
                         help="print the raw aggregated healthz JSON")
    fstatus.set_defaults(func=_cmd_fleet_status)

    query = sub.add_parser(
        "query", help="one power query against a running server")
    query.add_argument("circuit", help="registered circuit name or alias")
    query.add_argument("library", help="registered library key or alias")
    query.add_argument("--url", default="http://127.0.0.1:8321",
                       help="server base URL (default %(default)s)")
    query.add_argument("--timeout", type=float, default=600.0,
                       metavar="S",
                       help="per-attempt request timeout in seconds")
    query.add_argument("--retries", type=int, default=2, metavar="N",
                       help="re-attempts on connection failures and "
                            "429/503 shedding, with jittered "
                            "exponential backoff (0 disables; "
                            "default %(default)s)")
    query.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS", dest="deadline_ms",
                       help="server-side deadline per query; an "
                            "estimate that cannot finish in time "
                            "fails fast with 504 instead of hogging "
                            "the server")
    query.add_argument("--json", action="store_true",
                       help="print the raw PowerQuoteReport JSON")
    query.add_argument("--grid", action="append", default=None,
                       metavar="AXIS=V1,V2[,AXIS=...]",
                       help="sweep the pricing axes (vdd, frequency, "
                            "fanout) in one batched request, e.g. "
                            "--grid vdd=0.8,0.9,frequency=1e9,2e9; the "
                            "server prices the whole grid off one "
                            "cached simulation (repeatable)")
    _add_config_flags(query)
    query.set_defaults(func=_cmd_query)

    optimize = sub.add_parser(
        "optimize",
        help="Pareto frontier of one circuit over a "
             "(library x vdd x frequency) design space")
    optimize.add_argument("circuit",
                          help="registered circuit name or alias")
    optimize.add_argument("--libraries", default=None,
                          metavar="L1,L2,...",
                          help="library axis (default: the paper's "
                               "three)")
    optimize.add_argument("--vdd", default=None, metavar="V1,V2,...",
                          help="supply-voltage axis in volts "
                               "(default 0.9)")
    optimize.add_argument("--frequency", default=None,
                          metavar="F1,F2,...",
                          help="clock-frequency axis in Hz "
                               "(default 1e9); points whose period is "
                               "shorter than the critical path are "
                               "pruned before pricing")
    optimize.add_argument("--backend", default=None, metavar="B1,B2,...",
                          help="estimator-backend axis (default bitsim)")
    optimize.add_argument("--objectives", default=None,
                          metavar="O1,O2,...",
                          help="Pareto objectives: power, energy, pdp, "
                               "edp, delay, vdd, frequency, fmax "
                               "(default power,frequency)")
    optimize.add_argument("--fast", action="store_true",
                          help="16K patterns instead of 640K")
    optimize.add_argument("--fanout", type=int, default=None, metavar="N")
    optimize.add_argument("--patterns", type=int, default=None,
                          metavar="N", help="random patterns per point")
    optimize.add_argument("--state-patterns", type=int, default=None,
                          metavar="N",
                          help="short-circuit state sample size")
    optimize.add_argument("--seed", type=int, default=None)
    optimize.add_argument("--url", default=None, metavar="URL",
                          help="evaluate on a running 'repro serve' "
                               "endpoint instead of in-process")
    optimize.add_argument("--timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="per-attempt HTTP timeout (with --url)")
    optimize.add_argument("--retries", type=int, default=2, metavar="N",
                          help="HTTP retry budget for transient "
                               "failures (with --url; 0 disables)")
    optimize.add_argument("--deadline-ms", type=float, default=None,
                          metavar="MS",
                          help="bound the whole optimization; expiry "
                               "is a deadline_exceeded error")
    optimize.add_argument("--store", default=None, metavar="FILE",
                          help="JSONL result store to warm-start from "
                               "and record priced points into "
                               "(local mode)")
    optimize.add_argument("--format", default="table",
                          choices=["table", "csv", "json"],
                          help="frontier rendering (default table)")
    optimize.add_argument("--blif", action="append", default=None,
                          metavar="FILE",
                          help="register a BLIF netlist as a circuit "
                               "first (repeatable, local mode)")
    optimize.set_defaults(func=_cmd_optimize)

    foundry = sub.add_parser(
        "foundry",
        help="build, inspect and verify prebuilt library artifacts")
    foundry_sub = foundry.add_subparsers(dest="foundry_command",
                                         required=True)

    def _foundry_common(sub_parser, with_vdd=True):
        sub_parser.add_argument("--libraries", default=None,
                                metavar="L1,L2,...",
                                help="library keys/aliases (default: "
                                     "every registered library)")
        if with_vdd:
            sub_parser.add_argument("--vdd", default=None,
                                    metavar="V1,V2,...",
                                    help="supply points in volts "
                                         "(default: native supply)")
        sub_parser.add_argument("--cache-dir", default=None,
                                metavar="DIR", dest="cache_dir",
                                help="artifact store root (default: the "
                                     "REPRO_CACHE_DIR cache)")

    fbuild = foundry_sub.add_parser(
        "build", help="characterize libraries into versioned artifacts")
    _foundry_common(fbuild)
    fbuild.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all CPUs); every "
                             "saved artifact is a resume checkpoint")
    fbuild.add_argument("--force", action="store_true",
                        help="rebuild even when a valid artifact exists")
    fbuild.set_defaults(func=_cmd_foundry_build)

    flist = foundry_sub.add_parser(
        "list", help="stored artifacts with provenance per library")
    flist.add_argument("--cache-dir", default=None, metavar="DIR",
                       dest="cache_dir",
                       help="artifact store root (default: the "
                            "REPRO_CACHE_DIR cache)")
    flist.set_defaults(func=_cmd_foundry_list)

    fverify = foundry_sub.add_parser(
        "verify",
        help="re-characterize from scratch and diff against stored "
             "hashes; defaults to every stored artifact (exit 1 on "
             "any mismatch)")
    _foundry_common(fverify)
    fverify.set_defaults(func=_cmd_foundry_verify)

    fexport = foundry_sub.add_parser(
        "export",
        help="copy artifacts into a standalone store directory "
             "(usable as REPRO_CACHE_DIR)")
    fexport.add_argument("target", metavar="DIR")
    _foundry_common(fexport)
    fexport.set_defaults(func=_cmd_foundry_export)

    sweep = sub.add_parser(
        "sweep", help="scenario grids with a resumable result store")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    run = sweep_sub.add_parser(
        "run", help="execute every not-yet-stored point of a grid")
    _add_axis_flags(run)
    run.add_argument("--store", default="sweep-results.jsonl",
                     metavar="FILE",
                     help="result store path; .sqlite/.db selects the "
                          "SQLite backend (default sweep-results.jsonl)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (0 = all CPUs; clamped to "
                          "the CPU count); results are bit-identical "
                          "for any value")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-point progress lines")
    run.set_defaults(func=_cmd_sweep_run)

    report = sweep_sub.add_parser(
        "report", help="pivot stored points into tables")
    report.add_argument("--store", default="sweep-results.jsonl",
                        metavar="FILE")
    report.add_argument("--pivot", choices=["table1", "vdd"],
                        default="table1",
                        help="table1: per-library tables per operating "
                             "point; vdd: power-vs-VDD series")
    report.add_argument("--format", choices=["markdown", "csv"],
                        default="markdown",
                        help="csv ignores --pivot and dumps every point")
    report.add_argument("-o", "--output", default=None, metavar="FILE")
    report.set_defaults(func=_cmd_sweep_report)

    status = sweep_sub.add_parser(
        "status", help="grid coverage of a store (exit 1 if incomplete)")
    _add_axis_flags(status)
    status.add_argument("--store", default="sweep-results.jsonl",
                        metavar="FILE")
    status.set_defaults(func=_cmd_sweep_status)

    spec = sweep_sub.add_parser(
        "spec", help="emit the JSON spec the axis flags describe")
    _add_axis_flags(spec)
    spec.add_argument("-o", "--output", default=None, metavar="FILE")
    spec.set_defaults(func=_cmd_sweep_spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
