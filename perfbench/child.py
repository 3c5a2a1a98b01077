"""The benchmark's work processes.

``run.py`` starts every process below with a fresh environment (its own
empty ``REPRO_CACHE_DIR``, fault injection cleared) and talks to it
over two pipes: JSON commands on stdin, JSON events on the original
stdout.  Everything the program prints goes to a log file instead, so
the fleet supervisor's own ``print`` lines cannot corrupt the channel.

    python3 perfbench/child.py setup-grid SPEC    # set up, report, exit
    python3 perfbench/child.py grid SPEC          # set up, run Table 1
    python3 perfbench/child.py server SPEC        # PowerServer or fleet

``SPEC`` is a JSON file written by ``run.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from tracer import MEASURE, OFF, SETUP, Tracer


def post_json(url: str, path: str, body: Any,
              conn: Optional[http.client.HTTPConnection] = None,
              timeout: float = 60.0) -> Tuple[int, Any]:
    """POST one JSON body; a fresh connection unless ``conn`` is given
    (and then kept open for the next request)."""
    own = conn is None
    if own:
        parts = urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=timeout)
    raw = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if own:
        headers["Connection"] = "close"
    try:
        conn.request("POST", path, body=raw, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode("utf-8"))
    finally:
        if own:
            conn.close()


def get_json(url: str, path: str, timeout: float = 10.0) -> Any:
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=timeout)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def _self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions() -> Dict[str, str]:
    import numpy

    import repro
    return {"package": repro.__version__, "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


class _Channel:
    """The JSON event pipe to ``run.py``."""

    def __init__(self) -> None:
        self._out = os.fdopen(os.dup(1), "w", buffering=1)
        log = os.open(os.environ["PERFBENCH_LOG"],
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)

    def send(self, **event: Any) -> None:
        self._out.write(json.dumps(event) + "\n")
        self._out.flush()


class _LineClock:
    """A stdout stand-in that stamps each completed line (the serial
    Table 1 run prints one line per finished cell)."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self.stamps.extend(now for _ in range(text.count("\n")))
        return len(text)

    def flush(self) -> None:
        pass


# -- paper grid ---------------------------------------------------------------

def _grid_setup():
    from repro import registry
    from repro.api import Session
    from repro.experiments.config import PAPER_CONFIG

    for key in registry.PAPER_LIBRARIES:
        registry.cached_library(key, PAPER_CONFIG.vdd)
    return Session, PAPER_CONFIG


def run_grid(channel: _Channel, spec: Dict[str, Any], run: bool) -> None:
    tracer = None
    if spec.get("traced") and run:
        tracer = Tracer()
        tracer.dump_dir = Path(spec["spans_dir"])
        tracer.install()
    Session, config = _grid_setup()
    channel.send(event="ready", versions=_versions())
    if not run:
        return
    clock = _LineClock()
    saved = sys.stdout
    sys.stdout = clock
    if tracer is not None:
        tracer.set_phase(MEASURE)
    start = time.perf_counter()
    try:
        table = Session(config, jobs=1).table1(verbose=True)
    finally:
        sys.stdout = saved
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.set_phase(OFF)
        tracer.dump()
    cells = [dict(vars(table.results[name][key]))
             for name in table.benchmark_order for key in table.library_order]
    stamps = [start] + clock.stamps
    channel.send(event="done", wall_s=wall, cells=cells,
                 cell_s=[b - a for a, b in zip(stamps, stamps[1:])],
                 peak_rss_mb=_self_peak_mb())


# -- serving ------------------------------------------------------------------

def _warm(targets: List[str], requests: List[List[Any]]) -> List[dict]:
    """Send the working set to every target, one fresh connection per
    request (so warm-up never waits on a keep-alive stall)."""
    answers = []
    for target in targets:
        for path, body in requests:
            start = time.perf_counter()
            status, payload = post_json(target, path, body)
            answers.append({"target": target, "path": path,
                            "status": status, "payload": payload,
                            "latency_s": time.perf_counter() - start})
    return answers


def run_server(channel: _Channel, spec: Dict[str, Any]) -> None:
    tracer = None
    if spec.get("traced"):
        tracer = Tracer()
        tracer.dump_dir = Path(spec["spans_dir"])
        tracer.install()
        tracer.set_phase(SETUP)

    from repro.api import Session
    from repro.experiments.config import ExperimentConfig
    from repro.serve import FleetConfig, FleetSupervisor
    from repro.serve.engine import Engine
    from repro.serve.http import serve

    config = ExperimentConfig.from_dict(spec["config"])
    workers = int(spec.get("workers", 0))
    fleet = server = None
    control_url = None
    ready_s = 0.0
    if workers:
        fleet = FleetSupervisor(FleetConfig(
            workers=workers, port=0, config=config, store=spec["store"],
            run_dir=spec["fleet_dir"]))
        start = time.perf_counter()
        fleet.start()
        deadline = time.monotonic() + 90.0
        while fleet.n_ready() < workers and time.monotonic() < deadline:
            time.sleep(0.01)
        if fleet.n_ready() < workers:
            raise RuntimeError("fleet workers never became ready")
        ready_s = time.perf_counter() - start
        url, control_url = fleet.service_url, fleet.control_url
        admin = [row.get("admin_port") for row in
                 fleet.stats().get("workers", [])]
        targets = [f"http://127.0.0.1:{port}" for port in admin
                   if isinstance(port, int)] or [url, url]
    else:
        server = serve(Engine(Session(config)))
        threading.Thread(target=server.serve_forever, name="serve",
                         daemon=True).start()
        url = server.url
        targets = [url]
    warm = _warm(targets, spec["warm"])
    if tracer is not None:
        tracer.set_phase(OFF)
    channel.send(event="ready", url=url, control_url=control_url,
                 ready_s=ready_s, warm=warm, versions=_versions())

    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "phase":
            if tracer is not None:
                tracer.set_phase(int(command["value"]))
            channel.send(event="ok")
        elif name == "stop":
            break
    if tracer is not None:
        tracer.set_phase(OFF)
    peak = _self_peak_mb()
    if fleet is not None:
        pids = [row.get("pid") for row in fleet.stats().get("workers", [])]
        peak += sum(_vm_hwm_mb(pid) for pid in pids if isinstance(pid, int))
        fleet.shutdown()
    else:
        server.shutdown()
        server.server_close()
    if tracer is not None:
        tracer.dump()
    channel.send(event="stopped", peak_rss_mb=peak)


def main(argv: List[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    channel = _Channel()
    if mode in ("setup-grid", "grid"):
        run_grid(channel, spec, run=mode == "grid")
    elif mode == "server":
        run_server(channel, spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
