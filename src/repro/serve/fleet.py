"""Self-healing multi-worker serving: the fleet supervisor.

One :class:`~repro.serve.http.PowerServer` process tops out around a
thousand warm queries per second — far below what the warm engine can
price — because every request threads through one Python process.
``repro serve --workers N`` runs a **fleet** instead: a supervisor
pre-forks N worker processes that share one service port, watches each
of them, and restarts whatever dies.

**Port sharing.**  Each worker owns its own listening socket bound
with ``SO_REUSEPORT`` — the kernel load-balances incoming connections
across the sibling sockets with no userspace proxy in the path.  On
platforms without ``SO_REUSEPORT`` the supervisor binds one listening
socket and every forked worker accepts on the inherited FD (the
pre-fork model; the kernel serializes accepts).  Both modes are
transparent to clients.

**Supervision.**  Every worker writes a heartbeat file
(``worker-<slot>.json``: pid, private admin port, readiness, wall
time) twice a second and serves its full ``/v1/healthz`` on a private
admin port.  The supervisor's monitor loop restarts a worker when

* its process exits (crash, OOM kill, ``worker.kill9`` fault), or
* its heartbeat goes stale (a hung worker is SIGKILLed first).

Restarts back off exponentially (:class:`repro.resilience.Backoff`),
and a worker that dies ``crash_loop_threshold`` times within
``crash_loop_window_s`` seconds is **benched** — the fleet degrades
gracefully instead of burning CPU on a doomed respawn loop.  When
*zero* workers are live the supervisor itself answers the service
port with ``503 {"error": {"code": "degraded"}}`` plus ``Retry-After``
so clients keep getting well-formed backpressure, never a silent
connection refusal.

**Aggregated health.**  A control endpoint (separate port) serves the
fleet-wide ``/v1/healthz``: per-worker liveness rows plus an
``aggregate`` block that sums every numeric counter (cache hits,
simulations, foundry solves, serve counters) across the workers'
admin healthz payloads — ``repro fleet status`` renders it as a
table.  Because the cold simulation path is cross-process
single-flight (:func:`repro.cache.single_flight`), the aggregate
``counters["stats.cold"]`` counts *fleet-wide* simulation work: N
cold workers asked the same query still sum to 1.

**Shutdown.**  SIGTERM drains the fleet *rolling*: workers get
SIGTERM one at a time and finish their in-flight requests while the
rest keep serving, so a fleet restart never turns away traffic.

The ``supervisor.restart_storm`` fault point (:mod:`repro.faults`)
makes the monitor loop SIGKILL one healthy worker per firing —
chaos drills exercise the restart/bench machinery from the
supervising side.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
import urllib.request
from collections import deque
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from repro import __version__, faults
from repro.resilience import Backoff
from repro.serve.http import (
    DEFAULT_MAX_INFLIGHT,
    RETRY_AFTER_DRAINING,
    JsonHandler,
)

#: How often workers write their heartbeat file, seconds.
HEARTBEAT_INTERVAL_S = 0.5

#: ``Retry-After`` (seconds, header string) of the degraded responder.
RETRY_AFTER_DEGRADED = "2"

#: The degraded responder's fixed 503 payload.
_DEGRADED_BODY = json.dumps({
    "error": {"code": "degraded",
              "message": "no live fleet workers; supervisor is "
                         "restarting them — retry shortly"}
}).encode("utf-8")


def reuse_port_supported() -> bool:
    """Whether this platform load-balances ``SO_REUSEPORT`` siblings."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def _listening_socket(host: str, port: int,
                      reuse_port: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


def merge_counters(into: Dict[str, Any],
                   payload: Dict[str, Any]) -> Dict[str, Any]:
    """Recursively sum ``payload``'s numeric leaves into ``into``.

    Non-numeric leaves (version strings, config blocks) are skipped —
    the result is a pure counter aggregate, which is the only thing
    that is meaningful summed across workers.
    """
    for key, value in payload.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, dict):
            node = into.setdefault(key, {})
            if isinstance(node, dict):
                merge_counters(node, value)
        elif isinstance(value, (int, float)):
            if isinstance(into.get(key), (int, float)):
                into[key] += value
            else:
                into[key] = value
    return into


# -- worker process -----------------------------------------------------------

def _worker_main(slot: int, sock: socket.socket, config,
                 store: Optional[str], max_inflight: Optional[int],
                 run_dir: str, drain_timeout_s: float) -> None:
    """Body of one forked fleet worker.

    Builds its own engine *post-fork* (no shared mutable state with
    siblings beyond the disk cache, which is multi-process safe),
    serves the shared service socket, answers supervisor probes on a
    private loopback admin port, and heartbeats to ``run_dir``.
    """
    from repro.api import Session
    from repro.serve.engine import Engine
    from repro.serve.http import PowerServer
    from repro.sim import activity

    # Ctrl-C goes to the whole process group; the supervisor
    # coordinates the drain, so workers ignore SIGINT and wait for
    # its per-worker SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Fork semantics: the child inherits every module-level cache the
    # parent process had accumulated.  A worker must start cold — an
    # inherited warm stats LRU would silently answer "cold" queries
    # without simulating.  Timing has no process-wide cache to clear:
    # a report is memoized only on its netlist.  Inherited counts need
    # nothing: the engine below snapshots the counter registry when it
    # is built.
    activity.LADDER.lru.clear()

    engine = Engine(Session(config), store=store)
    meta = {"slot": slot, "pid": os.getpid()}
    server = PowerServer(engine, max_inflight=max_inflight, sock=sock)
    server.worker_meta = meta
    admin = PowerServer(engine, ("127.0.0.1", 0), max_inflight=None)
    admin.worker_meta = meta

    stop = threading.Event()
    heartbeat_path = Path(run_dir) / f"worker-{slot}.json"
    tmp_path = heartbeat_path.with_name(heartbeat_path.name + ".tmp")

    def heartbeat_loop() -> None:
        while not stop.is_set():
            payload = {"slot": slot, "pid": os.getpid(),
                       "admin_port": admin.server_address[1],
                       "ready": server.is_ready(),
                       "time": time.time()}
            try:
                tmp_path.write_text(json.dumps(payload),
                                    encoding="utf-8")
                os.replace(tmp_path, heartbeat_path)
            except OSError:
                pass  # a full disk must not look like a hang
            stop.wait(HEARTBEAT_INTERVAL_S)

    def drain() -> None:
        server.begin_drain()
        admin.begin_drain()
        server.wait_idle(timeout=drain_timeout_s)
        server.shutdown()
        admin.shutdown()

    def on_sigterm(signum, frame) -> None:
        # shutdown() deadlocks called from the serve_forever thread,
        # which is where Python delivers signals — drain elsewhere.
        threading.Thread(target=drain, name="drain",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, on_sigterm)
    threading.Thread(target=admin.serve_forever, name="admin",
                     daemon=True).start()
    server.mark_ready()
    admin.mark_ready()
    heartbeat = threading.Thread(target=heartbeat_loop,
                                 name="heartbeat", daemon=True)
    heartbeat.start()
    try:
        server.serve_forever()
    finally:
        stop.set()
        server.server_close()
        admin.server_close()


# -- degraded responder -------------------------------------------------------

class _DegradedResponder:
    """A minimal 503 answering machine for the zero-live-worker case.

    Accepts on the service socket (its own ``SO_REUSEPORT`` sibling,
    or the shared pre-fork socket) and answers every request with the
    structured ``degraded`` error plus ``Retry-After`` — clients keep
    receiving schema-valid backpressure while the fleet heals.
    """

    def __init__(self, sock: socket.socket, owns_sock: bool):
        self._sock = sock
        self._owns = owns_sock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="degraded", daemon=True)
        self.responses = 0

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.settimeout(1.0)
                try:
                    conn.recv(1 << 16)  # drain whatever request came
                except OSError:
                    pass
                head = (
                    "HTTP/1.0 503 Service Unavailable\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(_DEGRADED_BODY)}\r\n"
                    f"Retry-After: {RETRY_AFTER_DEGRADED}\r\n"
                    "Connection: close\r\n\r\n").encode("ascii")
                conn.sendall(head + _DEGRADED_BODY)
                self.responses += 1
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        if self._owns:
            try:
                self._sock.close()
            except OSError:
                pass


# -- control endpoint ---------------------------------------------------------

class _ControlHandler(JsonHandler):
    """The supervisor's own health API (``self.server.supervisor``)."""

    server_version = f"repro-fleet/{__version__}"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/")
        supervisor: "FleetSupervisor" = \
            self.server.supervisor  # type: ignore[attr-defined]
        try:
            if path in ("/v1/healthz", "/healthz"):
                self._send_json(200, supervisor.stats())
            elif path == "/v1/healthz/live":
                self._send_json(200, {"status": "alive",
                                      "role": "supervisor",
                                      "version": __version__})
            elif path == "/v1/healthz/ready":
                if supervisor.n_ready() > 0:
                    self._send_json(200, {"status": "ready"})
                else:
                    self._send_error_json(
                        503, "degraded", "no ready fleet worker",
                        retry_after=RETRY_AFTER_DRAINING)
            else:
                self._send_error_json(404, "not_found",
                                      f"unknown path {path!r}")
        except Exception:
            self._send_internal_error()


# -- supervisor ---------------------------------------------------------------

@dataclass
class FleetConfig:
    """Everything a :class:`FleetSupervisor` needs to run a fleet."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8321                 #: service port (0 = OS-assigned)
    control_port: int = 0            #: supervisor health port (0 = any)
    config: Any = None               #: worker ExperimentConfig
    store: Optional[str] = None
    max_inflight: Optional[int] = DEFAULT_MAX_INFLIGHT
    drain_timeout_s: float = 30.0
    poll_s: float = 0.25             #: monitor-loop cadence
    heartbeat_stale_s: float = 10.0  #: silence that counts as hung
    backoff_base_s: float = 0.2      #: first restart delay
    backoff_cap_s: float = 5.0
    crash_loop_threshold: int = 5    #: deaths within the window ...
    crash_loop_window_s: float = 30.0  # ... that bench a worker
    run_dir: Optional[str] = None    #: heartbeat dir (default: tempdir)


class _WorkerSlot:
    """The supervisor-side record of one worker slot."""

    def __init__(self, slot: int):
        self.slot = slot
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.state = "stopped"   # starting|live|backoff|benched|stopped
        self.restarts = 0        # respawns after a death
        self.deaths: List[float] = []   # monotonic death times
        self.streak = 0          # consecutive deaths, resets when the
        self.restart_at = 0.0    # worker outlives the crash-loop window
        self.spawned_at = 0.0
        self.admin_port: Optional[int] = None
        self.heartbeat_time = 0.0   # wall time of the last heartbeat
        self.ready = False
        self.last_exit: Optional[str] = None


class FleetSupervisor:
    """Pre-forks, watches, restarts and drains a worker fleet.

    Usage (the CLI does exactly this)::

        fleet = FleetSupervisor(FleetConfig(workers=3, port=8321))
        fleet.start()            # non-blocking: workers + monitor
        ...
        fleet.shutdown()         # rolling drain, idempotent

    ``service_url`` is where clients send queries; ``control_url``
    serves the aggregated fleet ``/v1/healthz``.
    """

    def __init__(self, config: FleetConfig):
        if config.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.config = config
        self.host = config.host
        self.port = config.port
        self.control_port = 0
        self.reuse_port = reuse_port_supported()
        self.events: Deque[str] = deque(maxlen=64)
        self._ctx = multiprocessing.get_context("fork")
        self._slots = [_WorkerSlot(i) for i in range(config.workers)]
        self._backoff = Backoff(base_s=config.backoff_base_s,
                                cap_s=config.backoff_cap_s)
        self._shared_sock: Optional[socket.socket] = None
        self._degraded: Optional[_DegradedResponder] = None
        self._control: Optional[ThreadingHTTPServer] = None
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._started_at = 0.0
        self._run_dir: Optional[Path] = None
        self._own_run_dir = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def service_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def control_url(self) -> str:
        return f"http://{self.host}:{self.control_port}"

    def start(self) -> None:
        """Bind, pre-fork every worker and start the monitor thread."""
        self._started_at = time.time()
        if self.config.run_dir:
            self._run_dir = Path(self.config.run_dir)
            self._run_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._run_dir = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
            self._own_run_dir = True
        if not self.reuse_port:
            # Pre-fork fallback: one shared listening socket, every
            # worker accepts on the inherited FD.
            self._shared_sock = _listening_socket(self.host, self.port,
                                                  reuse_port=False)
            self.port = self._shared_sock.getsockname()[1]
        self._log(f"supervisor pid {os.getpid()}: starting "
                  f"{self.config.workers} worker(s) on "
                  f"{self.host}:{self.port or '(auto)'} "
                  f"({'SO_REUSEPORT' if self.reuse_port else 'inherited FD'}"
                  f" mode)")
        for worker in self._slots:
            self._spawn(worker)
        control = ThreadingHTTPServer((self.host, self.config.control_port),
                                      _ControlHandler)
        control.daemon_threads = True
        control.supervisor = self  # type: ignore[attr-defined]
        self._control = control
        self.control_port = control.server_address[1]
        threading.Thread(target=control.serve_forever, name="control",
                         daemon=True).start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="monitor", daemon=True)
        self._monitor.start()
        self._log(f"control endpoint on {self.control_url}")

    def initiate_shutdown(self, reason: str = "") -> None:
        """Signal-handler safe: ask the fleet to drain and stop."""
        if not self._stop.is_set():
            self._log(f"shutdown requested"
                      + (f" ({reason})" if reason else ""))
        self._stop.set()

    def run_forever(self) -> None:
        """Block until :meth:`initiate_shutdown`, then drain and stop."""
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            self._stop.set()
        self.shutdown()

    def shutdown(self) -> None:
        """Rolling drain of every worker, then tear everything down.

        Workers get SIGTERM one at a time — each finishes its
        in-flight requests while the rest keep serving, so a fleet
        restart sheds no traffic.  Idempotent.
        """
        self._stop.set()
        with self._lock:
            if self._done.is_set():
                return
            self._done.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        self._log("draining fleet (rolling SIGTERM)")
        for worker in self._slots:
            proc = worker.proc
            if proc is None or not proc.is_alive():
                worker.state = "stopped"
                worker.proc = None
                continue
            self._log(f"worker {worker.slot}: SIGTERM")
            try:
                os.kill(proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            proc.join(timeout=self.config.drain_timeout_s + 5.0)
            if proc.is_alive():
                self._log(f"worker {worker.slot}: drain timeout; SIGKILL")
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.join(timeout=2.0)
            worker.state = "stopped"
            worker.proc = None
        if self._degraded is not None:
            self._degraded.stop()
            self._degraded = None
        if self._control is not None:
            self._control.shutdown()
            self._control.server_close()
            self._control = None
        if self._shared_sock is not None:
            try:
                self._shared_sock.close()
            except OSError:
                pass
            self._shared_sock = None
        if self._own_run_dir and self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)
        self._log("fleet stopped")

    # -- spawning / monitoring ---------------------------------------------

    def _log(self, message: str) -> None:
        line = f"[fleet {time.strftime('%H:%M:%S')}] {message}"
        self.events.append(line)
        print(line, flush=True)

    def _service_socket(self) -> socket.socket:
        sock = _listening_socket(self.host, self.port, reuse_port=True)
        if self.port == 0:
            # First bind resolves the OS-assigned port; every sibling
            # socket then binds the same number.
            self.port = sock.getsockname()[1]
        return sock

    def _spawn(self, worker: _WorkerSlot) -> None:
        if self._degraded is not None:
            # Never fork while the degraded responder's listening
            # socket is open: the child would inherit a service-port
            # socket it never accepts on, and the kernel would keep
            # balancing connections into that black hole until the
            # client times out.  _update_degraded re-arms the
            # responder on the next tick if the fleet is still down.
            self._degraded.stop()
            self._degraded = None
            self._log("degraded responder off (spawning worker)")
        if self.reuse_port:
            try:
                sock = self._service_socket()
            except OSError as exc:
                self._log(f"worker {worker.slot}: bind failed: {exc}")
                worker.state = "backoff"
                worker.restart_at = time.monotonic() \
                    + self._backoff.delay(max(1, worker.streak))
                return
        else:
            assert self._shared_sock is not None
            sock = self._shared_sock
        # Remove the previous incarnation's heartbeat so its readiness
        # cannot leak into the new worker's grace period.
        try:
            (self._run_dir / f"worker-{worker.slot}.json").unlink()
        except OSError:
            pass
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker.slot, sock, self.config.config,
                  self.config.store, self.config.max_inflight,
                  str(self._run_dir), self.config.drain_timeout_s),
            name=f"fleet-worker-{worker.slot}", daemon=True)
        proc.start()
        if self.reuse_port:
            sock.close()  # the child inherited its own copy
        if worker.state == "backoff":
            worker.restarts += 1
        worker.proc = proc
        worker.state = "live"
        worker.spawned_at = time.monotonic()
        worker.heartbeat_time = 0.0
        worker.ready = False
        worker.admin_port = None
        self._log(f"worker {worker.slot}: spawned pid {proc.pid}"
                  + (f" (restart #{worker.restarts})"
                     if worker.restarts else ""))

    def _read_heartbeat(self, worker: _WorkerSlot) -> None:
        path = self._run_dir / f"worker-{worker.slot}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if worker.proc is None or payload.get("pid") != worker.proc.pid:
            return  # a previous incarnation's file
        worker.heartbeat_time = float(payload.get("time") or 0.0)
        worker.ready = bool(payload.get("ready"))
        admin_port = payload.get("admin_port")
        if isinstance(admin_port, int) and admin_port > 0:
            worker.admin_port = admin_port

    def _on_death(self, worker: _WorkerSlot, reason: str) -> None:
        now = time.monotonic()
        if worker.proc is not None:
            worker.proc.join(timeout=1.0)
            worker.proc = None
        worker.ready = False
        worker.last_exit = reason
        window = self.config.crash_loop_window_s
        if worker.deaths and now - worker.deaths[-1] > window:
            worker.streak = 0  # it ran healthy for a full window
        worker.deaths.append(now)
        worker.streak += 1
        recent = sum(1 for t in worker.deaths if now - t <= window)
        if recent >= self.config.crash_loop_threshold:
            worker.state = "benched"
            self._log(f"worker {worker.slot}: {reason}; {recent} deaths "
                      f"in {window:g}s — BENCHED (crash loop)")
            return
        delay = self._backoff.delay(worker.streak)
        worker.state = "backoff"
        worker.restart_at = now + delay
        threshold = self.config.crash_loop_threshold
        self._log(f"worker {worker.slot}: {reason}; restart in "
                  f"{delay:.2f}s (death {recent}/{threshold} in window)")

    def _maybe_restart_storm(self) -> None:
        live = [worker for worker in self._slots
                if worker.state == "live" and worker.proc is not None
                and worker.proc.is_alive()]
        if not live:
            return
        if faults.fire("supervisor.restart_storm", context="fleet") is None:
            return
        victim = live[0]
        self._log(f"restart_storm fault: SIGKILL worker {victim.slot}")
        try:
            os.kill(victim.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _tick(self) -> None:
        now = time.monotonic()
        self._maybe_restart_storm()
        for worker in self._slots:
            if worker.state in ("benched", "stopped"):
                continue
            if worker.state == "backoff":
                if now >= worker.restart_at:
                    self._spawn(worker)
                continue
            proc = worker.proc
            if proc is None or not proc.is_alive():
                code = proc.exitcode if proc is not None else None
                self._on_death(worker, f"died (exit {code})")
                continue
            self._read_heartbeat(worker)
            last_seen = worker.heartbeat_time
            if last_seen:
                stale = time.time() - last_seen \
                    > self.config.heartbeat_stale_s
            else:  # never heartbeated: grace from spawn time
                stale = now - worker.spawned_at \
                    > self.config.heartbeat_stale_s
            if stale:
                self._log(f"worker {worker.slot}: heartbeat stale; "
                          f"SIGKILL pid {proc.pid}")
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.join(timeout=2.0)
                self._on_death(worker, "hung (stale heartbeat)")
        self._update_degraded()

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception as exc:  # pragma: no cover - defensive
                self._log(f"monitor error: {exc!r}")
            self._stop.wait(self.config.poll_s)

    def _update_degraded(self) -> None:
        any_live = any(worker.state == "live" and worker.proc is not None
                       and worker.proc.is_alive()
                       for worker in self._slots)
        if any_live:
            if self._degraded is not None:
                self._degraded.stop()
                self._degraded = None
                self._log("live worker back; degraded responder off")
            return
        if self._degraded is not None:
            return
        try:
            if self.reuse_port:
                sock = self._service_socket()
                owns = True
            else:
                sock = self._shared_sock
                owns = False
            if sock is None:
                return
        except OSError as exc:  # pragma: no cover - port race
            self._log(f"degraded responder bind failed: {exc}")
            return
        self._degraded = _DegradedResponder(sock, owns_sock=owns)
        self._degraded.start()
        self._log("0 live workers: serving 503 degraded on the "
                  "service port")

    # -- health ------------------------------------------------------------

    def n_live(self) -> int:
        return sum(1 for worker in self._slots
                   if worker.state == "live" and worker.proc is not None
                   and worker.proc.is_alive())

    def n_ready(self) -> int:
        return sum(1 for worker in self._slots
                   if worker.state == "live" and worker.ready
                   and worker.proc is not None and worker.proc.is_alive())

    def _fetch_worker_healthz(self, worker: _WorkerSlot,
                              timeout: float = 2.0
                              ) -> Optional[Dict[str, Any]]:
        if worker.admin_port is None:
            return None
        url = f"http://127.0.0.1:{worker.admin_port}/v1/healthz"
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except Exception:
            return None  # probed mid-restart; the row says so

    def stats(self) -> Dict[str, Any]:
        """The aggregated fleet ``/v1/healthz`` payload.

        Per-worker liveness rows plus an ``aggregate`` block summing
        every numeric counter across the live workers' own healthz
        payloads (cache occupancy/hits, simulations, foundry solves,
        serve counters) — the fleet-wide view of how much work was
        actually done, and the meter chaos drills assert on.
        """
        now = time.time()
        workers = []
        aggregate: Dict[str, Any] = {}
        for worker in self._slots:
            alive = worker.proc is not None and worker.proc.is_alive()
            row: Dict[str, Any] = {
                "slot": worker.slot,
                "state": worker.state,
                "pid": worker.proc.pid if alive else None,
                "ready": worker.ready and alive,
                "restarts": worker.restarts,
                "deaths": len(worker.deaths),
                "admin_port": worker.admin_port,
                "last_exit": worker.last_exit,
                "heartbeat_age_s": round(now - worker.heartbeat_time, 3)
                if worker.heartbeat_time else None,
            }
            if worker.state == "live" and alive:
                payload = self._fetch_worker_healthz(worker)
                if payload is not None:
                    row["inflight"] = payload.get("inflight")
                    row["uptime_s"] = round(payload.get("uptime_s", 0), 3)
                    merge_counters(aggregate, {
                        key: payload[key]
                        for key in ("caches", "sim", "foundry", "counters")
                        if isinstance(payload.get(key), dict)})
            workers.append(row)
        n_live = self.n_live()
        return {
            "status": "ok" if n_live else "degraded",
            "role": "supervisor",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(now - self._started_at, 3),
            "service_url": self.service_url,
            "reuse_port": self.reuse_port,
            "workers": workers,
            "n_workers": len(self._slots),
            "n_live": n_live,
            "n_ready": self.n_ready(),
            "n_benched": sum(1 for worker in self._slots
                             if worker.state == "benched"),
            "restarts_total": sum(worker.restarts
                                  for worker in self._slots),
            "deaths_total": sum(len(worker.deaths)
                                for worker in self._slots),
            "degraded_responses": self._degraded.responses
            if self._degraded is not None else 0,
            "aggregate": aggregate,
            "events": list(self.events),
        }
