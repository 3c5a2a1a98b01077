"""Chaos drills of the multi-worker serving fleet.

The fleet's promises under fire, exercised with real processes:

* a worker SIGKILLed **mid-request** under load is invisible to
  clients — every request succeeds (via retry onto a sibling) and
  every answer stays bit-identical to a local
  :meth:`~repro.api.Session.run`;
* a crash-looping worker gets **benched** and the degraded fleet
  answers the service port with a structured 503 + ``Retry-After``
  instead of refusing connections;
* cold workers hitting one key simulate **once fleet-wide**
  (cross-process single-flight), and a leader that died mid-compute
  has its stale lock taken over instead of deadlocking followers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServerError
from repro.experiments.config import ExperimentConfig
from repro.resilience import RetryPolicy
from repro.serve import Client, FleetConfig, FleetSupervisor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")

#: The tiny operating point every drill uses (seconds, not minutes).
TINY = ExperimentConfig(n_patterns=64, state_patterns=64)

CIRCUIT, LIBRARY = "t481", "cntfet-generalized"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _wait(predicate, timeout_s: float, message: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


@pytest.fixture
def fleet_env(tmp_path, monkeypatch):
    """A private disk cache + faults dir inherited by forked workers."""
    cache_dir = tmp_path / "cache"
    faults_dir = tmp_path / "faults"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_DIR", raising=False)
    return {"cache": cache_dir, "faults": faults_dir}


def _start_fleet(workers: int, **overrides) -> FleetSupervisor:
    config = FleetConfig(workers=workers, port=0, config=TINY,
                         backoff_base_s=0.05, backoff_cap_s=0.5,
                         **overrides)
    fleet = FleetSupervisor(config)
    fleet.start()
    return fleet


class TestKill9MidRequest:
    """SIGKILL a worker mid-request under load: zero client failures."""

    def test_kill9_under_load_is_invisible_and_bit_identical(
            self, fleet_env, monkeypatch, tmp_path):
        from repro.api import Session

        # One fleet-wide kill ticket: a worker dies after admitting
        # and reading an /v1/estimate request, before answering.
        monkeypatch.setenv("REPRO_FAULTS",
                           "worker.kill9:times=1,match=/v1/estimate")
        monkeypatch.setenv("REPRO_FAULTS_DIR",
                           str(fleet_env["faults"]))
        fleet = _start_fleet(3)
        try:
            _wait(lambda: fleet.n_ready() == 3, 60,
                  "fleet never became ready")
            results = []
            errors = []

            def load(index: int) -> None:
                client = Client(fleet.service_url, timeout=60.0,
                                retry=RetryPolicy(retries=6,
                                                  backoff_base_s=0.02,
                                                  backoff_cap_s=0.5))
                for _ in range(6):
                    try:
                        results.append(
                            client.estimate(CIRCUIT, LIBRARY, TINY))
                    except ServerError as exc:
                        errors.append(exc)

            threads = [threading.Thread(target=load, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors, f"client-visible failures: {errors}"
            assert len(results) == 18
            direct = Session(TINY).run(CIRCUIT, LIBRARY)
            assert all(report.result == direct for report in results)

            # The fault actually fired and the supervisor healed it.
            log = fleet_env["faults"] / "faults.log"
            fired = [json.loads(line)
                     for line in log.read_text().splitlines()]
            assert [entry["point"] for entry in fired] == ["worker.kill9"]
            _wait(lambda: fleet.stats()["restarts_total"] >= 1, 30,
                  "supervisor never restarted the killed worker")
            _wait(lambda: fleet.n_live() == 3, 30,
                  "fleet never returned to full strength")
        finally:
            fleet.shutdown()


class TestCrashLoopBenching:
    """A doomed worker is benched; the fleet degrades with 503s."""

    def test_crash_loop_benches_and_degraded_503_has_retry_after(
            self, fleet_env, monkeypatch):
        # Every estimate kills the (only) worker: a crash loop.
        monkeypatch.setenv("REPRO_FAULTS",
                           "worker.kill9:times=inf,match=/v1/estimate")
        fleet = _start_fleet(1, crash_loop_threshold=2,
                             crash_loop_window_s=60.0)
        try:
            _wait(lambda: fleet.n_ready() == 1, 60,
                  "fleet never became ready")
            client = Client(fleet.service_url, timeout=10.0, retry=None)

            # Keep offering load: every estimate SIGKILLs the worker,
            # so each request either dies on the wire or meets the
            # transient degraded responder — until the supervisor
            # benches the slot.
            deadline = time.monotonic() + 60.0
            while (time.monotonic() < deadline
                   and fleet.stats()["n_benched"] < 1):
                try:
                    client.estimate(CIRCUIT, LIBRARY, TINY)
                except ServerError:
                    pass
                time.sleep(0.05)

            stats = fleet.stats()
            assert stats["n_benched"] == 1, \
                "crash-looping worker was never benched"
            assert stats["status"] == "degraded"
            assert stats["workers"][0]["state"] == "benched"
            assert stats["deaths_total"] >= 2
            # Once benched, the degraded responder owns the port: the
            # 503 is stable, not a race.
            with pytest.raises(ServerError) as excinfo:
                client.estimate(CIRCUIT, LIBRARY, TINY)
            assert excinfo.value.code == "degraded"
            assert excinfo.value.retry_after_s is not None
        finally:
            fleet.shutdown()


class TestCrossProcessSingleFlight:
    """N cold workers, one key: exactly one simulation fleet-wide."""

    def _admin_ports(self, fleet: FleetSupervisor, n: int):
        def ports():
            return [row["admin_port"]
                    for row in fleet.stats()["workers"]
                    if row["admin_port"]]
        _wait(lambda: len(ports()) == n, 30,
              "workers never heartbeated their admin ports")
        return ports()

    def test_concurrent_cold_queries_simulate_once(self, fleet_env):
        from repro import registry
        from repro.experiments.flow import MAPPED_NETLISTS

        # Workers fork from this process: empty its library and
        # netlist memos so no worker inherits a warm leakage table, and
        # both ladders start cold.
        registry.clear_library_cache()
        MAPPED_NETLISTS.clear()
        fleet = _start_fleet(3)
        try:
            _wait(lambda: fleet.n_ready() == 3, 60,
                  "fleet never became ready")
            # Hit each worker's *private admin* endpoint directly —
            # the service port might route all three connections to
            # one worker, which would test in-process coalescing
            # instead of the cross-process path.
            ports = self._admin_ports(fleet, 3)
            results = {}

            def cold_query(port: int) -> None:
                client = Client(f"http://127.0.0.1:{port}",
                                timeout=60.0, retry=None)
                results[port] = client.estimate(CIRCUIT, LIBRARY, TINY)

            threads = [threading.Thread(target=cold_query, args=(port,))
                       for port in ports]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert len(results) == 3
            reports = list(results.values())
            assert all(report.result == reports[0].result
                       for report in reports)

            aggregate = fleet.stats()["aggregate"]
            # The acceptance meter: summed across every worker, the
            # one key cost exactly one simulation.
            assert aggregate["counters"]["stats.cold"] == 1
            disk = aggregate["caches"]["disk"]
            # One leader per cold ladder: activity, leakage.
            assert disk["flight_leader"] == 2
            # The two non-leaders of each ladder either waited on the
            # leader's lock (followers) or arrived after it published
            # and took a plain disk hit — scheduling jitter decides.
            assert disk["flight_follower"] <= 2 * 2
            assert disk["flight_timeout"] == 0
        finally:
            fleet.shutdown()

    def test_dead_leaders_stale_lock_is_taken_over(self, fleet_env):
        # Round 1: let the fleet compute the entry so we learn the
        # activity key's on-disk paths.
        fleet = _start_fleet(1)
        try:
            _wait(lambda: fleet.n_ready() == 1, 60,
                  "fleet never became ready")
            client = Client(fleet.service_url, timeout=60.0, retry=None)
            first = client.estimate(CIRCUIT, LIBRARY, TINY)
        finally:
            fleet.shutdown()

        activity_dir = fleet_env["cache"] / "activity"
        entries = list(activity_dir.glob("*.json"))
        assert entries, "fleet never persisted the simulation"
        key = entries[0].stem

        # A leader died mid-compute: its entry never landed, but its
        # lock file (with a now-dead pid) did.  Fork-and-reap gives a
        # real dead pid on this host.
        import multiprocessing
        proc = multiprocessing.get_context("fork").Process(
            target=lambda: None)
        proc.start()
        dead_pid = proc.pid
        proc.join()
        for entry in entries:
            entry.unlink()
        lock_dir = fleet_env["cache"] / "_locks" / "activity"
        lock_dir.mkdir(parents=True, exist_ok=True)
        (lock_dir / f"{key}.lock").write_text(json.dumps(
            {"pid": dead_pid, "host": os.uname().nodename,
             "time": time.time()}))

        # Round 2: a fresh, cold fleet must take the stale lock over
        # and answer — not deadlock waiting for a ghost.
        fleet = _start_fleet(1)
        try:
            _wait(lambda: fleet.n_ready() == 1, 60,
                  "fleet never became ready")
            client = Client(fleet.service_url, timeout=60.0, retry=None)
            start = time.monotonic()
            second = client.estimate(CIRCUIT, LIBRARY, TINY)
            elapsed = time.monotonic() - start
            assert second.result == first.result
            # Takeover is prompt (dead-pid detection, not the age
            # fallback): well within the 30 s staleness window.
            assert elapsed < 20.0
            disk = fleet.stats()["aggregate"]["caches"]["disk"]
            assert disk["flight_takeover"] == 1
        finally:
            fleet.shutdown()


class TestFleetCLI:
    """The real ``repro serve --workers N`` process end to end."""

    def test_cli_fleet_serves_heals_and_drains(self, fleet_env,
                                               tmp_path):
        port = _free_port()
        control = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = str(fleet_env["cache"])
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_DIR", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(port),
             "--control-port", str(control),
             "--workers", "3",
             "--patterns", "64", "--state-patterns", "64"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        base = f"http://127.0.0.1:{port}"
        control_base = f"http://127.0.0.1:{control}"
        try:
            def ready():
                if proc.poll() is not None:
                    raise AssertionError(
                        f"fleet exited early: {proc.stdout.read()}")
                try:
                    payload = _get(f"{control_base}/v1/healthz")
                    return payload["n_ready"] == 3
                except (urllib.error.URLError, OSError,
                        ConnectionError):
                    return False

            _wait(ready, 90, "CLI fleet never became ready")

            client = Client(base, timeout=60.0)
            report = client.estimate(CIRCUIT, LIBRARY, TINY)
            assert report.result.gate_count > 0

            # Kill one worker directly; the supervisor must replace it.
            payload = _get(f"{control_base}/v1/healthz")
            victim = next(row["pid"] for row in payload["workers"]
                          if row["pid"])
            os.kill(victim, signal.SIGKILL)
            _wait(lambda: _get(f"{control_base}/v1/healthz")
                  ["restarts_total"] >= 1, 30,
                  "CLI fleet never restarted the killed worker")
            _wait(lambda: _get(f"{control_base}/v1/healthz")
                  ["n_live"] == 3, 30,
                  "CLI fleet never returned to 3 live workers")

            # `repro fleet status` renders the same payload.
            status = subprocess.run(
                [sys.executable, "-m", "repro", "fleet", "status",
                 "--url", control_base],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                timeout=30)
            assert status.returncode == 0, status.stderr
            assert "3/3 live" in status.stdout
            assert "restart" in status.stdout

            # SIGTERM: rolling drain, exit 0.
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "fleet shutdown complete" in out
            log_dir = os.environ.get("REPRO_FLEET_LOG_DIR")
            if log_dir:  # CI artifact hook
                os.makedirs(log_dir, exist_ok=True)
                with open(os.path.join(log_dir, "supervisor.log"),
                          "w", encoding="utf-8") as handle:
                    handle.write(out)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
