"""The serving resilience layer: client retries against a scripted
flaky server, per-request deadlines, admission-control shedding,
health probes, and graceful drain."""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro import faults
from repro.api import Session
from repro.errors import DeadlineExceeded, ExperimentError, ServerError
from repro.experiments.config import ExperimentConfig
from repro.resilience import RetryPolicy
from repro.schema import PowerQuery
from repro.serve import Client, Engine, serve


@pytest.fixture(autouse=True)
def clean_faults():
    faults.deactivate()
    yield
    faults.deactivate()


# -- a scripted flaky server --------------------------------------------------

_OK_BODY = json.dumps({"status": "ok"}).encode()
_OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       + f"Content-Length: {len(_OK_BODY)}\r\n\r\n".encode() + _OK_BODY)
_BUSY_BODY = json.dumps(
    {"error": {"code": "overloaded", "message": "busy"}}).encode()
_BUSY = (b"HTTP/1.1 503 Service Unavailable\r\n"
         b"Content-Type: application/json\r\n"
         b"Retry-After: 0.01\r\n"
         + f"Content-Length: {len(_BUSY_BODY)}\r\n\r\n".encode()
         + _BUSY_BODY)
_BAD_BODY = json.dumps(
    {"error": {"code": "bad_request", "message": "nope"}}).encode()
_BAD = (b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(_BAD_BODY)}\r\n\r\n".encode() + _BAD_BODY)
_DRAIN_BODY = json.dumps(
    {"error": {"code": "draining", "message": "shutting down"}}).encode()
_DRAIN = (b"HTTP/1.1 503 Service Unavailable\r\n"
          b"Content-Type: application/json\r\n"
          b"Retry-After: 1\r\n"
          + f"Content-Length: {len(_DRAIN_BODY)}\r\n\r\n".encode()
          + _DRAIN_BODY)


class FlakyServer:
    """A raw TCP server whose per-connection behavior is scripted.

    Each accepted connection pops the next behavior: ``"ok"`` (full
    200), ``"busy"`` (503 + Retry-After), ``"bad"`` (400), ``"reset"``
    (half a response, then an abortive close), ``"truncated"`` (full
    headers, half the promised body, clean FIN — the client sees
    ``IncompleteRead``), ``"draining"`` (503 whose code is
    ``draining``), ``"slow"`` (never sends headers).  Behaviors past
    the end of the script are ``"ok"``.
    """

    def __init__(self, script):
        self.script = list(script)
        self.served = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            behavior = self.script[self.served] \
                if self.served < len(self.script) else "ok"
            self.served += 1
            # Each connection on its own thread: a "slow" connection
            # must not block the retry that follows it.
            threading.Thread(target=self._handle, args=(conn, behavior),
                             daemon=True).start()

    def _handle(self, conn: socket.socket, behavior: str) -> None:
        try:
            self._serve_one(conn, behavior)
        finally:
            conn.close()

    def _serve_one(self, conn: socket.socket, behavior: str) -> None:
        conn.settimeout(5)
        try:
            self._drain_request(conn)
        except socket.timeout:
            return
        if behavior == "ok":
            conn.sendall(_OK)
        elif behavior == "busy":
            conn.sendall(_BUSY)
        elif behavior == "bad":
            conn.sendall(_BAD)
        elif behavior == "reset":
            # Half the response, then an abortive close (RST): the
            # client sees a connection reset mid-body.
            conn.sendall(_OK[: len(_OK) // 2])
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        elif behavior == "truncated":
            # Complete headers promising the full body, then half of
            # it and a *clean* close — no RST, so the failure is
            # http.client.IncompleteRead, not an OSError.
            conn.sendall(_OK[: len(_OK) - len(_OK_BODY) // 2])
        elif behavior == "draining":
            conn.sendall(_DRAIN)
        elif behavior == "slow":
            # Headers never arrive; the client's timeout must fire.
            time.sleep(1.0)

    @staticmethod
    def _drain_request(conn: socket.socket) -> None:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return
            data += chunk


@pytest.fixture
def flaky():
    servers = []

    def factory(script):
        server = FlakyServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def _client(url, script_policy=None, timeout=5.0):
    sleeps = []
    policy = script_policy if script_policy is not None \
        else RetryPolicy(retries=3, backoff_base_s=0.001,
                         backoff_cap_s=0.01)
    client = Client(url, timeout=timeout, retry=policy,
                    sleep=sleeps.append, rng=random.Random(11))
    return client, sleeps


class TestClientRetries:
    def test_connection_reset_mid_response_is_retried(self, flaky):
        server = flaky(["reset", "ok"])
        client, sleeps = _client(server.url)
        assert client.healthz() == {"status": "ok"}
        assert server.served == 2
        assert client.last_retry_state.attempts == 1
        assert len(sleeps) == 1

    def test_truncated_body_mid_stream_is_retried(self, flaky):
        # A fleet worker SIGKILLed while streaming closes the socket
        # cleanly after a partial body; the promised Content-Length is
        # never delivered, so the failure surfaces as IncompleteRead
        # (an HTTPException, not an OSError) — it must retry too.
        server = flaky(["truncated", "ok"])
        client, sleeps = _client(server.url)
        assert client.healthz() == {"status": "ok"}
        assert server.served == 2
        assert client.last_retry_state.attempts == 1
        assert len(sleeps) == 1

    def test_truncated_body_without_retry_raises_transport_error(
            self, flaky):
        server = flaky(["truncated"])
        client = Client(server.url, timeout=5.0, retry=None)
        with pytest.raises(ServerError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.code == "connection"

    def test_draining_503_first_retry_is_immediate(self, flaky):
        # One draining worker means its fleet siblings are live right
        # now: the first retry goes with zero sleep (ignoring the 1 s
        # Retry-After); only the repeat draining backs off with it.
        server = flaky(["draining", "draining", "ok"])
        client, sleeps = _client(server.url)
        assert client.healthz() == {"status": "ok"}
        assert server.served == 3
        # state.sleeps records every backoff including the zero one;
        # the injected sleep callable only fires for positive delays.
        assert client.last_retry_state.sleeps == [0.0, 0.01]
        assert sleeps == [0.01]

    def test_503_then_success_honors_retry_after(self, flaky):
        server = flaky(["busy", "busy", "ok"])
        client, sleeps = _client(server.url)
        assert client.healthz() == {"status": "ok"}
        assert server.served == 3
        # The server's Retry-After hint (0.01 s) overrode the computed
        # backoff on both sleeps.
        assert sleeps == [0.01, 0.01]

    def test_slow_header_hits_timeout_then_retries(self, flaky):
        server = flaky(["slow", "ok"])
        client, _ = _client(server.url, timeout=0.2)
        start = time.monotonic()
        assert client.healthz() == {"status": "ok"}
        # The first attempt burned ~0.2 s of timeout, not the 1 s the
        # server would have slept.
        assert time.monotonic() - start < 0.9
        assert client.last_retry_state.attempts == 1

    def test_backoff_sleeps_stay_within_policy_bounds(self, flaky):
        server = flaky(["reset", "reset", "reset", "ok"])
        policy = RetryPolicy(retries=3, backoff_base_s=0.001,
                             backoff_cap_s=0.004)
        client, sleeps = _client(server.url, policy)
        assert client.healthz() == {"status": "ok"}
        assert len(sleeps) == 3
        assert all(0.001 <= s <= 0.004 for s in sleeps)

    def test_retries_exhausted_raises_connection_error(self, flaky):
        server = flaky(["reset"] * 10)
        client, sleeps = _client(server.url,
                                 RetryPolicy(retries=2,
                                             backoff_base_s=0.001,
                                             backoff_cap_s=0.002))
        with pytest.raises(ServerError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert server.served == 3  # initial try + 2 retries
        assert len(sleeps) == 2

    def test_400_is_not_retried(self, flaky):
        server = flaky(["bad", "ok"])
        client, sleeps = _client(server.url)
        with pytest.raises(ServerError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert server.served == 1
        assert sleeps == []

    def test_total_deadline_bounds_the_attempt_sequence(self, flaky):
        server = flaky(["reset"] * 30)
        # Real sleeps here: the total deadline must stop a 20-retry
        # policy long before its retry budget would.
        client = Client(server.url, timeout=1.0,
                        retry=RetryPolicy(retries=20,
                                          backoff_base_s=0.02,
                                          backoff_cap_s=0.05,
                                          deadline_s=0.15))
        start = time.monotonic()
        with pytest.raises(ServerError):
            client.healthz()
        assert time.monotonic() - start < 1.0
        assert client.last_retry_state.attempts <= 10

    def test_server_error_is_an_experiment_error(self, flaky):
        server = flaky(["bad"])
        client, _ = _client(server.url)
        with pytest.raises(ExperimentError):
            client.healthz()


# -- the real server: deadlines, shedding, probes, drain ---------------------

TINY = ExperimentConfig(n_patterns=64, state_patterns=64)


@pytest.fixture
def live_server():
    servers = []

    def factory(**kwargs):
        engine = Engine(Session(TINY))
        server = serve(engine, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield factory
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _fast_client(url, retry=None):
    return Client(url, timeout=30.0, retry=retry)


class TestDeadlines:
    def test_deadline_ms_expires_as_504(self, live_server):
        server = live_server()
        client = _fast_client(server.url)
        faults.activate("engine.latency:ms=80,times=1")
        with pytest.raises(ServerError) as excinfo:
            client.estimate("t481", "cmos", deadline_ms=20)
        assert excinfo.value.status == 504
        assert excinfo.value.code == "deadline_exceeded"
        # The aborted query wrote nothing: the same query now succeeds
        # and is served cold, bit-identical to an undeadlined run.
        report = client.estimate("t481", "cmos", deadline_ms=60000)
        direct = Session(TINY).run("t481")["cmos"]
        assert report.result == direct

    def test_batch_deadline_bounds_the_whole_request(self, live_server):
        """A batch has one deadline: three points that each fit the
        budget alone overrun it together, and the 504 wrote nothing."""
        from dataclasses import replace

        server = live_server()
        client = _fast_client(server.url)
        faults.activate("engine.latency:ms=80,times=3")
        queries = [PowerQuery("t481", "cmos",
                              replace(TINY, frequency=frequency),
                              deadline_ms=150)
                   for frequency in (0.5e9, 1.0e9, 2.0e9)]
        with pytest.raises(ServerError) as excinfo:
            client.estimate_batch(queries)
        assert excinfo.value.status == 504
        assert excinfo.value.code == "deadline_exceeded"
        faults.deactivate()
        reports = client.estimate_batch(
            [replace(query, deadline_ms=None) for query in queries])
        assert [r.cache_status for r in reports] == ["cold"] * 3

    def test_generous_deadline_is_harmless(self, live_server):
        server = live_server()
        client = _fast_client(server.url)
        report = client.estimate("i8", "cmos", deadline_ms=600000)
        bare = client.estimate("i8", "cmos")
        assert bare.cache_status == "hot"  # deadline_ms not in the key
        assert bare.result == report.result

    def test_engine_deadline_counter(self):
        engine = Engine(Session(TINY))
        faults.activate("engine.latency:ms=50,times=1")
        with pytest.raises(DeadlineExceeded):
            engine.estimate(PowerQuery("t481", "cmos", TINY,
                                       deadline_ms=10))
        assert engine.counters["deadline.exceeded"] == 1

    def test_invalid_deadline_rejected_as_400(self, live_server):
        server = live_server()
        client = _fast_client(server.url)
        with pytest.raises(ServerError) as excinfo:
            client.estimate("t481", "cmos", deadline_ms=-5)
        assert excinfo.value.status == 400


class TestAdmissionControl:
    def test_overload_sheds_with_429_and_retry_after(self, live_server):
        server = live_server(max_inflight=1)
        slow = _fast_client(server.url)
        faults.activate("engine.latency:ms=500,times=1")
        holder = threading.Thread(
            target=lambda: slow.estimate("t481", "cmos"), daemon=True)
        holder.start()
        time.sleep(0.15)  # let the holder occupy the one slot
        fast = Client(server.url, timeout=30.0, retry=None)
        with pytest.raises(ServerError) as excinfo:
            fast.estimate("i8", "cmos")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after_s == 0.5
        holder.join(timeout=30)
        assert server.engine.counters["http.shed"] >= 1
        assert slow.healthz()["counters"]["http.shed"] >= 1

    def test_retrying_client_rides_out_the_shed(self, live_server):
        server = live_server(max_inflight=1)
        faults.activate("engine.latency:ms=300,times=1")
        slow = _fast_client(server.url)
        holder = threading.Thread(
            target=lambda: slow.estimate("t481", "cmos"), daemon=True)
        holder.start()
        time.sleep(0.1)
        patient = _fast_client(
            server.url, retry=RetryPolicy(retries=8, backoff_base_s=0.05,
                                          backoff_cap_s=0.2))
        report = patient.estimate("i8", "cmos")
        assert report.circuit == "i8"
        holder.join(timeout=30)


class TestHealthProbes:
    def test_liveness_and_readiness_split(self, live_server):
        server = live_server()
        client = _fast_client(server.url)
        assert client.live()["status"] == "alive"
        assert client.ready() is True
        health = client.healthz()
        assert health["ready"] is True
        assert health["draining"] is False
        assert "disk" in health["caches"]

    def test_not_ready_until_marked(self, live_server):
        server = live_server(ready=False)
        client = _fast_client(server.url)
        assert client.live()["status"] == "alive"
        assert client.ready() is False
        server.mark_ready()
        assert client.ready() is True


class TestGracefulDrain:
    def test_draining_rejects_new_work_with_503(self, live_server):
        server = live_server()
        client = Client(server.url, timeout=30.0, retry=None)
        client.estimate("i8", "cmos")  # warm, and prove it worked
        server.begin_drain()
        assert client.ready() is False
        with pytest.raises(ServerError) as excinfo:
            client.estimate("i8", "cmos")
        assert excinfo.value.status == 503
        assert excinfo.value.code == "draining"
        assert excinfo.value.retry_after_s == 1.0

    def test_wait_idle_waits_for_inflight_work(self, live_server):
        server = live_server()
        client = _fast_client(server.url)
        faults.activate("engine.latency:ms=300,times=1")
        results = {}
        worker = threading.Thread(
            target=lambda: results.update(
                report=client.estimate("t481", "cmos")), daemon=True)
        worker.start()
        time.sleep(0.1)
        server.begin_drain()
        assert server.wait_idle(timeout=30)
        worker.join(timeout=30)
        # The in-flight request completed normally during the drain.
        assert results["report"].circuit == "t481"
        assert server.inflight == 0


class TestHttpDropFault:
    def test_dropped_connection_is_retried(self, live_server):
        server = live_server()
        client, sleeps = _client(server.url)
        client.timeout = 30.0
        faults.activate("http.drop:times=1")
        report = client.estimate("i8", "cmos")
        assert report.circuit == "i8"
        assert client.last_retry_state.attempts == 1
        assert server.engine.counters["http.dropped"] == 1
