"""The HTTP service: wire-format goldens, discovery endpoints, error
mapping, and the acceptance anchor — ``POST /v1/estimate`` bit-identical
to ``Session.run`` across the full paper grid."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.api import Session
from repro.circuits.suite import benchmark_suite
from repro.experiments.config import ExperimentConfig
from repro.schema import (
    SCHEMA_VERSION,
    PowerQuery,
    PowerQuoteReport,
    batch_response_payload,
)
from repro.serve import Client, Engine, serve
from tests.test_api import PRE_REDESIGN_GOLDEN


@pytest.fixture(scope="module")
def tiny_grid_config():
    """Small enough that the full 12 x 3 grid stays test-suite friendly."""
    return ExperimentConfig(n_patterns=128, state_patterns=128)


@pytest.fixture(scope="module")
def server(tiny_grid_config):
    instance = serve(Engine(Session(tiny_grid_config)))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(server):
    return Client(server.url)


class TestEstimateEndpoint:
    def test_golden_locked_against_pre_redesign(self, client):
        """The hard acceptance golden: service responses reproduce the
        pre-redesign harness bit for bit at the golden config."""
        config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
        for (circuit, library, gates, delay_s, pd_w, ps_w, pg_w, pt_w,
             edp_js) in PRE_REDESIGN_GOLDEN:
            report = client.estimate(circuit, library, config)
            r = report.result
            assert (r.gate_count, r.delay_s, r.pd_w, r.ps_w, r.pg_w,
                    r.pt_w, r.edp_js) == (gates, delay_s, pd_w, ps_w,
                                          pg_w, pt_w, edp_js), \
                (circuit, library)
            assert report.circuit == circuit
            assert report.library == library

    def test_full_paper_grid_bit_identical_to_session(
            self, client, tiny_grid_config):
        """All 12 paper circuits x 3 paper libraries through HTTP equal
        ``Session.run`` exactly (the acceptance grid, at a pattern
        budget CI can afford; equality is float-exact, so it holds at
        any budget by the same determinism)."""
        session = Session(tiny_grid_config)
        for spec in benchmark_suite():
            via_http = {
                library: client.estimate(spec.name, library).result
                for library in session.libraries
            }
            direct = session.run(spec.name)
            assert via_http == direct, spec.name

    def test_second_query_is_hot_with_identical_payload(self, client):
        config = ExperimentConfig(n_patterns=4096, state_patterns=4096)
        first = client.estimate("t481", "cmos", config)
        second = client.estimate("t481", "cmos", config)
        assert second.cache_status == "hot"
        assert second.result == first.result
        assert second.query_key == first.query_key

    def test_configless_query_uses_server_default(self, client,
                                                  tiny_grid_config):
        report = client.estimate("t481", "generalized")
        assert report.config == tiny_grid_config
        again = client.estimate("t481", "generalized")
        assert again.cache_status == "hot"

    def test_provenance(self, client):
        report = client.estimate("t481", "cmos")
        assert report.server_version == __version__
        assert report.schema_version == SCHEMA_VERSION
        assert report.backend == "bitsim"
        assert report.config_hash
        assert len(report.query_key) == 32

    def test_prepared_query_object(self, client, tiny_grid_config):
        report = client.query(PowerQuery("i8", "cmos", tiny_grid_config))
        assert report.circuit == "i8"
        assert isinstance(report, PowerQuoteReport)


class TestEstimateBatchEndpoint:
    def test_batch_equals_single_queries(self, client, tiny_grid_config):
        from dataclasses import replace

        configs = [replace(tiny_grid_config, frequency=f)
                   for f in (0.5e9, 1.0e9, 2.0e9)]
        queries = [PowerQuery(circuit="t481", library="cmos",
                              config=config) for config in configs]
        reports = client.estimate_batch(queries)
        assert len(reports) == 3
        for query, report in zip(queries, reports):
            single = client.query(query)
            assert report.result == single.result
            assert report.query_key == single.query_key
            assert report.config.frequency == query.config.frequency

    def test_config_less_batch_uses_server_default(self, client,
                                                   tiny_grid_config,
                                                   server):
        payload = {"schema_version": SCHEMA_VERSION,
                   "queries": [{"circuit": "t481", "library": "cmos"}]}
        request = urllib.request.Request(
            f"{server.url}/v1/estimate_batch",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            data = json.loads(response.read())
        assert data["schema_version"] == SCHEMA_VERSION
        report = PowerQuoteReport.from_dict(data["reports"][0])
        assert report.config == tiny_grid_config

    def test_empty_and_malformed_batches_rejected(self, server):
        for payload in ({"schema_version": SCHEMA_VERSION, "queries": []},
                        {"schema_version": SCHEMA_VERSION,
                         "queries": [], "extra": 1},
                        {"schema_version": SCHEMA_VERSION}):
            request = urllib.request.Request(
                f"{server.url}/v1/estimate_batch",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

    def test_oversized_batch_rejected(self, client):
        from repro.errors import ExperimentError
        from repro.schema import MAX_BATCH_QUERIES

        queries = [PowerQuery(circuit="t481", library="cmos")
                   ] * (MAX_BATCH_QUERIES + 1)
        with pytest.raises(ExperimentError, match="limit"):
            client.estimate_batch(queries)

    def test_unknown_circuit_fails_the_whole_batch(self, client,
                                                   tiny_grid_config):
        from repro.errors import ExperimentError

        queries = [PowerQuery(circuit="t481", library="cmos",
                              config=tiny_grid_config),
                   PowerQuery(circuit="nope", library="cmos",
                              config=tiny_grid_config)]
        with pytest.raises(ExperimentError, match="unknown circuit"):
            client.estimate_batch(queries)


class TestOptimizeEndpoint:
    def _query(self, config):
        from repro.schema import OptimizeQuery

        return OptimizeQuery(
            circuit="t481", libraries=("generalized", "cmos"),
            vdds=(0.9,), frequencies=(0.5e9, 1e9, 5e10),
            config=config)

    def test_frontier_over_http_matches_engine(self, client, server,
                                               tiny_grid_config):
        from repro.serve import Engine

        via_http = client.optimize(self._query(tiny_grid_config))
        direct = Engine(Session(tiny_grid_config)).optimize(
            self._query(tiny_grid_config))
        assert via_http.circuit == direct.circuit == "t481"
        assert via_http.n_candidates == direct.n_candidates == 6
        assert via_http.n_infeasible == direct.n_infeasible
        assert len(via_http.frontier) == len(direct.frontier) > 0
        for ours, theirs in zip(via_http.frontier, direct.frontier):
            assert (ours.library, ours.vdd, ours.frequency) == \
                (theirs.library, theirs.vdd, theirs.frequency)
            assert ours.pt_w == theirs.pt_w
            assert ours.energy_per_cycle == theirs.energy_per_cycle

    def test_every_frontier_point_is_estimate_consistent(
            self, client, tiny_grid_config):
        from dataclasses import replace

        report = client.optimize(self._query(tiny_grid_config))
        for point in report.frontier:
            config = replace(tiny_grid_config, vdd=point.vdd,
                             frequency=point.frequency,
                             backend=point.backend)
            single = client.query(PowerQuery(
                circuit="t481", library=point.library, config=config))
            assert single.result.pt_w == point.pt_w
            assert single.query_key == point.query_key

    def test_second_optimize_is_all_hot(self, client, tiny_grid_config):
        first = client.optimize(self._query(tiny_grid_config))
        assert first.frontier
        again = client.optimize(self._query(tiny_grid_config))
        assert all(p.cache_status == "hot" for p in again.frontier)

    def test_config_less_optimize_uses_server_default(self, server):
        payload = {"schema_version": SCHEMA_VERSION, "circuit": "t481",
                   "libraries": ["cmos"], "vdds": [0.9],
                   "frequencies": [1e9]}
        request = urllib.request.Request(
            f"{server.url}/v1/optimize",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120) as response:
            data = json.loads(response.read())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["n_candidates"] == 1

    def test_bad_optimize_queries_are_400(self, server):
        bads = [
            {"schema_version": SCHEMA_VERSION},  # no circuit
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": [], "vdds": [0.9], "frequencies": [1e9]},
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [0.9], "frequencies": [1e9],
             "objectives": ["beauty"]},
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [-0.9],
             "frequencies": [1e9]},
            {"schema_version": SCHEMA_VERSION, "circuit": "nope",
             "libraries": ["cmos"], "vdds": [0.9], "frequencies": [1e9]},
            # NaN and Infinity are valid JSON to Python's parser.
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [float("nan")],
             "frequencies": [1e9]},
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [0.9],
             "frequencies": [float("inf")]},
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [0.9], "frequencies": [1e9],
             "deadline_ms": float("nan")},
            {"schema_version": SCHEMA_VERSION, "circuit": "t481",
             "libraries": ["cmos"], "vdds": [0.9], "frequencies": [1e9],
             "config": {"n_patterns": 1_000_000_000}},
        ]
        for payload in bads:
            request = urllib.request.Request(
                f"{server.url}/v1/optimize",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=60)
            assert excinfo.value.code == 400, payload


class TestKeepAlive:
    def test_hot_round_trips_on_one_connection_are_fast(self, server,
                                                        tiny_grid_config):
        """Headers and body are separate writes: without TCP_NODELAY
        each keep-alive reply waits for the client's delayed ACK
        (~40 ms)."""
        import http.client
        import statistics
        import time

        body = json.dumps(PowerQuery("t481", "cmos",
                                     tiny_grid_config).to_dict())
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        elapsed = []
        try:
            for _ in range(21):
                start = time.perf_counter()
                connection.request("POST", "/v1/estimate", body=body,
                                   headers={"Content-Type":
                                            "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            connection.close()
        # The first request may be cold; the 20 after it are hot.
        assert statistics.median(elapsed[1:]) < 0.010, elapsed


class TestDiscoveryEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["schema_version"] == SCHEMA_VERSION
        assert "results" in health["caches"]

    def test_circuits(self, client):
        keys = {c["key"] for c in client.circuits()}
        assert {"t481", "C6288", "des"} <= keys

    def test_libraries(self, client):
        keys = {entry["key"] for entry in client.libraries()}
        assert {"cmos", "cntfet-generalized"} <= keys

    def test_backends(self, client):
        payload = client.backends()
        assert "bitsim" in payload["backends"]


class TestErrorMapping:
    def _post_raw(self, server, body: bytes, path="/v1/estimate"):
        request = urllib.request.Request(
            f"{server.url}{path}", data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_unknown_circuit_is_400(self, server):
        status, payload = self._post_raw(
            server, json.dumps({"circuit": "nope",
                                "library": "cmos"}).encode())
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "unknown circuit" in payload["error"]["message"]

    def test_malformed_json_is_400(self, server):
        status, payload = self._post_raw(server, b"{not json")
        assert status == 400
        assert "bad JSON" in payload["error"]["message"]

    def test_unknown_field_is_400(self, server):
        status, payload = self._post_raw(
            server, json.dumps({"circuit": "t481", "library": "cmos",
                                "surprise": 1}).encode())
        assert status == 400
        assert "unknown PowerQuery" in payload["error"]["message"]

    def test_newer_schema_is_400(self, server):
        status, payload = self._post_raw(
            server, json.dumps({"schema_version": SCHEMA_VERSION + 1,
                                "circuit": "t481",
                                "library": "cmos"}).encode())
        assert status == 400
        assert "schema version" in payload["error"]["message"]

    def test_bad_content_length_is_400_not_a_dropped_socket(self, server):
        import socket

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"POST /v1/estimate HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Length: abc\r\n\r\n")
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in response

    @pytest.mark.parametrize("path", ["/v1/estimate",
                                      "/v1/estimate_batch",
                                      "/v1/optimize"])
    def test_null_body_is_400(self, server, path):
        """``null`` is valid JSON: it must reach the schema parser and
        be answered, not leave the client waiting."""
        request = urllib.request.Request(
            f"{server.url}{path}", data=b"null",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=5)
        assert caught.value.code == 400
        error = json.loads(caught.value.read())["error"]
        assert error["code"] == "bad_request"
        assert "JSON object" in error["message"]

    # One case per old outcome: run at the paper config, run unseeded
    # (and cached), 500 ``internal`` (three of them), 200 echoing a
    # non-JSON ``Infinity``, and a multi-GiB pattern allocation.
    @pytest.mark.parametrize("config", [[], {"seed": None},
                                        {"vdd": "0.9"}, {"seed": -1},
                                        {"vdd": float("nan")},
                                        {"frequency": float("inf")},
                                        {"n_patterns": 1_000_000_000}])
    def test_wrong_typed_config_is_400(self, server, config):
        status, payload = self._post_raw(
            server, json.dumps({"circuit": "t481", "library": "cmos",
                                "config": config}).encode())
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "ExperimentConfig" in payload["error"]["message"]

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_non_finite_deadline_is_400(self, server, deadline_ms):
        """A NaN budget never expired; both are refused up front."""
        status, payload = self._post_raw(
            server, json.dumps({"circuit": "t481", "library": "cmos",
                                "deadline_ms": deadline_ms}).encode())
        assert status == 400
        assert "deadline_ms" in payload["error"]["message"]

    def test_unknown_path_is_404(self, server):
        status, payload = self._post_raw(
            server, b"{}", path="/v2/estimate")
        assert status == 404

    def test_oversize_body_is_413_and_closes(self, server):
        """The server rejects the declared length without reading the
        body and drops the connection (keep-alive would otherwise
        parse the unread bytes as the next request)."""
        import socket

        from repro.serve.http import MAX_BODY_BYTES

        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/estimate HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode())
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # connection closed by the server, as required
                response += chunk
        assert response.startswith(b"HTTP/1.1 413")
        assert b"payload_too_large" in response

    def test_unknown_get_is_404_and_client_raises(self, client):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="unknown path"):
            client._request("/v1/nope")

    def test_unreachable_server_raises_clearly(self):
        from repro.errors import ExperimentError

        dead = Client("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ExperimentError, match="cannot reach"):
            dead.healthz()


def _read_response(stream):
    """One HTTP response off a socket file: (status line, headers with
    lower-case names, body)."""
    status = stream.readline().decode("iso-8859-1").rstrip("\r\n")
    headers = {}
    while True:
        line = stream.readline().decode("iso-8859-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _closed_by_server(sock) -> bool:
    sock.settimeout(10)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestHeaderReader:
    """The request-header reader keeps ``http.server``'s contract on
    raw sockets (only the conflicting ``Content-Length`` case is new)."""

    def _connect(self, server):
        host, port = server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=30)
        return sock, sock.makefile("rb")

    @staticmethod
    def _estimate_head(*header_lines) -> bytes:
        lines = ["POST /v1/estimate HTTP/1.1", "Host: test", *header_lines]
        return "".join(line + "\r\n" for line in lines).encode() + b"\r\n"

    @staticmethod
    def _estimate_body(config) -> bytes:
        return json.dumps(PowerQuery("t481", "cmos",
                                     config).to_dict()).encode()

    def test_connection_close_closes_after_the_answer(self, server):
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(b"GET /v1/healthz/live HTTP/1.1\r\nHost: test\r\n"
                         b"Connection: close\r\n\r\n")
            status, _, body = _read_response(stream)
            assert status.startswith("HTTP/1.1 200")
            assert json.loads(body)["status"] == "alive"
            assert stream.read() == b""

    def test_http_1_0_closes_by_default(self, server):
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(b"GET /v1/healthz/live HTTP/1.0\r\n\r\n")
            status, _, body = _read_response(stream)
            assert status.startswith("HTTP/1.1 200")
            assert stream.read() == b""

    def test_expect_100_continue(self, server, tiny_grid_config):
        body = self._estimate_body(tiny_grid_config)
        head = self._estimate_head(
            "Content-Type: application/json",
            f"Content-Length: {len(body)}", "Expect: 100-continue")
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(head)
            # The interim answer arrives before any body byte is sent.
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = _read_response(stream)
        assert status.startswith("HTTP/1.1 200")
        assert json.loads(answer)["circuit"] == "t481"

    @pytest.mark.parametrize("headers", [
        [f"X-Filler-{index}: {index}" for index in range(101)],
        ["X-Long: " + "a" * (70 * 1024)],
    ], ids=["101-headers", "70KiB-line"])
    def test_oversized_header_block_is_431(self, server, headers):
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(("GET /v1/healthz/live HTTP/1.1\r\n"
                          + "".join(line + "\r\n" for line in headers)
                          + "\r\n").encode())
            status, _, _ = _read_response(stream)
        assert status.startswith("HTTP/1.1 431")

    def test_header_names_in_any_case(self, server, tiny_grid_config):
        body = self._estimate_body(tiny_grid_config)
        head = self._estimate_head(
            "cOnTeNt-TyPe: application/json",
            f"CONTENT-LENGTH: {len(body)}", "connection: CLOSE")
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(head + body)
            status, _, answer = _read_response(stream)
            assert status.startswith("HTTP/1.1 200")
            assert json.loads(answer)["circuit"] == "t481"
            assert stream.read() == b""

    def test_conflicting_content_lengths_are_400(self, server,
                                                 tiny_grid_config):
        body = self._estimate_body(tiny_grid_config)
        head = self._estimate_head(f"Content-Length: {len(body)}",
                                   f"Content-Length: {len(body) + 10}")
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(head + body)
            status, _, answer = _read_response(stream)
            assert status.startswith("HTTP/1.1 400")
            assert b"Content-Length" in answer
            # The body's framing is unknowable: the link is dropped.
            assert _closed_by_server(sock)

    def test_pipelined_requests_are_both_answered(self, server):
        sock, stream = self._connect(server)
        with sock, stream:
            sock.sendall(b"GET /v1/healthz/live HTTP/1.1\r\nHost: a\r\n\r\n"
                         b"GET /v1/backends HTTP/1.1\r\nHost: a\r\n\r\n")
            first = _read_response(stream)
            second = _read_response(stream)
        assert first[0].startswith("HTTP/1.1 200")
        assert json.loads(first[2])["status"] == "alive"
        assert second[0].startswith("HTTP/1.1 200")
        assert "bitsim" in json.loads(second[2])["backends"]


class TestInternalErrors:
    def test_500s_log_their_traceback(self, tiny_grid_config, capsys):
        engine = Engine(Session(tiny_grid_config))

        def broken(*args, **kwargs):
            raise RuntimeError("engine exploded")

        engine.estimate = broken
        engine.stats = broken
        instance = serve(engine)
        thread = threading.Thread(target=instance.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = instance.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=30)
            body = json.dumps({"circuit": "t481", "library": "cmos"})
            for method, path in (("POST", "/v1/estimate"),
                                 ("GET", "/v1/healthz")):
                connection.request(method, path,
                                   body=body if method == "POST" else None)
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 500, path
                assert payload["error"] == {"code": "internal",
                                            "message": "engine exploded"}
            connection.close()
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=10)
        err = capsys.readouterr().err
        assert err.count("Traceback (most recent call last)") == 2
        assert err.count("RuntimeError: engine exploded") == 2


class TestWireBytes:
    """Estimate and batch bodies are ``json.dumps`` of the served
    reports' dict forms, byte for byte, however they were served."""

    @pytest.fixture
    def recorded(self, tiny_grid_config):
        engine = Engine(Session(tiny_grid_config))
        served = []
        for name in ("estimate", "estimate_batch"):
            original = getattr(engine, name)

            def recording(*args, _original=original, **kwargs):
                answer = _original(*args, **kwargs)
                served.append(answer)
                return answer

            setattr(engine, name, recording)
        instance = serve(engine)
        thread = threading.Thread(target=instance.serve_forever,
                                  daemon=True)
        thread.start()
        yield engine, instance, served
        instance.shutdown()
        instance.server_close()
        thread.join(timeout=10)

    @staticmethod
    def _post(instance, path, payload):
        host, port = instance.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("POST", path, body=json.dumps(payload))
            response = connection.getresponse()
            assert response.status == 200
            return response.read()
        finally:
            connection.close()

    def _check(self, raw, report):
        if isinstance(report, list):
            expected = json.dumps(batch_response_payload(report))
        else:
            expected = json.dumps(report.to_dict())
        assert raw == expected.encode("utf-8")

    def test_cold_hot_and_batch_bodies(self, recorded, tiny_grid_config):
        _, instance, served = recorded
        body = {"circuit": "t481", "library": "cmos"}
        batch = {"queries": [body, dict(body, library="generalized")]}
        raws = [self._post(instance, "/v1/estimate", body),
                self._post(instance, "/v1/estimate", body),
                self._post(instance, "/v1/estimate_batch", batch),
                self._post(instance, "/v1/estimate_batch", batch)]
        assert [report.cache_status for report in (served[0], served[1])] \
            == ["cold", "hot"]
        assert [report.cache_status for report in served[2]] \
            == ["hot", "cold"]
        assert [report.cache_status for report in served[3]] \
            == ["hot", "hot"]
        for raw, report in zip(raws, served):
            self._check(raw, report)

    def test_coalesced_body(self, recorded):
        engine, instance, served = recorded
        release, entered = threading.Event(), threading.Event()
        price = engine._price

        def slow_price(queries, deadline):
            entered.set()
            release.wait(timeout=30)
            return price(queries, deadline)

        engine._price = slow_price
        body = {"circuit": "i8", "library": "cmos"}
        raws = {}

        def post(name):
            raws[name] = self._post(instance, "/v1/estimate", body)

        leader = threading.Thread(target=post, args=("leader",))
        leader.start()
        entered.wait(timeout=30)
        follower = threading.Thread(target=post, args=("follower",))
        follower.start()
        for _ in range(1000):
            if engine.counters["results.coalesced"]:
                break
            time.sleep(0.001)
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        by_status = {report.cache_status: report for report in served}
        assert set(by_status) == {"cold", "coalesced"}
        assert len(served) == 2
        bodies = {json.loads(raw)["cache_status"]: raw
                  for raw in raws.values()}
        for status, report in by_status.items():
            self._check(bodies[status], report)

    def test_bodies_after_a_reregistration(self, recorded):
        from repro import registry
        from repro.circuits.adders import (
            parity_tree_circuit,
            ripple_adder_circuit,
        )

        _, instance, served = recorded
        body = {"circuit": "wire-probe", "library": "cmos"}
        registry.register_circuit(
            "wire-probe", lambda: ripple_adder_circuit(3, name="wire-probe"))
        try:
            before = [self._post(instance, "/v1/estimate", body)
                      for _ in range(2)]
            registry.register_circuit(
                "wire-probe",
                lambda: parity_tree_circuit(8, name="wire-probe"),
                replace=True)
            after = [self._post(instance, "/v1/estimate", body)
                     for _ in range(2)]
        finally:
            registry.unregister_circuit("wire-probe", missing_ok=True)
        assert [report.cache_status for report in served] == \
            ["cold", "hot", "cold", "hot"]
        for raw, report in zip(before + after, served):
            self._check(raw, report)
        # The hot answer after the change is the new circuit's, not
        # the encoding the old entry carried.
        assert json.loads(after[1])["result"] != \
            json.loads(before[1])["result"]
