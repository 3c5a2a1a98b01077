"""The stdlib HTTP front of the estimation engine.

A :class:`PowerServer` is a ``ThreadingHTTPServer`` bound to an
:class:`~repro.serve.engine.Engine`; each request thread parses the
:mod:`repro.schema` wire format and calls into the (thread-safe,
coalescing) engine.  Endpoints:

* ``POST /v1/estimate`` — body is a :class:`~repro.schema.PowerQuery`
  JSON object (``config`` optional: the server's default applies);
  response a :class:`~repro.schema.PowerQuoteReport` object.  An
  optional ``deadline_ms`` field bounds the request server-side.
* ``POST /v1/estimate_batch`` — body is a versioned envelope
  ``{"schema_version": 1, "queries": [...]}`` of up to
  :data:`repro.schema.MAX_BATCH_QUERIES` queries; the engine prices
  every miss of the batch in one pass, so a grid of operating points
  over one circuit simulates once, and the response mirrors the
  envelope with one report per query in input order.  The tightest
  ``deadline_ms`` among the queries bounds the whole request.
* ``POST /v1/optimize`` — body is an
  :class:`~repro.schema.OptimizeQuery` (circuit + library/backend/vdd/
  frequency axes + objectives); the engine maps and static-times each
  (library, vdd), prunes timing-infeasible points before pricing, and
  responds with an :class:`~repro.schema.OptimizeReport` carrying the
  Pareto frontier.
* ``GET /v1/circuits`` / ``/v1/libraries`` / ``/v1/backends`` —
  discovery listings from the registries.
* ``GET /v1/healthz`` — full stats: version, uptime, cache occupancy
  (including disk-cache quarantine counters), serve counters, plus
  ``ready`` / ``draining`` / ``inflight``.
* ``GET /v1/healthz/live`` — liveness only: 200 whenever the process
  can answer at all.
* ``GET /v1/healthz/ready`` — readiness: 200 when accepting work,
  503 while warming up or draining (load balancers route on this).

**Failure model.**  Errors come back as structured JSON
``{"error": {"code": "<stable-code>", "message": "<human text>"}}``:

========================  ======  =============================================
code                      status  meaning
========================  ======  =============================================
``bad_request``           400     malformed JSON/schema, unknown names, a
                                  value the engine cannot price (NaN or
                                  infinite number, negative ``seed``,
                                  ``n_patterns`` past the paper's budget),
                                  conflicting ``Content-Length`` headers
``not_found``             404     unknown path or method
``payload_too_large``     413     body over :data:`MAX_BODY_BYTES`
``overloaded``            429     admission limit hit — retry after the hint
``draining``              503     server is shutting down gracefully
``deadline_exceeded``     504     the request's ``deadline_ms`` ran out
``internal``              500     unexpected failure; its traceback goes to
                                  stderr
========================  ======  =============================================

A bad request line (400), an HTTP/2+ version (505) and an oversized
header block (431) are answered by ``http.server``'s own error page,
as before: :class:`JsonHandler` reads headers itself but keeps that
contract.

429 and 503 carry a ``Retry-After`` header (seconds); well-behaved
clients (:class:`repro.serve.client.Client`) honor it.  Admission is
*bounded*: at most ``max_inflight`` estimate requests run at once and
excess load is shed immediately with 429 instead of queueing without
limit — overload then degrades throughput, not latency.

Graceful shutdown: :meth:`PowerServer.begin_drain` flips readiness
off and rejects new work with 503 while :meth:`PowerServer.wait_idle`
waits for in-flight requests to finish (the CLI wires this to
SIGTERM/SIGINT).

The ``http.drop`` fault-injection point (:mod:`repro.faults`) closes
the connection without a response before a request is processed,
exercising client connection-level retries.

Request logging goes to stderr (the BaseHTTPRequestHandler default)
so ``repro serve ... 2>server.log`` captures an access log.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import traceback
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__, faults
from repro.errors import DeadlineExceeded, ReproError
from repro.schema import (
    OptimizeQuery,
    PowerQuery,
    SCHEMA_VERSION,
    batch_response_json,
    queries_from_batch,
    report_json,
)
from repro.serve.engine import Engine

#: Maximum accepted request-body size, bytes (a full
#: ``MAX_BATCH_QUERIES`` batch envelope stays well under this;
#: anything larger is a mistake, not a bigger query).
MAX_BODY_BYTES = 1 << 20

#: Default admission limit: estimate requests running at once before
#: the server sheds with 429.  Generous for a single-process engine —
#: the point is a *bound*, not a throttle.
DEFAULT_MAX_INFLIGHT = 32

#: ``Retry-After`` hints (seconds, as header strings).
RETRY_AFTER_OVERLOADED = "0.5"
RETRY_AFTER_DRAINING = "1"


#: What :meth:`_Handler._read_body_json` returns once it has already
#: answered the request with an error (a JSON ``null`` body is ``None``).
_ANSWERED = object()

#: Limits on one request's header block, as ``http.client`` sets them:
#: bytes per line, and lines (counting the blank line that ends the
#: block).
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100


class RequestHeaders:
    """The header fields of one request.

    :meth:`get` matches a name in any letter case and returns the first
    field of that name, like the ``email.message.Message`` that
    ``http.server`` builds.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: List[Tuple[str, str]]):
        self._fields = fields

    def get(self, name: str,
            default: Optional[str] = None) -> Optional[str]:
        name = name.lower()
        for key, value in self._fields:
            if key.lower() == name:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        name = name.lower()
        return [value for key, value in self._fields if key.lower() == name]


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token, ``None`` if bad."""
    if not version.startswith("HTTP/"):
        return None
    numbers = version[5:].split(".")
    if len(numbers) != 2 or not all(
            number.isascii() and number.isdigit() and len(number) <= 10
            for number in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


class JsonHandler(BaseHTTPRequestHandler):
    """Keep-alive HTTP/1.1 JSON responses, for the service and the fleet.

    A response is buffered and goes out in one write when the request
    is done (``http.server`` flushes ``wfile`` after each request; a
    ``100 Continue`` is flushed at once).  Every connection also sets
    ``TCP_NODELAY``: with Nagle's algorithm on, a write that follows
    another waits for the client's delayed ACK (~40 ms per keep-alive
    round trip).

    Request headers are read by :meth:`parse_request` directly, not
    through ``email.parser`` as ``http.server`` does, with the same
    contract: 400 for a bad request line, 505 for HTTP/2 and later,
    431 for a header line over :data:`MAX_HEADER_LINE` bytes or for
    :data:`MAX_HEADERS` header lines or more, the HTTP/1.0 (close) and
    HTTP/1.1 (keep-alive) defaults and the ``Connection`` header,
    ``Expect: 100-continue``, and ``self.headers.get`` in any letter
    case.  Two ``Content-Length`` headers that disagree are a 400.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1  # buffered: io's default size

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now: the client waits for it before it
        sends the body."""
        answered = super().handle_expect_100()
        self.wfile.flush()
        return answered

    def parse_request(self) -> bool:
        """Parse the request line and headers (``http.server``'s
        method, with :meth:`_read_headers` for ``email.parser``).  On
        failure the error response is already sent."""
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command, self.path = command, path
        if self.path.startswith("//"):
            # http.server's guard against open redirects.
            self.path = "/" + self.path.lstrip("/")
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers  # type: ignore[assignment]
        if len(set(headers.get_all("Content-Length"))) > 1:
            self.close_connection = True
            self._send_error_json(400, "bad_request",
                                  "conflicting Content-Length headers")
            return False
        connection = headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" \
                and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (headers.get("Expect", "").lower() == "100-continue"
                and self.protocol_version >= "HTTP/1.1"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[RequestHeaders]:
        """The header block up to its blank line, or ``None`` after a
        431.  A line that starts with whitespace continues the field
        before it; a line without a colon is skipped."""
        lines = []
        readline = self.rfile.readline
        while True:
            line = readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Line too long", "header line")
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            lines.append(line)
            if len(lines) >= MAX_HEADERS:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Too many headers",
                                f"got more than {MAX_HEADERS} headers")
                return None
        fields: List[Tuple[str, str]] = []
        for line in lines:
            text = line.decode("iso-8859-1").rstrip("\r\n")
            if text[:1] in (" ", "\t"):
                if fields:
                    name, value = fields[-1]
                    fields[-1] = (name, value + " " + text.strip(" \t"))
                continue
            name, colon, value = text.partition(":")
            if colon:
                fields.append((name, value.lstrip(" \t")))
        return RequestHeaders(fields)

    def _send_body(self, status: int, body: bytes,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """Send an encoded JSON body."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        headers)

    def _send_error_json(self, status: int, code: str, message: str,
                         retry_after: Optional[str] = None) -> None:
        headers = {"Retry-After": retry_after} if retry_after else None
        self._send_json(status,
                        {"error": {"code": code, "message": message}},
                        headers)

    def _send_internal_error(self) -> None:
        """Answer 500 for the exception being handled, writing its
        traceback to the error log first."""
        self.log_error("%s", traceback.format_exc().rstrip())
        self._send_error_json(500, "internal", str(sys.exc_info()[1]))


class _Handler(JsonHandler):
    """One request; ``self.server`` is the :class:`PowerServer`."""

    server_version = f"repro-serve/{__version__}"

    @property
    def engine(self) -> Engine:
        return self.server.engine  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def _drop_faulted(self, path: str) -> bool:
        """``http.drop``: close the connection without any response."""
        if faults.fire("http.drop", context=path) is None:
            return False
        self.engine.bump("http.dropped")
        self.close_connection = True
        return True

    def _read_body_json(self) -> Any:
        """The parsed body, or :data:`_ANSWERED` after an error reply."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            self._send_error_json(400, "bad_request",
                                  "bad Content-Length header")
            return _ANSWERED
        if length <= 0:
            self._send_error_json(400, "bad_request",
                                  "missing request body")
            return _ANSWERED
        if length > MAX_BODY_BYTES:
            # The body is never read; a kept-alive connection would
            # parse it as the next request line, so drop the link.
            self.close_connection = True
            self._send_error_json(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
            return _ANSWERED
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._send_error_json(400, "bad_request",
                                  f"bad JSON body: {exc}")
            return _ANSWERED

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if self._drop_faulted(path):
            return
        server: "PowerServer" = self.server  # type: ignore[assignment]
        try:
            if path == "/v1/healthz/live":
                self._send_json(200, {"status": "alive",
                                      "version": __version__})
            elif path == "/v1/healthz/ready":
                if server.is_ready():
                    self._send_json(200, {"status": "ready"})
                else:
                    state = "draining" if server.draining else "warming"
                    self._send_error_json(
                        503, "not_ready", f"server is {state}",
                        retry_after=RETRY_AFTER_DRAINING)
            elif path in ("/v1/healthz", "/healthz"):
                payload = self.engine.stats()
                payload["status"] = "ok"
                payload["schema_version"] = SCHEMA_VERSION
                payload["ready"] = server.is_ready()
                payload["draining"] = server.draining
                payload["inflight"] = server.inflight
                payload["max_inflight"] = server.max_inflight
                if server.worker_meta is not None:
                    payload["worker"] = dict(server.worker_meta)
                self._send_json(200, payload)
            elif path == "/v1/circuits":
                self._send_json(200, {"circuits": self.engine.circuits()})
            elif path == "/v1/libraries":
                self._send_json(200, {"libraries": self.engine.libraries()})
            elif path == "/v1/backends":
                self._send_json(200, self.engine.backends())
            else:
                self._send_error_json(404, "not_found",
                                      f"unknown path {path!r}")
        except Exception:
            self._send_internal_error()

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if self._drop_faulted(path):
            return
        if path not in ("/v1/estimate", "/v1/estimate_batch",
                        "/v1/optimize"):
            self._send_error_json(404, "not_found",
                                  f"unknown path {path!r}")
            return
        server: "PowerServer" = self.server  # type: ignore[assignment]
        admission = server.try_begin_request()
        if admission == "draining":
            self.engine.bump("http.rejected_draining")
            self._send_error_json(
                503, "draining", "server is draining for shutdown",
                retry_after=RETRY_AFTER_DRAINING)
            return
        if admission == "overloaded":
            self.engine.bump("http.shed")
            self._send_error_json(
                429, "overloaded",
                f"admission limit of {server.max_inflight} in-flight "
                f"requests reached; retry after backoff",
                retry_after=RETRY_AFTER_OVERLOADED)
            return
        try:
            data = self._read_body_json()
            if data is _ANSWERED:
                return
            # Mid-request SIGKILL point for fleet chaos drills: the
            # request is admitted and read, then the worker dies with
            # no response — the client must retry on another worker.
            faults.maybe_kill9(context=path)
            try:
                if path == "/v1/estimate":
                    query = PowerQuery.from_dict(
                        data, default_config=self.engine.session.config)
                    body = report_json(self.engine.estimate(query))
                elif path == "/v1/optimize":
                    optimize_query = OptimizeQuery.from_dict(
                        data, default_config=self.engine.session.config)
                    body = json.dumps(self.engine.optimize(
                        optimize_query).to_dict()).encode("utf-8")
                else:
                    queries = queries_from_batch(
                        data, default_config=self.engine.session.config)
                    body = batch_response_json(
                        self.engine.estimate_batch(queries))
            except DeadlineExceeded as exc:
                self._send_error_json(504, "deadline_exceeded", str(exc))
                return
            except ReproError as exc:
                self._send_error_json(400, "bad_request", str(exc))
                return
            except Exception:
                self._send_internal_error()
                return
            self._send_body(200, body)
        finally:
            server.end_request()


class PowerServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`Engine`.

    ``port=0`` binds an OS-assigned free port (``.url`` reports the
    real one) — how tests and the CI smoke job avoid collisions.

    ``max_inflight`` bounds concurrently-processed estimate requests
    (excess is shed with 429); ``None`` disables admission control.
    The server starts *not ready* (``/v1/healthz/ready`` is 503) until
    :meth:`mark_ready` — :func:`serve` calls it for you, the CLI calls
    it after warmup.

    ``sock`` adopts an already-listening socket instead of binding
    ``address`` — how fleet workers share one service port (an
    ``SO_REUSEPORT`` sibling socket, or the supervisor's inherited
    listen FD).  The adopting server takes ownership: ``server_close``
    closes it.
    """

    daemon_threads = True

    def __init__(self, engine: Engine,
                 address: Tuple[str, int] = ("127.0.0.1", 0),
                 max_inflight: Optional[int] = DEFAULT_MAX_INFLIGHT,
                 sock: Optional[socket.socket] = None):
        if sock is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(sock.getsockname()[:2], _Handler,
                             bind_and_activate=False)
            # Swap the unbound socket TCPServer built for the adopted,
            # already-listening one, then finish HTTPServer.server_bind
            # bookkeeping (server_name/server_port) without rebinding.
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = socket.getfqdn(host)
            self.server_port = port
        self.engine = engine
        self.max_inflight = max_inflight
        self.draining = False
        #: Optional identity block merged into ``/v1/healthz`` — fleet
        #: workers set it to ``{"slot": ..., "pid": ...}`` so the
        #: supervisor's aggregation can label per-worker rows.
        self.worker_meta: Optional[Dict[str, Any]] = None
        self._ready = False
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    # -- readiness / admission / drain ------------------------------------

    def mark_ready(self) -> None:
        """Declare warmup finished: ``/v1/healthz/ready`` turns 200."""
        with self._state_lock:
            self._ready = True

    def is_ready(self) -> bool:
        with self._state_lock:
            return self._ready and not self.draining

    def try_begin_request(self) -> str:
        """Admit one estimate request: ``"ok"``/``"draining"``/
        ``"overloaded"``.  ``"ok"`` must be paired with
        :meth:`end_request`."""
        with self._state_lock:
            if self.draining:
                return "draining"
            if (self.max_inflight is not None
                    and self._inflight >= self.max_inflight):
                return "overloaded"
            self._inflight += 1
            self._idle.clear()
            return "ok"

    def end_request(self) -> None:
        with self._state_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.set()

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests keep running."""
        with self._state_lock:
            self.draining = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is in flight (True) or timeout."""
        return self._idle.wait(timeout)


def serve(engine: Optional[Engine] = None, host: str = "127.0.0.1",
          port: int = 0,
          max_inflight: Optional[int] = DEFAULT_MAX_INFLIGHT,
          ready: bool = True) -> PowerServer:
    """Bind a :class:`PowerServer` (not yet serving).

    The caller decides how to run it: ``serve_forever()`` for the CLI,
    a background thread for tests/embedders::

        server = serve(Engine(), port=8321)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()

    ``ready=False`` leaves the readiness probe at 503 until the caller
    finishes warmup and calls :meth:`PowerServer.mark_ready`.
    """
    server = PowerServer(engine if engine is not None else Engine(),
                         (host, port), max_inflight=max_inflight)
    if ready:
        server.mark_ready()
    return server
