"""A small urllib client for the estimation service.

Speaks the :mod:`repro.schema` wire format against a running
``repro serve`` endpoint::

    from repro.serve import Client

    client = Client("http://127.0.0.1:8321")
    report = client.estimate("t481", "generalized")
    print(report.result.pt_uw, report.cache_status)

**Failure model.**  Server-side failures surface as
:class:`~repro.errors.ServerError` carrying the HTTP ``status`` and
the server's stable ``error.code`` (``bad_request``, ``overloaded``,
``deadline_exceeded``, ...); transport failures (nothing listening,
connection reset, timeout) surface as :class:`ServerError` with
``status=0``.  :class:`ServerError` subclasses the historical
:class:`~repro.errors.ExperimentError`, so existing handlers keep
working.

**Retries.**  Every endpoint here is idempotent (estimates are
deterministic and content-addressed), so the client transparently
retries exactly the failures where a retry can help:

* connection-level failures (``status=0``): the request may never
  have reached the server — this includes a connection reset or a
  truncated body *mid-response* (``http.client.IncompleteRead`` when
  a fleet worker is SIGKILLed while streaming), not just a refused
  connect;
* 429 (shed by admission control) and 503 (draining/warming): the
  server explicitly asked for a retry, and its ``Retry-After`` hint
  is honored (capped by the policy's backoff cap).  A 503 whose code
  is ``draining`` gets its *first* retry immediately, with no
  backoff: a draining worker means its fleet siblings (or its
  restarted successor) are the right target *right now* — only
  repeat drainings back off.

Everything else (400, 404, 413, 504, 500) fails fast — retrying a
malformed query or a blown deadline cannot succeed.  Backoff is
exponential with decorrelated jitter (:class:`repro.resilience
.RetryPolicy`), and the policy's ``deadline_s`` bounds the *whole*
attempt sequence including sleeps.  ``retry=None`` disables retries.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServerError
from repro.experiments.config import ExperimentConfig
from repro.resilience import RetryPolicy, RetryState, parse_retry_after
from repro.schema import (
    OptimizeQuery,
    OptimizeReport,
    PowerQuery,
    PowerQuoteReport,
    SCHEMA_VERSION,
    batch_request_payload,
    reports_from_batch,
)

#: HTTP statuses the server sends when a retry is expected to help.
RETRYABLE_STATUSES = (429, 503)

#: The default client retry policy: two re-attempts, 50 ms base
#: backoff, 2 s cap, no total deadline beyond the per-attempt timeout.
DEFAULT_RETRY = RetryPolicy()


def _error_fields(payload: Any) -> Dict[str, str]:
    """Code and message from a structured (or legacy) error body."""
    if isinstance(payload, dict):
        error = payload.get("error")
        if isinstance(error, dict):
            return {"code": str(error.get("code", "")),
                    "message": str(error.get("message", ""))}
        if isinstance(error, str):  # pre-0.5 servers
            return {"code": "", "message": error}
    return {"code": "", "message": str(payload)}


class Client:
    """One service endpoint (``base_url`` like ``http://host:port``).

    ``timeout`` is the *per-attempt* socket timeout — generous by
    default, because a cold paper-config query is a real synthesis +
    640 K-pattern estimation.  ``retry`` is the
    :class:`~repro.resilience.RetryPolicy` for transient failures
    (None = fail on the first error).  ``sleep`` and ``rng`` are
    injectable so tests can assert backoff behavior without waiting.
    """

    def __init__(self, base_url: str, timeout: float = 600.0,
                 retry: Optional[RetryPolicy] = DEFAULT_RETRY,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._sleep = sleep
        self._rng = rng
        #: The RetryState of the most recent request (None before the
        #: first, or with retries disabled) — tests and benchmarks
        #: read ``attempts`` / ``sleeps`` off it.
        self.last_retry_state: Optional[RetryState] = None

    # -- transport ---------------------------------------------------------

    def _request_once(self, path: str,
                      payload: Optional[Dict[str, Any]],
                      timeout: float) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # HTTPError subclasses URLError: catch it first.
            try:
                fields = _error_fields(
                    json.loads(exc.read().decode("utf-8")))
            except Exception:
                fields = {"code": "", "message": f"HTTP {exc.code}"}
            error = ServerError(
                f"server at {self.base_url}: {fields['message']}"
                + (f" [{fields['code']}]" if fields["code"] else ""),
                status=exc.code, code=fields["code"])
            error.retry_after_s = parse_retry_after(
                exc.headers.get("Retry-After"))
            raise error from None
        except (urllib.error.URLError, ConnectionError,
                http.client.HTTPException, OSError) as exc:
            # HTTPException covers the *mid-response* failures OSError
            # does not: IncompleteRead when the peer closes cleanly
            # after sending a partial body (a worker SIGKILLed while
            # streaming), BadStatusLine on a torn response head.
            reason = getattr(exc, "reason", exc)
            error = ServerError(
                f"cannot reach estimation server at {url}: "
                f"{reason or type(exc).__name__}",
                status=0, code="connection")
            error.retry_after_s = None
            raise error from None

    def _request(self, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> Any:
        state = None
        if self.retry is not None:
            state = self.retry.start(sleep=self._sleep, rng=self._rng)
        self.last_retry_state = state
        fast_drain_used = False
        while True:
            timeout = self.timeout
            if state is not None:
                remaining = state.deadline.remaining()
                if remaining is not None:
                    if remaining <= 0:
                        raise ServerError(
                            f"retry deadline exhausted before reaching "
                            f"{self.base_url}{path}",
                            status=0, code="deadline")
                    timeout = min(timeout, remaining)
            try:
                return self._request_once(path, payload, timeout)
            except ServerError as exc:
                retryable = (exc.status == 0
                             or exc.status in RETRYABLE_STATUSES)
                if state is None or not retryable:
                    raise
                hint = getattr(exc, "retry_after_s", None)
                if (exc.status == 503 and exc.code == "draining"
                        and not fast_drain_used):
                    # A draining worker's fleet siblings are live right
                    # now — the first re-attempt goes immediately; only
                    # repeat drainings honor Retry-After/backoff.
                    fast_drain_used = True
                    hint = 0.0
                if not state.retry(hint):
                    raise

    # -- endpoints ---------------------------------------------------------

    def query(self, query: PowerQuery) -> PowerQuoteReport:
        """POST a prepared :class:`PowerQuery` to ``/v1/estimate``."""
        return PowerQuoteReport.from_dict(
            self._request("/v1/estimate", query.to_dict()))

    def estimate(self, circuit: str, library: str,
                 config: Optional[ExperimentConfig] = None,
                 deadline_ms: Optional[float] = None) -> PowerQuoteReport:
        """Estimate one (circuit, library) cell.

        ``config=None`` sends a config-less query: the *server's*
        default configuration applies (so repeated bare queries hit
        the same cache entry regardless of the client's local
        defaults).  ``deadline_ms`` bounds the request server-side
        (504 ``deadline_exceeded`` on expiry).
        """
        payload: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "circuit": circuit,
            "library": library,
        }
        if config is not None:
            payload["config"] = config.to_dict()
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return PowerQuoteReport.from_dict(
            self._request("/v1/estimate", payload))

    def estimate_batch(self, queries: List[PowerQuery]
                       ) -> List[PowerQuoteReport]:
        """POST many queries to ``/v1/estimate_batch`` in one round trip.

        The server prices every miss of the batch in one pass (one
        simulation per mapped circuit and pattern budget, repriced per
        operating point) and answers in input order — the wire twin of
        :func:`repro.sim.estimator.estimate_many`.
        """
        return reports_from_batch(
            self._request("/v1/estimate_batch",
                          batch_request_payload(queries)))

    def optimize(self, query: OptimizeQuery) -> OptimizeReport:
        """POST an :class:`OptimizeQuery` to ``/v1/optimize``.

        The server maps + static-times each (library, vdd), prunes
        timing-infeasible points before pricing, prices the survivors
        through its caches and answers with the Pareto frontier.
        """
        return OptimizeReport.from_dict(
            self._request("/v1/optimize", query.to_dict()))

    def circuits(self) -> List[Dict[str, Any]]:
        """The server's registered circuits (``/v1/circuits``)."""
        return self._request("/v1/circuits")["circuits"]

    def libraries(self) -> List[Dict[str, Any]]:
        """The server's registered libraries (``/v1/libraries``)."""
        return self._request("/v1/libraries")["libraries"]

    def backends(self) -> Dict[str, Any]:
        """The server's estimator backends (``/v1/backends``)."""
        return self._request("/v1/backends")

    def healthz(self) -> Dict[str, Any]:
        """The server's full stats payload (``/v1/healthz``)."""
        return self._request("/v1/healthz")

    def live(self) -> Dict[str, Any]:
        """The liveness probe (``/v1/healthz/live``)."""
        return self._request("/v1/healthz/live")

    def ready(self) -> bool:
        """The readiness probe: True iff the server is accepting work.

        Deliberately unretried (a 503 here *is* the answer, not a
        transient failure).
        """
        try:
            self._request_once("/v1/healthz/ready", None, self.timeout)
            return True
        except ServerError as exc:
            if exc.status == 503:
                return False
            raise
