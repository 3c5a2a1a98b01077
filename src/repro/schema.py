"""The versioned power-query wire schema.

One request/response pair covers every way a power number leaves this
package: :class:`PowerQuery` is the typed form of "estimate *this
circuit* on *this library* at *this operating point*", and
:class:`PowerQuoteReport` is the answer — the
:class:`~repro.experiments.flow.CircuitFlowResult` payload plus the
provenance a caller needs to trust it (schema version, server version,
backend, canonical keys, config hash, cache status).

Three consumers share it, on purpose:

* the **sweep store** — a :class:`~repro.sweep.spec.SweepTask` *is* a
  ``PowerQuery`` (same fields, same content hash), so stored sweep
  records and service responses are keyed identically and a sweep
  store can warm-start an estimation server;
* **reports** — :func:`store_record` / :func:`flow_from_record` are
  the single (de)serialization of a completed point, used by the store
  backends and the report pivots;
* the **service** (:mod:`repro.serve`) — ``POST /v1/estimate`` bodies
  parse with :meth:`PowerQuery.from_dict` and responses render with
  :meth:`PowerQuoteReport.to_dict` (sent as :func:`report_json`: the
  same bytes, from an encoding made once per answer).

Serialization is strict both ways: unknown fields are rejected (a typo
never silently becomes a default), floats ride through JSON by value
(Python's ``json`` round-trips doubles exactly), and every payload
carries ``schema_version`` so a future layout change is detectable
rather than misparsed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro import registry
from repro.cache import canonical, stable_hash
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, PAPER_CONFIG, is_finite
from repro.experiments.flow import CircuitFlowResult

#: Version of the query/response wire layout.  Bump when a field is
#: added/renamed/retyped; peers reject payloads from a newer schema.
#:
#: v2: ``PowerQuoteReport`` gained the optional timing fields
#: ``delay_ns`` / ``fmax_hz`` / ``energy_per_cycle`` / ``pdp``, and the
#: ``/v1/optimize`` envelope (``OptimizeQuery`` / ``OptimizeReport``)
#: joined the schema.  v1 payloads parse unchanged (the new fields are
#: optional).
SCHEMA_VERSION = 2

#: Version of the *content-hash* payload behind ``query_key`` /
#: ``task_key`` (historically defined in :mod:`repro.sweep.spec`,
#: which re-exports it).  Bump when the meaning of a key changes
#: (fields added to the hashed payload, estimation semantics, ...):
#: old store entries are then simply never matched again.
#:
#: v2: ``ExperimentConfig`` gained the ``backend`` field (estimator
#: backend selection), which is part of the hashed config payload.
TASK_SCHEMA_VERSION = 2

#: ``cache_status`` values a service response may carry.
CACHE_STATUSES = ("cold", "hot", "coalesced")

#: Upper bound on queries in one ``/v1/estimate_batch`` request.  A
#: batch is a convenience envelope, not a bulk-import channel; larger
#: grids belong in a sweep store.
MAX_BATCH_QUERIES = 1024


def _reject_unknown(data: Dict[str, Any], known: set, what: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ExperimentError(
            f"unknown {what} fields: {', '.join(unknown)}")


def _flow_from_payload(data: Any, what: str) -> CircuitFlowResult:
    """A :class:`CircuitFlowResult` from an untrusted ``result`` object.

    Strict like the rest of the module: unknown and missing fields are
    :class:`ExperimentError`s, never ``TypeError``s out of the
    dataclass constructor.
    """
    if not isinstance(data, dict):
        raise ExperimentError(f"{what} 'result' must be a JSON object")
    known = {field.name for field in fields(CircuitFlowResult)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ExperimentError(
            f"unknown {what} result fields: {', '.join(unknown)}")
    missing = sorted(known - set(data))
    if missing:
        raise ExperimentError(
            f"{what} result is missing fields: {', '.join(missing)}")
    return CircuitFlowResult(**data)


def _check_deadline(deadline_ms: Any, what: str) -> None:
    """``deadline_ms`` is absent or a positive, finite number."""
    if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not deadline_ms > 0 or not is_finite(deadline_ms)):
        raise ExperimentError(
            f"{what} field 'deadline_ms' must be a positive finite "
            f"number, got {deadline_ms!r}")


def _wire_config(data: Dict[str, Any],
                 default_config: Optional[ExperimentConfig]
                 ) -> ExperimentConfig:
    """The configuration a request body asks for.

    An omitted (or ``null``) ``config`` takes ``default_config`` — the
    serving session's — else the paper's.  A sent one may not ask for
    more patterns than the paper's budget: the engine allocates the
    pattern words before any deadline check, so the budget bounds what
    one request can make the server hold.  Local sweeps keep any
    budget.
    """
    config_data = data.get("config")
    if config_data is None:
        return default_config if default_config is not None \
            else PAPER_CONFIG
    config = ExperimentConfig.from_dict(config_data)
    if config.n_patterns > PAPER_CONFIG.n_patterns:
        raise ExperimentError(
            f"ExperimentConfig field 'n_patterns' is {config.n_patterns}; "
            f"a request may simulate at most {PAPER_CONFIG.n_patterns} "
            f"patterns — run larger budgets as a local sweep")
    return config


def _check_schema_version(data: Dict[str, Any], what: str) -> None:
    version = data.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version < 1:
        raise ExperimentError(
            f"bad {what} schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ExperimentError(
            f"{what} uses schema version {version}, but this build "
            f"only speaks <= {SCHEMA_VERSION}; upgrade the client or "
            f"the server")


@dataclass(frozen=True)
class PowerQuery:
    """One power question: a (circuit, library, config) triple.

    ``circuit`` and ``library`` are registry keys or aliases (the
    service canonicalizes them before hashing, so an alias and its key
    are the same query).  ``query_key`` is a deterministic content
    hash over everything that determines the answer — the same payload
    a :class:`~repro.sweep.spec.SweepTask` hashes, so service caches
    and sweep stores share keys.
    """

    circuit: str
    library: str
    config: ExperimentConfig = PAPER_CONFIG
    #: Optional per-request time budget, milliseconds.  Enforced by the
    #: serving engine *between* pipeline stages; deliberately excluded
    #: from ``query_key`` — it bounds the serving of the answer, it
    #: does not change the answer.
    deadline_ms: Optional[float] = None

    @property
    def query_key(self) -> str:
        """Computed once per instance (the query is frozen)."""
        key = self.__dict__.get("_query_key")
        if key is None:
            key = self.__dict__["_query_key"] = stable_hash({
                "schema": TASK_SCHEMA_VERSION,
                "circuit": self.circuit,
                "library": self.library,
                "config": canonical(self.config),
            })
        return key

    def to_dict(self) -> Dict[str, Any]:
        """Strict plain-JSON form (the ``POST /v1/estimate`` body)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "circuit": self.circuit,
            "library": self.library,
            "config": self.config.to_dict(),
        }
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  default_config: Optional[ExperimentConfig] = None
                  ) -> "PowerQuery":
        """Inverse of :meth:`to_dict`.

        Rejects unknown fields, newer schema versions, a non-finite
        ``deadline_ms`` and a pattern budget past the paper's.
        ``config`` may be omitted (or ``None``): the query then runs at
        ``default_config`` — the serving session's configuration —
        which is what lets a bare ``{"circuit": ..., "library": ...}``
        body do the right thing against a ``repro serve --fast`` server.
        """
        if not isinstance(data, dict):
            raise ExperimentError(
                f"a power query must be a JSON object, got "
                f"{type(data).__name__}")
        _reject_unknown(data, {"schema_version", "circuit", "library",
                               "config", "deadline_ms"}, "PowerQuery")
        _check_schema_version(data, "PowerQuery")
        for name in ("circuit", "library"):
            if not isinstance(data.get(name), str) or not data[name]:
                raise ExperimentError(
                    f"power query field {name!r} must be a non-empty "
                    f"string")
        deadline_ms = data.get("deadline_ms")
        _check_deadline(deadline_ms, "power query")
        return cls(circuit=data["circuit"], library=data["library"],
                   config=_wire_config(data, default_config),
                   deadline_ms=deadline_ms)


@dataclass(frozen=True)
class PowerQuoteReport:
    """One power answer: the flow result plus its provenance.

    ``result`` carries the raw :class:`CircuitFlowResult` floats —
    bit-identical to what :meth:`repro.api.Session.run` returns for
    the same query (locked by goldens in the serve tests).  The rest
    is provenance: which build answered (``server_version``), with
    which estimator (``backend``), for which canonicalized subject
    (``circuit`` / ``library``), under exactly which configuration
    (``config_hash``, and ``query_key`` for the full identity), and
    whether the answer was computed or served warm (``cache_status``:
    ``cold`` = computed now, ``hot`` = from the result cache,
    ``coalesced`` = attached to an identical in-flight computation).
    """

    circuit: str
    library: str
    backend: str
    result: CircuitFlowResult
    config: ExperimentConfig = PAPER_CONFIG
    schema_version: int = SCHEMA_VERSION
    server_version: str = ""
    config_hash: str = ""
    query_key: str = ""
    cache_status: str = "cold"
    elapsed_s: float = 0.0
    #: Derived timing metrics (schema v2; ``None`` on records written
    #: before they existed).  ``delay_ns`` is the critical-path delay,
    #: ``fmax_hz`` its reciprocal (``None`` for zero-delay circuits —
    #: JSON cannot carry infinity), ``energy_per_cycle`` is PT/f in
    #: joules and ``pdp`` is PT * delay (the power-delay product the
    #: CNFET literature compares designs by).
    delay_ns: Optional[float] = None
    fmax_hz: Optional[float] = None
    energy_per_cycle: Optional[float] = None
    pdp: Optional[float] = None

    def with_status(self, cache_status: str,
                    elapsed_s: float) -> "PowerQuoteReport":
        """A copy re-stamped for one particular serving of the answer.

        Only the two per-serving fields change, so the copy shares the
        answer's encoded :meth:`stable_json`.
        """
        if cache_status not in CACHE_STATUSES:
            raise ExperimentError(
                f"bad cache_status {cache_status!r}; expected one of "
                f"{', '.join(CACHE_STATUSES)}")
        stamped = object.__new__(type(self))
        stamped.__dict__.update(self.__dict__, cache_status=cache_status,
                                elapsed_s=elapsed_s)
        return stamped

    def stable_json(self) -> Tuple[bytes, bytes]:
        """``json.dumps(self.to_dict())`` in UTF-8, cut around the values
        of the two per-serving fields: the bytes up to the
        ``cache_status`` value and those after the ``elapsed_s`` value.

        Encoded once per answer and shared by its :meth:`with_status`
        copies; :func:`report_json` splices the two values in.
        """
        parts = self.__dict__.get("_stable_json")
        if parts is None:
            payload = self.to_dict()
            names = list(payload)
            at = names.index("cache_status")
            head = json.dumps({name: payload[name] for name in names[:at]})
            tail = json.dumps({name: payload[name]
                               for name in names[at + 2:]})
            parts = self.__dict__["_stable_json"] = (
                (head[:-1] + ', "cache_status": ').encode("utf-8"),
                (", " + tail[1:]).encode("utf-8"))
        return parts

    def to_dict(self) -> Dict[str, Any]:
        """Strict plain-JSON form (the ``POST /v1/estimate`` response).

        The timing fields are emitted only when present, so a v1-shaped
        record round-trips to a v1-shaped payload (plus the version
        stamp of the emitting build).
        """
        payload = {
            "schema_version": self.schema_version,
            "server_version": self.server_version,
            "circuit": self.circuit,
            "library": self.library,
            "backend": self.backend,
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "query_key": self.query_key,
            "cache_status": self.cache_status,
            "elapsed_s": self.elapsed_s,
            "result": asdict(self.result),
        }
        for name in ("delay_ns", "fmax_hz", "energy_per_cycle", "pdp"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PowerQuoteReport":
        """Inverse of :meth:`to_dict`; floats round-trip exactly."""
        if not isinstance(data, dict):
            raise ExperimentError(
                f"a power quote must be a JSON object, got "
                f"{type(data).__name__}")
        _reject_unknown(
            data,
            {"schema_version", "server_version", "circuit", "library",
             "backend", "config", "config_hash", "query_key",
             "cache_status", "elapsed_s", "result",
             "delay_ns", "fmax_hz", "energy_per_cycle", "pdp"},
            "PowerQuoteReport")
        _check_schema_version(data, "PowerQuoteReport")
        for name in ("circuit", "library", "backend", "result"):
            if name not in data:
                raise ExperimentError(
                    f"power quote is missing the {name!r} field")
        return cls(
            circuit=data["circuit"],
            library=data["library"],
            backend=data["backend"],
            result=_flow_from_payload(data["result"], "PowerQuoteReport"),
            config=ExperimentConfig.from_dict(data["config"])
            if data.get("config") is not None else PAPER_CONFIG,
            schema_version=data.get("schema_version", SCHEMA_VERSION),
            server_version=data.get("server_version", ""),
            config_hash=data.get("config_hash", ""),
            query_key=data.get("query_key", ""),
            cache_status=data.get("cache_status", "cold"),
            elapsed_s=data.get("elapsed_s", 0.0),
            delay_ns=data.get("delay_ns"),
            fmax_hz=data.get("fmax_hz"),
            energy_per_cycle=data.get("energy_per_cycle"),
            pdp=data.get("pdp"),
        )

    @classmethod
    def from_flow(cls, query: PowerQuery, flow: CircuitFlowResult, *,
                  server_version: str = "", cache_status: str = "cold",
                  elapsed_s: float = 0.0) -> "PowerQuoteReport":
        """Wrap a computed flow result for a (canonicalized) query.

        The timing fields derive from the flow result and the query's
        operating point: ``energy_per_cycle`` is PT over the queried
        clock, ``pdp`` PT times the critical delay, ``fmax_hz`` the
        delay's reciprocal (``None`` for gateless circuits).
        """
        return cls(
            circuit=query.circuit,
            library=query.library,
            backend=query.config.backend,
            result=flow,
            config=query.config,
            server_version=server_version,
            config_hash=stable_hash(canonical(query.config)),
            query_key=query.query_key,
            cache_status=cache_status,
            elapsed_s=elapsed_s,
            delay_ns=flow.delay_s / 1e-9,
            fmax_hz=(1.0 / flow.delay_s) if flow.delay_s > 0.0 else None,
            energy_per_cycle=flow.pt_w / query.config.frequency,
            pdp=flow.pt_w * flow.delay_s,
        )


# -- batch envelopes -----------------------------------------------------------
#
# ``POST /v1/estimate_batch`` carries many queries in one versioned
# envelope; the response mirrors it with one report per query, input
# order.  The envelope is strict like the single-query forms: unknown
# fields, newer schema versions, empty and oversized batches are all
# rejected up front.


def batch_request_payload(queries: List[PowerQuery]) -> Dict[str, Any]:
    """The ``POST /v1/estimate_batch`` body for a list of queries."""
    return {"schema_version": SCHEMA_VERSION,
            "queries": [query.to_dict() for query in queries]}


def queries_from_batch(data: Dict[str, Any],
                       default_config: Optional[ExperimentConfig] = None
                       ) -> List[PowerQuery]:
    """Parse a batch request envelope into its queries (strict)."""
    if not isinstance(data, dict):
        raise ExperimentError(
            f"a batch query must be a JSON object, got "
            f"{type(data).__name__}")
    _reject_unknown(data, {"schema_version", "queries"}, "batch query")
    _check_schema_version(data, "batch query")
    queries = data.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ExperimentError(
            "batch query field 'queries' must be a non-empty list")
    if len(queries) > MAX_BATCH_QUERIES:
        raise ExperimentError(
            f"batch query carries {len(queries)} queries; the limit is "
            f"{MAX_BATCH_QUERIES} — split the batch or run a sweep")
    return [PowerQuery.from_dict(entry, default_config=default_config)
            for entry in queries]


def batch_response_payload(reports: List[PowerQuoteReport]
                           ) -> Dict[str, Any]:
    """The ``/v1/estimate_batch`` response body (one report per query)."""
    return {"schema_version": SCHEMA_VERSION,
            "reports": [report.to_dict() for report in reports]}


# -- wire bytes ----------------------------------------------------------------
#
# What the server sends: exactly ``json.dumps`` of the ``to_dict`` /
# ``batch_response_payload`` forms, built from each answer's
# once-encoded :meth:`PowerQuoteReport.stable_json` instead.

_encode_str = json.encoder.encode_basestring_ascii

_ELAPSED_KEY = b', "elapsed_s": '

#: ``json.dumps(batch_response_payload([]))`` up to the list's ``[``.
_BATCH_HEAD = json.dumps({"schema_version": SCHEMA_VERSION,
                          "reports": []})[:-2].encode("utf-8")


def _json_scalar(value: Any) -> bytes:
    """``json.dumps(value)`` in UTF-8, fast for strings and finite
    floats."""
    kind = type(value)
    if kind is str:
        return _encode_str(value).encode("utf-8")
    if kind is float and math.isfinite(value):
        return float.__repr__(value).encode("utf-8")
    return json.dumps(value).encode("utf-8")


def report_json(report: PowerQuoteReport) -> bytes:
    """``json.dumps(report.to_dict())`` in UTF-8 (the
    ``/v1/estimate`` response body)."""
    head, tail = report.stable_json()
    return b"".join((head, _json_scalar(report.cache_status), _ELAPSED_KEY,
                     _json_scalar(report.elapsed_s), tail))


def batch_response_json(reports: List[PowerQuoteReport]) -> bytes:
    """``json.dumps(batch_response_payload(reports))`` in UTF-8 (the
    ``/v1/estimate_batch`` response body)."""
    return b"".join((_BATCH_HEAD,
                     b", ".join([report_json(report) for report in reports]),
                     b"]}"))


def reports_from_batch(data: Dict[str, Any]) -> List[PowerQuoteReport]:
    """Inverse of :func:`batch_response_payload` (strict)."""
    if not isinstance(data, dict):
        raise ExperimentError(
            f"a batch response must be a JSON object, got "
            f"{type(data).__name__}")
    _reject_unknown(data, {"schema_version", "reports"}, "batch response")
    _check_schema_version(data, "batch response")
    reports = data.get("reports")
    if not isinstance(reports, list):
        raise ExperimentError(
            "batch response field 'reports' must be a list")
    return [PowerQuoteReport.from_dict(entry) for entry in reports]


# -- the optimize envelope -----------------------------------------------------
#
# ``POST /v1/optimize`` asks for the Pareto frontier of one circuit
# over a (library x backend x vdd x frequency) design space.  The
# request is an :class:`OptimizeQuery` (axes + objectives + the base
# configuration every point inherits); the response is an
# :class:`OptimizeReport` carrying the non-dominated
# :class:`FrontierPoint`\ s plus accounting of what was pruned
# (timing-infeasible points) and what was dominated.  The evaluation
# itself lives in :mod:`repro.optimize`; this section is pure wire
# shape.

#: Recognized frontier objectives and their optimization direction.
OPTIMIZE_OBJECTIVES: Dict[str, str] = {
    "power": "min",       # total power PT (W)
    "energy": "min",      # energy per cycle, PT / f (J)
    "pdp": "min",         # power-delay product, PT * delay (J)
    "edp": "min",         # energy-delay product (J*s)
    "delay": "min",       # critical-path delay (s)
    "vdd": "min",         # supply voltage (V)
    "frequency": "max",   # operating clock (Hz)
    "fmax": "max",        # maximum feasible clock (Hz)
}

#: Objectives when a query names none: the paper's trade-off space —
#: total power against delivered clock frequency.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("power", "frequency")

#: Upper bound on the candidate grid of one optimize request
#: (libraries x backends x vdds x frequencies).
MAX_OPTIMIZE_POINTS = 4096


def _dedupe(values):
    """Order-preserving dedupe."""
    seen = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _positive_axis(values: Any, name: str) -> Tuple[float, ...]:
    """A sorted, deduplicated tuple of positive finite floats (strict)."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ExperimentError(
            f"optimize query field {name!r} must be a non-empty list")
    axis: List[float] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not value > 0 or not is_finite(value):
            raise ExperimentError(
                f"optimize query field {name!r} must hold positive "
                f"finite numbers, got {value!r}")
        axis.append(float(value))
    return tuple(sorted(set(axis)))


def _name_axis(values: Any, name: str) -> Tuple[str, ...]:
    """A deduplicated (order-preserving) tuple of non-empty names."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ExperimentError(
            f"optimize query field {name!r} must be a non-empty list")
    for value in values:
        if not isinstance(value, str) or not value:
            raise ExperimentError(
                f"optimize query field {name!r} must hold non-empty "
                f"strings, got {value!r}")
    return tuple(_dedupe(values))


@dataclass(frozen=True)
class OptimizeQuery:
    """One frontier question: a circuit and the axes to explore.

    Numeric axes are normalized (deduplicated, ascending) at
    construction, so two spellings of the same design space are the
    same query and the frontier ordering is deterministic.  ``config``
    is the base configuration every candidate inherits; its
    ``vdd`` / ``frequency`` / ``backend`` fields are overridden per
    point, everything else (pattern budgets, seed, mapper knobs)
    applies uniformly.
    """

    circuit: str
    libraries: Tuple[str, ...]
    vdds: Tuple[float, ...]
    frequencies: Tuple[float, ...]
    backends: Tuple[str, ...] = ("bitsim",)
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    config: ExperimentConfig = PAPER_CONFIG
    #: Optional time budget for the whole optimization, milliseconds
    #: (same engine-stage enforcement as :class:`PowerQuery`).
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, str) or not self.circuit:
            raise ExperimentError(
                "optimize query field 'circuit' must be a non-empty "
                "string")
        object.__setattr__(
            self, "libraries", _name_axis(self.libraries, "libraries"))
        object.__setattr__(
            self, "backends", _name_axis(self.backends, "backends"))
        object.__setattr__(self, "vdds", _positive_axis(self.vdds, "vdds"))
        object.__setattr__(
            self, "frequencies",
            _positive_axis(self.frequencies, "frequencies"))
        objectives = _name_axis(self.objectives, "objectives")
        for objective in objectives:
            if objective not in OPTIMIZE_OBJECTIVES:
                raise ExperimentError(
                    f"unknown objective {objective!r}; choose from "
                    f"{', '.join(sorted(OPTIMIZE_OBJECTIVES))}")
        object.__setattr__(self, "objectives", objectives)
        _check_deadline(self.deadline_ms, "optimize query")
        if self.n_candidates > MAX_OPTIMIZE_POINTS:
            raise ExperimentError(
                f"optimize query spans {self.n_candidates} candidate "
                f"points; the limit is {MAX_OPTIMIZE_POINTS} — prune an "
                f"axis or run a sweep")

    @property
    def n_candidates(self) -> int:
        """Size of the candidate grid before feasibility pruning."""
        return (len(self.libraries) * len(self.backends)
                * len(self.vdds) * len(self.frequencies))

    def to_dict(self) -> Dict[str, Any]:
        """Strict plain-JSON form (the ``POST /v1/optimize`` body)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "circuit": self.circuit,
            "libraries": list(self.libraries),
            "vdds": list(self.vdds),
            "frequencies": list(self.frequencies),
            "backends": list(self.backends),
            "objectives": list(self.objectives),
            "config": self.config.to_dict(),
        }
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  default_config: Optional[ExperimentConfig] = None
                  ) -> "OptimizeQuery":
        """Inverse of :meth:`to_dict` (strict).

        ``backends``, ``objectives`` and ``config`` may be omitted and
        take their defaults (``config`` falling back to the serving
        session's configuration, and bounded to the paper's pattern
        budget, like :meth:`PowerQuery.from_dict`).
        """
        if not isinstance(data, dict):
            raise ExperimentError(
                f"an optimize query must be a JSON object, got "
                f"{type(data).__name__}")
        _reject_unknown(
            data,
            {"schema_version", "circuit", "libraries", "vdds",
             "frequencies", "backends", "objectives", "config",
             "deadline_ms"},
            "OptimizeQuery")
        _check_schema_version(data, "OptimizeQuery")
        kwargs: Dict[str, Any] = {
            "circuit": data.get("circuit"),
            "libraries": data.get("libraries"),
            "vdds": data.get("vdds"),
            "frequencies": data.get("frequencies"),
            "config": _wire_config(data, default_config),
            "deadline_ms": data.get("deadline_ms"),
        }
        if data.get("backends") is not None:
            kwargs["backends"] = data["backends"]
        if data.get("objectives") is not None:
            kwargs["objectives"] = data["objectives"]
        if not isinstance(kwargs["circuit"], str) or not kwargs["circuit"]:
            raise ExperimentError(
                "optimize query field 'circuit' must be a non-empty "
                "string")
        for name in ("libraries", "vdds", "frequencies"):
            if kwargs[name] is None:
                raise ExperimentError(
                    f"optimize query is missing the {name!r} field")
        return cls(**kwargs)


#: Every scalar field a frontier point carries.
_FRONTIER_POINT_FIELDS = (
    "library", "backend", "vdd", "frequency", "gate_count", "delay_ns",
    "fmax_hz", "slack_ns", "pd_w", "ps_w", "pg_w", "pt_w",
    "energy_per_cycle", "pdp", "edp_js", "query_key", "cache_status",
)


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated operating point with its full metric vector.

    Carries everything the dominance test consumed (so a client can
    re-verify the frontier), plus provenance: ``query_key`` is the
    content hash of the equivalent single-point :class:`PowerQuery`
    (frontier points and ``/v1/estimate`` answers share cache
    identity), ``cache_status`` records how this serving obtained the
    point.
    """

    library: str
    backend: str
    vdd: float
    frequency: float          # Hz (the operating clock of this point)
    gate_count: int
    delay_ns: float           # critical-path delay
    fmax_hz: Optional[float]  # None = unbounded (zero-delay circuit)
    slack_ns: float           # clock period minus critical delay
    pd_w: float
    ps_w: float
    pg_w: float
    pt_w: float
    energy_per_cycle: float   # J (PT / f)
    pdp: float                # J (PT * delay)
    edp_js: float
    query_key: str = ""
    cache_status: str = "cold"

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name)
                for name in _FRONTIER_POINT_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FrontierPoint":
        if not isinstance(data, dict):
            raise ExperimentError(
                f"a frontier point must be a JSON object, got "
                f"{type(data).__name__}")
        _reject_unknown(data, set(_FRONTIER_POINT_FIELDS),
                        "FrontierPoint")
        missing = sorted(set(_FRONTIER_POINT_FIELDS)
                         - {"query_key", "cache_status"} - set(data))
        if missing:
            raise ExperimentError(
                f"frontier point is missing fields: {', '.join(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class OptimizeReport:
    """The ``/v1/optimize`` answer: the frontier plus accounting.

    ``frontier`` holds only non-dominated, timing-feasible points, in
    the deterministic order :func:`repro.optimize.pareto_frontier`
    defines.  The counters reconcile: ``n_candidates`` (the full grid)
    = ``n_infeasible`` + ``n_dominated`` + ``len(frontier)``.
    """

    circuit: str
    objectives: Tuple[str, ...]
    frontier: Tuple[FrontierPoint, ...]
    n_candidates: int
    n_infeasible: int
    n_dominated: int
    schema_version: int = SCHEMA_VERSION
    server_version: str = ""
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Strict plain-JSON form (the ``POST /v1/optimize`` response)."""
        return {
            "schema_version": self.schema_version,
            "server_version": self.server_version,
            "circuit": self.circuit,
            "objectives": list(self.objectives),
            "frontier": [point.to_dict() for point in self.frontier],
            "n_candidates": self.n_candidates,
            "n_infeasible": self.n_infeasible,
            "n_dominated": self.n_dominated,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OptimizeReport":
        """Inverse of :meth:`to_dict` (strict)."""
        if not isinstance(data, dict):
            raise ExperimentError(
                f"an optimize report must be a JSON object, got "
                f"{type(data).__name__}")
        _reject_unknown(
            data,
            {"schema_version", "server_version", "circuit", "objectives",
             "frontier", "n_candidates", "n_infeasible", "n_dominated",
             "elapsed_s"},
            "OptimizeReport")
        _check_schema_version(data, "OptimizeReport")
        for name in ("circuit", "objectives", "frontier"):
            if name not in data:
                raise ExperimentError(
                    f"optimize report is missing the {name!r} field")
        frontier = data["frontier"]
        if not isinstance(frontier, list):
            raise ExperimentError(
                "optimize report field 'frontier' must be a list")
        return cls(
            circuit=data["circuit"],
            objectives=tuple(data["objectives"]),
            frontier=tuple(FrontierPoint.from_dict(entry)
                           for entry in frontier),
            n_candidates=data.get("n_candidates", 0),
            n_infeasible=data.get("n_infeasible", 0),
            n_dominated=data.get("n_dominated", 0),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
            server_version=data.get("server_version", ""),
            elapsed_s=data.get("elapsed_s", 0.0),
        )


# -- the store record shape ----------------------------------------------------
#
# One completed point, as persisted by the sweep result stores and as
# appended by the serving engine.  ``task_key`` names the question and
# ``content`` (:func:`repro.registry.content_key`) the definitions that
# answered it; readers count a record only while they match.


def store_record(query: PowerQuery, flow: CircuitFlowResult,
                 elapsed_s: float,
                 content: Optional[str] = None) -> Dict[str, Any]:
    """The stored form of one completed point.

    ``result`` holds the raw :class:`CircuitFlowResult` floats; JSON
    round-trips doubles exactly, so a record read back compares
    bit-identically to the in-memory computation.  ``content`` is the
    content key the point was priced from (default: that of the
    circuit's and library's current registrations).
    """
    if content is None:
        content = registry.content_key(query.circuit, query.library)
    return {
        "task_key": query.query_key,
        "circuit": query.circuit,
        "library": query.library,
        "config": query.config.to_dict(),
        "content": content,
        "result": asdict(flow),
        "elapsed_s": elapsed_s,
    }


def flow_from_record(record: Dict[str, Any]) -> CircuitFlowResult:
    """Rehydrate the :class:`CircuitFlowResult` of a stored record."""
    return _flow_from_payload(record.get("result"), "store record")


def quote_from_record(record: Dict[str, Any], *,
                      server_version: str = "",
                      cache_status: str = "hot") -> PowerQuoteReport:
    """Lift a stored sweep record into a service response.

    This is what lets an :class:`~repro.serve.Engine` warm-start from
    a sweep store: the record's task key *is* the query key.
    """
    config = ExperimentConfig.from_dict(record.get("config", {}))
    query = PowerQuery(circuit=record["circuit"],
                       library=record["library"], config=config)
    return PowerQuoteReport.from_flow(
        query, flow_from_record(record), server_version=server_version,
        cache_status=cache_status, elapsed_s=0.0)
