"""Registries of named, discoverable library and circuit factories.

Every place the reproduction needs a cell library or a benchmark
circuit by name — the Table 1 rows and columns, the sweep ``library``
and ``circuits`` axes, the CLI flags, the :class:`repro.api.Session`
front door, the :mod:`repro.serve` estimation server — resolves it
here.  Both kinds are *registered*, not hardwired: adding a fourth
technology to the comparison, or a thirteenth benchmark netlist, is one
``register_*`` call with no edits to ``experiments/`` or ``sweep/``.

**Libraries.**  A factory is a callable ``factory(vdd) -> Library``:
``vdd=None`` builds the library at its technology's native supply, any
other value re-characterizes it at that operating point (the
supply-sweep path, conventionally via
:meth:`TechnologyParams.with_vdd`).  Keys are the canonical library
names (also the ``Library.name`` of what the factory builds); aliases
are short spellings accepted anywhere a key is (``"generalized"`` for
``"cntfet-generalized"``, ...).

**Circuits.**  A factory is a callable ``build() -> Aig``.  The 12
paper benchmarks of Table 1 are registered by
:mod:`repro.circuits.suite` (which is now a thin view over this
registry) together with the paper's reference rows;
:func:`register_blif_circuit` registers an arbitrary user netlist from
a BLIF file, after which it flows through every Session / CLI / sweep
/ serve path exactly like a built-in benchmark.

**Content keys.**  Every cache of answers keys on a registration's
content (:func:`content_key`), not its name, so a circuit or library
redefined under the same name never meets the old definition's answers.

The three paper libraries plus the hybrid pass-transistor demo library
(after Hu et al., arXiv:2002.01932) are registered at import time;
``available_libraries()`` / ``available_circuits()`` list whatever is
registered right now.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro import obs
from repro.devices.parameters import CMOS_32NM, CNTFET_32NM, TechnologyParams
from repro.errors import ExperimentError
from repro.gates.ambipolar_library import generalized_cntfet_library
from repro.gates.conventional import cmos_library, conventional_cntfet_library
from repro.gates.hybrid_pass import HYBRID_PASS, hybrid_pass_library
from repro.gates.library import Library
from repro.gates.np_dynamic import NP_DYNAMIC, np_dynamic_library

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.synth.aig import Aig

#: Library keys used throughout the experiments (historically defined
#: in :mod:`repro.circuits.suite`, which still re-exports them).
GENERALIZED = "cntfet-generalized"
CONVENTIONAL = "cntfet-conventional"
CMOS = "cmos"

#: Factory signature: build the library, optionally at a non-native vdd.
LibraryFactory = Callable[[Optional[float]], Library]
#: Factory signature: build a benchmark circuit.
CircuitFactory = Callable[[], "Aig"]


# -- generic name/alias registry core -----------------------------------------

class _Registry:
    """Key/alias bookkeeping shared by the library and circuit registries.

    ``kind`` only flavors error messages; the semantics — canonical
    keys in registration order, aliases resolving to keys, collisions
    rejected unless ``replace`` — are identical for both.
    """

    def __init__(self, kind: str):
        self.kind = kind
        #: Canonical key -> entry, in registration order.
        self.entries: Dict[str, Any] = {}
        #: Any accepted spelling (key or alias) -> canonical key.
        self.names: Dict[str, str] = {}

    def add(self, entry: Any, replace: bool) -> None:
        key = entry.key
        taken = {name: owner for name, owner in self.names.items()
                 if not (replace and owner == key)}
        for name in (key, *entry.aliases):
            if name in taken and taken[name] != key:
                raise ExperimentError(
                    f"{self.kind} name {name!r} is already registered "
                    f"(for {taken[name]!r})")
        if key in self.entries and not replace:
            raise ExperimentError(
                f"{self.kind} {key!r} is already registered; pass "
                f"replace=True to override")
        old = self.entries.get(key)
        if old is not None:
            for name in old.aliases:
                if self.names.get(name) == key:
                    del self.names[name]
        # Plain assignment so a replaced key keeps its registration slot.
        self.entries[key] = entry
        self.names[key] = key
        for alias in entry.aliases:
            self.names[alias] = key

    def remove(self, key: str, missing_ok: bool = False) -> Optional[Any]:
        entry = self.entries.pop(key, None)
        if entry is None:
            if missing_ok:
                return None
            raise ExperimentError(
                f"{self.kind} {key!r} is not registered")
        for name in (entry.key, *entry.aliases):
            if self.names.get(name) == key:
                del self.names[name]
        return entry

    def canonical(self, name: str) -> str:
        try:
            return self.names[name]
        except KeyError:
            raise ExperimentError(
                f"unknown {self.kind} {name!r}; choose from "
                f"{sorted(self.names)}") from None


# -- libraries -----------------------------------------------------------------


@dataclass(frozen=True)
class LibraryEntry:
    """One registered library: canonical key, factory and metadata."""

    key: str
    factory: LibraryFactory
    aliases: Tuple[str, ...] = ()
    description: str = ""


_LIBRARIES = _Registry("library")
#: Per-process build cache, keyed by (canonical key, vdd).
_LIBRARY_CACHE: Dict[Tuple[str, Optional[float]], Library] = {}


def register_library(key: str, factory: LibraryFactory, *,
                     aliases: Tuple[str, ...] = (),
                     description: str = "",
                     replace: bool = False) -> LibraryEntry:
    """Register a library factory under ``key`` (plus optional aliases).

    Args:
        key: canonical library name; should equal the ``Library.name``
            the factory produces so results and listings agree.
        factory: ``factory(vdd) -> Library``; ``vdd=None`` means the
            technology's native supply.
        aliases: additional accepted spellings of the key.
        description: one line for CLI listings.
        replace: allow re-registering an existing key (its cached
            builds are dropped); without it a collision raises.

    Raises:
        ExperimentError: on key/alias collisions (unless ``replace``).
    """
    entry = LibraryEntry(key=key, factory=factory,
                         aliases=tuple(aliases), description=description)
    _LIBRARIES.add(entry, replace=replace)
    for cache_key in [k for k in _LIBRARY_CACHE if k[0] == key]:
        del _LIBRARY_CACHE[cache_key]
    return entry


def unregister_library(key: str, missing_ok: bool = False) -> None:
    """Remove a registered library, its aliases and its cached builds."""
    if _LIBRARIES.remove(key, missing_ok=missing_ok) is None:
        return
    for cache_key in [k for k in _LIBRARY_CACHE if k[0] == key]:
        del _LIBRARY_CACHE[cache_key]


def available_libraries() -> List[str]:
    """Canonical keys of every registered library, registration order."""
    return list(_LIBRARIES.entries)


def library_entry(name: str) -> LibraryEntry:
    """The registration entry behind a key or alias."""
    return _LIBRARIES.entries[canonical_library(name)]


def canonical_library(name: str) -> str:
    """Resolve a library key or alias to its canonical key.

    Raises :class:`ExperimentError` naming the known spellings when the
    name is not registered.
    """
    return _LIBRARIES.canonical(name)


def build_library(name: str, vdd: Optional[float] = None) -> Library:
    """Build a fresh library by key or alias (no caching)."""
    return _LIBRARIES.entries[canonical_library(name)].factory(vdd)


def cached_library(name: str, vdd: Optional[float] = None) -> Library:
    """Build a library once per process per (key, vdd) and reuse it.

    Only memoizes ``factory(vdd)``: the instance carries its own
    timing, capacitance and leakage-table memos, so worker processes
    and repeated estimates share one characterized library (and its
    warmed match tables).  Its leakage tables come from the ``leakage``
    ladder, so a store the foundry built answers with zero SPICE
    solves.  ``vdd=None`` and the technology's literal native supply
    are distinct cache slots but construct value-identical libraries.
    Lookups count ``libraries.hits`` / ``libraries.misses`` in
    :mod:`repro.obs`.
    """
    key = canonical_library(name)
    cache_key = (key, vdd)
    library = _LIBRARY_CACHE.get(cache_key)
    obs.count("libraries.misses" if library is None else "libraries.hits")
    if library is None:
        library = _LIBRARIES.entries[key].factory(vdd)
        _LIBRARY_CACHE[cache_key] = library
    return library


def cached_library_vdds(name: str) -> List[Optional[float]]:
    """The vdd slots of ``name`` currently hot in this process."""
    key = canonical_library(name)
    return [vdd for cached_key, vdd in _LIBRARY_CACHE if cached_key == key]


def clear_library_cache(name: Optional[str] = None) -> None:
    """Drop cached library builds (all keys, or just ``name``)."""
    if name is None:
        _LIBRARY_CACHE.clear()
        return
    key = canonical_library(name)
    for cache_key in [k for k in _LIBRARY_CACHE if k[0] == key]:
        del _LIBRARY_CACHE[cache_key]


def paper_libraries(vdd: Optional[float] = None) -> Dict[str, Library]:
    """The three libraries of the paper's Table 1 comparison, by key,
    cached per process per vdd."""
    return {key: cached_library(key, vdd) for key in PAPER_LIBRARIES}


def tech_at(tech: TechnologyParams,
            vdd: Optional[float]) -> TechnologyParams:
    """``tech`` re-supplied at ``vdd`` (``None`` keeps the native supply).

    The standard helper for writing vdd-aware factories: cell timing
    and leakage are characterized at the requested operating point.
    """
    return tech if vdd is None else tech.with_vdd(vdd)


# -- circuits ------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitEntry:
    """One registered circuit: canonical key, ``build()`` factory and
    metadata.

    ``paper`` holds the paper's Table 1 reference rows (a mapping of
    library key -> :class:`~repro.circuits.suite.PaperRow`) for the 12
    built-in benchmarks and is ``None`` for user registrations;
    ``function`` is the paper's "Function" column (free text for user
    circuits).
    """

    key: str
    build: CircuitFactory
    aliases: Tuple[str, ...] = ()
    description: str = ""
    function: str = ""
    paper: Optional[Mapping[str, Any]] = field(default=None, hash=False)
    #: Key of the circuit family this entry was instantiated from
    #: (``None`` for directly registered circuits).
    family: Optional[str] = None


_CIRCUITS = _Registry("circuit")


def register_circuit(key: str, build: CircuitFactory, *,
                     aliases: Tuple[str, ...] = (),
                     description: str = "",
                     function: str = "",
                     paper: Optional[Mapping[str, Any]] = None,
                     replace: bool = False) -> CircuitEntry:
    """Register a circuit factory under ``key`` (plus optional aliases).

    Args:
        key: canonical circuit name (what results and reports show).
        build: ``build() -> Aig``; must be deterministic — every call
            constructs the same graph, which is what lets worker
            processes and caches share one synthesis.
        aliases: additional accepted spellings of the key.
        description: one line for CLI listings.
        function: the functional class (the paper's "Function" column).
        paper: the paper's reference Table 1 rows for this circuit
            (built-in benchmarks only).
        replace: allow re-registering an existing key (the memos of
            the old entry go with it); without it a collision raises.

    Raises:
        ExperimentError: on key/alias collisions (unless ``replace``).
    """
    entry = CircuitEntry(key=key, build=build, aliases=tuple(aliases),
                         description=description, function=function,
                         paper=paper)
    _CIRCUITS.add(entry, replace=replace)
    # A non-BLIF registration taking over a BLIF key must not leave a
    # stale source for worker replay (register_blif_text re-records).
    _BLIF_SOURCES.pop(key, None)
    return entry


def unregister_circuit(key: str, missing_ok: bool = False) -> None:
    """Remove a registered circuit, its aliases and its memos."""
    if _CIRCUITS.remove(key, missing_ok=missing_ok) is None:
        return
    _BLIF_SOURCES.pop(key, None)


def available_circuits() -> List[str]:
    """Canonical keys of every registered circuit, registration order."""
    return list(_CIRCUITS.entries)


def circuit_entry(name: str) -> CircuitEntry:
    """The registration entry behind a key or alias."""
    return _CIRCUITS.entries[canonical_circuit(name)]


def canonical_circuit(name: str) -> str:
    """Resolve a circuit key, alias or family spec to its canonical key.

    A family spec — ``family(param=value,...)``, e.g.
    ``synth:rand(gates=50000,seed=7)`` — resolves through the circuit
    *family* registry: the spec is parsed, normalized (defaults merged,
    parameters in declaration order) and the normalized spelling is
    registered as an ordinary circuit on first use, so it then flows
    through Session / sweep / serve / CLI like any named benchmark.

    Raises :class:`ExperimentError` naming the known spellings when the
    name is not registered (and the known families for a spec naming an
    unknown family).
    """
    known = _CIRCUITS.names.get(name)
    if known is not None:
        return known
    if is_family_spec(name):
        return resolve_family_spec(name)
    return _CIRCUITS.canonical(name)  # raises with the known spellings


def build_circuit(name: str) -> "Aig":
    """Build a fresh AIG by key or alias (the graph is not cached),
    memoizing its :func:`circuit_content_key` on the way."""
    return build_entry(_CIRCUITS.entries[canonical_circuit(name)])


def paper_benchmarks() -> List[str]:
    """Keys of the registered circuits carrying paper Table 1 rows,
    registration order — the 12-benchmark suite of the paper."""
    return [key for key, entry in _CIRCUITS.entries.items()
            if entry.paper is not None]


# -- content keys --------------------------------------------------------------
#
# An answer is a function of a circuit's built AIG and a library's cells,
# not of their names.  Each registration's content key is memoized in
# its entry's ``__dict__`` (the flow keeps a circuit's subject graphs
# there too): a (re/un)registration replaces the entry, and with it the
# key and the subjects.  A cache keyed by content never needs
# invalidating.

_CONTENT_KEY = "_content_key"


def build_entry(entry: CircuitEntry) -> "Aig":
    """Build a fresh AIG from one registration, memoizing its content
    key on the entry."""
    aig = entry.build()
    entry.__dict__[_CONTENT_KEY] = aig.content_key()
    return aig


def entry_content_key(entry: CircuitEntry) -> Optional[str]:
    """The content key memoized on a registration (None until built)."""
    return entry.__dict__.get(_CONTENT_KEY)


def circuit_content_key(name: str, build: bool = True) -> Optional[str]:
    """A registered circuit's content key: the hash of its built AIG
    (:meth:`~repro.synth.aig.Aig.content_key`).

    Without a memo, the default builds the circuit once to learn it and
    ``build=False`` returns None.
    """
    entry = (_CIRCUITS.entries.get(name)
             or _CIRCUITS.entries[canonical_circuit(name)])
    key = entry_content_key(entry)
    if key is None and build:
        key = build_entry(entry).content_key()
    return key


def content_key(circuit: str, library: str,
                build: bool = True) -> Optional[str]:
    """What every answer for (circuit, library) is a function of: the
    circuit's content key joined to the library's, the leakage-table
    key of its native-supply build (``_library_content_key``).

    Like :func:`circuit_content_key`, builds what it must unless
    ``build=False``; with memos it is a handful of dict lookups.
    """
    circuit_key = circuit_content_key(circuit, build)
    entry = (_LIBRARIES.entries.get(library)
             or _LIBRARIES.entries[canonical_library(library)])
    library_key = entry.__dict__.get(_CONTENT_KEY)
    if library_key is None and build:
        from repro.sim.estimator import _library_content_key

        library_key = entry.__dict__[_CONTENT_KEY] = \
            _library_content_key(entry.factory(None))
    if circuit_key is None or library_key is None:
        return None
    return f"{circuit_key}/{library_key}"


# -- circuit families ----------------------------------------------------------
#
# A circuit *family* is a parametric generator: one registration, an
# unbounded set of circuits.  Any spelling of the form
# ``family(param=value,...)`` is accepted wherever a circuit name is;
# it normalizes to a canonical spec string (every parameter explicit,
# declaration order) which becomes the circuit's registry key — and,
# because task/query keys content-hash the circuit name, the full
# parameterization is hashed into every cached result automatically.
#
# Resolving a new spec registers one more instance and touches no other
# registration, so every served answer stays hot.  Re-registering or
# removing the family itself purges every instance derived from it.

#: ``family(args)`` — family keys may contain ``:`` (``synth:rand``),
#: dots and dashes; the argument list never nests parentheses.
_FAMILY_SPEC_RE = re.compile(
    r"^(?P<family>[A-Za-z0-9_.:\-]+)\((?P<args>[^()]*)\)$")

#: Parameter values that are bare words must stay unambiguous inside
#: the spec grammar (no separators, no parens, no ``=``).
_FAMILY_VALUE_RE = re.compile(r"^[A-Za-z0-9_.+\-]+$")


@dataclass(frozen=True)
class CircuitFamilyEntry:
    """One registered circuit family: key, factory and its parameters.

    ``factory(**params) -> Aig`` must be deterministic in its
    parameters; ``defaults`` fixes both the accepted parameter names,
    their types (a spec value is coerced to the default's type) and the
    canonical parameter order of normalized spec strings.
    """

    key: str
    factory: Callable[..., "Aig"]
    defaults: Tuple[Tuple[str, Any], ...]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    function: str = ""


_FAMILIES = _Registry("circuit family")


def register_circuit_family(key: str, factory: Callable[..., "Aig"], *,
                            defaults: Mapping[str, Any],
                            aliases: Tuple[str, ...] = (),
                            description: str = "",
                            function: str = "",
                            replace: bool = False) -> CircuitFamilyEntry:
    """Register a parametric circuit family under ``key``.

    Args:
        key: family name as written in specs (``synth:rand``).
        factory: ``factory(**params) -> Aig``; deterministic per
            parameter set.
        defaults: full parameter set with default values, in the order
            normalized specs spell them.  A spec may override any
            subset; unknown names are rejected and values are coerced
            to the default's type.
        aliases: additional accepted family spellings.
        description: one line for CLI listings.
        function: the "Function" column of instantiated circuits.
        replace: allow re-registering (every instance circuit derived
            from the old registration is purged).

    Raises:
        ExperimentError: on name collisions (unless ``replace``) or
            unusable defaults.
    """
    for name, value in dict(defaults).items():
        if _spec_value(value) is None:
            raise ExperimentError(
                f"circuit family {key!r}: default {name}={value!r} "
                f"cannot be spelled in a spec string (use int, float, "
                f"bool or a plain word)")
    entry = CircuitFamilyEntry(
        key=key, factory=factory, defaults=tuple(dict(defaults).items()),
        aliases=tuple(aliases), description=description, function=function)
    if replace and key in _FAMILIES.entries:
        _purge_family_instances(key)
    _FAMILIES.add(entry, replace=replace)
    return entry


def unregister_circuit_family(key: str, missing_ok: bool = False) -> None:
    """Remove a family and every instance circuit derived from it."""
    if _FAMILIES.remove(key, missing_ok=missing_ok) is None:
        return
    _purge_family_instances(key)


def _purge_family_instances(key: str) -> None:
    instances = [entry.key for entry in _CIRCUITS.entries.values()
                 if entry.family == key]
    for instance in instances:
        _CIRCUITS.remove(instance, missing_ok=True)


def available_circuit_families() -> List[str]:
    """Canonical keys of every registered family, registration order."""
    return list(_FAMILIES.entries)


def circuit_family_entry(name: str) -> CircuitFamilyEntry:
    """The registration entry behind a family key or alias."""
    return _FAMILIES.entries[_FAMILIES.canonical(name)]


def is_family_spec(name: str) -> bool:
    """True when ``name`` is spelled as a family spec (``f(...)``).

    Purely syntactic — the family may still be unknown or the
    parameters invalid; :func:`parse_family_spec` decides that.
    """
    return _FAMILY_SPEC_RE.match(name) is not None


def _spec_value(value: Any) -> Optional[str]:
    """The spec-string spelling of a parameter value (None: unspellable).

    ``repr`` for floats (round-trips doubles exactly, matching
    :mod:`repro.cache` hashing), ``true``/``false`` for bools, decimal
    for ints, the bare word for strings.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str) and _FAMILY_VALUE_RE.match(value):
        return value
    return None


def _parse_value(family: str, name: str, text: str, default: Any) -> Any:
    """Coerce one ``name=text`` spec argument to the default's type."""
    try:
        if isinstance(default, bool):
            lowered = text.lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text, 10)
        if isinstance(default, float):
            return float(text)
    except ValueError:
        raise ExperimentError(
            f"circuit family spec {family!r}: parameter {name}={text!r} "
            f"is not a valid {type(default).__name__}") from None
    if not _FAMILY_VALUE_RE.match(text):
        raise ExperimentError(
            f"circuit family spec {family!r}: parameter {name}={text!r} "
            f"contains characters the spec grammar cannot round-trip")
    return text


def parse_family_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Parse ``family(k=v,...)`` into (canonical family key, parameters).

    The returned parameters are the *full* set: the family's defaults
    overlaid with the spec's explicit arguments, coerced to the
    defaults' types.  Unknown families, unknown or repeated parameter
    names and malformed values raise :class:`ExperimentError`.
    """
    match = _FAMILY_SPEC_RE.match(spec)
    if match is None:
        raise ExperimentError(
            f"malformed circuit family spec {spec!r}; expected "
            f"family(param=value,...)")
    family = _FAMILIES.canonical(match.group("family"))
    defaults = dict(_FAMILIES.entries[family].defaults)
    params = dict(defaults)
    seen = set()
    args = match.group("args").strip()
    for item in args.split(",") if args else ():
        name, sep, text = item.partition("=")
        name = name.strip()
        text = text.strip()
        if not sep or not name or not text:
            raise ExperimentError(
                f"circuit family spec {spec!r}: malformed argument "
                f"{item.strip()!r}; expected param=value")
        if name not in defaults:
            raise ExperimentError(
                f"circuit family {family!r} has no parameter {name!r}; "
                f"choose from {', '.join(defaults)}")
        if name in seen:
            raise ExperimentError(
                f"circuit family spec {spec!r}: parameter {name!r} "
                f"given twice")
        seen.add(name)
        params[name] = _parse_value(family, name, text, defaults[name])
    return family, params


def normalize_family_spec(spec: str) -> str:
    """The canonical spelling of a family spec.

    Every parameter explicit, declaration order, canonical family key —
    so any two spellings of the same circuit normalize (and hash)
    identically, and a later change of a family *default* cannot
    silently change what a stored result's key meant.
    """
    family, params = parse_family_spec(spec)
    entry = _FAMILIES.entries[family]
    args = ",".join(f"{name}={_spec_value(params[name])}"
                    for name, _ in entry.defaults)
    return f"{family}({args})"


def resolve_family_spec(spec: str) -> str:
    """Resolve a spec to its canonical circuit key, registering the
    instance circuit on first use.

    The instance is a new registration under a new name; no other
    registration changes, so warm caches keyed by content stay valid.
    """
    family, params = parse_family_spec(spec)
    entry = _FAMILIES.entries[family]
    canonical = normalize_family_spec(spec)
    if canonical not in _CIRCUITS.names:
        def build(entry=entry, params=params):
            return entry.factory(**params)

        instance = CircuitEntry(
            key=canonical, build=build,
            description=(entry.description or f"{family} family")
            + " instance",
            function=entry.function, family=family)
        _CIRCUITS.add(instance, replace=True)
    return canonical


#: BLIF registrations made in this process: canonical key -> the
#: captured source text + metadata.  This is the picklable record
#: worker processes replay (:func:`blif_registrations` /
#: :func:`restore_blif_registrations`), so ``--blif`` netlists survive
#: the ``spawn`` multiprocessing start method, where workers re-import
#: the registry and would otherwise only know the built-in circuits.
_BLIF_SOURCES: Dict[str, Dict[str, Any]] = {}


def register_blif_text(text: str, key: Optional[str] = None, *,
                       aliases: Tuple[str, ...] = (),
                       description: str = "",
                       replace: bool = False) -> CircuitEntry:
    """Register a combinational BLIF netlist from its source text.

    The text is parsed once, up front (so registration fails loudly on
    a malformed netlist); the factory then rebuilds the AIG from the
    captured text, which keeps ``build()`` deterministic like every
    other registration.

    Args:
        text: ``.names``-based combinational BLIF source (parsed by
            :func:`repro.circuits.blif.read_blif`).
        key: canonical circuit name; defaults to the ``.model`` name.
        aliases: additional accepted spellings.
        description: one line for CLI listings.
        replace: allow re-registering an existing key.

    Raises:
        ExperimentError: on a name collision.
        SynthesisError: on malformed BLIF.
    """
    from repro.circuits.blif import read_blif

    parsed = read_blif(text)  # validate before registering
    name = key or parsed.name

    def build(text=text):
        return read_blif(text)

    entry = register_circuit(
        name, build, aliases=aliases,
        description=description or "user BLIF netlist",
        function="User netlist (BLIF)", replace=replace)
    _BLIF_SOURCES[name] = {"text": text, "key": name,
                           "aliases": tuple(aliases),
                           "description": entry.description}
    return entry


def register_blif_circuit(path: str, key: Optional[str] = None, *,
                          aliases: Tuple[str, ...] = (),
                          description: str = "",
                          replace: bool = False) -> CircuitEntry:
    """Register a combinational BLIF netlist file as a named circuit.

    The file is read once at registration (later builds are hermetic
    against file edits); everything else is
    :func:`register_blif_text`.

    Raises:
        ExperimentError: on an unreadable file or name collision.
        SynthesisError: on malformed BLIF.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ExperimentError(f"cannot read BLIF file {path}: {exc}")
    return register_blif_text(
        text, key, aliases=aliases,
        description=description or f"BLIF netlist from {path}",
        replace=replace)


def blif_registrations() -> List[Dict[str, Any]]:
    """Picklable snapshot of every live BLIF registration.

    The parallel runner ships this to worker processes so a netlist
    registered at runtime is buildable there under any multiprocessing
    start method (under ``fork`` the workers inherit the registry
    anyway; under ``spawn`` this replay is what makes ``--blif`` +
    ``--jobs`` work).
    """
    return [dict(entry) for entry in _BLIF_SOURCES.values()]


def restore_blif_registrations(snapshot: List[Dict[str, Any]]) -> None:
    """Re-apply a :func:`blif_registrations` snapshot (worker side)."""
    for entry in snapshot:
        register_blif_text(entry["text"], entry["key"],
                           aliases=tuple(entry["aliases"]),
                           description=entry["description"],
                           replace=True)


# -- built-in registrations ---------------------------------------------------

#: The paper's Table 1 columns, in column-block order.
PAPER_LIBRARIES = (GENERALIZED, CONVENTIONAL, CMOS)

register_library(
    GENERALIZED,
    lambda vdd=None: generalized_cntfet_library(tech_at(CNTFET_32NM, vdd)),
    aliases=("generalized",),
    description="46-cell generalized ambipolar CNTFET library "
                "(transmission-gate XOR cells, Ben Jamaa et al. [3])")

register_library(
    CONVENTIONAL,
    lambda vdd=None: conventional_cntfet_library(tech_at(CNTFET_32NM, vdd)),
    aliases=("conventional",),
    description="20 conventional-function cells in the CNTFET technology")

register_library(
    CMOS,
    lambda vdd=None: cmos_library(tech_at(CMOS_32NM, vdd)),
    aliases=("cmos32",),
    description="32 nm bulk CMOS reference library")

register_library(
    HYBRID_PASS,
    lambda vdd=None: hybrid_pass_library(tech_at(CNTFET_32NM, vdd)),
    aliases=("hybrid", "hybrid-pass"),
    description="hybrid pass-transistor ambipolar demo library "
                "(after Hu et al., arXiv:2002.01932)")

register_library(
    NP_DYNAMIC,
    lambda vdd=None: np_dynamic_library(tech_at(CNTFET_32NM, vdd)),
    aliases=("np-dynamic", "np-domino"),
    description="NP-domino ambipolar demo library "
                "(after hybrid CMOS-CNFET logic, arXiv:1805.04074)")

# The 12 paper benchmarks and the built-in circuit families register
# themselves on import; importing them here makes `import
# repro.registry` alone see them.  These imports must stay last: both
# modules import the registration functions above from this (then
# partially-initialized) module.
from repro.circuits import families as _families  # noqa: E402,F401
from repro.circuits import suite as _suite  # noqa: E402,F401
