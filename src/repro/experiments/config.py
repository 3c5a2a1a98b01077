"""Experiment configuration.

The paper's operating point (Section 4): VDD = 0.9 V, f = 1 GHz, fanout
of 3 for library characterization, 640 K random patterns for circuit
power estimation.  ``PAPER_CONFIG`` pins those values; tests and
benchmark harnesses use scaled-down pattern counts for speed, which is
explicitly recorded in their results.

Estimation itself is pluggable: ``backend`` names the registered
estimator backend (:mod:`repro.sim.backends`) that turns a mapped
netlist into a power report — ``"bitsim"`` is the paper's
random-pattern method.  The field rides through ``to_dict`` /
``from_dict`` and therefore into sweep task keys, so stored results
never mix backends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict

from repro.errors import ExperimentError
from repro.power.model import PowerParameters

#: The class default of ``state_patterns`` (leakage-state histogram
#: budget); :meth:`ExperimentConfig.scaled` re-derives clamps from it.
DEFAULT_STATE_PATTERNS = 65_536


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproduction run needs to be deterministic."""

    vdd: float = 0.9
    frequency: float = 1.0e9
    fanout: int = 3
    n_patterns: int = 640_000
    state_patterns: int = DEFAULT_STATE_PATTERNS
    seed: int = 2010
    synthesize: bool = True       # run resyn2rs before mapping
    mapper_cut_size: int = 5
    mapper_cut_limit: int = 8
    mapper_area_rounds: int = 2
    backend: str = "bitsim"       # registered estimator backend key

    def __post_init__(self) -> None:
        if self.n_patterns < 1:
            raise ExperimentError(
                f"n_patterns must be >= 1, got {self.n_patterns}")
        if self.state_patterns < 1:
            raise ExperimentError(
                f"state_patterns must be >= 1, got {self.state_patterns}")

    @property
    def power_parameters(self) -> PowerParameters:
        """The Eq. 2-5 operating conditions."""
        return PowerParameters(vdd=self.vdd, frequency=self.frequency,
                               fanout=self.fanout)

    def scaled(self, n_patterns: int) -> "ExperimentConfig":
        """Copy with a different pattern budget (for fast test runs).

        ``state_patterns`` follows the budget: an *explicit* state
        budget — any value other than the derived clamp
        ``min(n_patterns, default)`` — is preserved (still capped at
        the new budget), while a value that merely tracked the clamp is
        re-derived as ``min(default, n_patterns)``.  Scaling a fast
        config back up therefore restores the default state budget
        instead of silently keeping the stale down-clamp, and an
        explicitly raised budget survives rescaling too.
        """
        derived_clamp = min(self.n_patterns, DEFAULT_STATE_PATTERNS)
        if self.state_patterns == derived_clamp:
            state_patterns = min(DEFAULT_STATE_PATTERNS, n_patterns)
        else:
            state_patterns = min(self.state_patterns, n_patterns)
        return replace(self, n_patterns=n_patterns,
                       state_patterns=state_patterns)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (sweep stores persist this with every point)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; rejects unknown fields.

        Absent fields take their defaults, so configs stored before a
        field existed (e.g. ``backend``) load with today's semantics.
        """
        known = {field.name for field in fields(cls)}
        # A removed execution knob that never changed an answer (and
        # never entered a key); older sweep stores and clients send it.
        unknown = sorted(set(data) - known - {"sim_kernel"})
        if unknown:
            raise ExperimentError(
                f"unknown ExperimentConfig fields: {', '.join(unknown)}")
        return cls(**{name: data[name] for name in known & set(data)})


#: The paper's configuration.
PAPER_CONFIG = ExperimentConfig()

#: A fast configuration for unit tests and CI-style benchmark runs.
FAST_CONFIG = ExperimentConfig(n_patterns=16_384, state_patterns=16_384)
