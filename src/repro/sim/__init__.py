"""Gate-level simulation and circuit power estimation.

The paper estimates circuit power by applying 640 K random patterns to
the mapped netlists.  :mod:`repro.sim.arraysim` performs that simulation
64 patterns at a time on numpy uint64 words; :mod:`repro.sim.estimator`
turns the measured toggle rates and input-state statistics into the
four power components of Eq. 1, using the same pattern-classified
leakage data as the library characterization.
"""

from repro.sim.arraysim import SimulationStats
from repro.sim.activity import (
    activity_key,
    netlist_activity_key,
    pricing_group_key,
    simulation_stats,
)
from repro.sim.estimator import (
    BoundPricing,
    CircuitPowerReport,
    PricingModel,
    estimate_circuit_power,
    estimate_many,
)
from repro.sim.backends import (
    EstimatorBackend,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "SimulationStats",
    "activity_key",
    "netlist_activity_key",
    "pricing_group_key",
    "simulation_stats",
    "BoundPricing",
    "CircuitPowerReport",
    "PricingModel",
    "estimate_circuit_power",
    "estimate_many",
    "EstimatorBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
