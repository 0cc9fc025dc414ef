"""Scheduling with testing on a single machine.

Jobs carry a public upper limit and a hidden processing time; a unit-time
test reveals the time and unlocks running the job at its true length,
while an untested run always costs the full limit.  The package provides
the online strategies for this model, an engine that enforces the
information protocol, exact offline optima, hard instance families, and
the closed-form analysis of every competitive ratio involved.
"""

from .algorithms import (
    ConfigurationError,
    OnlineAlgorithm,
    build_algorithm,
    parse_algorithm,
)
from .core import (
    Instance,
    InstanceError,
    Job,
    Trace,
    TraceError,
    cost_of_trace,
    load_instance,
    load_trace,
    validate_instance,
)
from .engine import (
    AdaptiveSource,
    ProtocolError,
    StaticSource,
    run,
    run_expected,
)
from .offline import (
    OptPlan,
    brute_force_optimum,
    optimal_makespan,
    optimal_sum,
)

__all__ = [
    "AdaptiveSource",
    "ConfigurationError",
    "Instance",
    "InstanceError",
    "Job",
    "OnlineAlgorithm",
    "OptPlan",
    "ProtocolError",
    "StaticSource",
    "Trace",
    "TraceError",
    "brute_force_optimum",
    "build_algorithm",
    "cost_of_trace",
    "load_instance",
    "load_trace",
    "optimal_makespan",
    "optimal_sum",
    "parse_algorithm",
    "run",
    "run_expected",
    "validate_instance",
]

__version__ = "0.1.0"
