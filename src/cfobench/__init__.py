"""Deterministic central-force optimization engine and benchmark harness.

The engine flies a set of probes through a bounded decision space under
fitness-weighted attraction, with no random numbers anywhere in the core
update; identical configurations reproduce identical trajectories. The
package bundles analytic test objectives, antenna-directivity surrogate
objectives, a brute-force grid oracle, a line-protocol bridge to external
evaluator processes, and the cfo-bench command-line harness.
"""

from .engine import (
    CfoConfig,
    ConfigError,
    EngineError,
    InvariantError,
    RunRecord,
    compute_accelerations,
    d_avg,
    detect_davg_saturation,
    detect_fitness_saturation,
    detect_oscillation,
    init_probes,
    run,
)
from .objectives import Objective, ObjectiveError, get_objective, list_objectives
from .oracle import OracleResult, grid_oracle, refine
from .rng import NoiseState, SplitMix64, gaussian_batch, gaussian_deviate
from .space import DecisionSpace

__version__ = "1.0.0"

__all__ = [
    "CfoConfig",
    "ConfigError",
    "DecisionSpace",
    "EngineError",
    "InvariantError",
    "NoiseState",
    "Objective",
    "ObjectiveError",
    "OracleResult",
    "RunRecord",
    "SplitMix64",
    "compute_accelerations",
    "d_avg",
    "detect_davg_saturation",
    "detect_fitness_saturation",
    "detect_oscillation",
    "gaussian_batch",
    "gaussian_deviate",
    "get_objective",
    "grid_oracle",
    "init_probes",
    "list_objectives",
    "refine",
    "run",
    "__version__",
]
