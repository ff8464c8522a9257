"""Deterministic central-force optimization engine and benchmark harness.

The engine flies a set of probes through a bounded decision space under
fitness-weighted attraction, with no random numbers anywhere in the core
update; identical configurations reproduce identical trajectories. The
package bundles analytic test objectives, antenna-directivity surrogate
objectives, a brute-force grid oracle, a line-protocol bridge to external
evaluator processes, and the cfo-bench command-line harness.

The exports below are imported from their submodules on first access, so
importing the package (or ``cfobench.external``, which an external
evaluator child runs) does not import numpy.
"""

from importlib import import_module

__version__ = "1.0.0"


class ObjectiveError(ValueError):
    """Unknown objective id or unusable objective options."""


_EXPORTS = {  # name: submodule that defines it
    "CfoConfig": "engine",
    "ConfigError": "engine",
    "EngineError": "engine",
    "InvariantError": "engine",
    "RunRecord": "engine",
    "compute_accelerations": "engine",
    "d_avg": "engine",
    "detect_fitness_saturation": "engine",
    "init_probes": "engine",
    "run": "engine",
    "Objective": "objectives",
    "get_objective": "objectives",
    "list_objectives": "objectives",
    "OracleResult": "oracle",
    "grid_oracle": "oracle",
    "refine": "oracle",
    "NoiseState": "rng",
    "SplitMix64": "rng",
    "gaussian_deviate": "rng",
    "DecisionSpace": "space",
}

__all__ = sorted([*_EXPORTS, "ObjectiveError"]) + ["__version__"]


def __getattr__(name):
    # an AttributeError for any other name lets `from cfobench import cli`
    # fall through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
