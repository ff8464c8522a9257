"""Maximization objectives: analytic test functions and antenna surrogates.

Every objective is registered under a lowercase id with default bounds.
Minimization classics are negated so the documented optimum is always a
maximum. Functions embedding nonzero offsets in the benchmark suite are
registered twice: the plain textbook form under the base id and the offset
form under <id>_shifted.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import antenna
from .rng import NoiseState, gaussian_deviate
from .space import DecisionSpace


class ObjectiveError(ValueError):
    """Unknown objective id or unusable objective options."""


@dataclass
class Objective:
    """evaluate_batch(rows, step=0) returns one float per row, evaluating the
    rows in order (a stateful objective consumes its stream in row order);
    step is the engine step. evaluate(x) is the batch of one row."""

    id: str
    n_dims: int
    bounds: DecisionSpace
    evaluate_batch: Callable
    evaluate: Optional[Callable] = None
    noise: Optional[NoiseState] = None
    close: Optional[Callable] = None

    def __post_init__(self):
        if self.evaluate is None:
            batch = self.evaluate_batch
            self.evaluate = lambda x: float(batch(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def row_loop(evaluate_row: Callable) -> Callable:
    """Batch form of evaluate_row(x, step, probe), probe being the 1-based
    row number; an exception keeps its type and gets a failed_row attribute."""

    def evaluate_batch(rows, step=0):
        rows = np.asarray(rows, dtype=float)
        out = np.empty(len(rows))
        for i, x in enumerate(rows):
            try:
                out[i] = float(evaluate_row(x, step, i + 1))
            except Exception as exc:
                exc.failed_row = i + 1
                raise
        return out

    return evaluate_batch


def batch_form(objective) -> Callable:
    """The objective's evaluate_batch; a plain callable, or an object with
    only evaluate, is evaluated one row at a time."""
    batch = getattr(objective, "evaluate_batch", None)
    if batch is not None:
        return batch
    evaluate = getattr(objective, "evaluate", objective)
    return row_loop(lambda x, _step, _probe: evaluate(x))


def _shift_rows(rows_fn, offsets):
    off = np.asarray(offsets, dtype=float)
    return lambda X: rows_fn(np.asarray(X, dtype=float) - off)


# ---------------------------------------------------------------------------
# analytic test functions (row-vectorized)


def _parrott_f4_rows(X):
    x = X[:, 0]
    envelope = np.exp(-2.0 * math.log(2.0) * ((x - 0.08) / 0.854) ** 2)
    # max(x, 0) keeps the fractional power finite for out-of-domain probes
    lobe = np.sin(5.0 * math.pi * (np.maximum(x, 0.0) ** 0.75 - 0.05)) ** 6
    return envelope * lobe


def _sgo_rows(X):
    return -np.sum(X ** 4 - 16.0 * X ** 2 + 0.5 * X, axis=1)


def _gp_rows(X):
    x1, x2 = X[:, 0], X[:, 1]
    t1 = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1 ** 2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 ** 2
    )
    t2 = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1 ** 2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 ** 2
    )
    return -(t1 * t2)


def _step_rows(X):
    return -np.sum(np.floor(X + 0.5) ** 2, axis=1)


def _schwefel_rows(X):
    return np.sum(X * np.sin(np.sqrt(np.abs(X))), axis=1)


def _colville_rows(X):
    x1, x2, x3, x4 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    val = (
        100.0 * (x2 - x1 ** 2) ** 2
        + (1.0 - x1) ** 2
        + 90.0 * (x4 - x3 ** 2) ** 2
        + (1.0 - x3) ** 2
        + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
        + 19.8 * (x2 - 1.0) * (x4 - 1.0)
    )
    return -val


def _griewank_rows(X):
    idx = np.sqrt(np.arange(1, X.shape[1] + 1, dtype=float))
    return -(np.sum(X ** 2, axis=1) / 4000.0 - np.prod(np.cos(X / idx), axis=1) + 1.0)


def _himmelblau_rows(X):
    x1, x2 = X[:, 0], X[:, 1]
    return 200.0 - (x1 ** 2 + x2 - 11.0) ** 2 - (x1 + x2 ** 2 - 7.0) ** 2


# ---------------------------------------------------------------------------
# antenna surrogate objectives: each id is two functions. power(x) gives the
# row's power-cache key and the exact cheaper form of radiated_power's sum on
# the same nodes; the form builds its pattern only when called, which
# radiated_power does only on a cache miss. steering(rows) gives
# |F(theta0, phi0)| for the whole batch.


def _folded(fold, pattern, *args):
    """The power form fold(pattern(*args), n_theta, n_phi)."""
    return lambda n_theta, n_phi: fold(pattern(*args), n_theta, n_phi)


def _dipole(length):
    return lambda th, _ph: antenna.dipole_pattern(length, th)


def _pbm1_power(x):
    # the dipole's |F| does not depend on phi
    length = float(x[0])
    return ("pbm1", length), _folded(antenna.axisymmetric_power, _dipole, length)


def _pbm1_steering(rows):
    return antenna.dipole_pattern(rows[:, 0], rows[:, 1])


def _pbm2_power(x):
    # |F| depends on cos(theta) and sin(theta) cos(phi) only, through even functions
    d = float(x[0])
    return ("pbm2", 10, d), _folded(antenna.octant_power, antenna.uniform_line_pattern, d, 10)


def _pbm2_steering(rows):
    return antenna.uniform_line_field(rows[:, 0], 10, rows[:, 1], math.pi / 2)


def _collinear_pattern(spacings):
    return antenna.array_pattern(antenna.collinear_array_spec(spacings))


def _pbm5_power(x):
    # in-phase y-dipoles on the y axis: |F| depends on sin(theta) sin(phi) only,
    # and is even in it because the excitations are real
    key = ("pbm5",) + tuple(float(v) for v in x)
    return key, _folded(antenna.octant_power, _collinear_pattern, x)


def _pbm5_steering(rows):
    # one scalar pattern call per row, broadside at theta = pi/2, phi = 0
    return np.array([_collinear_pattern(x)(np.float64(math.pi / 2), np.float64(0.0)) for x in rows])


def _antenna_factory(power, steering, bounds):
    """Directivity per row, with the bits of antenna.directivity: each row's
    power goes through radiated_power with its power key (a cache hit on a
    repeat), then steering(rows) gives the batch's amplitudes."""

    def factory(obj_id):
        def evaluate_batch(rows, step=0):
            rows = np.asarray(rows, dtype=float)
            total = np.empty(len(rows))
            for i, x in enumerate(rows):
                try:
                    key, mesh_sum = power(x)
                    total[i] = antenna.radiated_power(None, power_key=key, mesh_sum=mesh_sum)
                    if total[i] == 0.0:
                        raise antenna.DegeneratePatternError("degenerate pattern: no radiated power")
                except Exception as exc:
                    exc.failed_row = i + 1
                    raise
            amp = np.abs(steering(rows))
            return 4.0 * math.pi * amp * amp / total

        space = DecisionSpace.from_bounds(bounds)
        return Objective(id=obj_id, n_dims=space.n_dims, bounds=space,
                         evaluate_batch=evaluate_batch)

    return factory


def _make_pbm3(obj_id) -> Objective:
    # the ring's positions do not depend on beta: one spec and one coupling
    # matrix (built on the first miss) serve every row, which makes only its
    # excitations
    ring = antenna.circular_array_spec(0.0)
    coupling = antenna.CouplingMatrix(ring)

    def power(x):
        beta = float(x[0])
        return ("pbm3", beta), lambda n_theta, n_phi: coupling.power(
            antenna.ring_excitations(beta), n_theta, n_phi)

    def steering(rows):
        # one scalar pattern call per row, at theta = x[1], phi = 0
        amp = np.empty(len(rows))
        for i, x in enumerate(rows):
            spec = replace(ring, excitations=antenna.ring_excitations(float(x[0])))
            amp[i] = antenna.array_pattern(spec)(x[1], np.float64(0.0))
        return amp

    return _antenna_factory(power, steering, [(0.0, 4.0), (0.0, math.pi)])(obj_id)


def _make_pbm5(obj_id, n_elements=10) -> Objective:
    if not isinstance(n_elements, (int, np.integer)) or n_elements < 2:
        raise ObjectiveError("pbm5: n_elements must be an integer >= 2")
    return _antenna_factory(_pbm5_power, _pbm5_steering, [(0.5, 1.5)] * (n_elements - 1))(obj_id)


def _make_pbm4(obj_id, /, **_options):
    raise ObjectiveError(
        "pbm4 has no analytic surrogate (the landscape is dominated by "
        "full-wave arm interaction); evaluate it through the external "
        "objective protocol instead"
    )


# ---------------------------------------------------------------------------
# registry: every factory takes the objective id, then its options by name;
# get_objective checks the option names against the factory's signature


def _make_external(obj_id, command=None, timeout=60.0, bounds=None) -> Objective:
    from .external import ExternalObjective

    if command is None:
        raise ObjectiveError("external: a command is required")
    if bounds is None:
        raise ObjectiveError("external: bounds are required")
    space = DecisionSpace.from_bounds(bounds)
    client = ExternalObjective(command, timeout=timeout)
    return Objective(id=obj_id, n_dims=space.n_dims, bounds=space,
                     evaluate_batch=row_loop(client.evaluate), close=client.close)


def _analytic_factory(rows_fn, bounds, offsets=None, dims_option=False):
    def factory(obj_id, n_dims=None):
        fn = rows_fn if offsets is None else _shift_rows(rows_fn, offsets)
        b = bounds
        if n_dims is not None and (isinstance(n_dims, bool)
                                   or not isinstance(n_dims, (int, np.integer)) or n_dims < 1):
            raise ObjectiveError(f"{obj_id}: n_dims must be an integer >= 1")
        if dims_option:
            b = [bounds[0]] * (len(bounds) if n_dims is None else int(n_dims))
        elif n_dims is not None and n_dims != len(bounds):
            raise ObjectiveError(f"{obj_id}: dimensionality is fixed at {len(bounds)}")
        space = DecisionSpace.from_bounds(b)

        def evaluate_batch(rows, step=0):
            return np.asarray(fn(np.asarray(rows, dtype=float)), dtype=float)

        return Objective(id=obj_id, n_dims=space.n_dims, bounds=space,
                         evaluate_batch=evaluate_batch)

    return factory


REGISTRY: dict = {
    "parrott_f4": _analytic_factory(_parrott_f4_rows, [(0.0, 1.0)]),
    "sgo": _analytic_factory(_sgo_rows, [(-5.0, 5.0)] * 2),
    "sgo_shifted": _analytic_factory(_sgo_rows, [(-50.0, 50.0)] * 2, offsets=(40.0, 10.0)),
    "gp": _analytic_factory(_gp_rows, [(-2.0, 2.0)] * 2),
    "gp_shifted": _analytic_factory(_gp_rows, [(-100.0, 100.0)] * 2, offsets=(20.0, -10.0)),
    "step": _analytic_factory(_step_rows, [(-100.0, 100.0)] * 2, dims_option=True),
    "step_shifted": _analytic_factory(_step_rows, [(-100.0, 100.0)] * 2, offsets=(75.0, 35.0)),
    "schwefel_226": _analytic_factory(_schwefel_rows, [(-500.0, 500.0)] * 30, dims_option=True),
    "colville": _analytic_factory(_colville_rows, [(-10.0, 10.0)] * 4),
    "colville_shifted": _analytic_factory(_colville_rows, [(-10.0, 10.0)] * 4, offsets=(7.123,) * 4),
    "griewank": _analytic_factory(_griewank_rows, [(-600.0, 600.0)] * 2, dims_option=True),
    "griewank_shifted": _analytic_factory(_griewank_rows, [(-600.0, 600.0)] * 2,
                                          offsets=(75.123, 75.123)),
    "himmelblau": _analytic_factory(_himmelblau_rows, [(-6.0, 6.0)] * 2),
    "neg_sum_squares": _analytic_factory(lambda X: -np.sum(X ** 2, axis=1), [(-5.0, 5.0)] * 3,
                                         dims_option=True),
    "pbm1": _antenna_factory(_pbm1_power, _pbm1_steering, [(0.5, 3.0), (0.0, math.pi / 2)]),
    "pbm2": _antenna_factory(_pbm2_power, _pbm2_steering, [(5.0, 15.0), (0.0, math.pi)]),
    "pbm3": _make_pbm3,
    "pbm4": _make_pbm4,
    "pbm5": _make_pbm5,
    "external": _make_external,
}


def list_objectives() -> list:
    return sorted(REGISTRY)


def get_objective(obj_id: str, /, **options) -> Objective:
    """Build a registered objective; a noise option wraps it in Gaussian noise.

    noise = {"seed": int, "sigma": float (default 0.4472), "mu": float}; any
    noise that is not None is a request and must have that form. An option
    the id's factory does not take is an ObjectiveError.
    """
    key = str(obj_id).strip().lower()
    factory = REGISTRY.get(key)
    if factory is None:
        raise ObjectiveError(f"unknown objective id {obj_id!r}")
    noise_opt = options.pop("noise", None)
    params = list(inspect.signature(factory).parameters.values())[1:]  # after the id
    unknown = sorted(set(options) - {p.name for p in params})
    if unknown and not any(p.kind is p.VAR_KEYWORD for p in params):
        raise ObjectiveError(f"{key}: unknown options {unknown}")
    if noise_opt is not None:
        if key == "external":
            raise ObjectiveError("external: noise is not supported; add it in the evaluator")
        if not (isinstance(noise_opt, dict) and "seed" in noise_opt
                and set(noise_opt) <= {"seed", "sigma", "mu"}):
            raise ObjectiveError(f"{key}: noise must be an object with a seed and optional sigma, mu")
        noise = {"sigma": 0.4472, "mu": 0.0, **noise_opt}
        if isinstance(noise["seed"], bool) or not isinstance(noise["seed"], int):
            raise ObjectiveError(f"{key}: noise.seed must be an integer")
        for name in ("sigma", "mu"):
            if isinstance(noise[name], bool) or not isinstance(noise[name], (int, float)):
                raise ObjectiveError(f"{key}: noise.{name} must be a number")
    obj = factory(key, **options)
    if noise_opt is not None:
        obj = with_noise(obj, sigma=float(noise["sigma"]), seed=noise["seed"],
                         mu=float(noise["mu"]))
    return obj


def with_noise(obj: Objective, sigma: float, seed: int, mu: float = 0.0) -> Objective:
    """Additive Gaussian noise on the returned fitness, from a seeded stream.

    The noisy objective is stateful: a batch evaluates the base rows, then
    draws one deviate per row in row order, so n rows in one batch consume
    the stream exactly as n batches of one row do.
    """
    state = NoiseState.seeded(seed, mu=mu, sigma=sigma)
    base_batch = obj.evaluate_batch

    def evaluate_batch(rows, step=0):
        return np.array([v + gaussian_deviate(state) for v in base_batch(rows, step=step)])

    return replace(obj, evaluate_batch=evaluate_batch, evaluate=None, noise=state)
