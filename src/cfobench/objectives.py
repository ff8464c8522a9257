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
import shlex
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import ObjectiveError, antenna
from .rng import NoiseState, gaussian_deviate
from .space import DecisionSpace


@dataclass
class Objective:
    """evaluate_batch(rows, step=0) returns one float per row, evaluating the
    rows in order (a stateful objective consumes its stream in row order);
    step is the engine step. evaluate(x) is the batch of one row."""

    id: str
    bounds: DecisionSpace
    evaluate_batch: Callable
    evaluate: Optional[Callable] = None
    noise: Optional[NoiseState] = None
    close: Optional[Callable] = None

    def __post_init__(self):
        if self.evaluate is None:
            batch = self.evaluate_batch
            self.evaluate = lambda x: float(batch(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    @property
    def n_dims(self) -> int:
        return self.bounds.n_dims


def is_stateless(obj) -> bool:
    """True when obj has no noise stream and no close, so runs may share it:
    its values do not depend on the order of the calls it serves."""
    return getattr(obj, "noise", None) is None and getattr(obj, "close", None) is None


def row_loop(evaluate_row: Callable) -> Callable:
    """Batch form of the plain callable evaluate_row(x); an exception keeps
    its type and gets a failed_row attribute, the 1-based row number."""

    def evaluate_batch(rows, step=0):
        rows = np.asarray(rows, dtype=float)
        out = np.empty(len(rows))
        for i, x in enumerate(rows):
            try:
                out[i] = float(evaluate_row(x))
            except Exception as exc:
                exc.failed_row = i + 1
                raise
        return out

    return evaluate_batch


def batch_form(objective) -> Callable:
    """The objective's evaluate_batch; a plain callable f(x) is evaluated
    one row at a time."""
    batch = getattr(objective, "evaluate_batch", None)
    return row_loop(objective) if batch is None else batch


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
# antenna surrogate objectives: powers(rows) gives each row's radiated power
# and steering(rows) the batch's |F(theta0, phi0)|. pbm1 folds a batch's
# distinct lengths at once. Each other id's power(x) gives the row's key (its
# geometry coordinates) and the exact cheaper form of radiated_power's sum,
# which builds its pattern only when called: on a miss in the objective's memo.


def _antenna_objective(obj_id, powers, steering, bounds) -> Objective:
    """Directivity per row, with the bits of antenna.directivity."""

    def evaluate_batch(rows, step=0):
        rows = np.asarray(rows, dtype=float)
        total = powers(rows)
        amp = np.abs(steering(rows))
        return 4.0 * math.pi * amp * amp / total

    space = DecisionSpace.from_bounds(bounds)
    return Objective(id=obj_id, bounds=space, evaluate_batch=evaluate_batch)


def _pbm1_powers(rows):
    # |F| does not depend on phi; the first bad row raises as in row_loop
    lengths, inverse = np.unique(rows[:, 0], return_inverse=True)
    good = np.flatnonzero(lengths > 0.0)  # NaN is not
    power = np.zeros(len(lengths))
    for k in range(0, len(good), 256):  # temporaries of 512 KiB at most
        keys = good[k:k + 256]
        power[keys] = antenna.axisymmetric_power(
            lambda th, _: antenna.dipole_pattern(lengths[keys, None, None], th),
            antenna.DEFAULT_N_THETA, antenna.DEFAULT_N_PHI)
    power = power[inverse]
    if np.any(power == 0.0):
        i = int(np.argmax(power == 0.0))
        exc = (antenna.DegeneratePatternError("degenerate pattern: no radiated power")
               if rows[i, 0] > 0.0 else ValueError("dipole length must be > 0"))
        exc.failed_row = i + 1
        raise exc
    return power


def _make_pbm1(obj_id) -> Objective:
    return _antenna_objective(obj_id, _pbm1_powers,
                              lambda rows: antenna.dipole_pattern(rows[:, 0], rows[:, 1]),
                              [(0.5, 3.0), (0.0, math.pi / 2)])


def _antenna_factory(power, steering, bounds):
    """_antenna_objective with each row's power through radiated_power, with
    its power key and a memo the objective owns (a hit on a repeat)."""

    def factory(obj_id):
        memo = {}

        def row_power(x):
            key, mesh_sum = power(x)
            total = antenna.radiated_power(None, power_key=key, mesh_sum=mesh_sum, memo=memo)
            if total == 0.0:
                raise antenna.DegeneratePatternError("degenerate pattern: no radiated power")
            return total

        return _antenna_objective(obj_id, row_loop(row_power), steering, bounds)

    return factory


def _make_pbm2(obj_id) -> Objective:
    # |F| depends on cos(theta) and sin(theta) cos(phi) only, through even
    # functions; the octant tables and buffers are built on the first miss
    line = antenna.UniformLinePower()

    def power(x):
        d = float(x[0])
        return (d,), lambda n_theta, n_phi: line.power(d, 10, n_theta, n_phi)

    def steering(rows):
        return antenna.uniform_line_field(rows[:, 0], 10, rows[:, 1], math.pi / 2)

    return _antenna_factory(power, steering, [(5.0, 15.0), (0.0, math.pi)])(obj_id)


def _make_pbm3(obj_id) -> Objective:
    # the ring's positions do not depend on beta: one spec and one coupling
    # matrix (built on the first miss) serve every row
    ring = antenna.circular_array_spec(0.0)
    coupling = antenna.CouplingMatrix(ring)

    def power(x):
        beta = float(x[0])
        return (beta,), lambda n_theta, n_phi: coupling.power(
            antenna.ring_excitations(beta), n_theta, n_phi)

    def steering(rows):
        # one array pass at theta = x[1], phi = 0; the excitations stay one
        # scalar ring_excitations call per row
        excitations = np.array([antenna.ring_excitations(float(b)) for b in rows[:, 0]],
                               dtype=complex).reshape(len(rows), antenna.RING_ELEMENTS)
        return antenna.array_pattern_rows(ring, excitations, rows[:, 1], np.float64(0.0))

    return _antenna_factory(power, steering, [(0.0, 4.0), (0.0, math.pi)])(obj_id)


def _make_pbm5(obj_id, n_elements=10) -> Objective:
    if not isinstance(n_elements, (int, np.integer)) or n_elements < 2:
        raise ObjectiveError("pbm5: n_elements must be an integer >= 2")
    # at broadside (theta = pi/2, phi = 0) ry is exactly 0 and every element
    # sits on the y axis, so each element phase is a signed zero and |F|
    # depends on the element count only: one pattern call serves every row
    broadside = antenna.array_pattern(antenna.collinear_array_spec(np.ones(n_elements - 1)))
    amp = broadside(np.float64(math.pi / 2), np.float64(0.0))
    # in-phase y-dipoles on the y axis: |F| depends on sin(theta) sin(phi) only,
    # and is even in it; the triangle tables are built on the first miss
    stack = antenna.CollinearPower()

    def power(x):
        return tuple(x.tolist()), lambda n_theta, n_phi: stack.power(
            antenna.collinear_array_spec(x), n_theta, n_phi)

    return _antenna_factory(power, lambda rows: np.full(len(rows), amp),
                            [(0.5, 1.5)] * (n_elements - 1))(obj_id)


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
    if isinstance(command, str):
        try:
            command = shlex.split(command)
        except ValueError as exc:
            raise ObjectiveError(f"external: command: {exc}") from None
    if not (isinstance(command, list) and command
            and all(isinstance(part, str) for part in command)):
        raise ObjectiveError("external: command must be a nonempty string "
                             "or a nonempty list of strings")
    if (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
            or not 0 < timeout < math.inf):
        raise ObjectiveError("external: timeout must be a positive finite number of seconds")
    if bounds is None:
        raise ObjectiveError("external: bounds are required")
    space = DecisionSpace.from_bounds(bounds)
    client = ExternalObjective(command, timeout=timeout)
    return Objective(id=obj_id, bounds=space,
                     evaluate_batch=lambda rows, step=0: np.array(client.evaluate(rows.tolist(), step)),
                     close=client.close)


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

        return Objective(id=obj_id, bounds=space, evaluate_batch=evaluate_batch)

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
    "pbm1": _make_pbm1,
    "pbm2": _make_pbm2,
    "pbm3": _make_pbm3,
    "pbm4": _make_pbm4,
    "pbm5": _make_pbm5,
    "external": _make_external,
}


def list_objectives() -> list:
    return sorted(REGISTRY)


def get_objective(obj_id: str, /, **options) -> Objective:
    """Build a registered objective; a noise option wraps it in Gaussian noise.

    obj_id is looked up exactly as list_objectives() spells it. noise =
    {"seed": int, "sigma": float, "mu": float}, with NoiseState's sigma and
    mu as the defaults, sigma finite and >= 0 and mu finite; any noise that
    is not None is a request and must have that form. An option the id's
    factory does not take is an ObjectiveError.
    """
    factory = REGISTRY.get(obj_id)
    if factory is None:
        raise ObjectiveError(f"unknown objective id {obj_id!r}; "
                             f"expected one of {', '.join(list_objectives())}")
    noise_opt = options.pop("noise", None)
    params = list(inspect.signature(factory).parameters.values())[1:]  # after the id
    unknown = sorted(set(options) - {p.name for p in params})
    if unknown and not any(p.kind is p.VAR_KEYWORD for p in params):
        raise ObjectiveError(f"{obj_id}: unknown options {unknown}")
    if noise_opt is not None:
        if obj_id == "external":
            raise ObjectiveError("external: noise is not supported; add it in the evaluator")
        if not (isinstance(noise_opt, dict) and "seed" in noise_opt
                and set(noise_opt) <= {"seed", "sigma", "mu"}):
            raise ObjectiveError(f"{obj_id}: noise must be an object with a seed and optional sigma, mu")
        noise = {"sigma": NoiseState.sigma, "mu": NoiseState.mu, **noise_opt}
        if isinstance(noise["seed"], bool) or not isinstance(noise["seed"], int):
            raise ObjectiveError(f"{obj_id}: noise.seed must be an integer")
        for name in ("sigma", "mu"):
            if isinstance(noise[name], bool) or not isinstance(noise[name], (int, float)):
                raise ObjectiveError(f"{obj_id}: noise.{name} must be a number")
        # comparisons, not math.isfinite, which overflows on a huge int
        if not 0.0 <= noise["sigma"] <= sys.float_info.max:
            raise ObjectiveError(f"{obj_id}: noise.sigma must be a finite number >= 0")
        if not abs(noise["mu"]) <= sys.float_info.max:
            raise ObjectiveError(f"{obj_id}: noise.mu must be a finite number")
    obj = factory(obj_id, **options)
    if noise_opt is not None:
        obj = with_noise(obj, sigma=float(noise["sigma"]), seed=noise["seed"],
                         mu=float(noise["mu"]))
    return obj


def with_noise(obj: Objective, sigma: float, seed: int, mu: float = NoiseState.mu) -> Objective:
    """Additive Gaussian noise on the returned fitness, from a seeded stream.

    The noisy objective is stateful: a batch evaluates the base rows, then
    draws their deviates, one per row in row order, in one call, so n rows
    in one batch consume the stream exactly as n batches of one row do.
    """
    state = NoiseState.seeded(seed, mu=mu, sigma=sigma)
    base_batch = obj.evaluate_batch

    def evaluate_batch(rows, step=0):
        values = base_batch(rows, step=step)
        return values + gaussian_deviate(state, len(values))

    return replace(obj, evaluate_batch=evaluate_batch, evaluate=None, noise=state)
