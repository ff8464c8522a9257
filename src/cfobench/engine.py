"""Deterministic central-force optimizer.

Probes with recorded fitness values attract each other: a probe accelerates
toward every probe whose fitness exceeds its own, with a coupling that grows
with the fitness gap and decays with distance. run() is one loop, the
one-run case of run_group(), which steps a group of runs in lockstep over
one set of step arrays with a leading run axis (_Step): move the probes by
the half-a-t-squared kinematic update, pull probes that left the box back
inside by the repositioning factor, evaluate them (one call on the whole
group's rows when the runs share one stateless objective, else each run's
objective with its own rows), fold the values into the running bests, the
saved-best rings and the repositioning factors in group arrays, then
compute the next accelerations. Each numpy call of the step serves the
whole group, and each run's record is the bytes it gets alone. A fitness
saturation detector diagnoses convergence. Every run starts at zero
acceleration, and with a fixed noise seed the whole trajectory is a pure
function of the inputs.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .objectives import batch_form
from .space import DecisionSpace

# Distances below this fraction of the space diagonal count as coincident
# probes and the pair is skipped in the force sum.
COINCIDENT_REL_TOL = 1e-14

_SCHEMES = ("custom", "grid_2d", "off_diagonal", "on_axis")


class ConfigError(ValueError):
    """A run configuration field failed validation."""


class EngineError(RuntimeError):
    """A run could not go on: an objective evaluation failed or gave a bad
    value, or the force update overflowed into NaN accelerations."""


class InvariantError(RuntimeError):
    """An internal engine invariant was violated (a bug, not a user error)."""


def _check_scheme(name: str) -> None:
    if name not in _SCHEMES:
        raise ConfigError(f"init_scheme: unknown scheme {name!r}; "
                          f"expected one of {', '.join(_SCHEMES)}")


@dataclass
class CfoConfig:
    """Run parameters. Defaults follow the benchmark convention

    g=2, delta_t=1, alpha=beta=2, repositioning factor starting at 0.5 and
    stepped by 0.005 whenever the saved-best ring flattens out.

    The field declarations are the config's JSON schema: from_json reads a
    cfo block by them, and to_dict echoes them into record.json.
    """

    n_probes: int
    n_steps: int
    g: float = 2.0
    delta_t: float = 1.0
    alpha: float = 2.0
    beta: float = 2.0
    init_scheme: str = "on_axis"
    gamma: float = 0.5
    initial_probes: Optional[np.ndarray] = None
    frep_init: float = 0.5
    frep_increment: float = 0.005
    fit_tol: float = 0.0005
    n_saved: int = 5
    n_sat: int = 3
    n_avg_steps: int = 50
    fitness_sat_tol: float = 1e-5
    early_termination: bool = False

    @classmethod
    def from_json(cls, block: dict) -> "CfoConfig":
        """Build a config from a parsed JSON cfo block, checking each value
        against its field's declared type."""
        unknown = sorted(set(block) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"cfo: unknown field(s) {unknown}")
        return cls(**{name: _read_json(name, _FIELD_TYPES[name], value)
                      for name, value in block.items()})

    def validate(self, space: DecisionSpace) -> None:
        if int(self.n_probes) < 2:
            raise ConfigError("n_probes: need at least 2 probes")
        if int(self.n_steps) < 1:
            raise ConfigError("n_steps: need at least 1 step")
        if not self.delta_t > 0:
            raise ConfigError("delta_t: must be > 0")
        if not math.isfinite(self.delta_t * self.delta_t):
            raise ConfigError("delta_t: its square must be a finite number")
        if not self.alpha > 0:
            raise ConfigError("alpha: must be > 0")
        if not self.beta > 0:
            raise ConfigError("beta: must be > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma: must lie in [0, 1]")
        if not 0.0 < self.frep_init <= 1.0:
            raise ConfigError("frep_init: must lie in (0, 1]")
        if not self.frep_increment > 0:
            raise ConfigError("frep_increment: must be > 0")
        if not (self.n_saved >= self.n_sat >= 1):
            raise ConfigError("n_saved/n_sat: need n_saved >= n_sat >= 1")
        if self.n_avg_steps < 1:
            raise ConfigError("n_avg_steps: must be >= 1")
        if not self.fitness_sat_tol >= 0:
            raise ConfigError("fitness_sat_tol: must be >= 0")
        _check_scheme(self.init_scheme)
        if self.init_scheme == "custom" and self.initial_probes is None:
            raise ConfigError("initial_probes: required for the custom scheme")
        self._validate_scheme(self.init_scheme, space)

    def _validate_scheme(self, scheme: str, space: DecisionSpace) -> None:
        n_p, n_d = int(self.n_probes), space.n_dims
        if scheme == "on_axis":
            if n_p % n_d != 0 or n_p // n_d < 2:
                raise ConfigError(
                    "n_probes: on-axis init needs n_probes divisible by n_dims "
                    "with at least 2 probes per axis"
                )
        elif scheme == "grid_2d":
            side = math.isqrt(n_p)
            if n_d != 2 or side * side != n_p:
                raise ConfigError(
                    "n_probes: 2-D grid init needs n_dims = 2 and a perfect-square n_probes"
                )
        elif scheme == "custom":
            pts = np.asarray(self.initial_probes, dtype=float)
            if pts.shape != (n_p, n_d):
                raise ConfigError(
                    f"initial_probes: expected shape ({n_p}, {n_d}), got {pts.shape}"
                )
            if not space.contains(pts):
                raise ConfigError("initial_probes: a custom point lies outside the bounds")

    def to_dict(self) -> dict:
        """Every field that has a value, cast to its declared type."""
        return {name: _ECHO[kind](getattr(self, name))
                for name, kind in _FIELD_TYPES.items() if getattr(self, name) is not None}


_FIELD_TYPES = get_type_hints(CfoConfig)
_ECHO = {int: int, float: float, bool: bool, str: str,
         Optional[np.ndarray]: lambda a: np.asarray(a, dtype=float).tolist()}
_JSON_NAMES = {bool: "boolean", str: "string"}


def _read_json(name: str, kind, value):
    """One cfo block value as its field's declared type, or a ConfigError."""
    if kind == Optional[np.ndarray]:
        if value is None:
            return None
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cfo.{name}: not a numeric array ({exc})") from None
    if kind in _JSON_NAMES:
        if not isinstance(value, kind):
            raise ConfigError(f"cfo.{name}: must be a {_JSON_NAMES[kind]}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"cfo.{name}: must be a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"cfo.{name}: must be an integer")
    return kind(value)


@dataclass
class RunRecord:
    """Everything a finished run reports.

    best_fitness is the running (nondecreasing) best; step_best_fitness is
    the best value found within each individual step, which is what the
    saturation detector and the fitness output files use. Probe numbers are
    1-based, step numbers 0-based with step 0 the initial distribution.
    """

    config: dict
    bounds: list
    best_fitness: list
    step_best_fitness: list
    best_probe: list
    d_avg: list
    frep: list
    n_eval: list
    best_point: np.ndarray
    final_best_fitness: float
    final_best_probe: int
    final_best_step: int
    saturation_step: int
    termination_reason: str
    steps_executed: int
    fitness_history: Optional[np.ndarray] = None
    positions_history: Optional[np.ndarray] = None

    def to_json(self) -> str:
        """Canonical serialization: identical runs give identical bytes.

        The raw fitness/position histories stay in memory only; the record
        serializes the config echo, the diagnostic series, and the result.
        """
        doc = {
            "schema_version": 1,
            "config": self.config,
            "bounds": [[float(a), float(b)] for a, b in self.bounds],
            "series": {
                "best_fitness": [float(v) for v in self.best_fitness],
                "step_best_fitness": [float(v) for v in self.step_best_fitness],
                "best_probe": [int(v) for v in self.best_probe],
                "d_avg": [float(v) for v in self.d_avg],
                "frep": [float(v) for v in self.frep],
                "n_eval": [int(v) for v in self.n_eval],
            },
            "final": {
                "best_point": [float(v) for v in np.asarray(self.best_point)],
                "best_fitness": float(self.final_best_fitness),
                "best_probe": int(self.final_best_probe),
                "best_step": int(self.final_best_step),
                "saturation_step": int(self.saturation_step),
                "termination_reason": self.termination_reason,
                "steps_executed": int(self.steps_executed),
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ": "))


# ---------------------------------------------------------------------------
# elementary operations


# the most doubles one block of the step's pair arrays holds (512 KiB): the
# pair work of a whole group at 120 probes in 30-D would fill 3.4 MB arrays
# per run, past a core's cache, and a block this size stays in it
_BLOCK_VALUES = 1 << 16


class _Step:
    """Scratch arrays for the engine step of n_r runs in lockstep, each with
    n_p probes in n_d dimensions; every per-probe array leads with the run
    axis, and the pair buffers are flat, each block viewing a prefix.

    run_group() builds one per group and reuses its arrays on every step;
    each public step function below builds a throwaway one for a single
    run, so the group loop and the public functions execute the same code.
    Nothing is kept at module level, so groups in different threads never
    share a buffer. Each value is what fresh arrays for one run would hold:
    the same ufuncs on the same operands in the same order, the run axis
    only adding an outer loop, where in-place ** takes numpy's scalar-power
    shortcut (an integer 2 squares) exactly where ** does.

    The pair work goes in blocks of at most _BLOCK_VALUES pair coordinates:
    whole runs while one run's n_p^2 * n_d fits, else row slices [a, b) of
    one run, so a block's pair arrays stay in cache whatever the group's
    size. A block of rows is the arithmetic of a smaller group: each row
    (probe p against every probe k) is computed apart. Only the distances
    span the whole step, one (n_r, n_p, n_p) array. A row block computes
    the columns k >= a and copies the columns k < a from the transposed
    rows of the blocks before it, which hold the same bits: IEEE
    subtraction is antisymmetric, fl(x_k - x_p) = -fl(x_p - x_k), and
    x - x = +0, so the squares are equal, and numpy reduces each contiguous
    n_d row in the same order. __init__ builds every block's views once, so
    a step does no slicing beyond the positions and fitnesses it is given.
    """

    def __init__(self, n_r: int, n_p: int, n_d: int):
        run_values = n_p * n_p * n_d
        if run_values <= _BLOCK_VALUES:  # whole runs: (r0, r1, a, b) = (r0, r1, 0, n_p)
            per = _BLOCK_VALUES // run_values
            spans = [(r, min(r + per, n_r), 0, n_p) for r in range(0, n_r, per)]
        else:  # rows [a, b) of run r
            rows = max(1, _BLOCK_VALUES // (n_p * n_d))
            spans = [(r, r + 1, a, min(a + rows, n_p))
                     for r in range(n_r) for a in range(0, n_p, rows)]
        # rows of the largest block (none when the group has no runs left)
        most = max(((r1 - r0) * (b - a) for r0, r1, a, b in spans), default=0)
        pairs = np.empty(most * n_p * n_d)      # [., k, :] = r_k - r_p
        squares = np.empty(most * n_p * n_d)    # its columns k >= a, squared
        weight = np.empty(most * n_p)           # fitness gap, mass, then weight
        power = np.empty(most * n_p)            # a row block's distance^beta
        alive = np.empty(most * n_p, dtype=bool)
        dead = np.empty(most * n_p, dtype=bool)
        dist = np.empty((n_r, n_p, n_p))      # each run's distances, [r, p, k]
        self.acc = np.empty((n_r, n_p, n_d))
        self.low = np.empty((n_r, n_p, n_d), dtype=bool)
        self.high = np.empty((n_r, n_p, n_d), dtype=bool)
        self.pull = np.empty((n_r, n_p, n_d))
        self.offsets = np.empty((n_r, n_p, n_d))
        self.radii = np.empty((n_r, n_p))
        self.totals = np.empty(n_r)
        self.blocks = []
        for r0, r1, a, b in spans:
            m, rows = r1 - r0, b - a
            block_pairs = pairs[:m * rows * n_p * n_d].reshape(m, rows, n_p, n_d)
            by_row = m * rows, n_p
            block_dist = dist[r0:r1, a:b].reshape(by_row)
            self.blocks.append((
                (slice(r0, r1), None),                       # every probe of the runs
                (slice(r0, r1), slice(a, b), None),          # the block's rows
                block_pairs,
                block_pairs[:, :, a:],
                squares[:m * rows * (n_p - a) * n_d].reshape(m, rows, n_p - a, n_d),
                dist[r0:r1, a:b, a:],
                # the columns k < a, and the rows before the block that hold them
                (dist[r0:r1, a:b, :a], dist[r0:r1, :a, a:b].transpose(0, 2, 1)) if a else None,
                block_dist,
                weight[:m * rows * n_p].reshape(m, rows, n_p),
                weight[:m * rows * n_p].reshape(by_row),
                # a whole-run block raises its own distances to beta; a row
                # block keeps them for the mirrors of the blocks after it
                block_dist if rows == n_p else power[:m * rows * n_p].reshape(by_row),
                alive[:m * rows * n_p].reshape(by_row),
                dead[:m * rows * n_p].reshape(by_row),
                block_pairs.reshape(m * rows, n_p, n_d),
                self.acc[r0:r1, a:b].reshape(m * rows, n_d),
            ))

    @staticmethod
    def advance(prev: np.ndarray, acc: np.ndarray, delta_t: float, out: np.ndarray) -> np.ndarray:
        np.multiply(acc, 0.5, out=out)
        out *= delta_t ** 2
        out += prev
        return out

    def retrieve(self, raw: np.ndarray, prev: np.ndarray, space: DecisionSpace,
                 frep) -> np.ndarray:
        """Retrieve raw's escaped coordinates in place and return raw; frep
        is the factor, or an array of raw's shape that holds each run's
        factor in all its coordinates (numpy multiplies by it faster than
        by a broadcast (n_r, 1, 1) column)."""
        lo, hi, low, high, pull = space.lower, space.upper, self.low, self.high, self.pull
        np.less(raw, lo, out=low)
        np.greater(raw, hi, out=high)
        # frep times the distance from the wall crossed (the low one where
        # no wall was crossed; raw keeps those coordinates)
        np.subtract(prev, lo, out=pull)
        np.subtract(hi, prev, out=pull, where=high)
        pull *= frep
        np.add(lo, pull, out=raw, where=low)
        np.subtract(hi, pull, out=raw, where=high)
        return raw.clip(lo, hi, out=raw)

    def accelerations(self, pos: np.ndarray, fit: np.ndarray, cfg: CfoConfig,
                      space: DecisionSpace) -> np.ndarray:
        alpha, beta, tol = float(cfg.alpha), float(cfg.beta), COINCIDENT_REL_TOL * space.diag_length
        for (every, rows, pairs, upper, squares, dist_upper, mirror, dist, gap, weight, power,
             alive, dead, flat_pairs, acc) in self.blocks:
            np.copyto(pairs, pos[every])
            pairs -= pos[rows]
            np.multiply(upper, upper, out=squares)
            np.add.reduce(squares, axis=3, out=dist_upper)
            np.sqrt(dist_upper, out=dist_upper)
            if mirror is not None:
                np.copyto(*mirror)
            np.subtract(fit[every], fit[rows], out=gap)
            np.maximum(weight, 0.0, out=weight)
            weight **= alpha
            # a probe's own pair has distance exactly 0, so it is never alive
            np.greater(dist, tol, out=alive)
            np.logical_not(alive, out=dead)
            if power is not dist:
                np.copyto(power, dist)
            power **= beta
            np.divide(weight, power, out=weight, where=alive)
            np.copyto(weight, 0.0, where=dead)
            np.einsum("pk,pkd->pd", weight, flat_pairs, out=acc)
        self.acc *= float(cfg.g)
        return self.acc

    def d_avg(self, pos: np.ndarray, reference: np.ndarray, space: DecisionSpace,
              out: np.ndarray) -> np.ndarray:
        """Each run's average probe distance from its reference point
        (reference[r, 0] for run r), normalized by the diagonal, into out."""
        offsets, radii = self.offsets, self.radii
        np.subtract(pos, reference, out=offsets)
        offsets **= 2
        np.add.reduce(offsets, axis=2, out=radii)
        np.sqrt(radii, out=radii)
        totals = np.add.reduce(radii, axis=1, out=self.totals)
        return np.divide(totals, space.diag_length * (radii.shape[1] - 1), out=out)


def compute_accelerations(
    positions: np.ndarray, fitness: np.ndarray, cfg: CfoConfig, space: DecisionSpace
) -> np.ndarray:
    """Pairwise gravitational update, vectorized over all probe pairs.

    a_p = g * sum_k mass(m_k, m_p) * (r_k - r_p) / |r_k - r_p|^beta.
    Coincident pairs, closer than 1e-14 of the space diagonal, are skipped
    (zero contribution). The arrays are a throwaway _Step's; run() keeps one
    _Step for all its steps, because glibc returns fresh per-step arrays to
    the system on every step and faults them in again: about 220 page
    faults a step at 120 probes in 30 dimensions, and none with the arrays
    kept.
    """
    pos = np.asarray(positions, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    if not np.isfinite(fit).all():
        raise EngineError("non-finite fitness passed to acceleration update")
    return _Step(1, *pos.shape).accelerations(pos[None], fit[None], cfg, space)[0]


def advance_positions(
    positions_prev: np.ndarray, accelerations_prev: np.ndarray, delta_t: float
) -> np.ndarray:
    """Kinematic step r + a t^2 / 2, no velocity term, no clamping."""
    prev = np.asarray(positions_prev, dtype=float)
    return _Step.advance(prev, np.asarray(accelerations_prev, dtype=float), delta_t,
                         np.empty_like(prev))


def retrieve_errant_probes(
    raw: np.ndarray, prev: np.ndarray, space: DecisionSpace, frep: float
) -> np.ndarray:
    """Pull out-of-bounds coordinates back inside the box.

    A low escape lands at lo + frep*(prev - lo), a high escape at
    hi - frep*(hi - prev); in-bounds coordinates pass through. The final
    clip only absorbs 1-ulp rounding of the arithmetic above.
    """
    out = np.array(raw, dtype=float)
    return _Step(1, *out.shape).retrieve(out[None], np.asarray(prev, dtype=float)[None], space,
                                         frep)[0]


def update_frep(saved_best: np.ndarray, frep_current: float, cfg: CfoConfig) -> float:
    """Step the repositioning factor when the saved-best ring has flattened.

    The test compares the last ring slot against the mean of the last n_sat
    slots; within fit_tol the factor grows by frep_increment, and a result
    reaching 1 wraps back to frep_init. The mean is tail.mean()'s own
    arithmetic, np.add.reduce(tail) / len(tail), without its Python wrapper.
    """
    frep = np.array([frep_current], dtype=float)
    _next_frep(frep, np.asarray(saved_best, dtype=float)[None], cfg.n_sat,
               np.array([[cfg.frep_init, cfg.frep_increment, cfg.fit_tol]]))
    return float(frep[0])


def _next_frep(frep: np.ndarray, saved: np.ndarray, n_sat: int, rule: np.ndarray) -> bool:
    """update_frep's rule for a group of runs, in place: run r's factor
    frep[r] steps by its ring saved[r], with rule[r] holding its frep_init,
    frep_increment and fit_tol. Returns whether any ring had flattened."""
    mean = np.add.reduce(saved[:, saved.shape[1] - n_sat:], axis=1) / n_sat
    flat = np.abs(saved[:, -1] - mean) <= rule[:, 2]
    if not flat.any():
        return False
    nxt = frep + rule[:, 1]
    np.copyto(nxt, rule[:, 0], where=nxt >= 1.0)
    np.copyto(frep, nxt, where=flat)
    return True


# ---------------------------------------------------------------------------
# initial probe distributions


def init_probes(scheme: str, space: DecisionSpace, cfg: CfoConfig) -> np.ndarray:
    _check_scheme(scheme)
    cfg._validate_scheme(scheme, space)
    n_p, n_d = int(cfg.n_probes), space.n_dims
    lo, hi = space.lower, space.upper

    if scheme == "on_axis":
        per_axis = n_p // n_d
        anchor = lo + cfg.gamma * (hi - lo)
        pts = np.tile(anchor, (n_p, 1))
        ramp = np.linspace(0.0, 1.0, per_axis)
        for axis in range(n_d):
            rows = slice(axis * per_axis, (axis + 1) * per_axis)
            pts[rows, axis] = lo[axis] + ramp * (hi[axis] - lo[axis])
        return pts

    if scheme == "grid_2d":
        side = math.isqrt(n_p)
        return uniform_lattice_points(space, (side, side))

    if scheme == "off_diagonal":
        # coordinate i of probe p (both 0-based) at fraction (n_d*p + i)/(n_p*n_d - 1)
        frac = np.arange(n_p * n_d).reshape(n_p, n_d) / (n_p * n_d - 1)
        return lo + frac * (hi - lo)

    return np.array(cfg.initial_probes, dtype=float, copy=True)


def uniform_diagonal_points(space: DecisionSpace, n: int) -> np.ndarray:
    """n points evenly spaced along the principal diagonal, ends inclusive."""
    if n < 2:
        raise ValueError("need at least 2 points")
    t = np.linspace(0.0, 1.0, n)[:, None]
    return space.lower + t * (space.upper - space.lower)


def uniform_lattice_points(space: DecisionSpace, shape: tuple[int, int]) -> np.ndarray:
    """Inclusive n1 x n2 rectangular lattice for 2-D spaces.

    Rows are ordered with the first coordinate varying slowest, so
    shape=(6, 4) gives 6 distinct first-coordinate values with 4 second
    coordinate values each. Covers grid layouts that are not square.
    """
    if space.n_dims != 2:
        raise ValueError("lattice points are defined for 2-D spaces")
    n1, n2 = shape
    if n1 < 2 or n2 < 2:
        raise ValueError("lattice needs at least 2 points per side")
    x1 = np.linspace(space.lower[0], space.upper[0], n1)
    x2 = np.linspace(space.lower[1], space.upper[1], n2)
    return np.column_stack((np.repeat(x1, n2), np.tile(x2, n1)))


# ---------------------------------------------------------------------------
# diagnostics


def d_avg(positions: np.ndarray, reference: np.ndarray, space: DecisionSpace) -> float:
    """Average probe distance from the reference point, normalized by the diagonal.

    run() passes the best position so far. A probe at the reference stays in
    the average and contributes zero.
    """
    pos = np.asarray(positions, dtype=float)
    n_p = pos.shape[0]
    if n_p < 2:
        raise ValueError("spread diagnostic needs at least 2 probes")
    ref = np.asarray(reference, dtype=float)
    return float(_Step(1, *pos.shape).d_avg(pos[None], ref[None, None], space, np.empty(1))[0])


def detect_fitness_saturation(best_series: Sequence[float], j: int, cfg: CfoConfig) -> bool:
    """Does the mean of best_series[j-n_avg_steps+1 .. j] sit within
    fitness_sat_tol of best_series[j]?

    Inactive until j is at least 10 steps beyond the averaging window.
    """
    n_avg = cfg.n_avg_steps
    if j < n_avg + 10 or j >= len(best_series):
        return False
    window = np.asarray(best_series[j - n_avg + 1: j + 1], dtype=float)
    return bool(abs(window.mean() - float(best_series[j])) <= cfg.fitness_sat_tol)


# ---------------------------------------------------------------------------
# the run loop


# the config fields the runs of one group share: the step arrays' shape and
# the constants of their arithmetic, and the shape of the saved-best rings
_GROUP_FIELDS = ("n_probes", "g", "delta_t", "alpha", "beta", "n_saved", "n_sat")

# the rows of a group's (runs, rows, steps) series array: the running best,
# the step's best, the 1-based probe that took over the best at the step (0
# when none did), the spread and the repositioning factor
_BEST, _STEP_BEST, _TAKER, _DAVG, _FREP = range(5)


class _Run:
    """One run of a lockstep group: its config and objective, and the
    histories it keeps on request; the group's arrays hold everything else."""

    __slots__ = ("index", "cfg", "keep_history", "batch", "n_p", "n_steps", "fit_hist",
                 "pos_hist")

    def __init__(self, index: int, cfg: CfoConfig, objective, keep_history: bool):
        self.index, self.cfg, self.keep_history = index, cfg, keep_history
        self.batch = batch_form(objective)
        self.n_p, self.n_steps = int(cfg.n_probes), int(cfg.n_steps)
        self.fit_hist, self.pos_hist = [], []

    def evaluate(self, rows: np.ndarray, step: int) -> np.ndarray:
        """The run's objective on its own rows: one value per row, or an
        EngineError naming the step (and the probe, when the objective names
        its row) or the wrong shape."""
        try:
            values = np.asarray(self.batch(rows, step=step), dtype=float)
        except Exception as exc:
            probe = getattr(exc, "failed_row", None)
            where = f"step {step}" if probe is None else f"step {step}, probe {probe}"
            raise EngineError(f"objective failed at {where}: {exc}") from exc
        if values.shape != (self.n_p,):
            raise EngineError(f"objective gave shape {values.shape} at step {step}, "
                              f"not ({self.n_p},)")
        return values

    def record(self, space: DecisionSpace, series: np.ndarray, best_x: np.ndarray,
               reason: str) -> RunRecord:
        """The run's record, from its rows of the group's series array up to
        its last step."""
        cfg, cum, taker = self.cfg, series[_BEST], series[_TAKER]
        sat = int(np.searchsorted(cum, cum[-1] - cfg.fitness_sat_tol, side="left"))
        # the step at which the best last moved, at each step (step 0 always moves it)
        last_move = np.maximum.accumulate(np.where(taker > 0, np.arange(len(taker)), 0))
        best_probe = taker[last_move].astype(int).tolist()
        return RunRecord(
            config=cfg.to_dict(),
            bounds=space.bounds_list(),
            best_fitness=cum.tolist(),
            step_best_fitness=series[_STEP_BEST].tolist(),
            best_probe=best_probe,
            d_avg=series[_DAVG].tolist(),
            frep=series[_FREP].tolist(),
            n_eval=[(j + 1) * self.n_p for j in range(len(cum))],
            best_point=best_x.copy(),
            final_best_fitness=float(cum[-1]),
            final_best_probe=best_probe[-1],
            final_best_step=int(last_move[-1]),
            saturation_step=sat,
            termination_reason=reason,
            steps_executed=len(cum) - 1,
            fitness_history=np.asarray(self.fit_hist) if self.keep_history else None,
            positions_history=np.asarray(self.pos_hist) if self.keep_history else None,
        )


def run_group(cfgs: Sequence[CfoConfig], space: DecisionSpace, objectives: Sequence,
              keep_history: bool = False) -> list:
    """Execute a group of runs in lockstep; each run's record is the bytes
    run() gives it alone.

    The runs share the decision space and the config fields in _GROUP_FIELDS
    (the probe count and the force and step constants); anything else may
    differ, gamma and frep_init being what sweeps vary. Every step array
    leads with a run axis, so each numpy call of the step serves the whole
    group, while each run keeps its own fitnesses, running best, saved-best
    ring, repositioning factor, series and history. A run that finishes (at
    n_steps, or saturated under early_termination) leaves the group.

    When every run of a group of several holds the same objective object,
    each step makes one call on all the group's rows, run r's probes being
    rows [r * n_probes, (r + 1) * n_probes). Sharing an object asserts that
    the objective is stateless, so one that has a noise state or a close
    may not be shared (ValueError): a run failing mid-step would shift the
    stream the runs before it read next. Otherwise, and when the shared
    call raises or gives the wrong shape, each step calls the objectives in
    run order, each once with only its own run's rows, so a failure is
    charged to its run. Every run's values are then folded into the running
    bests in group arrays: a value >= the run's best so far takes over,
    ties going to the later probe.

    Returns one outcome per run, in run order, up to the lowest-numbered
    run that failed: a RunRecord, or for that run (the last item) the
    EngineError or InvariantError that stopped it. A failure ends the runs
    numbered after it, while those numbered before it go on, since one of
    them may still fail, so the outcome is the one running the group one
    run at a time would meet first.
    """
    cfgs = list(cfgs)
    for cfg in cfgs:
        cfg.validate(space)
    lead = cfgs[0]
    for cfg in cfgs[1:]:
        for name in _GROUP_FIELDS:
            if getattr(cfg, name) != getattr(lead, name):
                raise ValueError(f"run_group: the runs must share {name}")
    if len(objectives) != len(cfgs):
        raise ValueError("run_group: need one objective per config")
    holders = Counter(map(id, objectives))
    for obj in objectives:
        if holders[id(obj)] > 1 and (getattr(obj, "noise", None) is not None
                                     or getattr(obj, "close", None) is not None):
            raise ValueError("run_group: runs may share only a stateless objective, "
                             "one with no noise state and no close")
    n_r, n_p, n_d, n_saved = len(cfgs), int(lead.n_probes), space.n_dims, lead.n_saved
    active = [_Run(i, cfg, obj, keep_history)
              for i, (cfg, obj) in enumerate(zip(cfgs, objectives))]
    stacked = active[0].batch if n_r > 1 and holders[id(objectives[0])] == n_r else None
    outcomes: dict = {}
    cut = n_r  # the lowest-numbered failed run so far, or the run count

    positions = np.array([init_probes(cfg.init_scheme, space, cfg) for cfg in cfgs])
    accelerations = np.zeros_like(positions)
    # [r, 0] is run r's best so far and [r, 1:] its step's values, so the
    # last maximum of a row is where a scan in probe order ends
    scan = np.full((n_r, n_p + 1), -math.inf)
    fitness = scan[:, 1:]
    best_x = np.empty((n_r, 1, n_d))  # each run's best point, at [r, 0]
    saved = np.empty((n_r, n_saved))  # each run's saved-best ring
    # each run's frep_init, frep_increment and fit_tol
    rule = np.array([[cfg.frep_init, cfg.frep_increment, cfg.fit_tol] for cfg in cfgs])
    series = np.empty((n_r, 5, max(run.n_steps for run in active) + 1))
    series[:, _FREP, 0] = rule[:, 0]
    # each run's repositioning factor in all its coordinates
    frep = np.empty_like(positions)
    frep[:] = rule[:, 0, None, None]
    step = _Step(n_r, n_p, n_d)
    spare = np.empty_like(positions)
    run_axis = np.arange(n_r)

    def fail(run: _Run, exc: Exception) -> None:
        nonlocal cut
        if run.index < cut:
            cut = run.index
            outcomes[run.index] = exc

    def keep(rows: list) -> None:
        """Shrink the group to the active runs at rows."""
        nonlocal active, positions, accelerations, scan, fitness, best_x, saved, rule, series
        nonlocal frep, step, spare, run_axis
        active = [active[i] for i in rows]
        positions, accelerations, scan = positions[rows], accelerations[rows], scan[rows]
        best_x, saved, rule, series, frep = (best_x[rows], saved[rows], rule[rows], series[rows],
                                             frep[rows])
        fitness = scan[:, 1:]
        step = _Step(len(active), n_p, n_d)
        spare = np.empty_like(positions)
        run_axis = np.arange(len(active))

    def keep_unfailed() -> None:
        keep([i for i, run in enumerate(active) if run.index < cut])

    j = 0
    while True:
        if j:
            raw = step.advance(positions, accelerations, lead.delta_t, spare)
            spare, positions = positions, step.retrieve(raw, positions, space, frep)
            # retrieval ends with a clip to the box, so a coordinate outside
            # it is a NaN, and np.maximum passes any NaN on
            if math.isnan(np.maximum.reduce(positions, axis=None)):
                lost = np.isnan(positions).any(axis=(1, 2))
                fail(active[int(np.argmax(lost))],
                     InvariantError(f"probe escaped containment at step {j}"))
                keep_unfailed()
                if not active:
                    break

        # the objectives get a copy of the positions; a shared objective's
        # failed call is made again one run at a time, which charges the
        # failure to its run (a shared objective is stateless)
        values = None
        if stacked is not None:
            try:
                values = np.asarray(stacked(positions.reshape(-1, n_d).copy(), step=j),
                                    dtype=float)
            except Exception:
                pass
        if values is not None and values.shape == (fitness.size,):
            fitness[:] = values.reshape(fitness.shape)
        else:
            for i, (run, x) in enumerate(zip(active, positions.copy())):
                try:
                    fitness[i] = run.evaluate(x, j)
                except EngineError as exc:
                    fail(run, exc)
                    break
            if cut <= active[-1].index:  # a run failed in the loop
                keep_unfailed()
                if not active:
                    break
        finite = np.isfinite(fitness)
        if not finite.all():
            bad = int(np.argmin(finite))  # in run order, then probe order
            fail(active[bad // n_p], EngineError(
                f"objective returned non-finite fitness at step {j}, probe {bad % n_p + 1}"))
            keep_unfailed()
            if not active:
                break
        if keep_history:
            for run, row, x in zip(active, fitness, positions):
                run.fit_hist.append(row.copy())
                run.pos_hist.append(x.copy())

        # fold the step into the running bests: the last maximum of each
        # scan row is where a scan in probe order, taking every value >= the
        # best so far (ties to the later probe), ends; the best becomes the
        # value there, whose zero may be signed
        np.maximum.reduce(fitness, axis=1, out=series[:, _STEP_BEST, j])
        taker = n_p - scan[:, ::-1].argmax(axis=1)  # 1-based, 0 where the best stays
        scan[:, 0] = scan[run_axis, taker]
        took = taker > 0  # every run at step 0, whose best fills the ring
        np.copyto(best_x[:, 0], positions[run_axis, taker - 1], where=took[:, None])
        if j:
            np.copyto(saved[:, (j - 1) % n_saved], scan[:, 0], where=took)
        else:
            saved[:] = scan[:, :1]
        series[:, _BEST, j] = scan[:, 0]
        series[:, _TAKER, j] = taker

        if j:
            accelerations = step.accelerations(positions, fitness, lead, space)
            if math.isnan(np.maximum.reduce(accelerations, axis=None)):
                for i, run in enumerate(active):
                    bad = np.flatnonzero(np.isnan(accelerations[i]).any(axis=1))
                    if len(bad):
                        fail(run, EngineError(
                            f"acceleration is NaN at step {j}, probe {bad[0] + 1}: "
                            "a force term overflowed (check alpha and beta)"))
                        break
                keep_unfailed()
                if not active:
                    break

        step.d_avg(positions, best_x, space, series[:, _DAVG, j])
        if j:
            now = series[:, _FREP, j]
            now[:] = series[:, _FREP, j - 1]
            if _next_frep(now, saved, lead.n_sat, rule):
                frep[:] = now[:, None, None]

        done = []
        for i, run in enumerate(active):
            # saturation first: a run that saturates at its last step stops
            # saturated (never at step 0, which is before any averaging window)
            if run.cfg.early_termination and detect_fitness_saturation(
                    series[i, _STEP_BEST], j, run.cfg):
                reason = "FitnessSaturated"
            elif j == run.n_steps:
                reason = "CompletedNt"
            else:
                continue
            outcomes[run.index] = run.record(space, series[i, :, :j + 1], best_x[i, 0], reason)
            done.append(i)
        if done:
            if len(done) == len(active):
                break
            keep([i for i in range(len(active)) if i not in done])
        j += 1

    return [outcomes[i] for i in range(min(cut + 1, n_r))]


def run(cfg: CfoConfig, space: DecisionSpace, objective,
        keep_history: bool = False) -> RunRecord:
    """Execute one optimization run and return its record: the one-run case
    of run_group().

    Step 0 evaluates the initial layout and fills the saved-best ring with
    its best. Every probe starts from rest (zero acceleration), so step 1
    re-evaluates that layout. Step j >= 1 advances the positions, retrieves
    escapees, evaluates all probes in one objective batch (rows in ascending
    probe order), and folds the values into the running best; when the best
    moved, it goes into ring slot (j - 1) % n_saved. Then the repositioning
    factor is updated and the next accelerations computed; a NaN among them
    (the force terms overflowed) raises EngineError. Every step, step 0
    included, records the same diagnostics; n_eval and steps_executed
    follow from the series length. Runs to n_steps, or stops at the first
    fitness saturation when early_termination is on. keep_history also
    keeps every step's fitnesses and positions in the record (in memory
    only).

    The step arithmetic runs in one _Step's arrays, allocated once per
    group (and again when a run leaves it), and the positions alternate
    between two arrays the group owns; the objective always gets a copy.
    """
    outcome, = run_group([cfg], space, [objective], keep_history)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
