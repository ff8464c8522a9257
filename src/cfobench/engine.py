"""Deterministic central-force optimizer.

Probes with recorded fitness values attract each other: a probe accelerates
toward every probe whose fitness exceeds its own, with a coupling that grows
with the fitness gap and decays with distance. run() is one loop over plain
local variables and one set of step arrays sized for the run (_Step): move
the probes by the half-a-t-squared kinematic update, pull probes that left
the box back inside by the repositioning factor, evaluate them, update the
running best, the saved-best ring and the repositioning factor, then
compute the next accelerations. A fitness
saturation detector diagnoses convergence. Every run starts at zero
acceleration, and with a fixed noise seed the whole trajectory is a pure
function of the inputs.
"""

from __future__ import annotations

import json
import math
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

    def to_json(self, indent: Optional[int] = None) -> str:
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
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=indent)


# ---------------------------------------------------------------------------
# elementary operations


class _Step:
    """Scratch arrays for the engine step at n_p probes in n_d dimensions.

    run() builds one per run and reuses its arrays on every step; each public
    step function below builds a throwaway one, so run() and the public
    functions execute the same code. Nothing is kept at module level, so
    runs in different threads never share a buffer. Each value is what
    fresh arrays would hold: the same ufuncs on the same operands in the
    same order, where in-place ** takes numpy's scalar-power shortcut (an
    integer 2 squares) exactly where ** does.
    """

    def __init__(self, n_p: int, n_d: int):
        self.pairs = np.empty((n_p, n_p, n_d))     # [p, k, :] = r_k - r_p
        self.squares = np.empty((n_p, n_p, n_d))
        self.dist = np.empty((n_p, n_p))           # distance, then distance^beta
        self.weight = np.empty((n_p, n_p))         # fitness gap, mass, then weight
        self.alive = np.empty((n_p, n_p), dtype=bool)
        self.dead = np.empty((n_p, n_p), dtype=bool)
        self.acc = np.empty((n_p, n_d))
        self.low = np.empty((n_p, n_d), dtype=bool)
        self.high = np.empty((n_p, n_d), dtype=bool)
        self.pull = np.empty((n_p, n_d))
        self.offsets = np.empty((n_p, n_d))
        self.radii = np.empty(n_p)

    @staticmethod
    def advance(prev: np.ndarray, acc: np.ndarray, delta_t: float, out: np.ndarray) -> np.ndarray:
        np.multiply(acc, 0.5, out=out)
        out *= delta_t ** 2
        out += prev
        return out

    def retrieve(self, raw: np.ndarray, prev: np.ndarray, space: DecisionSpace,
                 frep: float) -> np.ndarray:
        """Retrieve raw's escaped coordinates in place and return raw."""
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
        pairs, dist, weight, dead = self.pairs, self.dist, self.weight, self.dead
        np.subtract(pos[None, :, :], pos[:, None, :], out=pairs)
        np.multiply(pairs, pairs, out=self.squares)
        np.add.reduce(self.squares, axis=2, out=dist)
        np.sqrt(dist, out=dist)
        np.subtract(fit[None, :], fit[:, None], out=weight)
        np.maximum(weight, 0.0, out=weight)
        weight **= float(cfg.alpha)
        # a probe's own pair has distance exactly 0, so it is never alive
        np.greater(dist, COINCIDENT_REL_TOL * space.diag_length, out=self.alive)
        np.logical_not(self.alive, out=dead)
        dist **= float(cfg.beta)
        np.divide(weight, dist, out=weight, where=self.alive)
        np.copyto(weight, 0.0, where=dead)
        np.einsum("pk,pkd->pd", weight, pairs, out=self.acc)
        self.acc *= float(cfg.g)
        return self.acc

    def d_avg(self, pos: np.ndarray, reference: np.ndarray, space: DecisionSpace) -> float:
        offsets, radii = self.offsets, self.radii
        np.subtract(pos, reference, out=offsets)
        offsets **= 2
        np.add.reduce(offsets, axis=1, out=radii)
        np.sqrt(radii, out=radii)
        return float(np.add.reduce(radii) / (space.diag_length * (len(radii) - 1)))


def compute_accelerations(
    positions: np.ndarray, fitness: np.ndarray, cfg: CfoConfig, space: DecisionSpace
) -> np.ndarray:
    """Pairwise gravitational update, vectorized over all probe pairs.

    a_p = g * sum_k mass(m_k, m_p) * (r_k - r_p) / |r_k - r_p|^beta.
    Coincident pairs, closer than 1e-14 of the space diagonal, are skipped
    (zero contribution). The arrays are a throwaway _Step's; run() keeps one
    _Step for all its steps, because glibc returned fresh per-step arrays to
    the system on every step and faulted them in again (about 1,600 page
    faults a step at 120 probes in 30 dimensions).
    """
    pos = np.asarray(positions, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    if not np.isfinite(fit).all():
        raise EngineError("non-finite fitness passed to acceleration update")
    return _Step(*pos.shape).accelerations(pos, fit, cfg, space)


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
    return _Step(*out.shape).retrieve(out, np.asarray(prev, dtype=float), space, frep)


def update_frep(saved_best: np.ndarray, frep_current: float, cfg: CfoConfig) -> float:
    """Step the repositioning factor when the saved-best ring has flattened.

    The test compares the last ring slot against the mean of the last n_sat
    slots; within fit_tol the factor grows by frep_increment, and a result
    reaching 1 wraps back to frep_init. The mean is tail.mean()'s own
    arithmetic, np.add.reduce(tail) / len(tail), without its Python wrapper.
    """
    tail = saved_best[cfg.n_saved - cfg.n_sat:]
    mean = np.add.reduce(tail) / len(tail)
    if abs(float(saved_best[cfg.n_saved - 1]) - float(mean)) <= cfg.fit_tol:
        nxt = frep_current + cfg.frep_increment
        return cfg.frep_init if nxt >= 1.0 else nxt
    return frep_current


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
    return _Step(*pos.shape).d_avg(pos, np.asarray(reference, dtype=float), space)


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


def _absorb_row(row: np.ndarray, best_v: float) -> tuple[float, int]:
    """Scan one step's fitnesses in probe order against the running best.

    Every value >= the best so far takes over, so ties go to the later
    probe. Returns the new best and the 0-based index of the last probe
    that took over, or -1 when none did.
    """
    taker = -1
    for p, v in enumerate(row.tolist()):
        if v >= best_v:
            best_v, taker = v, p
    return best_v, taker


def run(cfg: CfoConfig, space: DecisionSpace, objective,
        keep_history: bool = False) -> RunRecord:
    """Execute one optimization run and return its record.

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

    The step arithmetic runs in one _Step's arrays, allocated once per run,
    and the positions alternate between two arrays the run owns; the
    objective always gets a copy.
    """
    cfg.validate(space)
    n_p, n_d = int(cfg.n_probes), space.n_dims

    batch = batch_form(objective)

    def evaluate_all(pos: np.ndarray, step: int) -> np.ndarray:
        try:
            values = np.asarray(batch(pos.copy(), step=step), dtype=float)
        except Exception as exc:
            probe = getattr(exc, "failed_row", None)
            where = f"step {step}" if probe is None else f"step {step}, probe {probe}"
            raise EngineError(f"objective failed at {where}: {exc}") from exc
        if values.shape != (n_p,):
            raise EngineError(f"objective gave shape {values.shape} at step {step}, not ({n_p},)")
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))
            raise EngineError(
                f"objective returned non-finite fitness at step {step}, probe {bad[0] + 1}"
            )
        return values

    step = _Step(n_p, n_d)
    positions = init_probes(cfg.init_scheme, space, cfg)
    spare = np.empty_like(positions)
    accelerations = np.zeros((n_p, n_d))
    frep = float(cfg.frep_init)
    cum_best, step_best, best_probes, davg_series, frep_series = [], [], [], [], []
    fit_hist, pos_hist = [], []

    def record_step() -> None:
        cum_best.append(best_v)
        step_best.append(float(fitness.max()))
        best_probes.append(best_p)
        davg_series.append(step.d_avg(positions, best_x, space))
        frep_series.append(frep)
        if keep_history:
            fit_hist.append(fitness.copy())
            pos_hist.append(positions.copy())

    fitness = evaluate_all(positions, 0)
    best_v, taker = _absorb_row(fitness, -math.inf)
    best_p, best_step, best_x = taker + 1, 0, positions[taker].copy()
    saved = np.full(cfg.n_saved, best_v)
    record_step()

    reason = "CompletedNt"
    for j in range(1, int(cfg.n_steps) + 1):
        raw = step.advance(positions, accelerations, cfg.delta_t, spare)
        spare, positions = positions, step.retrieve(raw, positions, space, frep)
        # retrieval ends with a clip to the box, so a coordinate outside it
        # is a NaN, and np.maximum passes any NaN on
        if math.isnan(np.maximum.reduce(positions, axis=None)):
            raise InvariantError(f"probe escaped containment at step {j}")

        fitness = evaluate_all(positions, j)
        row_best, taker = _absorb_row(fitness, best_v)
        if taker >= 0:
            best_v, best_p, best_step, best_x = row_best, taker + 1, j, positions[taker].copy()
            saved[(j - 1) % cfg.n_saved] = best_v
        frep = update_frep(saved, frep, cfg)
        accelerations = step.accelerations(positions, fitness, cfg, space)
        if math.isnan(np.maximum.reduce(accelerations, axis=None)):
            bad = np.flatnonzero(np.isnan(accelerations).any(axis=1))
            raise EngineError(f"acceleration is NaN at step {j}, probe {bad[0] + 1}: "
                              "a force term overflowed (check alpha and beta)")
        record_step()

        if cfg.early_termination and detect_fitness_saturation(step_best, j, cfg):
            reason = "FitnessSaturated"
            break

    cum = np.asarray(cum_best)
    sat = int(np.searchsorted(cum, cum[-1] - cfg.fitness_sat_tol, side="left"))

    return RunRecord(
        config=cfg.to_dict(),
        bounds=space.bounds_list(),
        best_fitness=cum_best,
        step_best_fitness=step_best,
        best_probe=best_probes,
        d_avg=davg_series,
        frep=frep_series,
        n_eval=[(j + 1) * n_p for j in range(len(cum_best))],
        best_point=best_x,
        final_best_fitness=best_v,
        final_best_probe=best_p,
        final_best_step=best_step,
        saturation_step=sat,
        termination_reason=reason,
        steps_executed=len(cum_best) - 1,
        fitness_history=np.asarray(fit_hist) if keep_history else None,
        positions_history=np.asarray(pos_hist) if keep_history else None,
    )
