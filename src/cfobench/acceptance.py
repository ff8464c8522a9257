"""Repository acceptance suite.

Twelve numbered criteria cover the engine, the antenna surrogates, the
harness, and the external protocol. Each criterion function returns a
CriterionResult; run_all executes them in order and prints one PASS/FAIL
line apiece, ending in the criterion's wall time. `cfo-bench verify` and
tests/test_acceptance.py both drive this module, so the checks live here
once.

Benchmark reference values (target optima, directivity levels, step
budgets) are frozen in constants near the top; the oracle side of every
comparison is recomputed live by grid search plus local refinement.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import antenna
from .cli import default_probe_count, load_config, sweep_runs
from .engine import (
    CfoConfig,
    RunRecord,
    advance_positions,
    compute_accelerations,
    detect_fitness_saturation,
    retrieve_errant_probes,
    run,
    uniform_diagonal_points,
    uniform_lattice_points,
)
from .objectives import get_objective
from .oracle import grid_oracle, refine
from .rng import NoiseState, SplitMix64, gaussian_batch
from .space import DecisionSpace

# -- benchmark reference targets --------------------------------------------

DIPOLE_ORACLE_RESOLUTION = (251, 91)
DIPOLE_TARGET_POINT = (2.55088, 0.61805)
DIPOLE_TARGET_VALUE = 3.2
LINEAR_ORACLE_RESOLUTION = (201, 101)
LINEAR_TARGET_VALUE = 18.11
CIRCULAR_ORACLE_RESOLUTION = (321, 161)
CIRCULAR_TARGET_VALUE = 6.15
COLLINEAR_TARGET_VALUE = {6: 11.22, 10: 19.10}
COLLINEAR_SPACING_WINDOW = (0.96, 1.01)

# -- benchmark run settings (tuned; documented in the README) ---------------

ANALYTIC_N_STEPS = 500
GAMMA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
DIPOLE_RUN_STEPS = 100
DIPOLE_RUN_PROBES = np.array(
    [
        [1.333, math.pi / 4],
        [2.167, math.pi / 4],
        [1.75, math.pi / 6],
        [1.75, math.pi / 3],
    ]
)
LINEAR_RUN_STEPS = 100
LINEAR_LATTICE = (6, 4)
NOISY_SEED = 7
CIRCULAR_RUN_STEPS = 200
CIRCULAR_RUN_GAMMA = 0.0
COLLINEAR_RUN_STEPS = 40


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} criterion {self.number:2d} ({self.name}): {self.detail}"


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _within_pct(value: float, target: float, pct: float) -> bool:
    return abs(value - target) <= (pct / 100.0) * abs(target)


# ---------------------------------------------------------------------------
# independent slow-path engine step (the cross-check for criterion 1)


def naive_engine_step(positions, fitness, accelerations, cfg, space, frep):
    """Plain-loop restatement of one motion + retrieval + gravity step.

    Deliberately written with scalar Python arithmetic and no shared code
    with the engine, so the two can only agree by computing the same thing.
    Returns (retrieved positions, accelerations at those positions).
    """
    n_p = len(positions)
    n_d = len(positions[0])
    lo = [float(v) for v in space.lower]
    hi = [float(v) for v in space.upper]
    dt2 = float(cfg.delta_t) ** 2

    moved = []
    for p in range(n_p):
        row = []
        for d in range(n_d):
            prev = float(positions[p][d])
            x = prev + 0.5 * float(accelerations[p][d]) * dt2
            if x < lo[d]:
                x = lo[d] + frep * (prev - lo[d])
            elif x > hi[d]:
                x = hi[d] - frep * (hi[d] - prev)
            row.append(min(max(x, lo[d]), hi[d]))
        moved.append(row)

    diag = math.sqrt(sum((hi[d] - lo[d]) ** 2 for d in range(n_d)))
    cutoff = 1e-14 * diag
    accel = []
    for p in range(n_p):
        total = [0.0] * n_d
        for k in range(n_p):
            if k == p:
                continue
            gap = float(fitness[k]) - float(fitness[p])
            if gap <= 0.0:
                continue
            dist = math.sqrt(
                sum((moved[k][d] - moved[p][d]) ** 2 for d in range(n_d))
            )
            if dist <= cutoff:
                continue
            weight = (gap ** float(cfg.alpha)) / (dist ** float(cfg.beta))
            for d in range(n_d):
                total[d] += weight * (moved[k][d] - moved[p][d])
        accel.append([float(cfg.g) * v for v in total])
    return moved, accel


# ---------------------------------------------------------------------------
# shared benchmark runs and oracles (cached; criterion 2 reruns them fresh)


@lru_cache(maxsize=None)
def _objective(obj_id: str):
    return get_objective(obj_id)


def _run_analytic(func_id: str, gamma: float) -> RunRecord:
    objective = _objective(func_id)
    space = objective.bounds
    cfg = CfoConfig(
        n_probes=default_probe_count(space.n_dims),
        n_steps=ANALYTIC_N_STEPS,
        gamma=float(gamma),
    )
    return run(cfg, space, objective)


def _build_analytic_sweep(func_id: str):
    best: Optional[RunRecord] = None
    best_gamma = None
    slowest = 0.0
    for gamma in GAMMA_GRID:
        t0 = time.perf_counter()
        record = _run_analytic(func_id, gamma)
        slowest = max(slowest, time.perf_counter() - t0)
        if best is None or record.final_best_fitness > best.final_best_fitness:
            best = record
            best_gamma = gamma
    return best, best_gamma, slowest


_analytic_sweep = lru_cache(maxsize=None)(_build_analytic_sweep)


def _build_dipole_run() -> RunRecord:
    objective = _objective("pbm1")
    cfg = CfoConfig(
        n_probes=4,
        n_steps=DIPOLE_RUN_STEPS,
        init_scheme="custom",
        initial_probes=DIPOLE_RUN_PROBES.copy(),
        n_avg_steps=10,
    )
    return run(cfg, objective.bounds, objective)


_dipole_run = lru_cache(maxsize=None)(_build_dipole_run)


@lru_cache(maxsize=None)
def _dipole_oracle():
    return grid_oracle(_objective("pbm1"), resolution=DIPOLE_ORACLE_RESOLUTION)


def _build_linear_run(noisy: bool) -> RunRecord:
    if noisy:
        objective = get_objective("pbm2", noise={"seed": NOISY_SEED})
    else:
        objective = _objective("pbm2")
    space = objective.bounds
    cfg = CfoConfig(
        n_probes=LINEAR_LATTICE[0] * LINEAR_LATTICE[1],
        n_steps=LINEAR_RUN_STEPS,
        init_scheme="custom",
        initial_probes=uniform_lattice_points(space, LINEAR_LATTICE),
    )
    return run(cfg, space, objective)


_linear_run = lru_cache(maxsize=None)(_build_linear_run)


@lru_cache(maxsize=None)
def _linear_oracle():
    objective = _objective("pbm2")
    grid = grid_oracle(objective, resolution=LINEAR_ORACLE_RESOLUTION)
    sharpened = refine(
        objective,
        center=grid.argmax,
        half_widths=(0.06, math.pi / 90),
        levels=3,
        n_points=21,
    )
    return grid, sharpened


def _build_circular_run() -> RunRecord:
    objective = _objective("pbm3")
    cfg = CfoConfig(
        n_probes=10,
        n_steps=CIRCULAR_RUN_STEPS,
        init_scheme="on_axis",
        gamma=CIRCULAR_RUN_GAMMA,
    )
    return run(cfg, objective.bounds, objective)


_circular_run = lru_cache(maxsize=None)(_build_circular_run)


@lru_cache(maxsize=None)
def _circular_oracle():
    objective = _objective("pbm3")
    grid = grid_oracle(objective, resolution=CIRCULAR_ORACLE_RESOLUTION)
    sharpened = refine(
        objective,
        center=grid.argmax,
        half_widths=(0.015, math.pi / 160),
        levels=3,
        n_points=21,
    )
    return grid, sharpened


@lru_cache(maxsize=None)
def _collinear_objective(n_elements: int):
    return get_objective("pbm5", n_elements=n_elements)


@lru_cache(maxsize=None)
def _collinear_sweep(n_elements: int):
    """Uniform-spacing 1-D sweep: all inter-element gaps share one value."""
    objective = _collinear_objective(n_elements)
    n_gaps = n_elements - 1

    def uniform(x):
        return objective.evaluate([float(x[0])] * n_gaps)

    bounds = [(0.5, 1.5)]
    grid = grid_oracle(uniform, bounds=bounds, resolution=201)
    sharpened = refine(
        uniform,
        center=grid.argmax,
        half_widths=0.006,
        levels=3,
        n_points=21,
        bounds=bounds,
    )
    return grid, sharpened


def _build_collinear_run(n_elements: int) -> RunRecord:
    objective = _collinear_objective(n_elements)
    space = objective.bounds
    cfg = CfoConfig(
        n_probes=2 * space.n_dims,
        n_steps=COLLINEAR_RUN_STEPS,
        init_scheme="custom",
        initial_probes=uniform_diagonal_points(space, 2 * space.n_dims),
    )
    return run(cfg, space, objective)


_collinear_run = lru_cache(maxsize=None)(_build_collinear_run)


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> CriterionResult:
    rng = SplitMix64(414243)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n_p = 2 + int(rng.next_u64() % 5)
        n_d = 1 + int(rng.next_u64() % 4)
        lower = np.array([rng.next_float() * 10.0 - 5.0 for _ in range(n_d)])
        width = np.array([0.5 + rng.next_float() * 9.5 for _ in range(n_d)])
        space = DecisionSpace(lower=lower, upper=lower + width)
        positions = np.array(
            [
                [lower[d] + rng.next_float() * width[d] for d in range(n_d)]
                for _ in range(n_p)
            ]
        )
        fitness = np.array([rng.next_float() * 200.0 - 100.0 for _ in range(n_p)])
        accel = np.array(
            [[(rng.next_float() - 0.5) * 4.0 for _ in range(n_d)] for _ in range(n_p)]
        )
        frep = 0.05 + 0.95 * rng.next_float()
        cfg = CfoConfig(
            n_probes=n_p,
            n_steps=1,
            g=0.5 + rng.next_float() * 4.0,
            delta_t=0.5 + rng.next_float(),
            alpha=float(1 + int(rng.next_u64() % 3)),
            beta=float(1 + int(rng.next_u64() % 3)),
        )
        raw = advance_positions(positions, accel, cfg.delta_t)
        kept = retrieve_errant_probes(raw, positions, space, frep)
        engine_accel = compute_accelerations(kept, fitness, cfg, space)
        ref_pos, ref_accel = naive_engine_step(
            positions, fitness, accel, cfg, space, frep
        )
        worst = max(worst, _rel_err(kept, ref_pos), _rel_err(engine_accel, ref_accel))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-12 and elapsed < 1.0
    return CriterionResult(
        1,
        "engine step equivalence",
        passed,
        f"max relative error {worst:.3g} over 50 random instances in {elapsed:.2f} s",
    )


def criterion_2() -> CriterionResult:
    # the cached runs are shared with later criteria, so their build time is
    # reported apart from the time to rerun them
    t0 = time.perf_counter()
    gp_best, gp_gamma, _ = _analytic_sweep("gp")
    hb_best, hb_gamma, _ = _analytic_sweep("himmelblau")
    pf_best, pf_gamma, _ = _analytic_sweep("parrott_f4")
    cases: List[Tuple[str, RunRecord, Callable[[], RunRecord]]] = [
        ("gp", gp_best, lambda: _run_analytic("gp", gp_gamma)),
        ("himmelblau", hb_best, lambda: _run_analytic("himmelblau", hb_gamma)),
        ("parrott_f4", pf_best, lambda: _run_analytic("parrott_f4", pf_gamma)),
        ("dipole", _dipole_run(), _build_dipole_run),
        ("linear", _linear_run(False), lambda: _build_linear_run(False)),
        ("linear noisy", _linear_run(True), lambda: _build_linear_run(True)),
        ("circular", _circular_run(), _build_circular_run),
        ("collinear 6", _collinear_run(6), lambda: _build_collinear_run(6)),
        ("collinear 10", _collinear_run(10), lambda: _build_collinear_run(10)),
    ]
    t1 = time.perf_counter()
    mismatched = [
        name for name, cached, fresh in cases if cached.to_json() != fresh().to_json()
    ]
    t2 = time.perf_counter()
    passed = not mismatched
    detail = (
        f"{len(cases)} benchmark runs re-executed with byte-identical records"
        if passed
        else f"records differ for: {', '.join(mismatched)}"
    ) + f"; cached runs built in {t1 - t0:.1f} s, rerun in {t2 - t1:.1f} s"
    return CriterionResult(2, "run determinism", passed, detail)


def criterion_3() -> CriterionResult:
    checks = (
        ("gp", -3.01, (0.0, -1.0), 0.05),
        ("himmelblau", 199.9, None, None),
        ("parrott_f4", 0.999, None, None),
    )
    bits = []
    ok = True
    for func_id, floor, point, radius in checks:
        record, gamma, slowest = _analytic_sweep(func_id)
        good = record.final_best_fitness >= floor and slowest < 5.0
        note = f"{func_id} best {record.final_best_fitness:.6g} (gamma {gamma:g})"
        if point is not None:
            dist = float(
                np.linalg.norm(np.asarray(record.best_point) - np.asarray(point))
            )
            good = good and dist <= radius
            note += f", {dist:.4f} from the optimum"
        ok = ok and good
        bits.append(note + ("" if good else " [below target]"))
    return CriterionResult(3, "analytic suite quality", ok, "; ".join(bits))


def criterion_4() -> CriterionResult:
    oracle = _dipole_oracle()
    record = _dipole_run()
    space = _objective("pbm1").bounds

    d_len = abs(oracle.argmax[0] - DIPOLE_TARGET_POINT[0])
    d_ang = abs(oracle.argmax[1] - DIPOLE_TARGET_POINT[1])
    oracle_ok = d_len <= 0.05 and d_ang <= 0.03
    value_ok = _within_pct(oracle.value, DIPOLE_TARGET_VALUE, 5.0)

    dist = float(np.linalg.norm(np.asarray(record.best_point) - oracle.argmax))
    point_ok = dist <= 0.02 * space.diag_length

    cfg = CfoConfig(n_probes=4, n_steps=DIPOLE_RUN_STEPS, n_avg_steps=10)
    series = record.step_best_fitness
    fired_at = next(
        (j for j in range(len(series)) if detect_fitness_saturation(series, j, cfg)),
        None,
    )
    sat_ok = fired_at is not None and fired_at <= 40

    passed = oracle_ok and value_ok and point_ok and sat_ok
    return CriterionResult(
        4,
        "dipole length-angle benchmark",
        passed,
        (
            f"oracle argmax ({oracle.argmax[0]:.4f}, {oracle.argmax[1]:.4f}) "
            f"value {oracle.value:.4f}; best point {dist:.4f} from argmax "
            f"({0.02 * space.diag_length:.4f} allowed); saturation at step "
            f"{fired_at}"
        ),
    )


def criterion_5() -> CriterionResult:
    _grid, sharpened = _linear_oracle()
    theta_star = float(sharpened.argmax[1])
    theta_ok = abs(theta_star - math.pi / 2) <= 0.02
    value_ok = _within_pct(sharpened.value, LINEAR_TARGET_VALUE, 5.0)

    clean = _linear_run(False)
    clean_ok = _within_pct(clean.final_best_fitness, sharpened.value, 2.0)

    noisy = _linear_run(True)
    noisy_theta = float(noisy.best_point[1])
    noisy_ok = abs(noisy_theta - math.pi / 2) <= 0.1

    passed = theta_ok and value_ok and clean_ok and noisy_ok
    return CriterionResult(
        5,
        "linear array benchmark",
        passed,
        (
            f"oracle {sharpened.value:.4f} at theta {theta_star:.5f}; "
            f"noiseless best {clean.final_best_fitness:.4f}; "
            f"noisy best angle {noisy_theta:.5f}"
        ),
    )


def criterion_6() -> CriterionResult:
    objective = _objective("pbm3")
    candidates = [objective.evaluate([i - 0.5, math.pi / 2]) for i in (1, 2, 3, 4)]
    spread = _rel_err(
        np.asarray(candidates[1:]), np.asarray(candidates[:-1])
    )
    equal_ok = all(
        _rel_err(candidates[i], candidates[0]) <= 1e-9 for i in range(1, 4)
    )
    value_ok = _within_pct(candidates[0], CIRCULAR_TARGET_VALUE, 10.0)

    _grid, sharpened = _circular_oracle()
    record = _circular_run()
    cfo_ok = _within_pct(record.final_best_fitness, sharpened.value, 3.0)

    passed = equal_ok and value_ok and cfo_ok
    return CriterionResult(
        6,
        "circular array benchmark",
        passed,
        (
            f"steering candidates equal (spread {spread:.2g}) at "
            f"{candidates[0]:.4f} vs target {CIRCULAR_TARGET_VALUE}"
            f"{'' if value_ok else ' [surrogate level differs]'}; "
            f"oracle {sharpened.value:.4f}, best {record.final_best_fitness:.4f}"
        ),
    )


def criterion_7() -> CriterionResult:
    bits = []
    ok = True
    for n_el in (6, 10):
        _grid, sharpened = _collinear_sweep(n_el)
        d_star = float(sharpened.argmax[0])
        window_ok = COLLINEAR_SPACING_WINDOW[0] <= d_star <= COLLINEAR_SPACING_WINDOW[1]
        value_ok = _within_pct(sharpened.value, COLLINEAR_TARGET_VALUE[n_el], 5.0)
        record = _collinear_run(n_el)
        coords = np.asarray(record.best_point)
        near_ok = bool(np.all(np.abs(coords - d_star) <= 0.03))
        equal_ok = float(np.ptp(coords)) <= 1e-3
        good = window_ok and value_ok and near_ok and equal_ok
        ok = ok and good
        bits.append(
            f"{n_el} elements: sweep optimum {d_star:.4f} -> {sharpened.value:.4f}, "
            f"best spacings {coords.min():.4f}..{coords.max():.4f}"
            + ("" if good else " [out of window]")
        )
    return CriterionResult(7, "collinear array benchmark", ok, "; ".join(bits))


def criterion_8() -> CriterionResult:
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "sweep.json"
        config_path.write_text(
            json.dumps(
                {
                    "objective": "sgo",
                    "cfo": {"n_probes": 8, "n_steps": 100},
                    "sweep": {
                        "parameter": "gamma",
                        "start": 0.0,
                        "stop": 1.0,
                        "count": 11,
                    },
                    "outputs": {"dir": str(Path(tmp) / "out")},
                }
            ),
            encoding="utf-8",
        )
        spec = load_config(str(config_path))
        _records, rows = sweep_runs(spec, quiet=True)
        rows_ok = all(
            row["n_eval"] == (row["steps"] + 1) * row["n_probes"] for row in rows
        )
        # re-check from the emitted file, not just the in-memory rows
        emitted = (spec.out_dir / "summary.csv").read_text(encoding="utf-8")
        file_ok = True
        for line in emitted.strip().splitlines()[1:]:
            cells = line.split(",")
            file_ok = file_ok and int(cells[10]) == (int(cells[9]) + 1) * int(cells[4])

    record = _collinear_run(6)
    n_eval = (record.saturation_step + 1) * 10
    budget_ok = record.saturation_step <= 10 and n_eval <= 110

    passed = rows_ok and file_ok and budget_ok
    return CriterionResult(
        8,
        "efficiency accounting",
        passed,
        (
            f"summary rows consistent ({len(rows)} runs); 6-element run "
            f"saturated at step {record.saturation_step} with {n_eval} evaluations"
        ),
    )


def criterion_9() -> CriterionResult:
    state = NoiseState.seeded(1234, sigma=0.4472)
    t0 = time.perf_counter()
    draws = gaussian_batch(state, 1_000_000)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(draws))
    var = float(np.var(draws))
    passed = abs(mean) < 0.002 and 0.198 <= var <= 0.202 and elapsed < 2.0
    return CriterionResult(
        9,
        "noise statistics",
        passed,
        f"mean {mean:+.5f}, variance {var:.5f}, {elapsed:.2f} s for 1e6 draws",
    )


def criterion_10() -> CriterionResult:
    cases = (
        ("dipole", lambda th, ph: antenna.dipole_pattern(2.58, th), (0.63, 0.0)),
        (
            "linear",
            antenna.uniform_line_pattern(5.85),
            (math.pi / 2, math.pi / 2),
        ),
        (
            "circular",
            antenna.array_pattern(antenna.circular_array_spec(0.5)),
            (math.pi / 2, 0.0),
        ),
        (
            "collinear",
            antenna.array_pattern(antenna.collinear_array_spec([0.99] * 5)),
            (math.pi / 2, 0.0),
        ),
    )
    bits = []
    ok = True
    for name, pattern, (theta0, phi0) in cases:
        n_theta, n_phi = antenna.DEFAULT_N_THETA, antenna.DEFAULT_N_PHI
        power = antenna.radiated_power(pattern, n_theta, n_phi)
        th, ph, sin_th = antenna.sphere_mesh(n_theta, n_phi)
        f = np.broadcast_to(np.asarray(pattern(th, ph), dtype=float), (n_theta, n_phi))
        d_mesh = 4.0 * math.pi * f * f / power
        ratio = float(
            np.sum(d_mesh * sin_th)
            * (math.pi / n_theta)
            * (2.0 * math.pi / n_phi)
            / (4.0 * math.pi)
        )
        d_base = antenna.directivity(pattern, theta0, phi0, n_theta, n_phi)
        d_fine = antenna.directivity(pattern, theta0, phi0, 2 * n_theta, 2 * n_phi)
        drift = abs(d_fine - d_base) / d_base
        good = 0.999 <= ratio <= 1.001 and drift < 1e-3
        ok = ok and good
        bits.append(f"{name}: ratio {ratio:.6f}, doubling drift {drift:.2e}")
    return CriterionResult(10, "quadrature integrity", ok, "; ".join(bits))


def criterion_11() -> CriterionResult:
    record = _dipole_run()
    cfg = CfoConfig(n_probes=4, n_steps=DIPOLE_RUN_STEPS, n_avg_steps=10)
    series = record.step_best_fitness
    fired = any(
        detect_fitness_saturation(series, j, cfg) for j in range(len(series))
    )
    final_davg = float(record.d_avg[-1])
    passed = fired and final_davg < 0.05
    return CriterionResult(
        11,
        "saturation detectors",
        passed,
        f"fitness saturation fired: {fired}; final average distance {final_davg:.5f}",
    )


@contextmanager
def _package_first_on_pythonpath():
    """Put this package's parent directory first on the inherited PYTHONPATH,
    so `python -m cfobench...` children import this copy of the package."""
    old = os.environ.get("PYTHONPATH")
    root = str(Path(__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, old) if p)
    try:
        yield
    finally:
        if old is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = old


@_package_first_on_pythonpath()
def criterion_12() -> CriterionResult:
    from .external import (
        EvaluationTimeout,
        ExternalObjective,
        ProtocolError,
    )

    server = [sys.executable, "-m", "cfobench.external"]
    builtin = get_objective("neg_sum_squares", n_dims=3)
    rng = SplitMix64(4242)
    worst = 0.0
    with ExternalObjective(server + ["quadratic"], timeout=30.0) as client:
        for _ in range(100):
            x = [rng.next_float() * 10.0 - 5.0 for _ in range(3)]
            worst = max(worst, _rel_err(client.evaluate(x), builtin.evaluate(x)))
    paired_ok = worst <= 1e-12

    malformed_ok = False
    client = ExternalObjective(server + ["malformed"], timeout=30.0)
    try:
        client.evaluate([0.5, 0.5])
    except ProtocolError:
        malformed_ok = True
    finally:
        client.close()

    timeout_ok = False
    client = ExternalObjective(server + ["sleepy"], timeout=2.0)
    try:
        client.evaluate([0.0])
    except EvaluationTimeout:
        timeout_ok = True
    finally:
        client.close()

    # the CLI must report both failure modes with the objective exit code and
    # their own message, which a child that could not start would not give
    exit_codes, messages_ok = [], True
    with tempfile.TemporaryDirectory() as tmp:
        for name, extra, message in (("sleepy", {"timeout": 1.0}, "no reply within"),
                                     ("malformed", {}, "unrecognized reply")):
            options = {
                "command": server + [name],
                "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            }
            options.update(extra)
            config_path = Path(tmp) / f"{name}.json"
            config_path.write_text(
                json.dumps(
                    {
                        "objective": {"id": "external", "options": options},
                        "cfo": {"n_probes": 4, "n_steps": 2},
                        "outputs": {"dir": str(Path(tmp) / name)},
                    }
                ),
                encoding="utf-8",
            )
            proc = subprocess.run(
                [sys.executable, "-m", "cfobench.cli", "run", "--config",
                 str(config_path), "--quiet"],
                capture_output=True,
                timeout=120,
            )
            exit_codes.append(proc.returncode)
            messages_ok = messages_ok and message in proc.stderr.decode()
    cli_ok = exit_codes == [3, 3] and messages_ok

    passed = paired_ok and malformed_ok and timeout_ok and cli_ok
    return CriterionResult(
        12,
        "external protocol",
        passed,
        (
            f"paired oracle max err {worst:.2g}; malformed raised: {malformed_ok}; "
            f"timeout raised: {timeout_ok}; CLI exit codes {exit_codes}, "
            f"messages matched: {messages_ok}"
        ),
    )


CRITERIA: Tuple[Tuple[int, str, Callable[[], CriterionResult]], ...] = (
    (1, "engine step equivalence", criterion_1),
    (2, "run determinism", criterion_2),
    (3, "analytic suite quality", criterion_3),
    (4, "dipole length-angle benchmark", criterion_4),
    (5, "linear array benchmark", criterion_5),
    (6, "circular array benchmark", criterion_6),
    (7, "collinear array benchmark", criterion_7),
    (8, "efficiency accounting", criterion_8),
    (9, "noise statistics", criterion_9),
    (10, "quadrature integrity", criterion_10),
    (11, "saturation detectors", criterion_11),
    (12, "external protocol", criterion_12),
)


def run_all(quiet: bool = False) -> List[CriterionResult]:
    """Run every criterion in order; print one line per criterion with its
    wall time (a criterion that builds a cached run pays for it)."""
    results = []
    for number, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crashed check is a failed check
            result = CriterionResult(
                number, name, False, f"raised {exc.__class__.__name__}: {exc}"
            )
        results.append(result)
        if not quiet:
            print(f"{result.line()} ({time.perf_counter() - t0:.2f} s)", flush=True)
    n_pass = sum(r.passed for r in results)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed", flush=True)
    return results
