"""Repository acceptance suite.

Twelve numbered criteria cover the engine, the antenna surrogates, the
harness, and the external protocol. Each criterion function returns
(passed, detail); CRITERIA gives it its number and name, and run_all
executes them in order and prints one PASS/FAIL line apiece, ending in the
criterion's wall time. `cfo-bench verify` and tests/test_acceptance.py both
drive this module, so the checks live here once.

Benchmark reference values (target optima, directivity levels, step
budgets) are frozen in constants near the top; the oracle side of every
comparison is recomputed live by grid search plus local refinement.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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
    run_group,
    uniform_diagonal_points,
    uniform_lattice_points,
)
from .objectives import get_objective
from .oracle import OracleResult, grid_oracle, refine
from .rng import NoiseState, SplitMix64, gaussian_deviate
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
# (id, fitness floor, known optimum or None, allowed distance from it)
ANALYTIC_TARGETS = (
    ("gp", -3.01, (0.0, -1.0), 0.05),
    ("himmelblau", 199.9, None, None),
    ("parrott_f4", 0.999, None, None),
)

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


Verdict = Tuple[bool, str]  # what a criterion returns: (passed, detail)


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


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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
# shared benchmark runs (cached; criterion 2 reruns each one alone, fresh)


@lru_cache(maxsize=None)
def _analytic_sweep(func_id: str):
    """The gamma sweep on one analytic id as one lockstep group sharing one
    objective: (best record, its gamma, the group's wall time). The first
    maximum of final_best_fitness wins, so a tie goes to the lower gamma."""
    objective = get_objective(func_id)
    n_probes = default_probe_count(objective.bounds.n_dims)
    cfgs = [CfoConfig(n_probes=n_probes, n_steps=ANALYTIC_N_STEPS, gamma=gamma)
            for gamma in GAMMA_GRID]
    t0 = time.perf_counter()
    records = run_group(cfgs, objective.bounds, [objective] * len(cfgs))
    elapsed = time.perf_counter() - t0
    if isinstance(records[-1], Exception):  # a failed run ends the list
        raise records[-1]
    best = max(range(len(records)), key=lambda i: records[i].final_best_fitness)
    return records[best], GAMMA_GRID[best], elapsed


def _dipole_run() -> RunRecord:
    objective = get_objective("pbm1")
    cfg = CfoConfig(
        n_probes=4,
        n_steps=DIPOLE_RUN_STEPS,
        init_scheme="custom",
        initial_probes=DIPOLE_RUN_PROBES.copy(),
        n_avg_steps=10,
    )
    return run(cfg, objective.bounds, objective)


def _linear_run(noise: Optional[dict]) -> RunRecord:
    objective = get_objective("pbm2", noise=noise)
    space = objective.bounds
    cfg = CfoConfig(
        n_probes=LINEAR_LATTICE[0] * LINEAR_LATTICE[1],
        n_steps=LINEAR_RUN_STEPS,
        init_scheme="custom",
        initial_probes=uniform_lattice_points(space, LINEAR_LATTICE),
    )
    return run(cfg, space, objective)


def _circular_run() -> RunRecord:
    objective = get_objective("pbm3")
    cfg = CfoConfig(
        n_probes=10,
        n_steps=CIRCULAR_RUN_STEPS,
        init_scheme="on_axis",
        gamma=CIRCULAR_RUN_GAMMA,
    )
    return run(cfg, objective.bounds, objective)


def _collinear_run(n_elements: int) -> RunRecord:
    objective = get_objective("pbm5", n_elements=n_elements)
    space = objective.bounds
    cfg = CfoConfig(
        n_probes=2 * space.n_dims,
        n_steps=COLLINEAR_RUN_STEPS,
        init_scheme="custom",
        initial_probes=uniform_diagonal_points(space, 2 * space.n_dims),
    )
    return run(cfg, space, objective)


SHARED_RUNS: Dict[str, Callable[[], RunRecord]] = {
    "dipole": _dipole_run,
    "linear": partial(_linear_run, None),
    "linear noisy": partial(_linear_run, {"seed": NOISY_SEED}),
    "circular": _circular_run,
    "collinear 6": partial(_collinear_run, 6),
    "collinear 10": partial(_collinear_run, 10),
}


@lru_cache(maxsize=None)
def _shared_run(name: str) -> RunRecord:
    return SHARED_RUNS[name]()


def _dipole_saturation_step() -> Optional[int]:
    """First step of the dipole run at which fitness saturation fires, or None."""
    record = _shared_run("dipole")
    cfg = CfoConfig.from_json(record.config)
    series = record.step_best_fitness
    return next(
        (j for j in range(len(series)) if detect_fitness_saturation(series, j, cfg)),
        None,
    )


def _sharpened_oracle(objective, resolution, half_widths, bounds=None) -> OracleResult:
    """Grid search, then three 21-point zooms around the grid's argmax."""
    grid = grid_oracle(objective, bounds=bounds, resolution=resolution)
    return refine(
        objective,
        center=grid.argmax,
        half_widths=half_widths,
        levels=3,
        n_points=21,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> Verdict:
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
    return passed, (
        f"max relative error {worst:.3g} over 50 random instances in {elapsed:.2f} s"
    )


def criterion_2() -> Verdict:
    # the cached runs are shared with later criteria, so their build time is
    # reported apart from the time to rerun them. The rerun starts cold: each
    # builder makes a fresh objective, whose power memo is empty, so every
    # power integral the runs need is computed again. Each analytic best ran
    # in its sweep's lockstep group, and is rerun alone from the config its
    # record echoes.
    def alone(func_id: str, record: RunRecord) -> RunRecord:
        objective = get_objective(func_id)
        return run(CfoConfig.from_json(record.config), objective.bounds, objective)

    t0 = time.perf_counter()
    cases: List[Tuple[str, RunRecord, Callable[[], RunRecord]]] = []
    for func_id, *_ in ANALYTIC_TARGETS:
        best = _analytic_sweep(func_id)[0]
        cases.append((func_id, best, partial(alone, func_id, best)))
    cases += [(name, _shared_run(name), build) for name, build in SHARED_RUNS.items()]
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
    return passed, detail


def criterion_3() -> Verdict:
    bits = []
    ok = True
    for func_id, floor, point, radius in ANALYTIC_TARGETS:
        record, gamma, group_s = _analytic_sweep(func_id)
        good = record.final_best_fitness >= floor and group_s < 5.0
        note = f"{func_id} best {record.final_best_fitness:.6g} (gamma {gamma:g})"
        if point is not None:
            dist = float(
                np.linalg.norm(np.asarray(record.best_point) - np.asarray(point))
            )
            good = good and dist <= radius
            note += f", {dist:.4f} from the optimum"
        ok = ok and good
        bits.append(note + ("" if good else " [below target]"))
    return ok, "; ".join(bits)


def criterion_4() -> Verdict:
    objective = get_objective("pbm1")
    oracle = grid_oracle(objective, resolution=DIPOLE_ORACLE_RESOLUTION)
    record = _shared_run("dipole")
    space = objective.bounds

    d_len = abs(oracle.argmax[0] - DIPOLE_TARGET_POINT[0])
    d_ang = abs(oracle.argmax[1] - DIPOLE_TARGET_POINT[1])
    oracle_ok = d_len <= 0.05 and d_ang <= 0.03
    value_ok = _within_pct(oracle.value, DIPOLE_TARGET_VALUE, 5.0)

    dist = float(np.linalg.norm(np.asarray(record.best_point) - oracle.argmax))
    point_ok = dist <= 0.02 * space.diag_length

    fired_at = _dipole_saturation_step()
    sat_ok = fired_at is not None and fired_at <= 40

    passed = oracle_ok and value_ok and point_ok and sat_ok
    return passed, (
        f"oracle argmax ({oracle.argmax[0]:.4f}, {oracle.argmax[1]:.4f}) "
        f"value {oracle.value:.4f}; best point {dist:.4f} from argmax "
        f"({0.02 * space.diag_length:.4f} allowed); saturation at step "
        f"{fired_at}"
    )


def criterion_5() -> Verdict:
    sharpened = _sharpened_oracle(
        get_objective("pbm2"), LINEAR_ORACLE_RESOLUTION, (0.06, math.pi / 90)
    )
    theta_star = float(sharpened.argmax[1])
    theta_ok = abs(theta_star - math.pi / 2) <= 0.02
    value_ok = _within_pct(sharpened.value, LINEAR_TARGET_VALUE, 5.0)

    clean = _shared_run("linear")
    clean_ok = _within_pct(clean.final_best_fitness, sharpened.value, 2.0)

    noisy = _shared_run("linear noisy")
    noisy_theta = float(noisy.best_point[1])
    noisy_ok = abs(noisy_theta - math.pi / 2) <= 0.1

    passed = theta_ok and value_ok and clean_ok and noisy_ok
    return passed, (
        f"oracle {sharpened.value:.4f} at theta {theta_star:.5f}; "
        f"noiseless best {clean.final_best_fitness:.4f}; "
        f"noisy best angle {noisy_theta:.5f}"
    )


def criterion_6() -> Verdict:
    objective = get_objective("pbm3")
    candidates = [objective.evaluate([i - 0.5, math.pi / 2]) for i in (1, 2, 3, 4)]
    spread = _rel_err(candidates[1:], candidates[:-1])
    equal_ok = all(
        _rel_err(candidates[i], candidates[0]) <= 1e-9 for i in range(1, 4)
    )
    value_ok = _within_pct(candidates[0], CIRCULAR_TARGET_VALUE, 10.0)

    sharpened = _sharpened_oracle(
        objective, CIRCULAR_ORACLE_RESOLUTION, (0.015, math.pi / 160)
    )
    record = _shared_run("circular")
    cfo_ok = _within_pct(record.final_best_fitness, sharpened.value, 3.0)

    passed = equal_ok and value_ok and cfo_ok
    return passed, (
        f"steering candidates equal (spread {spread:.2g}) at "
        f"{candidates[0]:.4f} vs target {CIRCULAR_TARGET_VALUE}"
        f"{'' if value_ok else ' [surrogate level differs]'}; "
        f"oracle {sharpened.value:.4f}, best {record.final_best_fitness:.4f}"
    )


def criterion_7() -> Verdict:
    bits = []
    ok = True
    for n_el, target in COLLINEAR_TARGET_VALUE.items():
        objective = get_objective("pbm5", n_elements=n_el)
        # uniform-spacing 1-D sweep: all inter-element gaps share one value
        sharpened = _sharpened_oracle(
            lambda x: objective.evaluate([float(x[0])] * (n_el - 1)),
            201,
            0.006,
            bounds=[(0.5, 1.5)],
        )
        d_star = float(sharpened.argmax[0])
        window_ok = COLLINEAR_SPACING_WINDOW[0] <= d_star <= COLLINEAR_SPACING_WINDOW[1]
        value_ok = _within_pct(sharpened.value, target, 5.0)
        record = _shared_run(f"collinear {n_el}")
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
    return ok, "; ".join(bits)


def criterion_8() -> Verdict:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {
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
        spec = load_config(_write_config(Path(tmp) / "sweep.json", doc))
        _records, rows = sweep_runs(spec, quiet=True)
        rows_ok = all(
            row["n_eval"] == (row["steps"] + 1) * row["n_probes"] for row in rows
        )
        # re-check from the emitted file, not just the in-memory rows
        with open(spec.out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
            file_ok = all(
                int(row["n_eval"]) == (int(row["steps"]) + 1) * int(row["n_probes"])
                for row in csv.DictReader(fh)
            )

    record = _shared_run("collinear 6")
    n_eval = (record.saturation_step + 1) * 10
    budget_ok = record.saturation_step <= 10 and n_eval <= 110

    passed = rows_ok and file_ok and budget_ok
    return passed, (
        f"summary rows consistent ({len(rows)} runs); 6-element run "
        f"saturated at step {record.saturation_step} with {n_eval} evaluations"
    )


def criterion_9() -> Verdict:
    state = NoiseState.seeded(1234, sigma=0.4472)
    t0 = time.perf_counter()
    draws = gaussian_deviate(state, 1_000_000)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(draws))
    var = float(np.var(draws))
    passed = abs(mean) < 0.002 and 0.198 <= var <= 0.202 and elapsed < 2.0
    return passed, (
        f"mean {mean:+.5f}, variance {var:.5f}, {elapsed:.2f} s for 1e6 draws"
    )


def criterion_10() -> Verdict:
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
        # the ratio divides the mesh's sum of f^2 sin(theta) by the same sum
        # (power), so it is 1 up to rounding and can fail only through it;
        # the doubling drift is the convergence check
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
    return ok, "; ".join(bits)


def criterion_11() -> Verdict:
    fired = _dipole_saturation_step() is not None
    final_davg = float(_shared_run("dipole").d_avg[-1])
    passed = fired and final_davg < 0.05
    return passed, (
        f"fitness saturation fired: {fired}; final average distance {final_davg:.5f}"
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
def criterion_12() -> Verdict:
    """Five checks, run side by side on threads: each has its own child or CLI
    process, and most of their time is spent waiting on a timeout."""
    from .external import (
        EvaluationTimeout,
        ExternalObjective,
        ProtocolError,
    )

    server = [sys.executable, "-m", "cfobench.external"]

    def paired_error() -> float:
        builtin = get_objective("neg_sum_squares", n_dims=3)
        rng = SplitMix64(4242)
        worst = 0.0
        with ExternalObjective(server + ["quadratic"], timeout=30.0) as client:
            for _ in range(100):
                x = [rng.next_float() * 10.0 - 5.0 for _ in range(3)]
                worst = max(worst, _rel_err(client.evaluate([x])[0], builtin.evaluate(x)))
        return worst

    def raises(name, timeout, x, error) -> bool:
        with ExternalObjective(server + [name], timeout=timeout) as client:
            try:
                client.evaluate([x])
            except error:
                return True
        return False

    # the CLI must report both failure modes with the objective exit code and
    # their own message, which a child that could not start would not give
    def cli_run(tmp, name, extra, message) -> Tuple[int, bool]:
        options = {
            "command": server + [name],
            "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            **extra,
        }
        doc = {
            "objective": {"id": "external", "options": options},
            "cfo": {"n_probes": 4, "n_steps": 2},
            "outputs": {"dir": str(Path(tmp) / name)},
        }
        config_path = _write_config(Path(tmp) / f"{name}.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "cfobench.cli", "run", "--config",
             config_path, "--quiet"],
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, message in proc.stderr.decode()

    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(max_workers=5) as pool:
        paired = pool.submit(paired_error)
        malformed = pool.submit(raises, "malformed", 30.0, [0.5, 0.5], ProtocolError)
        sleepy = pool.submit(raises, "sleepy", 2.0, [0.0], EvaluationTimeout)
        cli_runs = [pool.submit(cli_run, tmp, name, extra, message)
                    for name, extra, message in (("sleepy", {"timeout": 1.0}, "no reply within"),
                                                 ("malformed", {}, "unrecognized reply"))]
        worst = paired.result()
        malformed_ok = malformed.result()
        timeout_ok = sleepy.result()
        exit_codes = [run.result()[0] for run in cli_runs]
        messages_ok = all(run.result()[1] for run in cli_runs)
    paired_ok = worst <= 1e-12
    cli_ok = exit_codes == [3, 3] and messages_ok

    passed = paired_ok and malformed_ok and timeout_ok and cli_ok
    return passed, (
        f"paired oracle max err {worst:.2g}; malformed raised: {malformed_ok}; "
        f"timeout raised: {timeout_ok}; CLI exit codes {exit_codes}, "
        f"messages matched: {messages_ok}"
    )


CRITERIA: Tuple[Tuple[int, str, Callable[[], Verdict]], ...] = (
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
    for number, name, check in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {exc.__class__.__name__}: {exc}"
        result = CriterionResult(number, name, passed, detail)
        results.append(result)
        if not quiet:
            print(f"{result.line()} ({time.perf_counter() - t0:.2f} s)", flush=True)
    n_pass = sum(r.passed for r in results)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed", flush=True)
    return results
