"""Seeded workload plans for the cfobench benchmark.

A plan is a list of operations plus the JSON configs they load. Every
operation goes through the package's public entry points (`cli.load_config`
followed by `run_benchmark`, `sweep_runs` or `oracle_command`, or
`oracle.refine`), so the program only ever sees generated config files.

The workload seed draws the custom initial probe sets, the noise seeds and
the external run's start. Seed 0 (DEFAULT_SEED) reproduces the acceptance
suite's custom probe sets exactly, built by the same package helpers on
each objective's bounds; other seeds move each distinct coordinate
value of those sets by a small seeded offset, which keeps the probes that
share a coordinate (and so a power-cache key) sharing it. Layouts built by
an init scheme (the ring run, the gamma sweeps), the grid oracle and the
refine zoom have no seeded input.

Why each workload exists:

- antenna_runs: CFO runs on the four antenna surrogates at the acceptance
  probe layouts with shortened step counts. Nearly all of the time is the
  sphere quadrature in `antenna.radiated_power`; the engine is under 1%.
- analytic_sweep: 11-point gamma sweeps on four analytic functions plus one
  30-D Schwefel run with 120 probes. All engine work and per-row scalar
  objective calls; the antenna layer is idle.
- oracle_grid: grid oracles on pbm1/pbm2/pbm3, a 1001x1001 gp grid through
  the batch path, and a refine zoom. The power cache serves almost every
  `radiated_power` call here, the opposite of antenna_runs.
- external_noisy: an external-evaluator run with trajectory and snapshot
  writers on, plus a seeded noisy gp seed sweep. The only workload that
  exercises the external protocol, the noise stream and the bulk writers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cfobench.acceptance import DIPOLE_RUN_PROBES
from cfobench.engine import CfoConfig, init_probes, uniform_diagonal_points, uniform_lattice_points
from cfobench.objectives import get_objective
from cfobench.space import DecisionSpace

WORKLOADS = ("antenna_runs", "analytic_sweep", "oracle_grid", "external_noisy")
DEFAULT_SEED = 0
# Seeded layouts move each distinct coordinate by up to this share of its range.
JITTER_SHARE = 0.02
# Frozen headline values are checked at DEFAULT_SEED only, with a relative
# tolerance about four times the known cross-platform drift of the ring run
# (6.5406 on py3.10 against 6.5251 on py3.11 + numpy 2.4).
REFERENCE_REL_TOL = 1e-2

# (full size, smoke size) for every length the workloads use.
SIZES = {
    "pbm1_steps": (100, 4),
    "pbm2_steps": (4, 1),
    "pbm3_steps": (4, 1),
    "pbm5_steps": (3, 1),
    "sweep_steps": (60, 5),
    "sweep_count": (11, 2),
    "schwefel_steps": (50, 3),
    "pbm1_grid": ((251, 91), (11, 5)),
    "pbm2_grid": ((201, 101), (11, 5)),
    "pbm3_grid": ((21, 11), (3, 3)),
    "gp_grid": ((1001, 1001), (31, 31)),
    "refine_points": (21, 5),
    "external_steps": (400, 5),
    "noisy_steps": (80, 5),
}

# Headline results (best fitness of a run or sweep, oracle or refine value)
# of the seed commit at DEFAULT_SEED and full size, py3.11.7 + numpy 2.4.6.
REFERENCES = {
    ("antenna_runs", "run_pbm1"): 3.0654646361478357,
    ("antenna_runs", "run_pbm2"): 17.59429873294251,
    ("antenna_runs", "run_pbm3"): 5.138433083866293,
    ("antenna_runs", "run_pbm5"): 11.193038114209166,
    ("analytic_sweep", "sweep_gp"): -3.0993226629524995,
    ("analytic_sweep", "sweep_himmelblau"): 199.9932401646675,
    ("analytic_sweep", "sweep_parrott_f4"): 0.9478540827398781,
    ("analytic_sweep", "sweep_colville"): -20.534712869110553,
    ("analytic_sweep", "run_schwefel_226"): 8917.571413680176,
    ("oracle_grid", "oracle_pbm1"): 3.298787978585985,
    ("oracle_grid", "oracle_pbm2"): 18.14380472490089,
    ("oracle_grid", "oracle_pbm3"): 4.9624485153593545,
    ("oracle_grid", "oracle_gp"): -3.0,
    ("oracle_grid", "refine_pbm2"): 18.223602498820494,
    ("external_noisy", "run_external"): -0.0024999999999999823,
    ("external_noisy", "sweep_gp_noisy"): -1.5980208631302715,
}

EXTERNAL_BOUNDS = [(-5.0, 5.0), (-5.0, 5.0)]
NOISY_SEED_BASE = 7


def _space(obj_id: str, **options) -> DecisionSpace:
    return get_objective(obj_id, **options).bounds


def _on_axis(space: DecisionSpace, n_probes: int, gamma: float):
    """The engine's on_axis layout, so a seed can move it as a custom probe set."""
    cfg = CfoConfig(n_probes=n_probes, n_steps=1, gamma=gamma)
    return init_probes("on_axis", space, cfg)


def _jitter(points, space: DecisionSpace, seed: int, salt: int):
    """Move each distinct coordinate value by a seeded offset; seed 0 keeps all."""
    pts = np.array(points, dtype=float)
    if seed == DEFAULT_SEED:
        return pts
    lo, hi = space.lower, space.upper
    rng = np.random.default_rng([seed, salt])
    for d in range(pts.shape[1]):
        values, inverse = np.unique(pts[:, d], return_inverse=True)
        offsets = rng.uniform(-JITTER_SHARE, JITTER_SHARE, values.size)
        moved = values + offsets * (hi[d] - lo[d])
        pts[:, d] = np.clip(moved, lo[d], hi[d])[inverse]
    return pts


def _custom_cfo(points, n_steps: int, **extra) -> dict:
    pts = np.asarray(points, dtype=float)
    cfo = {
        "n_probes": int(pts.shape[0]),
        "n_steps": int(n_steps),
        "init_scheme": "custom",
        "initial_probes": pts.tolist(),
    }
    cfo.update(extra)
    return cfo


def _antenna_runs(seed, size, python):
    pbm1, pbm2, pbm5 = _space("pbm1"), _space("pbm2"), _space("pbm5", n_elements=6)
    configs = {
        "run_pbm1": {
            "objective": "pbm1",
            "cfo": _custom_cfo(_jitter(DIPOLE_RUN_PROBES, pbm1, seed, 1),
                               size("pbm1_steps"), n_avg_steps=10),
        },
        "run_pbm2": {
            "objective": "pbm2",
            "cfo": _custom_cfo(_jitter(uniform_lattice_points(pbm2, (6, 4)), pbm2, seed, 2),
                               size("pbm2_steps")),
        },
        # the acceptance ring run uses the built-in on-axis scheme, not a
        # custom probe set, so the seed leaves it alone
        "run_pbm3": {
            "objective": "pbm3",
            "cfo": {"n_probes": 10, "n_steps": size("pbm3_steps"),
                    "init_scheme": "on_axis", "gamma": 0.0},
        },
        "run_pbm5": {
            "objective": {"id": "pbm5", "options": {"n_elements": 6}},
            "cfo": _custom_cfo(_jitter(uniform_diagonal_points(pbm5, 10), pbm5, seed, 5),
                               size("pbm5_steps")),
        },
    }
    ops = [{"name": name, "kind": "run", "config": name} for name in configs]
    return configs, ops


def _analytic_sweep(seed, size, python):
    configs = {}
    ops = []
    for obj_id in ("gp", "himmelblau", "parrott_f4", "colville"):
        name = "sweep_" + obj_id
        configs[name] = {
            "objective": obj_id,
            "cfo": {"n_steps": size("sweep_steps")},
            "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0,
                      "count": size("sweep_count")},
        }
        ops.append({"name": name, "kind": "sweep", "config": name})
    schwefel = _space("schwefel_226")
    start = _jitter(_on_axis(schwefel, 120, 0.5), schwefel, seed, 30)
    configs["run_schwefel_226"] = {
        "objective": "schwefel_226",
        "cfo": _custom_cfo(start, size("schwefel_steps")),
    }
    ops.append({"name": "run_schwefel_226", "kind": "run", "config": "run_schwefel_226"})
    return configs, ops


def _oracle_grid(seed, size, python):
    configs = {}
    ops = []
    for obj_id in ("pbm1", "pbm2", "pbm3", "gp"):
        name = "oracle_" + obj_id
        configs[name] = {"objective": obj_id}
        ops.append({"name": name, "kind": "oracle", "config": name,
                    "resolution": list(size(obj_id + "_grid"))})
    ops.append({
        "name": "refine_pbm2",
        "kind": "refine",
        "config": "oracle_pbm2",
        "center_from": "oracle_pbm2",
        "half_widths": [0.06, math.pi / 90],
        "levels": 3,
        "n_points": size("refine_points"),
    })
    return configs, ops


def _external_noisy(seed, size, python):
    space = DecisionSpace.from_bounds(EXTERNAL_BOUNDS)
    if seed == DEFAULT_SEED:
        start = _on_axis(space, 8, 0.5)
    else:
        start = np.random.default_rng([seed, 40]).uniform(space.lower, space.upper, size=(8, 2))
    noise_seed = NOISY_SEED_BASE + 100 * seed
    configs = {
        "run_external": {
            "objective": {"id": "external", "options": {
                "command": [python, "-m", "cfobench.external", "quadratic"],
                "bounds": [list(b) for b in EXTERNAL_BOUNDS],
                "timeout": 60.0,
            }},
            "cfo": _custom_cfo(start, size("external_steps")),
            "outputs": {"trajectories": True, "probe_snapshots": True},
        },
        "sweep_gp_noisy": {
            "objective": {"id": "gp", "options": {"noise": {"seed": noise_seed}}},
            "cfo": {"n_steps": size("noisy_steps")},
            "sweep": {"parameter": "seed", "start": noise_seed,
                      "stop": noise_seed + size("sweep_count") - 1,
                      "count": size("sweep_count")},
        },
    }
    ops = [
        {"name": "run_external", "kind": "run", "config": "run_external"},
        {"name": "sweep_gp_noisy", "kind": "sweep", "config": "sweep_gp_noisy"},
    ]
    return configs, ops


_BUILDERS = {
    "antenna_runs": _antenna_runs,
    "analytic_sweep": _analytic_sweep,
    "oracle_grid": _oracle_grid,
    "external_noisy": _external_noisy,
}


def write_plan(workload: str, seed: int, work_dir: Path, python: str,
               smoke: bool = False) -> Path:
    """Write the workload's configs and plan.json under work_dir; return the plan path."""
    index = 1 if smoke else 0

    def size(key):
        return SIZES[key][index]

    configs, ops = _BUILDERS[workload](seed, size, python)
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, config in configs.items():
        config = dict(config, schema_version=1)
        outputs = dict(config.get("outputs", {}), dir=str(work_dir / "out" / name))
        config["outputs"] = outputs
        (work_dir / (name + ".json")).write_text(json.dumps(config), encoding="utf-8")
    for op in ops:
        sweep = configs[op["config"]].get("sweep")
        op["units"] = sweep["count"] if op["kind"] == "sweep" else 1
        op["config"] = str(work_dir / (op["config"] + ".json"))
        op["out_dir"] = str(work_dir / "out" / op["name"])
        ref = REFERENCES.get((workload, op["name"]))
        op["reference"] = ref if seed == DEFAULT_SEED and not smoke else None
    plan = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "uses_antenna": workload in ("antenna_runs", "oracle_grid"),
        "reference_rel_tol": REFERENCE_REL_TOL,
        "ops": ops,
    }
    path = work_dir / "plan.json"
    path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return path
