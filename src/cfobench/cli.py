"""Command-line benchmark harness.

Subcommands:

  run     execute one optimization run from a JSON config
  sweep   execute a parameter sweep and emit a summary table
  oracle  brute-force grid maximization of the configured objective
  verify  run the repository acceptance suite

Config schema (JSON, all blocks except "objective" optional)::

    {
      "schema_version": 1,
      "objective": {"id": "gp", "options": {}},
      "bounds": [[-2.0, 2.0], [-2.0, 2.0]],
      "cfo": {"n_probes": 8, "n_steps": 500, "gamma": 0.5, ...},
      "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 11},
      "outputs": {"dir": "cfo_out", "fitness": true, "davg": true,
                  "best_probe": true, "probe_snapshots": false,
                  "trajectories": false, "summary": true}
    }

"objective" may also be a bare id string. The cfo keys are the CfoConfig
fields, which record.json echoes under "config"; n_probes defaults to 4 per
dimension (at least 6) and n_steps to 500. Numbers must be finite. Per-step
positions are kept only for trajectories and 2-D probe snapshots. Exit
codes: 0 success, 2 config error, 3 objective or protocol error, 4 internal
invariant violation (verify: 1 when a criterion fails).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .engine import (
    CfoConfig,
    ConfigError,
    EngineError,
    InvariantError,
    RunRecord,
    run,
    run_group,
)
from .objectives import Objective, ObjectiveError, get_objective, is_stateless, list_objectives
from .oracle import grid_oracle
from .space import DecisionSpace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBJECTIVE = 3
EXIT_INTERNAL = 4

SWEEP_PARAMETERS = ("gamma", "frep_init", "n_probes", "seed")
DEFAULT_EMIT = {
    "fitness": True,
    "davg": True,
    "best_probe": True,
    "probe_snapshots": False,
    "trajectories": False,
    "summary": True,
}
EMIT_FLAGS = tuple(DEFAULT_EMIT)
DEFAULT_N_STEPS = 500
DEFAULT_PROBES_PER_DIM = 4
DEFAULT_MIN_PROBES = 6
# sweep_groups' limit on a lockstep group: past 16 runs a run's share of a
# gp step hardly falls, while a group of runs with their own objectives
# (noisy ones) keeps them all alive; the engine bounds the group's pair
# arrays itself, whatever its size
MAX_GROUP_RUNS = 16


def default_probe_count(n_dims: int) -> int:
    """Documented default: 4 probes per dimension, never fewer than 6."""
    return max(DEFAULT_MIN_PROBES, DEFAULT_PROBES_PER_DIM * n_dims)


@dataclass
class RunSpec:
    """A fully validated run description (config file plus CLI overrides)."""

    objective_id: str
    objective_options: dict
    objective: Objective
    space: DecisionSpace
    cfo: CfoConfig
    sweep: Optional[dict]
    out_dir: Path
    emit: Dict[str, bool]


# ---------------------------------------------------------------------------
# config loading


def _require_keys(block: dict, allowed, where: str):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}")


def _parse_objective_block(raw):
    if isinstance(raw, str):
        return raw, {}
    if isinstance(raw, dict):
        _require_keys(raw, ("id", "options"), "objective")
        if "id" not in raw or not isinstance(raw["id"], str):
            raise ConfigError("objective.id: a string id is required")
        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("objective.options: must be an object")
        return raw["id"], copy.deepcopy(options)
    raise ConfigError("objective: must be an id string or {id, options}")


def _parse_bounds_block(raw):
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError("bounds: must be a nonempty list of [low, high] pairs")
    pairs = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise ConfigError(f"bounds[{i}]: expected a [low, high] number pair")
        pairs.append((float(pair[0]), float(pair[1])))
    return pairs


def _parse_cfo_block(raw: dict, n_dims: int) -> CfoConfig:
    if not isinstance(raw, dict):
        raise ConfigError("cfo: must be an object")
    return CfoConfig.from_json(
        {"n_probes": default_probe_count(n_dims), "n_steps": DEFAULT_N_STEPS, **raw}
    )


def _parse_sweep_block(raw):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("sweep: must be an object")
    _require_keys(raw, ("parameter", "start", "stop", "count"), "sweep")
    for key in ("parameter", "start", "stop", "count"):
        if key not in raw:
            raise ConfigError(f"sweep.{key}: required")
    parameter = raw["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep.parameter: {parameter!r} is not one of {list(SWEEP_PARAMETERS)}"
        )
    for key in ("start", "stop"):
        v = raw[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"sweep.{key}: must be a number")
    count = raw["count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigError("sweep.count: must be an integer")
    if count < 2:
        raise ConfigError("sweep.count: a sweep needs at least 2 runs")
    return {
        "parameter": parameter,
        "start": float(raw["start"]),
        "stop": float(raw["stop"]),
        "count": count,
    }


def _parse_outputs_block(raw):
    emit = dict(DEFAULT_EMIT)
    out_dir = None
    if raw is None:
        return out_dir, emit
    if not isinstance(raw, dict):
        raise ConfigError("outputs: must be an object")
    _require_keys(raw, ("dir",) + EMIT_FLAGS, "outputs")
    if "dir" in raw:
        if not isinstance(raw["dir"], str) or not raw["dir"]:
            raise ConfigError("outputs.dir: must be a nonempty string")
        out_dir = raw["dir"]
    for flag in EMIT_FLAGS:
        if flag in raw:
            if not isinstance(raw[flag], bool):
                raise ConfigError(f"outputs.{flag}: must be a boolean")
            emit[flag] = raw[flag]
    return out_dir, emit


def _with_noise_seed(options: dict, noise_seed: Optional[int]) -> dict:
    """A deep copy of the objective options, with noise.seed set when given
    (a missing noise block becomes {"seed": noise_seed}; a block that is not
    an object is left for get_objective to reject)."""
    options = copy.deepcopy(options)
    noise = options.get("noise")
    if noise_seed is not None and (noise is None or isinstance(noise, dict)):
        options["noise"] = dict(noise or {}, seed=int(noise_seed))
    return options


def _close(objective) -> None:
    """Release the objective's resources (an external child process), if any."""
    closer = getattr(objective, "close", None)
    if closer is not None:
        closer()


def _finite(parse):
    """A json number hook that rejects literals outside the finite doubles."""
    def parse_finite(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"{text}: config numbers must be finite")
        return parse(text)
    return parse_finite


def load_config(path, out_override=None, seed_override=None) -> RunSpec:
    """Parse and validate a JSON config file into a ready-to-run spec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be a JSON object")
    _require_keys(
        raw,
        ("schema_version", "objective", "bounds", "cfo", "sweep", "outputs"),
        "config root",
    )
    version = raw.get("schema_version", 1)
    if version != 1:
        raise ConfigError(f"schema_version: unsupported version {version!r}")
    if "objective" not in raw:
        raise ConfigError("objective: required")

    objective_id, options = _parse_objective_block(raw["objective"])
    sweep = _parse_sweep_block(raw.get("sweep"))
    noise = options.get("noise")
    if (seed_override is None and sweep is not None and sweep["parameter"] == "seed"
            and isinstance(noise, dict) and "seed" not in noise):
        # a seed sweep gives every run its seed; the spec's own objective,
        # used by run and oracle, takes the first
        seed_override = _sweep_values(sweep)[0]
    options = _with_noise_seed(options, seed_override)
    objective = get_objective(objective_id, **options)
    try:
        bounds_pairs = _parse_bounds_block(raw.get("bounds"))
        space = (
            DecisionSpace.from_bounds(bounds_pairs)
            if bounds_pairs is not None
            else objective.bounds
        )
        if space.n_dims != objective.n_dims:
            raise ConfigError(
                f"bounds: {space.n_dims} dimensions for a "
                f"{objective.n_dims}-dimensional objective"
            )

        cfg = _parse_cfo_block(raw.get("cfo", {}), space.n_dims)
        conf_dir, emit = _parse_outputs_block(raw.get("outputs"))
        cfg.validate(space)
    except BaseException:
        _close(objective)  # an external child must not outlive the config error
        raise

    out_dir = out_override or os.environ.get("CFO_OUT_DIR") or conf_dir or "cfo_out"
    return RunSpec(
        objective_id=objective_id,
        objective_options=options,
        objective=objective,
        space=space,
        cfo=cfg,
        sweep=sweep,
        out_dir=Path(out_dir),
        emit=emit,
    )


# ---------------------------------------------------------------------------
# output writers


def _write_lines(path: Path, lines: List[str]):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _writes_history(emit: Dict[str, bool], n_dims: int) -> bool:
    """Do the outputs print per-step positions (snapshots are 2-D only)?"""
    return emit["trajectories"] or (emit["probe_snapshots"] and n_dims == 2)


def write_run_files(record: RunRecord, out_dir: Path, emit: Dict[str, bool],
                    n_dims: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    for flag, series, fmt in (("fitness", record.step_best_fitness, "%d %.17g"),
                              ("davg", record.d_avg, "%d %.17g"),
                              ("best_probe", record.best_probe, "%d %d")):
        if emit.get(flag):
            _write_lines(out_dir / (flag + ".txt"), [fmt % (j, v) for j, v in enumerate(series)])
    snapshots = emit.get("probe_snapshots") and n_dims == 2
    if snapshots or emit.get("trajectories"):
        # every position is formatted once: rows[j][p] is probe p at step j
        # (one step's floats converted at a time, so fewer are alive at once)
        history = record.positions_history
        row = " ".join(["%.17g"] * history.shape[2])
        rows = [[row % tuple(point) for point in step.tolist()] for step in history]
        if snapshots:
            snap_dir = out_dir / "probes"
            snap_dir.mkdir(exist_ok=True)
            for j, step in enumerate(rows):
                _write_lines(snap_dir / ("step_%04d.txt" % j), step)
        if emit.get("trajectories"):
            traj_dir = out_dir / "trajectories"
            traj_dir.mkdir(exist_ok=True)
            for p in range(history.shape[1]):
                _write_lines(traj_dir / ("probe_%02d.txt" % (p + 1)),
                             [("%d " % j) + step[p] for j, step in enumerate(rows)])
    (out_dir / "record.json").write_text(record.to_json() + "\n", encoding="utf-8")


class _Column(NamedTuple):
    """One column of summary.csv and summary.txt, and its summary-row key."""

    csv: str    # CSV header and row key; PARAM_COLUMN is headed by the sweep label
    txt: str    # TXT header, right-aligned in `width` characters
    width: int
    csv_fmt: str
    txt_fmt: str
    value: Callable[[int, object, RunRecord], object]  # (run number, sweep value, record)


def _echo(name: str):
    return lambda run, value, record: record.config[name]


PARAM_COLUMN = "value"
SUMMARY_COLUMNS = (
    _Column("run", "Run", 5, "%d", "%d", lambda run, value, record: run),
    _Column(PARAM_COLUMN, PARAM_COLUMN, 13, "%.17g", "%.7g", lambda run, value, record: value),
    _Column("n_steps", "Nt", 7, "%d", "%d", _echo("n_steps")),
    _Column("n_dims", "Nd", 4, "%d", "%d", lambda run, value, record: len(record.bounds)),
    _Column("n_probes", "Np", 5, "%d", "%d", _echo("n_probes")),
    _Column("g", "G", 8, "%.17g", "%.3f", _echo("g")),
    _Column("delta_t", "DelT", 8, "%.17g", "%.3f", _echo("delta_t")),
    _Column("alpha", "Alpha", 8, "%.17g", "%.3f", _echo("alpha")),
    _Column("beta", "Beta", 8, "%.17g", "%.3f", _echo("beta")),
    _Column("steps", "Steps", 7, "%d", "%d", lambda run, value, record: record.saturation_step),
    _Column("n_eval", "Neval", 9, "%d", "%d",
            lambda run, value, record: record.n_eval[record.saturation_step]),
    _Column("frep_final", "Frep", 9, "%.17g", "%.4f", lambda run, value, record: record.frep[-1]),
    _Column("best_fitness", "Fitness", 20, "%.17g", "%.10g",
            lambda run, value, record: record.final_best_fitness),
)


def _summary_rows(records: List[RunRecord], values: List) -> List[dict]:
    """One dict per run, keyed by the columns' CSV headers."""
    return [{c.csv: c.value(i + 1, value, record) for c in SUMMARY_COLUMNS}
            for i, (record, value) in enumerate(zip(records, values))]


def _format_point(point) -> str:
    return "(" + ", ".join("%.8g" % v for v in np.asarray(point).ravel()) + ")"


def write_summary(out_dir: Path, rows: List[dict], records: List[RunRecord],
                  param_label: str):
    """Emit summary.csv plus the fixed-width human table summary.txt.

    A run without a sweep value (None) gets an empty CSV cell and "-".
    """
    out_dir.mkdir(parents=True, exist_ok=True)

    def header(name: str) -> str:
        return param_label if name == PARAM_COLUMN else name

    def cell(fmt: str, value, empty: str) -> str:
        return empty if value is None else fmt % value

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([header(c.csv) for c in SUMMARY_COLUMNS])
        writer.writerows([cell(c.csv_fmt, row[c.csv], "") for c in SUMMARY_COLUMNS]
                         for row in rows)
    table = [[header(c.txt) for c in SUMMARY_COLUMNS]]
    table += [[cell(c.txt_fmt, row[c.csv], "-") for c in SUMMARY_COLUMNS] for row in rows]
    lines = ["".join(text.rjust(c.width) for text, c in zip(line, SUMMARY_COLUMNS))
             for line in table]

    best_i = max(range(len(rows)), key=lambda i: rows[i]["best_fitness"])
    best_row = rows[best_i]
    best_record = records[best_i]
    lines.append("")
    if best_row[PARAM_COLUMN] is None:
        label = "Best run: %d" % best_row["run"]
    else:
        label = "Best run: %d (%s = %.7g)" % (
            best_row["run"], param_label, best_row[PARAM_COLUMN],
        )
    lines.append(
        "%s  Fitness = %.10g  at %s"
        % (label, best_row["best_fitness"], _format_point(best_record.best_point))
    )
    total = sum(row["n_eval"] for row in rows)
    lines.append("Total Function Evaluations: %d" % total)
    _write_lines(out_dir / "summary.txt", lines)
    return best_i, total


# ---------------------------------------------------------------------------
# run / sweep execution


def _result_line(name: str, record: RunRecord) -> str:
    steps = record.saturation_step
    return (
        "%s: best %.10g at %s; saturation step %d; n_eval %d; %s"
        % (
            name,
            record.final_best_fitness,
            _format_point(record.best_point),
            steps,
            record.n_eval[steps],
            record.termination_reason,
        )
    )


def run_benchmark(spec: RunSpec, quiet: bool = False) -> RunRecord:
    """Execute a single configured run and write its output files."""
    try:
        record = run(spec.cfo, spec.space, spec.objective,
                     keep_history=_writes_history(spec.emit, spec.space.n_dims))
    finally:
        _close(spec.objective)
    write_run_files(record, spec.out_dir, spec.emit, spec.space.n_dims)
    if spec.emit.get("summary"):
        rows = _summary_rows([record], [None])
        write_summary(spec.out_dir, rows, [record], "Param")
    if not quiet:
        print(_result_line(spec.objective_id, record))
    return record


def _sweep_values(sweep: dict) -> List:
    grid = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
    if sweep["parameter"] in ("n_probes", "seed"):
        return [int(round(v)) for v in grid]
    return [float(v) for v in grid]


def _sweep_run_config(spec: RunSpec, parameter: str, value):
    # the seed sweeps the objective's noise stream, not a CfoConfig field
    changes = {} if parameter == "seed" else {parameter: value}
    cfg = dataclasses.replace(spec.cfo, **changes)
    cfg.validate(spec.space)
    return cfg


def sweep_groups(spec: RunSpec, cfgs: List[CfoConfig], jobs: int = 1) -> List[range]:
    """Cut a sweep's runs into the lockstep groups run_group() steps together.

    A group is consecutive runs with one probe count, at most
    MAX_GROUP_RUNS of them (runs with their own objectives keep them alive
    until the group ends) and at most a jobs-th of the sweep (rounded up),
    so each of jobs threads has a group to take. The group's size is not
    bounded by its pair arrays: the engine step works on them in blocks
    that stay in cache. An objective that owns an external child gets one
    run per group, so a sweep thread holds one child at a time.
    """
    external = getattr(spec.objective, "close", None) is not None
    size = min(MAX_GROUP_RUNS, -(-len(cfgs) // jobs))
    groups, start = [], 0
    for i in range(1, len(cfgs) + 1):
        if (i == len(cfgs) or external
                or int(cfgs[i].n_probes) != int(cfgs[start].n_probes) or i - start >= size):
            groups.append(range(start, i))
            start = i
    return groups


def sweep_runs(spec: RunSpec, jobs: int = 1, quiet: bool = False):
    """Run the configured sweep; returns (records, summary rows).

    The runs go through run_group() in the groups sweep_groups() cuts, and
    jobs threads take whole groups. A group builds its objectives when it
    starts and closes them when it ends: one it shares among its runs when
    the spec's objective has no noise and no close (a stateless one, so the
    group evaluates all its rows in one call a step), else one per run, so
    each run of a noisy sweep starts its own stream and each external run
    its own child. The one load_config built is closed first, which ends an
    external child. A group writes its runs' files when it ends. A failed
    run's error is raised after the files of the runs before it are
    written.
    """
    _close(spec.objective)
    if spec.sweep is None:
        raise ConfigError("sweep: the config has no sweep block")
    if jobs < 1:
        raise ConfigError(f"--jobs: need at least 1 thread, got {jobs}")
    parameter = spec.sweep["parameter"]
    values = _sweep_values(spec.sweep)
    if parameter == "seed" and not isinstance(
        spec.objective_options.get("noise"), dict
    ):
        raise ConfigError(
            "sweep.parameter: a seed sweep needs a noise block in "
            "objective.options"
        )

    cfgs = [_sweep_run_config(spec, parameter, v) for v in values]
    pad = max(2, len(str(len(values))))
    keep_history = _writes_history(spec.emit, spec.space.n_dims)

    shared = is_stateless(spec.objective)  # one objective serves a whole group

    def one_group(runs: range) -> List[RunRecord]:
        built = []
        try:
            for i in runs[:1] if shared else runs:
                built.append(get_objective(spec.objective_id, **_with_noise_seed(
                    spec.objective_options, values[i] if parameter == "seed" else None)))
            objectives = built * len(runs) if shared else built
            outcomes = run_group([cfgs[i] for i in runs], spec.space, objectives, keep_history)
        finally:
            for objective in built:
                _close(objective)
        for i, outcome in zip(runs, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            write_run_files(outcome, spec.out_dir / ("run_%0*d" % (pad, i + 1)),
                            spec.emit, spec.space.n_dims)
        return outcomes

    groups = sweep_groups(spec, cfgs, jobs)
    if jobs == 1:
        records = [record for runs in groups for record in one_group(runs)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(one_group, runs) for runs in groups]
            # collect strictly in run order so output is deterministic
            records = [record for f in futures for record in f.result()]

    rows = _summary_rows(records, values)
    param_label = {"gamma": "Gamma", "frep_init": "FrepInit",
                   "n_probes": "Nprobes", "seed": "Seed"}[parameter]
    best_i, total = write_summary(spec.out_dir, rows, records, param_label)
    if not quiet:
        for value, record in zip(values, records):
            name = "%s[%s=%.7g]" % (spec.objective_id, parameter, value)
            print(_result_line(name, record))
        print(
            "best run %d (%s = %.7g): fitness %.10g at %s"
            % (
                best_i + 1,
                parameter,
                values[best_i],
                records[best_i].final_best_fitness,
                _format_point(records[best_i].best_point),
            )
        )
        print("total function evaluations: %d" % total)
    return records, rows


def oracle_command(spec: RunSpec, resolution, quiet: bool = False):
    """Grid-maximize the configured objective and write oracle.json."""
    try:
        result = grid_oracle(spec.objective, bounds=spec.space, resolution=resolution)
    finally:
        _close(spec.objective)
    payload = {
        "objective": spec.objective_id,
        "argmax": [float(v) for v in result.argmax],
        "value": result.value,
        "resolution": list(result.resolution),
        "n_evaluations": result.n_evaluations,
    }
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    (spec.out_dir / "oracle.json").write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    if not quiet:
        print(
            "oracle max %.10g at %s (%s grid, %d evaluations)"
            % (
                result.value,
                _format_point(result.argmax),
                "x".join(str(n) for n in result.resolution),
                result.n_evaluations,
            )
        )
    return result


# ---------------------------------------------------------------------------
# entry point


def _parse_resolution(text: str):
    parts = [p for p in text.split(",") if p]
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(
            f"--resolution: expected an integer or comma-separated integers, got {text!r}"
        ) from None
    if not counts:
        raise ConfigError("--resolution: empty")
    return counts[0] if len(counts) == 1 else counts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfo-bench",
        description="deterministic CFO benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_seed=True):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config and CFO_OUT_DIR)")
        if with_seed:
            p.add_argument(
                "--seed",
                type=int,
                help="override the objective noise seed",
            )
        p.add_argument("--quiet", action="store_true", help="suppress result lines")

    p_run = sub.add_parser("run", help="execute one run")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="execute the configured parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel runs (default 1)"
    )

    p_oracle = sub.add_parser("oracle", help="grid-maximize the configured objective")
    add_common(p_oracle, with_seed=False)
    p_oracle.add_argument(
        "--resolution",
        default="101",
        help="grid points per axis, an integer or comma-separated per-axis list",
    )

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--quiet", action="store_true",
                          help="print only the final verdict")

    p_list = sub.add_parser("objectives", help="list registered objective ids")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "objectives":
            for obj_id in list_objectives():
                print(obj_id)
            return EXIT_OK
        if args.command == "verify":
            from .acceptance import run_all

            results = run_all(quiet=args.quiet)
            return EXIT_OK if all(r.passed for r in results) else 1
        spec = load_config(
            args.config,
            out_override=args.out,
            seed_override=getattr(args, "seed", None),
        )
        if args.command == "run":
            run_benchmark(spec, quiet=args.quiet)
        elif args.command == "sweep":
            sweep_runs(spec, jobs=args.jobs, quiet=args.quiet)
        elif args.command == "oracle":
            oracle_command(
                spec, _parse_resolution(args.resolution), quiet=args.quiet
            )
        return EXIT_OK
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as exc:
        print(f"objective error: {exc}", file=sys.stderr)
        return EXIT_OBJECTIVE
    except (ConfigError, ObjectiveError, ValueError) as exc:
        # external-protocol failures subclass ObjectiveError but are runtime
        # faults, not config mistakes; give them the objective exit code
        from .external import ExternalObjectiveError

        if isinstance(exc, ExternalObjectiveError):
            print(f"objective error: {exc}", file=sys.stderr)
            return EXIT_OBJECTIVE
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
