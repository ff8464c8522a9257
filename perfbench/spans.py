"""Span recorder for the traced benchmark run, and the per-layer metrics.

The tracer wraps public functions of the package at the module attribute
each caller looks up (for example `cfobench.cli.run`, which `run_benchmark`
and `sweep_runs` call, or `cfobench.antenna.radiated_power`, which
`directivity` calls). Each call records one span: name, start, end, parent
span and the id of the benchmark operation it belongs to. Spans stay in
memory and are written out once, when the run ends.

A function the package no longer has is not wrapped; its layer metrics
read 0 and the layer is listed as absent in the result file.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Objective ids the workloads use; each gets the four objectives.* metrics.
OBJECTIVE_IDS = ("pbm1", "pbm2", "pbm3", "pbm5", "gp", "himmelblau",
                 "parrott_f4", "colville", "schwefel_226", "external")

# Per-layer metrics: name -> (unit, better). Counts and busy times are per
# pass, that is per execution of the workload's whole operation list.
LAYER_METRICS = {
    "engine.self_s": ("s", "lower"),
    "engine.step_self_us": ("us", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.compute_accelerations_s": ("s", "lower"),
    "engine.d_avg_s": ("s", "lower"),
    "engine.eval_calls": ("count", "lower"),
    "engine.rows_evaluated": ("count", "lower"),
    "engine.rows_per_call": ("rows/call", "higher"),
    "engine.evals_derived": ("count", "lower"),
}
for _oid in OBJECTIVE_IDS:
    LAYER_METRICS.update({
        f"objectives.{_oid}.evals": ("count", "lower"),
        f"objectives.{_oid}.eval_us_p50": ("us", "lower"),
        f"objectives.{_oid}.eval_us_p99": ("us", "lower"),
        f"objectives.{_oid}.busy_s": ("s", "lower"),
    })
LAYER_METRICS.update({
    "antenna.busy_s": ("s", "lower"),
    "antenna.share": ("ratio", "lower"),
    "antenna.directivity.calls": ("count", "lower"),
    "antenna.radiated_power.calls": ("count", "lower"),
    "antenna.radiated_power.misses": ("count", "lower"),
    "antenna.power_cache.hit_ratio": ("ratio", "higher"),
    "antenna.radiated_power.miss_ms_p50": ("ms", "lower"),
    "oracle.grid_oracle.points": ("count", "lower"),
    "oracle.grid_oracle.points_per_s": ("1/s", "higher"),
    "oracle.self_s": ("s", "lower"),
    "oracle.refine.busy_s": ("s", "lower"),
    "external.spawn_s": ("s", "lower"),
    "external.requests": ("count", "lower"),
    "external.rtt_us_p50": ("us", "lower"),
    "external.rtt_us_p99": ("us", "lower"),
    "external.errors": ("count", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.write_run_files.busy_s": ("s", "lower"),
    "cli.write_summary.busy_s": ("s", "lower"),
    "cli.files_written": ("count", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "rng.gaussian_deviate.calls": ("count", "lower"),
    "rng.busy_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

_OBJ_PREFIX = "objective:"


def _call_arg(fn, name, default=None):
    """Extract argument `name` of fn from (args, kwargs), or None if fn has none."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return get


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.extra: list = []
        self.error: list = []
        self.run_info: dict = {}        # cli.run span -> (steps, n_eval)
        self.op_files: dict = {}        # op id -> (files, bytes)
        self.absent: list = []
        self.recording = False
        self.op_id = -1
        self._stack: list = []
        self._seen_keys: set = set()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._seen_keys = set()

    def wrap(self, name: str, fn, extra=None, on_return=None):
        """Return fn wrapped in a span; extra(args, kwargs) fills the extra column."""
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.extra.append(extra(args, kwargs) if extra is not None else 0.0)
            tracer.error.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(idx, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **kw):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def install(self):
        """Wrap the package's layer boundaries; undo with uninstall()."""
        from cfobench import antenna, cli, engine, objectives, oracle
        from cfobench import external

        def record_run(idx, record):
            self.run_info[idx] = (int(record.steps_executed), int(record.n_eval[-1]))

        def record_points(idx, result):
            self.extra[idx] = float(result.n_evaluations)

        self._patch(cli, "run", "cli.run", on_return=record_run)
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "write_run_files", "cli.write_run_files")
        self._patch(cli, "write_summary", "cli.write_summary")
        self._patch(engine, "compute_accelerations", "engine.compute_accelerations")
        self._patch(engine, "d_avg", "engine.d_avg")
        self._patch(antenna, "directivity", "antenna.directivity")
        power = getattr(antenna, "radiated_power", None)
        if power is not None:
            get_key = _call_arg(power, "power_key")
            get_nt = _call_arg(power, "n_theta")
            get_np = _call_arg(power, "n_phi")

            def is_miss(args, kwargs):
                # the cache is cleared before each operation, so a call is a
                # miss exactly when its key is new within the operation
                key = get_key(args, kwargs) if get_key else None
                if key is None:
                    return 1.0
                full = (key, get_nt(args, kwargs) if get_nt else None,
                        get_np(args, kwargs) if get_np else None)
                if full in self._seen_keys:
                    return 0.0
                self._seen_keys.add(full)
                return 1.0

            self._patch(antenna, "radiated_power", "antenna.radiated_power", extra=is_miss)
        else:
            self.absent.append("antenna.radiated_power")
        for owner in (cli, oracle):
            self._patch(owner, "grid_oracle", "oracle.grid_oracle", on_return=record_points)
        self._patch(oracle, "refine", "oracle.refine")
        self._patch(objectives, "gaussian_deviate", "rng.gaussian_deviate")
        client = getattr(external, "ExternalObjective", None)
        if client is not None:
            self._patch(client, "__init__", "external.spawn")
            self._patch(client, "evaluate", "external.evaluate")
        else:
            self.absent.append("external.ExternalObjective")
        if getattr(cli, "get_objective", None) is not None:
            factory = cli.get_objective
            self._patches.append((cli, "get_objective", factory))
            cli.get_objective = lambda *a, **kw: self._wrap_objective(factory(*a, **kw))
        else:
            self.absent.append("cli.get_objective")

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def _wrap_objective(self, obj):
        if not dataclasses.is_dataclass(obj):
            self.absent.append("objective:" + type(obj).__name__)
            return obj
        name = _OBJ_PREFIX + str(getattr(obj, "id", "?"))
        changes = {}
        for attr in ("evaluate", "evaluate_batch", "evaluate_with_context"):
            fn = getattr(obj, attr, None)
            if fn is not None:
                # the extra column holds the number of rows the call evaluates
                rows = _batch_rows if attr == "evaluate_batch" else _one_row
                changes[attr] = self.wrap(name, fn, extra=rows)
        return dataclasses.replace(obj, **changes)

    # -- output ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "extra": np.asarray(self.extra, dtype=float),
            "error": np.asarray(self.error, dtype=np.int8),
        }

    def save(self, path: Path):
        """Write every span as numpy columns plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _one_row(args, kwargs):
    return 1.0


def _batch_rows(args, kwargs):
    return float(len(args[0] if args else kwargs["x"]))


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_passes: int, pass_wall_s: float,
                  overhead_ratio: float) -> dict:
    """Reduce the recorded spans to LAYER_METRICS values, per traced pass."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    names = tracer.names
    name_of = np.array([names[i] for i in a["name"]], dtype=object)
    parent = a["parent"]
    per = 1.0 / max(n_passes, 1)

    def mask(name):
        return name_of == name

    def parent_is(child_mask, parent_mask):
        ok = parent >= 0
        out = np.zeros_like(child_mask)
        out[ok] = parent_mask[parent[ok]]
        return child_mask & out

    is_obj = np.array([str(n).startswith(_OBJ_PREFIX) for n in name_of], dtype=bool)
    rows = np.where(is_obj, a["extra"], 0.0)
    m = {}

    run = mask("cli.run")
    obj_in_run = parent_is(is_obj, run)
    steps = sum(info[0] for info in tracer.run_info.values())
    derived = sum(info[1] for info in tracer.run_info.values())
    engine_self = dur[run].sum() - dur[obj_in_run].sum()
    m["engine.self_s"] = engine_self * per
    m["engine.steps"] = steps * per
    m["engine.step_self_us"] = engine_self / steps * 1e6 if steps else 0.0
    m["engine.compute_accelerations_s"] = dur[mask("engine.compute_accelerations")].sum() * per
    m["engine.d_avg_s"] = dur[mask("engine.d_avg")].sum() * per
    calls = int(obj_in_run.sum())
    m["engine.eval_calls"] = calls * per
    m["engine.rows_evaluated"] = rows[obj_in_run].sum() * per
    m["engine.rows_per_call"] = rows[obj_in_run].sum() / calls if calls else 0.0
    m["engine.evals_derived"] = derived * per

    for oid in OBJECTIVE_IDS:
        sel = mask(_OBJ_PREFIX + oid) & (rows > 0)
        per_row_us = dur[sel] / rows[sel] * 1e6
        m[f"objectives.{oid}.evals"] = rows[sel].sum() * per
        m[f"objectives.{oid}.eval_us_p50"] = _pct(per_row_us, 50)
        m[f"objectives.{oid}.eval_us_p99"] = _pct(per_row_us, 99)
        m[f"objectives.{oid}.busy_s"] = dur[sel].sum() * per

    direct = mask("antenna.directivity")
    power = mask("antenna.radiated_power")
    ant = direct | power
    ant_top = ant & ~parent_is(ant, ant)
    misses = power & (a["extra"] > 0)
    n_power = int(power.sum())
    m["antenna.busy_s"] = dur[ant_top].sum() * per
    m["antenna.share"] = m["antenna.busy_s"] / pass_wall_s if pass_wall_s > 0 else 0.0
    m["antenna.directivity.calls"] = direct.sum() * per
    m["antenna.radiated_power.calls"] = n_power * per
    m["antenna.radiated_power.misses"] = misses.sum() * per
    m["antenna.power_cache.hit_ratio"] = 1.0 - misses.sum() / n_power if n_power else 0.0
    m["antenna.radiated_power.miss_ms_p50"] = _pct(dur[misses] * 1e3, 50)

    grid = mask("oracle.grid_oracle")
    points = a["extra"][grid].sum()
    grid_busy = dur[grid].sum()
    m["oracle.grid_oracle.points"] = points * per
    m["oracle.grid_oracle.points_per_s"] = points / grid_busy if grid_busy > 0 else 0.0
    m["oracle.self_s"] = (grid_busy - dur[parent_is(is_obj, grid)].sum()) * per
    m["oracle.refine.busy_s"] = dur[mask("oracle.refine")].sum() * per

    spawn = mask("external.spawn")
    ext = mask("external.evaluate")
    m["external.spawn_s"] = _pct(dur[spawn], 50)
    m["external.requests"] = ext.sum() * per
    m["external.rtt_us_p50"] = _pct(dur[ext] * 1e6, 50)
    m["external.rtt_us_p99"] = _pct(dur[ext] * 1e6, 99)
    m["external.errors"] = a["error"][spawn | ext].sum() * per

    m["cli.load_config_s"] = _pct(dur[mask("cli.load_config")], 50)
    m["cli.write_run_files.busy_s"] = dur[mask("cli.write_run_files")].sum() * per
    m["cli.write_summary.busy_s"] = dur[mask("cli.write_summary")].sum() * per
    m["cli.files_written"] = sum(f for f, _ in tracer.op_files.values()) * per
    m["cli.bytes_written"] = sum(b for _, b in tracer.op_files.values()) * per

    rng = mask("rng.gaussian_deviate")
    m["rng.gaussian_deviate.calls"] = rng.sum() * per
    m["rng.busy_s"] = dur[rng].sum() * per
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: float(m[name]) for name in LAYER_METRICS}


def measured_rows_by_run(tracer: Tracer) -> list:
    """(op id, measured rows, derived n_eval) for every traced engine run, in order."""
    a = tracer.arrays()
    rows_by_run: dict = defaultdict(float)
    prefix_ids = {i for i, n in enumerate(tracer.names) if n.startswith(_OBJ_PREFIX)}
    for idx, (nid, par) in enumerate(zip(a["name"], a["parent"])):
        if par in tracer.run_info and int(nid) in prefix_ids:
            rows_by_run[int(par)] += a["extra"][idx]
    return [(int(a["op"][idx]), rows_by_run.get(idx, 0.0), info[1])
            for idx, info in sorted(tracer.run_info.items())]
