"""One workload process: set up, run the operations in a closed loop, check them.

Started by run.py in a fresh interpreter, so every measurement starts from
an empty power cache and cold imports, as a `cfo-bench` invocation does.
The set-up phase (imports, `load_config` of every config, the first
quadrature-mesh build, the external child's spawn and handshake) ends when
the first operation can start; its length is measured from the moment the
parent spawned this process.

The timed phase runs the plan's operations back to back, one client, in
whole passes over the operation list, until `--seconds` have passed and at
least two passes are done. Every pass repeats identical inputs, so each
operation's output digest must match the one of the first pass. With
`--trace 1` the passes alternate between untraced and traced; the traced
passes feed the per-layer metrics and the untraced ones give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Floor of the reference tolerance, for references at or near zero.
REFERENCE_ABS_FLOOR = 1e-6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(objective):
    closer = getattr(objective, "close", None)
    if closer is not None:
        closer()


def _record_problems(record) -> list:
    """Checks every run record must pass, whatever the seed."""
    problems = []
    n_probes = int(record.config["n_probes"])
    expected = (int(record.steps_executed) + 1) * n_probes
    if int(record.n_eval[-1]) != expected:
        problems.append(f"n_eval[-1] {record.n_eval[-1]} != (steps+1)*n_probes {expected}")
    best = [float(v) for v in record.best_fitness]
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append("best fitness decreased along the run")
    return problems


def _reference_problem(op, value, rel_tol):
    ref = op.get("reference")
    if ref is None:
        return None
    if abs(value - ref) > max(rel_tol * abs(ref), REFERENCE_ABS_FLOOR):
        return f"headline value {value!r} differs from frozen reference {ref!r}"
    return None


class Runner:
    """Executes plan operations and checks their outputs."""

    def __init__(self, plan, cli, oracle_mod):
        self.cli = cli
        self.oracle = oracle_mod
        self.rel_tol = plan["reference_rel_tol"]
        self.last_oracle = {}

    def execute(self, op):
        """The timed part of one operation; returns what the checks need."""
        cli = self.cli
        spec = cli.load_config(op["config"])
        kind = op["kind"]
        if kind == "run":
            return cli.run_benchmark(spec, quiet=True)
        if kind == "sweep":
            records, _rows = cli.sweep_runs(spec, jobs=1, quiet=True)
            return records
        if kind == "oracle":
            resolution = op["resolution"]
            return spec, cli.oracle_command(spec, resolution, quiet=True)
        if kind == "refine":
            center = self.last_oracle[op["center_from"]].argmax
            try:
                return self.oracle.refine(
                    spec.objective, center=center, half_widths=op["half_widths"],
                    levels=op["levels"], n_points=op["n_points"],
                )
            finally:
                _close(spec.objective)
        raise ValueError(f"unknown operation kind {kind!r}")

    def inspect(self, op, out):
        """Return (evaluations, per-unit digests, per-unit problems)."""
        kind = op["kind"]
        out_dir = Path(op["out_dir"])
        if kind == "run":
            problems = _record_problems(out)
            ref = _reference_problem(op, float(out.final_best_fitness), self.rel_tol)
            problems += [ref] if ref else []
            return int(out.n_eval[-1]), [_sha256(out_dir / "record.json")], [problems]
        if kind == "sweep":
            pad = max(2, len(str(len(out))))
            digests, problems = [], []
            for i, record in enumerate(out):
                run_dir = out_dir / ("run_%0*d" % (pad, i + 1))
                digests.append(_sha256(run_dir / "record.json"))
                problems.append(_record_problems(record))
            summary = _sha256(out_dir / "summary.csv")
            digests = [d + summary for d in digests]
            best = max(float(r.final_best_fitness) for r in out)
            ref = _reference_problem(op, best, self.rel_tol)
            if ref:
                problems = [p + [ref] for p in problems]
            return sum(int(r.n_eval[-1]) for r in out), digests, problems
        if kind == "oracle":
            spec, result = out
            self.last_oracle[op["name"]] = result
            problems = []
            n_points = math.prod(op["resolution"])
            if int(result.n_evaluations) != n_points:
                problems.append(f"{result.n_evaluations} evaluations for {n_points} grid points")
            again = float(spec.objective.evaluate(result.argmax))
            if again != float(result.value):
                problems.append(f"oracle value {result.value!r} but f(argmax) = {again!r}")
            ref = _reference_problem(op, float(result.value), self.rel_tol)
            problems += [ref] if ref else []
            return int(result.n_evaluations), [_sha256(out_dir / "oracle.json")], [problems]
        # refine: the centre always competes, so the value cannot drop below
        # the grid value it started from
        problems = []
        start = self.last_oracle[op["center_from"]]
        if float(out.value) < float(start.value):
            problems.append(f"refine value {out.value!r} below its start {start.value!r}")
        expected = 1 + op["levels"] * op["n_points"] ** len(out.argmax)
        if int(out.n_evaluations) != expected:
            problems.append(f"refine made {out.n_evaluations} evaluations, expected {expected}")
        ref = _reference_problem(op, float(out.value), self.rel_tol)
        problems += [ref] if ref else []
        payload = json.dumps({"argmax": [float(v) for v in out.argmax],
                              "value": float(out.value),
                              "n_evaluations": int(out.n_evaluations)}, sort_keys=True)
        return int(out.n_evaluations), [hashlib.sha256(payload.encode()).hexdigest()], [problems]


def _dir_usage(path: Path):
    files = total = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            total += os.path.getsize(os.path.join(root, name))
    return files, total


def fingerprint(thread_caps: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, ValueError):
        blas = {}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {kk: vv for kk, vv in v.items() if "directory" not in kk}
                 for k, v in blas.items() if isinstance(v, dict)},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_caps": thread_caps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from cfobench import antenna, cli
    from cfobench import oracle as oracle_mod

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    for path in sorted({op["config"] for op in plan["ops"]}):
        _close(cli.load_config(path).objective)
    mesh = getattr(antenna, "sphere_mesh", None)
    if plan["uses_antenna"] and mesh is not None:
        mesh()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    clear_cache = getattr(antenna, "clear_power_cache", None)
    runner = Runner(plan, cli, oracle_mod)
    ops = plan["ops"]
    op_times = {op["name"]: [] for op in ops}
    op_evals = {}
    first_digests = {}
    units = {}            # execution id -> (op name, unit count)
    failures = {}         # (execution id, unit) -> reason
    passes = []           # (traced, wall seconds)
    exec_id = 0
    deadline = time.monotonic() + args.seconds
    while len(passes) < 2 or time.monotonic() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        for op in ops:
            name = op["name"]
            exec_id += 1
            units[exec_id] = (name, op["units"])
            shutil.rmtree(op["out_dir"], ignore_errors=True)
            if clear_cache is not None:
                clear_cache()
            if traced:
                tracer.begin_op(exec_id)
                tracer.recording = True
            error = None
            t0 = time.perf_counter()
            try:
                out = runner.execute(op)
            except Exception as exc:  # every failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            wall += dt
            if error is not None:
                for u in range(op["units"]):
                    failures[(exec_id, u)] = error
                continue
            if not traced:
                op_times[name].append(dt)
            else:
                tracer.op_files[exec_id] = _dir_usage(Path(op["out_dir"]))
            try:
                evals, digests, problems = runner.inspect(op, out)
            except Exception as exc:
                problems = [[f"output check raised {type(exc).__name__}: {exc}"]] * op["units"]
                digests = [None] * op["units"]
                evals = None
            if evals is not None:
                op_evals.setdefault(name, evals)
                if evals != op_evals[name]:
                    problems = [p + ["evaluation count changed between passes"] for p in problems]
            ref = first_digests.setdefault(name, digests)
            for u, (digest, found) in enumerate(zip(digests, problems)):
                if digest != ref[u]:
                    found = found + ["output bytes differ from the first pass"]
                if found:
                    failures[(exec_id, u)] = "; ".join(found)
        if traced:
            tracer.uninstall()
        passes.append((traced, wall))

    if tracer is not None:
        # measured rows must equal the records' derived n_eval, run by run
        run_index: dict = {}
        for op_exec, measured, derived in spans.measured_rows_by_run(tracer):
            u = run_index.get(op_exec, 0)
            run_index[op_exec] = u + 1
            if measured != derived:
                failures[(op_exec, u)] = (
                    f"measured {measured:g} objective rows, record derives {derived}"
                )
        traced_walls = [w for t, w in passes if t]
        # the first pass warms up caches and allocators; leave it out of the
        # overhead unless it is the only untraced one
        plain_walls = [w for t, w in passes[1:] if not t] or [passes[0][1]]
        result["layers"] = spans.layer_metrics(
            tracer, len(traced_walls), statistics.mean(traced_walls),
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        )
        result["absent"] = sorted(set(tracer.absent))
        if args.spans:
            tracer.save(Path(args.spans))

    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_times": op_times,
        "op_evals": op_evals,
        "passes": passes,
        "attempted": sum(n for _name, n in units.values()),
        "failed": len(failures),
        "failures": [f"{units[e][0]}[{u}]: {why}" for (e, u), why in sorted(failures.items())],
        "fingerprint": fingerprint(json.loads(os.environ.get("PERFBENCH_THREAD_CAPS", "{}"))),
    })
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
