"""cfobench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload antenna_runs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding `src/` and
`perfbench/`). The workload runs in a fresh Python process that imports the
package from `src/`; set-up is measured in several fresh processes and
reported as their median. With `--trace 0` the last line of standard output
is a JSON object with the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. `--workload all` runs every workload in
turn and prints their tables. The full result, with the platform
fingerprint, goes to `.perfbench_out/`; spans of a traced run go next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is measured this many times, each in a fresh process: half of them
# before the timed phase, one by the process that runs it, the rest after it.
# Spreading them over the run keeps a short slow spell of the shared host
# from setting the median.
SETUP_SAMPLES = 7
# Each invocation must end within this many seconds.
TIME_LIMIT_S = 170.0
END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    The workloads are single-threaded. On a small virtual machine the
    external evaluator's round trip wakes the other vCPU on every request,
    and that wake-up latency moved with host load by a factor of three;
    with both processes on one CPU it moved by about 10%.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _thread_caps() -> dict:
    n = str(len(os.sched_getaffinity(0)))
    return {name: n for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}


def _environment(caps: dict) -> dict:
    env = dict(os.environ)
    env.update(caps)
    env["PERFBENCH_THREAD_CAPS"] = json.dumps(caps)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _spawn_worker(extra: list, result: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--result", str(result)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)] + extra, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload process ran past the time limit") from None
    if code != 0:
        raise RuntimeError(f"the workload process exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Run one workload; return the full result with its metrics."""
    import workloads

    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    work = ROOT / ".perfbench_work" / tag
    out_dir = ROOT / ".perfbench_out"
    shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    cpu = _pin_to_one_cpu()
    caps = _thread_caps()
    env = _environment(caps)
    try:
        plan = workloads.write_plan(workload, seed, work, sys.executable, smoke=smoke)

        def setup_only(i):
            probe = _spawn_worker(["--plan", str(plan), "--setup-only"],
                                  work / f"setup{i}.json", env, deadline)
            return probe["setup_s"]

        before = SETUP_SAMPLES // 2
        setups = [setup_only(i) for i in range(before)]
        extra = ["--plan", str(plan), "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            extra += ["--spans", str(out_dir / f"spans-{tag}.npz")]
        res = _spawn_worker(extra, work / "result.json", env, deadline)
        setups.append(res["setup_s"])
        setups += [setup_only(i) for i in range(before, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # wall_s: the untraced part of the timed phase per pass over the operation
    # list; taking the mean over the whole phase, not a median of passes,
    # averages over the host's speed drift within a run
    wall = statistics.mean(w for traced, w in res["passes"] if not traced)
    evals = sum(res["op_evals"].values())
    ends = {
        "wall_s": wall,
        "evals_per_s": evals / wall if wall > 0 else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_samples": setups,
        "evals_per_pass": evals,
        "end_to_end": ends,
        "op_quartiles": {k: _quartiles(v) for k, v in res["op_times"].items() if v},
    })
    res["fingerprint"]["git_commit"] = _git_commit()
    res["fingerprint"]["pinned_cpu"] = cpu
    (out_dir / f"result-{tag}.json").write_text(json.dumps(res, indent=1), encoding="utf-8")
    return res


def _report(res: dict):
    """Human-readable lines for one workload; the JSON line comes after."""
    wl = res["workload"]
    print(f"# {wl} seed {res['seed']}: {len(res['passes'])} passes, "
          f"{res['evals_per_pass']} evaluations per pass")
    if not res["trace"]:
        for name, unit in END_TO_END.items():
            print(f"{wl} {name} {res['end_to_end'][name]:.6g} {unit}")
    else:
        from spans import LAYER_METRICS
        for name, (unit, _better) in LAYER_METRICS.items():
            print(f"{wl} {name} {res['layers'][name]:.6g} {unit}")
        if res["absent"]:
            print(f"{wl} absent layers: {', '.join(res['absent'])}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{wl} failed_ratio {ratio:.6g} failed/attempted "
          f"({res['failed']} of {res['attempted']} operations)")
    for line in res["failures"][:20]:
        print(f"{wl} FAILED {line}")
    print(f"{wl} fingerprint {json.dumps(res['fingerprint'], sort_keys=True)}")


def _summary_line(res: dict) -> str:
    if res["trace"]:
        from spans import LAYER_METRICS
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    if not (ROOT / "src" / "cfobench" / "__init__.py").is_file():
        print(f"error: no cfobench sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description="cfobench benchmark")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for checking that every workload runs")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            _report(res)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(_summary_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
