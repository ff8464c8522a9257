"""Smoke run of every benchmark workload at reduced size, untraced and traced.

    python3 perfbench/tests/smoke.py
    python3 -m pytest perfbench/tests/smoke.py

The file name keeps it out of the repository's default pytest collection;
it takes about a minute. It checks the output contract of run.py (the last
line is one JSON object with correct/attempted/failed/metrics and exactly
the metrics BENCHMARK.json lists), that every operation passes its
correctness checks, that the traced run shows the layer split each workload
was chosen for, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                            "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, proc.stdout
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    return line


def _check_metrics(line: dict, declared: list, positive: bool):
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if positive:
            assert got["value"] > 0, m["name"]
        elif m["name"] != "trace.overhead_ratio":
            assert got["value"] >= 0, m["name"]


def test_end_to_end_metrics_for_every_workload():
    for workload in WORKLOADS:
        line = _last_json(_run(workload, 0))
        _check_metrics(line, BENCH["end_to_end"], positive=True)


def test_traced_runs_show_the_layer_split():
    layers = {}
    for workload in WORKLOADS:
        line = _last_json(_run(workload, 1))
        _check_metrics(line, BENCH["per_layer"], positive=False)
        layers[workload] = {k: v["value"] for k, v in line["metrics"].items()}
    assert layers["antenna_runs"]["antenna.share"] > 0.5
    assert layers["analytic_sweep"]["antenna.share"] == 0.0
    assert layers["oracle_grid"]["antenna.power_cache.hit_ratio"] > 0.5
    assert (layers["antenna_runs"]["antenna.power_cache.hit_ratio"]
            < layers["oracle_grid"]["antenna.power_cache.hit_ratio"])
    assert layers["external_noisy"]["external.requests"] > 0
    assert layers["external_noisy"]["rng.gaussian_deviate.calls"] > 0
    for workload in ("antenna_runs", "analytic_sweep", "external_noisy"):
        got = layers[workload]
        assert got["engine.rows_evaluated"] == got["engine.evals_derived"] > 0


def test_seed_fixes_the_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    work = ROOT / ".perfbench_work" / "smoke-seeds"
    shutil.rmtree(work, ignore_errors=True)

    def probes(seed):
        plan = workloads.write_plan("antenna_runs", seed, work / str(seed), "python3")
        return json.loads((plan.parent / "run_pbm2.json").read_text())["cfo"]["initial_probes"]

    try:
        assert probes(5) == probes(5)
        assert probes(5) != probes(workloads.DEFAULT_SEED)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}", flush=True)
