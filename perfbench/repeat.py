"""Repeat the benchmark over several seeds and report medians and spreads.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--out FILE]

Runs `run.py` once per seed (seeds 1..runs) for each workload, one after
another, for BENCHMARK.json's run_seconds each, and prints for every
end-to-end metric the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread: the interquartile
distance as a share of the median. It checks every spread, `setup_s`
included, against the metric's bound in BENCHMARK.json and exits with
code 1 if one is over. Then it makes one traced run per workload, at seed
1, and prints the layer split that workload was chosen for. `--out` writes
the same figures, with every per-layer metric of the traced run, as JSON;
perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics printed after each workload's traced run.
SPLIT = ("antenna.share", "antenna.busy_s", "antenna.radiated_power.calls",
         "antenna.radiated_power.misses", "antenna.power_cache.hit_ratio",
         "engine.self_s", "trace.overhead_ratio")


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {}
    ok = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = attempted = 0
        for seed in range(1, args.runs + 1):
            line = _run(bench, workload, seed, 0)
            failed += line["failed"]
            attempted += line["attempted"]
            for name in values:
                values[name].append(line["metrics"][name]["value"])
        result = ROOT / ".perfbench_out" / f"result-{workload}-seed{args.runs}-trace0.json"
        fingerprint = json.loads(result.read_text(encoding="utf-8"))["fingerprint"]
        entry = {"runs": args.runs, "seeds": [1, args.runs], "attempted": attempted,
                 "failed": failed, "fingerprint": fingerprint, "metrics": {}}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            entry["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "unit": m["unit"]}
            within = spread <= m["bound"]
            ok = ok and within
            print(f"{workload:15s} {m['name']:12s} median {med:12.6g} {m['unit']:4s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
                  f"(bound {m['bound']}, third {m['bound'] / 3:.3f}){'' if within else ' OVER'}")
        print(f"{workload:15s} failed {failed} of {attempted} operations", flush=True)

        traced = _run(bench, workload, 1, 1)
        entry["traced"] = {"seed": 1, "failed": traced["failed"],
                           "attempted": traced["attempted"], "metrics": traced["metrics"]}
        ok = ok and traced["failed"] == 0
        print(f"{workload:15s} traced: " + ", ".join(
            f"{name} {traced['metrics'][name]['value']:.4g}" for name in SPLIT), flush=True)
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
