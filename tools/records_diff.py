"""Byte comparison of every output file of two checkouts.

    python3 tools/records_diff.py run --checkout PARENT OUT_A
    python3 tools/records_diff.py run --checkout CHANGE OUT_B
    python3 tools/records_diff.py diff OUT_A OUT_B

`run` executes, with the package in CHECKOUT/src (default: this checkout),
every benchmark operation of perfbench/workloads.py at seeds 0 and 1 at
full size, plus the extra runs and oracles below: every init scheme, noise,
an external child, early termination, a run with g, delta_t, alpha, beta
and n_sat all away from their defaults, a run whose first two probes
coincide throughout, a --seed override sweep, a noisy
`pbm1` run, 10- and 3-element `pbm5` runs, a 2-element `pbm5` oracle over
401 spacings (each a distinct geometry, so each a power miss), a `pbm3`
oracle finer than the benchmark's, a 3x300x300 oracle (its 90,000-point
trailing block exceeds a grid chunk, so the grid splits after axis 1), a
noisy 301x301 oracle (its noise stream crosses a chunk boundary), an
`external` oracle at 3x150x150 (67,500 points, sent as batches of 45,000
and 22,500 requests, each far beyond what the pipes buffer), a 3-run
`pbm3` gamma sweep (its group shares one ring and coupling matrix), a 6-run `pbm2` gamma sweep on 2
threads (each group builds its own objective and power memo), a 4-run noisy
`sgo` seed sweep on 2 threads (each run owns its noise stream), a 4-run
noisy `gp` gamma sweep (each run restarts the same seeded stream), a 3-run
`external` gamma sweep whose command is one shell-quoted string (each run
splits it and starts its own child), an 11-run `himmelblau` gamma sweep
with early termination (its runs stop at different steps), a `gp`
`frep_init` sweep, a 1-D `parrott_f4` `n_probes` sweep (runs of different
shapes, some consecutive runs alike), an 11-run `colville` gamma sweep, a
3-run 30-D `schwefel_226` gamma sweep at the default 120 probes (one group,
each run's pair work in row blocks), a 7-run 10-D `griewank` gamma sweep at
40 probes (whole-run blocks of four and three runs), a 90-probe 30-D
`schwefel_226` run (row blocks whose last one is short), and the
history outputs the benchmark
leaves out (probe snapshots alone in 2-D and in 3-D, where none are
written, snapshots and trajectories together in one 2-D in-process run, and
a sweep with trajectories). `diff` compares the two output
trees file by file (the configs name their own directory, so the first
tree's path is replaced by the second's) and exits 1 when any file differs.
`run` refuses an output directory that exists and is not empty, with exit
2, before it writes anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

EXTERNAL = {"id": "external", "options": {"command": [sys.executable, "-m", "cfobench.external", "quadratic"],
                                          "bounds": [[-3.0, 3.0]] * 3}}
EXTRA = {  # name: (objective, cfo block)
    "gp_on_axis": ("gp", {"n_probes": 8, "n_steps": 300, "gamma": 0.3}),
    "himmelblau_grid": ("himmelblau", {"n_probes": 9, "n_steps": 200, "init_scheme": "grid_2d"}),
    "sgo_grid16": ("sgo", {"n_probes": 16, "n_steps": 150, "init_scheme": "grid_2d"}),
    "colville_offdiag": ("colville", {"n_probes": 12, "n_steps": 200, "init_scheme": "off_diagonal"}),
    "parrott_offdiag": ("parrott_f4", {"n_probes": 5, "n_steps": 100, "init_scheme": "off_diagonal"}),
    "griewank_custom": ("griewank", {"n_probes": 3, "n_steps": 120, "init_scheme": "custom",
                                     "initial_probes": [[-500.0, 10.0], [3.0, 4.0], [200.0, -100.0]]}),
    "step_early": ("step", {"n_probes": 8, "n_steps": 400, "n_avg_steps": 10, "early_termination": True}),
    "step_shifted": ("step_shifted", {"n_probes": 8, "n_steps": 200, "gamma": 0.9}),
    "gp_shifted": ("gp_shifted", {"n_probes": 8, "n_steps": 200}),
    "sgo_noisy": ({"id": "sgo", "options": {"noise": {"seed": 3, "sigma": 0.4}}}, {"n_probes": 8, "n_steps": 200}),
    "pbm2_noisy": ({"id": "pbm2", "options": {"noise": {"seed": 5}}}, {"n_probes": 8, "n_steps": 20}),
    "external_offdiag": (EXTERNAL, {"n_probes": 12, "n_steps": 60, "init_scheme": "off_diagonal"}),
    "pbm2_grid": ("pbm2", {"n_probes": 16, "n_steps": 3, "init_scheme": "grid_2d"}),
    "pbm1_noisy": ({"id": "pbm1", "options": {"noise": {"seed": 11}}}, {"n_probes": 8, "n_steps": 30}),
    "pbm5_10": ("pbm5", {"n_probes": 18, "n_steps": 2}),
    "pbm5_3": ({"id": "pbm5", "options": {"n_elements": 3}}, {"n_probes": 8, "n_steps": 20}),
    "colville_forces": ("colville", {"n_probes": 8, "n_steps": 100, "g": 5.0, "delta_t": 0.75,
                                     "alpha": 1.5, "beta": 3.0, "n_sat": 2}),
    "himmelblau_coincident": ("himmelblau", {"n_probes": 4, "n_steps": 100, "init_scheme": "custom",
                                             "initial_probes": [[1.0, 1.0], [1.0, 1.0], [-3.0, 2.0],
                                                                [4.0, -4.0]]}),
    # 90 probes in 30-D: row blocks of 24 rows, the last of 18
    "schwefel_226_90": ("schwefel_226", {"n_probes": 90, "n_steps": 60, "init_scheme": "off_diagonal"}),
}
for _g in (0.0, 0.5, 1.0):
    for _f in ("gp", "himmelblau", "sgo", "step", "colville", "schwefel_226"):
        EXTRA[f"{_f}_g{_g}"] = (_f, {"n_steps": 100, "gamma": _g})
CONFIGS = {  # name: (objective, config blocks besides outputs.dir); a sweep block runs a sweep,
    # on "jobs" threads (default 1)
    "gp_snapshots": ("gp", {"cfo": {"n_probes": 8, "n_steps": 50}, "outputs": {"probe_snapshots": True}}),
    "step3_snapshots": ({"id": "step", "options": {"n_dims": 3}}, {"cfo": {"n_probes": 9, "n_steps": 50},
                                                                  "outputs": {"probe_snapshots": True}}),
    "himmelblau_snapshots_trajectories": ("himmelblau", {"cfo": {"n_probes": 8, "n_steps": 60},
                                                         "outputs": {"probe_snapshots": True,
                                                                     "trajectories": True}}),
    "sgo_sweep_trajectories": ("sgo", {"cfo": {"n_probes": 6, "n_steps": 40}, "outputs": {"trajectories": True},
                                       "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 3}}),
    "pbm3_sweep": ("pbm3", {"cfo": {"n_probes": 6, "n_steps": 20}, "outputs": {},
                            "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 3}}),
    "pbm2_sweep_jobs2": ("pbm2", {"cfo": {"n_probes": 8, "n_steps": 20}, "outputs": {},
                                  "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 6},
                                  "jobs": 2}),
    "sgo_noisy_seed_sweep_jobs2": ({"id": "sgo", "options": {"noise": {"seed": 1}}},
                                   {"cfo": {"n_probes": 8, "n_steps": 60}, "outputs": {},
                                    "sweep": {"parameter": "seed", "start": 1, "stop": 4, "count": 4},
                                    "jobs": 2}),
    "external_string_sweep": (dict(EXTERNAL, options=dict(EXTERNAL["options"],
                                                          command=shlex.join(EXTERNAL["options"]["command"]))),
                              {"cfo": {"n_probes": 6, "n_steps": 30}, "outputs": {"trajectories": True},
                               "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 3}}),
    "himmelblau_early_sweep": ("himmelblau", {"cfo": {"n_probes": 8, "n_steps": 300, "early_termination": True},
                                               "outputs": {"trajectories": True},
                                               "sweep": {"parameter": "gamma", "start": 0, "stop": 1,
                                                         "count": 11}}),
    "gp_noisy_gamma_sweep": ({"id": "gp", "options": {"noise": {"seed": 3, "sigma": 0.5}}},
                             {"cfo": {"n_probes": 8, "n_steps": 30}, "outputs": {},
                              "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 4}}),
    "gp_frep_init_sweep": ("gp", {"cfo": {"n_probes": 8, "n_steps": 100}, "outputs": {},
                                  "sweep": {"parameter": "frep_init", "start": 0.1, "stop": 0.9, "count": 5}}),
    # rounds to 2, 2, 3, 4, 4, 4, 5 probes
    "parrott_n_probes_sweep": ("parrott_f4", {"cfo": {"n_steps": 80}, "outputs": {},
                                              "sweep": {"parameter": "n_probes", "start": 2, "stop": 5,
                                                        "count": 7}}),
    "colville_sweep": ("colville", {"cfo": {"n_steps": 100}, "outputs": {},
                                    "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 11}}),
    "schwefel_226_sweep": ("schwefel_226", {"cfo": {"n_steps": 20}, "outputs": {},
                                            "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 3}}),
    # seven 40-probe 10-D runs in one group: whole-run blocks of four and three runs
    "griewank_10d_sweep": ({"id": "griewank", "options": {"n_dims": 10}},
                           {"cfo": {"n_steps": 100}, "outputs": {},
                            "sweep": {"parameter": "gamma", "start": 0, "stop": 1, "count": 7}}),
}
EXTRA_ORACLES = {  # name: (objective, resolution)
    "sgo_noisy": ({"id": "sgo", "options": {"noise": {"seed": 3}}}, [41, 41]),
    "pbm5_6": ({"id": "pbm5", "options": {"n_elements": 6}}, [2] * 5),
    "pbm5_2": ({"id": "pbm5", "options": {"n_elements": 2}}, [401]),
    "external": (EXTERNAL, [5, 5, 5]),
    "external_3x150x150": (EXTERNAL, [3, 150, 150]),
    "pbm3_fine": ("pbm3", [81, 41]),
    "neg_sum_squares_3d": ("neg_sum_squares", [3, 300, 300]),
    "sgo_noisy_301": ({"id": "sgo", "options": {"noise": {"seed": 3}}}, [301, 301]),
}


def _use_checkout(checkout: Path):
    """Import cfobench and workloads from checkout; external children too."""
    src = str(checkout / "src")
    sys.path[:0] = [src, str(checkout / "perfbench")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def _write_config(out: Path, name: str, objective, **blocks) -> str:
    path = out / "extra" / (name + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"objective": objective, **blocks}))
    return str(path)


def run(out: Path):
    import workloads
    from cfobench import cli, oracle

    for seed in (0, 1):
        for wl in workloads.WORKLOADS:
            plan = json.loads(workloads.write_plan(wl, seed, out / f"{wl}_s{seed}", sys.executable).read_text())
            grid = {}
            for op in plan["ops"]:
                spec = cli.load_config(op["config"])
                if op["kind"] == "run":
                    cli.run_benchmark(spec, quiet=True)
                elif op["kind"] == "sweep":
                    cli.sweep_runs(spec, quiet=True)
                elif op["kind"] == "oracle":
                    grid[op["name"]] = cli.oracle_command(spec, op["resolution"], quiet=True)
                else:
                    r = oracle.refine(spec.objective, center=grid[op["center_from"]].argmax,
                                      half_widths=op["half_widths"], levels=op["levels"], n_points=op["n_points"])
                    Path(op["out_dir"]).mkdir(parents=True)
                    (Path(op["out_dir"]) / "refine.json").write_text(
                        json.dumps([r.argmax.tolist(), r.value, r.n_evaluations]))
    for name, (objective, cfo) in EXTRA.items():
        path = _write_config(out, name, objective, cfo=cfo,
                             outputs={"dir": str(out / "extra" / name), "trajectories": True})
        cli.run_benchmark(cli.load_config(path), quiet=True)
    for name, (objective, blocks) in CONFIGS.items():
        blocks = dict(blocks, outputs=dict(blocks["outputs"], dir=str(out / "extra" / name)))
        jobs = blocks.pop("jobs", 1)
        spec = cli.load_config(_write_config(out, name, objective, **blocks))
        if "sweep" in blocks:
            cli.sweep_runs(spec, jobs=jobs, quiet=True)
        else:
            cli.run_benchmark(spec, quiet=True)
    for name, (objective, resolution) in EXTRA_ORACLES.items():
        path = _write_config(out, "oracle_" + name, objective,
                             outputs={"dir": str(out / "extra" / ("oracle_" + name))})
        cli.oracle_command(cli.load_config(path), resolution, quiet=True)
    path = _write_config(out, "seed_override", "himmelblau", cfo={"n_steps": 50},
                         outputs={"dir": str(out / "extra" / "seed_override")},
                         sweep={"parameter": "gamma", "start": 0, "stop": 1, "count": 3})
    cli.sweep_runs(cli.load_config(path, seed_override=99), quiet=True)


def diff(a: Path, b: Path) -> int:
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if files != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        print("the two trees hold different file names")
        return 1
    bad = [str(rel) for rel in files
           if (a / rel).read_bytes().replace(str(a).encode(), str(b).encode()) != (b / rel).read_bytes()]
    n_rec = sum(rel.name == "record.json" for rel in files)
    print(f"{len(files)} files ({n_rec} record.json), {len(bad)} differ", *bad, sep="\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="write every output of one checkout")
    p_run.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    p_run.add_argument("out", type=Path)
    p_diff = sub.add_parser("diff", help="compare two output trees")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a.resolve(), args.b.resolve())
    out = args.out.resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"records_diff: {out} exists and is not an empty directory", file=sys.stderr)
        return 2
    _use_checkout(args.checkout.resolve())
    run(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
