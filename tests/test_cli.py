from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys

import pytest

from cfobench import cli
from cfobench.cli import default_probe_count, load_config, main, oracle_command, sweep_runs
from cfobench.engine import CfoConfig, ConfigError
from cfobench.external import ProtocolError
from cfobench.objectives import get_objective, list_objectives


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE_RUN = {
    "objective": "gp",
    "cfo": {"n_probes": 6, "n_steps": 25, "gamma": 0.4},
}

QUADRATIC = {"command": [sys.executable, "-m", "cfobench.external", "quadratic"],
             "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}
BAD_COMMAND = "external: command must be a nonempty string or a nonempty list of strings"
BAD_TIMEOUT = "external: timeout must be a positive finite number of seconds"


def test_minimal_config_defaults(tmp_path):
    path = write_config(tmp_path, {"objective": "gp"})
    spec = load_config(path)
    assert spec.space.bounds_list() == [(-2.0, 2.0), (-2.0, 2.0)]
    assert spec.cfo.n_probes == default_probe_count(2) == 8
    assert spec.cfo.n_steps == 500
    assert spec.out_dir.name == "cfo_out"
    assert spec.emit["fitness"] and not spec.emit["trajectories"]


def test_probe_count_rule():
    assert default_probe_count(1) == 6
    assert default_probe_count(2) == 8
    assert default_probe_count(9) == 36


def test_run_writes_the_output_files(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_RUN, outputs={"dir": str(tmp_path / "out")}))
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("fitness.txt", "davg.txt", "best_probe.txt", "record.json",
                 "summary.txt", "summary.csv"):
        assert (out / name).exists(), name

    fitness_lines = (out / "fitness.txt").read_text().splitlines()
    assert len(fitness_lines) == 26
    step, value = fitness_lines[0].split()
    assert step == "0" and math.isfinite(float(value))

    record = json.loads((out / "record.json").read_text())
    assert record["schema_version"] == 1
    assert record["final"]["steps_executed"] == 25

    printed = capsys.readouterr().out
    assert "gp: best" in printed and "saturation step" in printed


def test_run_records_are_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, dict(BASE_RUN, outputs={"dir": str(tmp_path / "a")}),
                         name="a.json")
    cfg_b = write_config(tmp_path, dict(BASE_RUN, outputs={"dir": str(tmp_path / "b")}),
                         name="b.json")
    assert main(["run", "--config", cfg_a, "--quiet"]) == 0
    assert main(["run", "--config", cfg_b, "--quiet"]) == 0
    rec_a = (tmp_path / "a" / "record.json").read_bytes()
    rec_b = (tmp_path / "b" / "record.json").read_bytes()
    assert rec_a == rec_b
    assert (tmp_path / "a" / "fitness.txt").read_bytes() == (
        tmp_path / "b" / "fitness.txt").read_bytes()


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, dict(BASE_RUN, outputs={"dir": str(tmp_path / "fromcfg")}))
    monkeypatch.setenv("CFO_OUT_DIR", str(tmp_path / "fromenv"))
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "fromenv" / "record.json").exists()
    assert not (tmp_path / "fromcfg").exists()

    assert main(["run", "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "fromflag")]) == 0
    assert (tmp_path / "fromflag" / "record.json").exists()


def test_emit_toggles(tmp_path):
    cfg = write_config(tmp_path, dict(
        BASE_RUN,
        outputs={"dir": str(tmp_path / "out"), "fitness": False,
                 "davg": False, "summary": False},
    ))
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    out = tmp_path / "out"
    assert (out / "record.json").exists()
    assert (out / "best_probe.txt").exists()
    assert not (out / "fitness.txt").exists()
    assert not (out / "davg.txt").exists()
    assert not (out / "summary.txt").exists()


def test_trajectory_outputs(tmp_path):
    cfg = write_config(tmp_path, dict(
        BASE_RUN,
        outputs={"dir": str(tmp_path / "out"), "trajectories": True,
                 "probe_snapshots": True},
    ))
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    out = tmp_path / "out"
    probes = sorted((out / "trajectories").glob("probe_*.txt"))
    assert len(probes) == 6
    lines = probes[0].read_text().splitlines()
    assert len(lines) == 26
    assert len(lines[0].split()) == 3  # step x1 x2
    snaps = sorted((out / "probes").glob("step_*.txt"))
    assert len(snaps) == 26
    assert len(snaps[0].read_text().splitlines()) == 6


def test_config_validation_exit_codes(tmp_path, capsys):
    bad_frep = write_config(tmp_path, dict(
        BASE_RUN, cfo=dict(BASE_RUN["cfo"], frep_init=1.5)), name="frep.json")
    assert main(["run", "--config", bad_frep]) == 2
    assert "frep_init" in capsys.readouterr().err

    unknown_key = write_config(tmp_path, dict(BASE_RUN, extras=1), name="ek.json")
    assert main(["run", "--config", unknown_key]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(not_json)]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing]) == 2

    bad_bounds = write_config(tmp_path, dict(
        BASE_RUN, bounds=[[-2.0, 2.0]]), name="bb.json")
    assert main(["run", "--config", bad_bounds]) == 2
    assert "dimensions" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_force_update_is_an_objective_error(tmp_path, capsys):
    # gap ** alpha overflows to inf, and inf * 0 makes NaN accelerations
    doc = {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 20, "alpha": 1e308},
           "outputs": {"dir": str(tmp_path / "out")}}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
    assert "objective error: acceleration is NaN at step 1, probe 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_infinite_accelerations_are_retrieved(tmp_path):
    # g * sum overflows only to +-inf; retrieval pulls those probes back
    # inside the box and the run completes (test_golden pins its bytes)
    doc = {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 20, "g": 1e308},
           "outputs": {"dir": str(tmp_path / "out")}}
    assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == 0
    record = json.loads((tmp_path / "out" / "record.json").read_text(encoding="utf-8"))
    assert record["final"]["steps_executed"] == 20
    assert all(math.isfinite(v) for v in record["series"]["d_avg"])


def test_external_failure_exit_code(tmp_path, capsys, spawned):
    doc = {
        "objective": {
            "id": "external",
            "options": {
                "command": [sys.executable, "-m", "cfobench.external", "badshake"],
                "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            },
        },
        "cfo": {"n_probes": 4, "n_steps": 5},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    # the message tells the bad handshake from a child that could not start
    assert "objective error" in err and "unsupported protocol version" in err
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_sweep_summary(tmp_path, capsys):
    doc = {
        "objective": "sgo",
        "cfo": {"n_probes": 6, "n_steps": 40},
        "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 5},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == 0
    out = tmp_path / "out"

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    gammas = [float(r["Gamma"]) for r in rows]
    assert gammas == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in rows:
        assert int(r["n_eval"]) == (int(r["steps"]) + 1) * int(r["n_probes"])
        assert int(r["n_probes"]) == 6

    text = (out / "summary.txt").read_text()
    assert "Best run:" in text
    assert "Total Function Evaluations:" in text
    total = sum(int(r["n_eval"]) for r in rows)
    assert f"Total Function Evaluations: {total}" in text

    for i in range(1, 6):
        assert (out / f"run_0{i}" / "record.json").exists()
    assert not (out / "run_01" / "summary.txt").exists()

    printed = capsys.readouterr().out
    assert "total function evaluations" in printed
    assert "best run" in printed


@pytest.mark.parametrize("objective, sweep", [
    ("pbm2", {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 4}),
    ({"id": "gp", "options": {"noise": {"seed": 1}}},
     {"parameter": "seed", "start": 1, "stop": 4, "count": 4}),
])
def test_sweep_jobs_do_not_change_the_output(tmp_path, objective, sweep):
    # each group builds its own objective, so the threads share no power memo
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        doc = {"objective": objective, "cfo": {"n_probes": 8, "n_steps": 20}, "sweep": sweep,
               "outputs": {"dir": str(out), "trajectories": True}}
        cfg = write_config(tmp_path, doc, f"jobs{jobs}.json")
        assert main(["sweep", "--config", cfg, "--jobs", jobs, "--quiet"]) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) > 4 * 3
    assert trees[0] == trees[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    doc = {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 5},
           "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 3},
           "outputs": {"dir": str(out)}}
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--jobs", jobs]) == 2
    assert f"config error: --jobs: need at least 1 thread, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_validation(tmp_path):
    doc = {
        "objective": "sgo",
        "cfo": {"n_probes": 6, "n_steps": 10},
        "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 1},
    }
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2

    doc["sweep"] = {"parameter": "speed", "start": 0.0, "stop": 1.0, "count": 3}
    assert main(["sweep", "--config", write_config(tmp_path, doc, "p.json")]) == 2

    # a seed sweep is meaningless without a noise block
    doc["sweep"] = {"parameter": "seed", "start": 1, "stop": 5, "count": 5}
    assert main(["sweep", "--config", write_config(tmp_path, doc, "s.json")]) == 2

    no_sweep = write_config(tmp_path, dict(BASE_RUN), name="ns.json")
    assert main(["sweep", "--config", no_sweep]) == 2


def test_seed_sweep_changes_runs(tmp_path):
    doc = {
        "objective": {"id": "sgo", "options": {"noise": {"seed": 1, "sigma": 0.4}}},
        "cfo": {"n_probes": 6, "n_steps": 15, "gamma": 0.3},
        "sweep": {"parameter": "seed", "start": 1, "stop": 2, "count": 2},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    rec1 = json.loads((tmp_path / "out" / "run_01" / "record.json").read_text())
    rec2 = json.loads((tmp_path / "out" / "run_02" / "record.json").read_text())
    assert rec1["series"]["step_best_fitness"] != rec2["series"]["step_best_fitness"]


def test_seed_sweep_supplies_a_missing_noise_seed(tmp_path):
    doc = {
        "objective": {"id": "sgo", "options": {"noise": {}}},
        "cfo": {"n_probes": 6, "n_steps": 15},
        "sweep": {"parameter": "seed", "start": 1, "stop": 2, "count": 2},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    doc["objective"]["options"]["noise"] = {"seed": 1}
    doc["outputs"]["dir"] = str(tmp_path / "seeded")
    assert main(["sweep", "--config", write_config(tmp_path, doc, "seeded.json"), "--quiet"]) == 0
    for run_dir in ("run_01", "run_02"):
        assert ((tmp_path / "out" / run_dir / "record.json").read_bytes()
                == (tmp_path / "seeded" / run_dir / "record.json").read_bytes())
    # run on the same config takes the sweep's first seed
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "single"), "--quiet"]) == 0
    assert ((tmp_path / "single" / "record.json").read_bytes()
            == (tmp_path / "out" / "run_01" / "record.json").read_bytes())


@pytest.mark.parametrize("objective,bounds,bad,message", [
    ("pbm1", [[-1.0, 3.0], [0.0, 1.5]], [-0.5, 0.5], "dipole length must be > 0"),
    ("pbm2", [[-5.0, 15.0], [0.0, 3.0]], [-2.0, 1.0], "element spacing must be positive"),
    ({"id": "pbm5", "options": {"n_elements": 3}}, [[0.2, 1.5], [0.2, 1.5]], [0.3, 1.0],
     "element spacing below 0.5 wavelength"),
])
def test_antenna_geometry_outside_its_domain_names_the_probe(tmp_path, capsys, objective,
                                                             bounds, bad, message):
    doc = {"objective": objective, "bounds": bounds,
           "cfo": {"n_probes": 2, "n_steps": 3, "init_scheme": "custom",
                   "initial_probes": [[1.0, 1.0], bad]},
           "outputs": {"dir": str(tmp_path / "out")}}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
    assert f"step 0, probe 2: {message}" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    doc = {"objective": "gp", "outputs": {"dir": str(tmp_path / "out")}}
    cfg = write_config(tmp_path, doc)
    assert main(["oracle", "--config", cfg, "--resolution", "81"]) == 0
    payload = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert payload["objective"] == "gp"
    assert payload["resolution"] == [81, 81]
    assert payload["n_evaluations"] == 81 * 81
    assert abs(payload["argmax"][1] + 1.0) < 0.1
    assert "oracle max" in capsys.readouterr().out

    assert main(["oracle", "--config", cfg, "--resolution", "41,21",
                 "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert payload["resolution"] == [41, 21]

    assert main(["oracle", "--config", cfg, "--resolution", "lots"]) == 2


def test_failed_oracle_reaps_the_external_child(tmp_path):
    doc = {
        "objective": {
            "id": "external",
            "options": {
                "command": [sys.executable, "-m", "cfobench.external", "malformed"],
                "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            },
        },
        "outputs": {"dir": str(tmp_path / "out")},
    }
    spec = load_config(write_config(tmp_path, doc))
    client = spec.objective.close.__self__
    with pytest.raises(ProtocolError):
        oracle_command(spec, 3, quiet=True)
    assert client._proc.poll() is not None


def test_sweep_closes_the_objective_load_config_built(tmp_path):
    doc = {
        "objective": {"id": "external", "options": QUADRATIC},
        "cfo": {"n_probes": 4, "n_steps": 2},
        "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 2},
        "outputs": {"dir": str(tmp_path / "out")},
    }
    spec = load_config(write_config(tmp_path, doc))
    client = spec.objective.close.__self__
    sweep_runs(spec, quiet=True)
    assert client._proc.poll() is not None


def test_config_error_closes_the_external_child(tmp_path, capsys, monkeypatch):
    built = []

    def recording_get_objective(*args, **kwargs):
        built.append(get_objective(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "get_objective", recording_get_objective)
    doc = {"objective": {"id": "external", "options": QUADRATIC}, "cfo": {"n_steps": "x"}}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "n_steps" in capsys.readouterr().err
    client = built[0].close.__self__
    assert client._proc.poll() is not None


def test_objectives_listing(capsys):
    assert main(["objectives"]) == 0
    names = capsys.readouterr().out.split()
    assert "gp" in names and "pbm3" in names and names == sorted(names)


def test_seed_override_injects_noise(tmp_path):
    cfg = write_config(tmp_path, {"objective": "sgo"})
    spec = load_config(cfg, seed_override=42)
    assert spec.objective.noise is not None
    clean = load_config(cfg)
    assert clean.objective.noise is None


def test_cfo_block_rejects_unknown_and_mistyped_fields(tmp_path):
    bad_field = dict(BASE_RUN, cfo=dict(BASE_RUN["cfo"], warp_factor=9))
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write_config(tmp_path, bad_field, "w.json"))

    bad_type = dict(BASE_RUN, cfo=dict(BASE_RUN["cfo"], n_steps=2.5))
    with pytest.raises(ConfigError, match="integer"):
        load_config(write_config(tmp_path, bad_type, "t.json"))

    bad_bool = dict(BASE_RUN, cfo=dict(BASE_RUN["cfo"], early_termination="yes"))
    with pytest.raises(ConfigError, match="boolean"):
        load_config(write_config(tmp_path, bad_bool, "b.json"))


def test_cfo_keys_are_the_record_config_keys(tmp_path):
    # every field a cfo block accepts is echoed in record.json, and the echo
    # is itself a cfo block that reproduces the record
    cfo = dict(BASE_RUN["cfo"], init_scheme="custom",
               initial_probes=[[x, -x] for x in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)])
    records = []
    for name in ("a", "b"):
        out = tmp_path / name
        doc = dict(BASE_RUN, cfo=cfo, outputs={"dir": str(out)})
        assert main(["run", "--config", write_config(tmp_path, doc, name + ".json"), "--quiet"]) == 0
        records.append((out / "record.json").read_bytes())
        cfo = json.loads(records[-1])["config"]
    assert set(cfo) == {f.name for f in dataclasses.fields(CfoConfig)}
    assert records[0] == records[1]


@pytest.mark.parametrize("blocks", [
    '"objective": "gp", "cfo": {"n_probes": 6, "n_steps": 25, "g": NaN}',
    '"objective": "gp", "cfo": {"n_probes": 6, "n_steps": 25, "g": 1e400}',
    '"objective": "gp", "cfo": {"n_probes": 6, "n_steps": Infinity}',
    '"objective": "gp", "cfo": {"n_probes": 6, "n_steps": 25, "alpha": -1%s}' % ("0" * 400),
    '"objective": "gp", "bounds": [[-2, 2], [-Infinity, 2]]',
    '"objective": {"id": "gp", "options": {"noise": {"seed": 1}}}, '
    '"sweep": {"parameter": "seed", "start": Infinity, "stop": 4, "count": 4}',
], ids=["g_nan", "g_1e400", "n_steps_infinity", "alpha_integer_overflow", "bounds_infinity",
        "seed_sweep_infinity"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, blocks):
    path = tmp_path / "config.json"
    path.write_text("{%s}" % blocks, encoding="utf-8")
    assert main(["sweep" if "sweep" in blocks else "run", "--config", str(path)]) == 2
    assert "numbers must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("shrink_interval", 5),
    ("perturb_on_oscillation", True),
    ("perturbation_sigma", 0.1),
    ("mitigation_seed", 3),
    ("keep_history", False),
    ("initial_acceleration", [0.25, -0.5]),
    ("davg_sat_tol", 5e-4),
])
def test_removed_cfo_options_are_unknown_fields(tmp_path, capsys, key, value):
    doc = dict(BASE_RUN, cfo=dict(BASE_RUN["cfo"], **{key: value}))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "unknown field" in err and key in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_fitness_sat_tol_exits_2(tmp_path, capsys, command):
    # a negative tolerance would put the saturation step past the last step
    doc = {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 20, "fitness_sat_tol": -1.0},
           "outputs": {"dir": str(tmp_path / "out")}}
    if command == "sweep":
        doc["sweep"] = {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 2}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "fitness_sat_tol: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_delta_t_with_an_overflowing_square_exits_2(tmp_path, capsys, command):
    # the position update multiplies by delta_t ** 2, which overflows here
    doc = {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 20, "delta_t": 1e200},
           "outputs": {"dir": str(tmp_path / "out")}}
    if command == "sweep":
        doc["sweep"] = {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 2}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "delta_t: its square must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", ["grid-2d", "On-Axis"])
def test_scheme_names_must_be_exact(tmp_path, capsys, scheme):
    doc = dict(BASE_RUN, cfo=dict(BASE_RUN["cfo"], init_scheme=scheme))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"unknown scheme {scheme!r}; expected one of custom, grid_2d, off_diagonal, on_axis" in err


@pytest.mark.parametrize("obj_id", list_objectives())
def test_unknown_objective_options_exit_2(tmp_path, capsys, obj_id):
    doc = dict(BASE_RUN, objective={"id": obj_id, "options": {"bogus": 1}})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    if obj_id == "pbm4":  # no options can build it, so its own reason comes first
        assert "external objective protocol" in err
    else:
        assert f"{obj_id}: unknown options ['bogus']" in err


@pytest.mark.parametrize("objective,argv,message", [
    ({"id": "gp", "options": {"obj_id": 1}}, [], "gp: unknown options ['obj_id']"),
    ({"id": "pbm5", "options": {"n_elements": "6"}}, [], "n_elements must be an integer >= 2"),
    ({"id": "pbm5", "options": {"n_elements": 1}}, [], "n_elements must be an integer >= 2"),
    ({"id": "gp", "options": {"noise": {"sigma": 0.1}}}, [], "noise must be an object with a seed"),
    ({"id": "gp", "options": {"noise": {"seed": 1, "sgima": 0.1}}}, [], "noise must be"),
    ({"id": "gp", "options": {"noise": 5}}, [], "noise must be"),
    ({"id": "external", "options": dict(QUADRATIC, noise={"seed": 1})}, [],
     "external: noise is not supported"),
    ({"id": "external", "options": QUADRATIC}, ["--seed", "4"], "external: noise is not supported"),
    ({"id": "step", "options": {"n_dims": 0}}, [], "step: n_dims must be an integer >= 1"),
    ({"id": "step", "options": {"n_dims": -1}}, [], "step: n_dims must be an integer >= 1"),
    ({"id": "step", "options": {"n_dims": 2.5}}, [], "step: n_dims must be an integer >= 1"),
    ({"id": "step", "options": {"n_dims": "3"}}, [], "step: n_dims must be an integer >= 1"),
    ({"id": "gp", "options": {"noise": {"seed": True}}}, [], "gp: noise.seed must be an integer"),
    ({"id": "gp", "options": {"noise": {"seed": 1.7}}}, [], "gp: noise.seed must be an integer"),
    ({"id": "gp", "options": {"noise": {"seed": 1, "sigma": "wide"}}}, [],
     "gp: noise.sigma must be a number"),
    ({"id": "gp", "options": {"noise": {"seed": 1, "mu": None}}}, [], "gp: noise.mu must be a number"),
    ({"id": "gp", "options": {"noise": {}}}, [], "gp: noise must be an object with a seed"),
    ({"id": "gp", "options": {"noise": False}}, [], "gp: noise must be an object with a seed"),
    ({"id": "gp", "options": {"noise": 0}}, [], "gp: noise must be an object with a seed"),
    ({"id": "external", "options": dict(QUADRATIC, noise={})}, [],
     "external: noise is not supported"),
    ({"id": "gp", "options": {"noise": False}}, ["--seed", "4"], "gp: noise must be an object with a seed"),
    (" GP ", [], f"unknown objective id ' GP '; expected one of {', '.join(list_objectives())}"),
    ({"id": "external", "options": dict(QUADRATIC, command=5)}, [], BAD_COMMAND),
    ({"id": "external", "options": dict(QUADRATIC, command={"a": 1})}, [], BAD_COMMAND),
    ({"id": "external", "options": dict(QUADRATIC, command=[sys.executable, 5])}, [], BAD_COMMAND),
    ({"id": "external", "options": dict(QUADRATIC, command=[])}, [], BAD_COMMAND),
    ({"id": "external", "options": dict(QUADRATIC, command=" ")}, [], BAD_COMMAND),
    ({"id": "external", "options": dict(QUADRATIC, timeout=-1)}, [], BAD_TIMEOUT),
    ({"id": "external", "options": dict(QUADRATIC, timeout=0)}, [], BAD_TIMEOUT),
    ({"id": "external", "options": dict(QUADRATIC, timeout=True)}, [], BAD_TIMEOUT),
    ({"id": "external", "options": dict(QUADRATIC, timeout="5")}, [], BAD_TIMEOUT),
    ({"id": "external", "options": dict(QUADRATIC, command=f'{sys.executable} -m "cfobench.external quadratic')},
     [], "config error: external: command: No closing quotation"),
    ({"id": "sgo", "options": {"noise": {"seed": 1, "sigma": -1.0}}}, [],
     "config error: sgo: noise.sigma must be a finite number >= 0"),
    ({"id": "gp", "options": {"noise": {"sigma": -1}}}, ["--seed", "4"], "gp: noise.sigma must be a finite number >= 0"),
])
def test_bad_objective_options_exit_2(tmp_path, capsys, spawned, objective, argv, message):
    doc = dict(BASE_RUN, objective=objective)
    assert main(["run", "--config", write_config(tmp_path, doc)] + argv) == 2
    assert message in capsys.readouterr().err
    assert spawned == []  # rejected before any child started
