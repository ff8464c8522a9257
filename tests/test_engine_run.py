from __future__ import annotations

import json
import math
import re
import sys

import numpy as np
import pytest

from cfobench import CfoConfig, DecisionSpace, EngineError, cli, get_objective, run
from cfobench.acceptance import naive_engine_step
from cfobench.engine import (
    advance_positions,
    compute_accelerations,
    d_avg,
    detect_fitness_saturation,
    init_probes,
    retrieve_errant_probes,
    run_group,
    update_frep,
)
from cfobench.objectives import Objective, batch_form


def quad_objective(x):
    return -float(np.sum(np.asarray(x) ** 2))


UNIT_BOX = DecisionSpace(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_run_is_deterministic_to_the_byte():
    cfg = CfoConfig(n_probes=6, n_steps=40)
    a = run(cfg, UNIT_BOX, quad_objective).to_json()
    b = run(cfg, UNIT_BOX, quad_objective).to_json()
    assert a == b


def test_probes_stay_inside_bounds():
    cfg = CfoConfig(n_probes=6, n_steps=60, g=5.0)
    rec = run(cfg, UNIT_BOX, quad_objective, keep_history=True)
    for step in range(rec.positions_history.shape[0]):
        assert UNIT_BOX.contains(rec.positions_history[step]), f"step {step}"


def test_zero_initial_acceleration_plateau():
    # nothing moves between step 0 and step 1 when accelerations start at 0
    cfg = CfoConfig(n_probes=4, n_steps=3)
    rec = run(cfg, UNIT_BOX, quad_objective, keep_history=True)
    assert np.array_equal(rec.positions_history[0], rec.positions_history[1])
    assert rec.step_best_fitness[0] == rec.step_best_fitness[1]
    assert rec.d_avg[0] == rec.d_avg[1]


def test_goldstein_price_run_finds_the_basin():
    obj = get_objective("gp")
    cfg = CfoConfig(n_probes=8, n_steps=500, gamma=0.4)
    rec = run(cfg, obj.bounds, obj)
    assert rec.final_best_fitness >= -3.01
    assert math.dist(rec.best_point, (0.0, -1.0)) <= 0.05


def test_series_shapes_and_accounting():
    cfg = CfoConfig(n_probes=4, n_steps=25)
    rec = run(cfg, UNIT_BOX, quad_objective)
    n = len(rec.best_fitness)
    assert n == 26
    assert rec.n_eval == [(j + 1) * 4 for j in range(26)]
    assert all(0.0 < f <= 1.0 for f in rec.frep)
    assert all(0.0 <= d for d in rec.d_avg)
    diffs = np.diff(np.asarray(rec.best_fitness))
    assert np.all(diffs >= 0.0)
    assert rec.steps_executed == 25
    assert rec.termination_reason == "CompletedNt"


def test_non_finite_fitness_names_the_probe():
    def sometimes_nan(x):
        if x[0] > 0.9:
            return float("nan")
        return quad_objective(x)

    space = DecisionSpace(np.array([-1.0]), np.array([1.0]))
    cfg = CfoConfig(n_probes=2, n_steps=5, init_scheme="custom",
                    initial_probes=np.array([[0.0], [0.95]]))
    with pytest.raises(EngineError, match=r"step 0, probe 2"):
        run(cfg, space, sometimes_nan)


def test_early_termination_on_flat_objective():
    cfg = CfoConfig(n_probes=4, n_steps=400, n_avg_steps=10, early_termination=True)
    rec = run(cfg, UNIT_BOX, lambda x: 1.0)
    assert rec.termination_reason == "FitnessSaturated"
    assert rec.steps_executed < 400
    assert rec.saturation_step == 0
    assert len(rec.best_fitness) == rec.steps_executed + 1


def test_best_fitness_agrees_with_the_run_on_plateaus():
    # the step plateaus make exact ties common; the run's best is the last
    # occurrence of the history's maximum, scanning step by step and probe
    # by probe within a step
    obj = get_objective("step")
    cfg = CfoConfig(n_probes=8, n_steps=300, gamma=0.3)
    rec = run(cfg, obj.bounds, obj, keep_history=True)
    hist = rec.fitness_history
    steps, probes = np.nonzero(hist == hist.max())
    assert len(steps) > 1
    assert (rec.final_best_fitness, rec.final_best_probe, rec.final_best_step) == (
        hist.max(), probes[-1] + 1, steps[-1])
    assert np.array_equal(rec.best_point, rec.positions_history[steps[-1], probes[-1]])


def test_saved_best_ring_and_frep_replay_from_the_fitness_history():
    # the running best (>=, probes in order), the ring (step j >= 1 writes
    # slot j mod n_saved, remainder 0 meaning the last slot, whenever the
    # best moved) and the update_frep rule, replayed in plain Python
    obj = get_objective("gp")
    cfg = CfoConfig(n_probes=8, n_steps=200, gamma=0.3)
    rec = run(cfg, obj.bounds, obj, keep_history=True)
    best, probe, frep = -math.inf, 0, cfg.frep_init
    bests, probes, freps = [], [], []
    for j, row in enumerate(rec.fitness_history.tolist()):
        moved = False
        for p, v in enumerate(row):
            if v >= best:
                best, probe, moved = v, p + 1, True
        if j == 0:
            ring = [best] * cfg.n_saved
        else:
            if moved:
                ring[(j % cfg.n_saved or cfg.n_saved) - 1] = best
            tail = ring[cfg.n_saved - cfg.n_sat:]
            if abs(ring[-1] - sum(tail) / len(tail)) <= cfg.fit_tol:
                frep += cfg.frep_increment
                if frep >= 1.0:
                    frep = cfg.frep_init
        bests.append(best)
        probes.append(probe)
        freps.append(frep)
    assert sum(a != b for a, b in zip(freps, freps[1:])) >= 2
    assert rec.frep == freps
    assert rec.best_fitness == bests
    assert rec.best_probe == probes


def test_record_serialization_schema():
    cfg = CfoConfig(n_probes=4, n_steps=8)
    rec = run(cfg, UNIT_BOX, quad_objective)
    doc = json.loads(rec.to_json())
    assert doc["schema_version"] == 1
    assert doc["config"]["n_probes"] == 4
    assert doc["bounds"] == [[-1.0, 1.0], [-1.0, 1.0]]
    series = doc["series"]
    for key in ("best_fitness", "step_best_fitness", "best_probe",
                "d_avg", "frep", "n_eval"):
        assert len(series[key]) == 9
    final = doc["final"]
    assert final["termination_reason"] == "CompletedNt"
    assert len(final["best_point"]) == 2
    # histories are memory-only
    assert "fitness_history" not in doc and "positions_history" not in doc


def test_history_is_kept_only_on_request():
    cfg = CfoConfig(n_probes=4, n_steps=4)
    rec = run(cfg, UNIT_BOX, quad_objective)
    assert rec.fitness_history is None and rec.positions_history is None
    kept = run(cfg, UNIT_BOX, quad_objective, keep_history=True)
    assert kept.fitness_history.shape == (5, 4) and kept.positions_history.shape == (5, 4, 2)
    assert kept.to_json() == rec.to_json()


def test_evaluation_context_is_forwarded():
    # one batch per step, holding every probe, with the step passed along
    calls = []

    class Recorder:
        bounds = UNIT_BOX

        def evaluate_batch(self, rows, step=0):
            calls.append((step, rows.shape))
            return -np.sum(rows ** 2, axis=1)

    cfg = CfoConfig(n_probes=4, n_steps=2)
    run(cfg, UNIT_BOX, Recorder())
    assert calls == [(0, (4, 2)), (1, (4, 2)), (2, (4, 2))]


def test_failing_callable_names_the_step_and_probe():
    def second_probe_fails(x):
        if x[0] > 0.0:
            raise ValueError("bad geometry")
        return quad_objective(x)

    space = DecisionSpace(np.array([-1.0]), np.array([1.0]))
    cfg = CfoConfig(n_probes=2, n_steps=5, init_scheme="custom",
                    initial_probes=np.array([[-0.5], [0.5]]))
    with pytest.raises(EngineError, match=r"step 0, probe 2: bad geometry") as info:
        run(cfg, space, second_probe_fails)
    assert isinstance(info.value.__cause__, ValueError)


def test_batch_of_the_wrong_shape_is_refused():
    class Short:
        def evaluate_batch(self, rows, step=0):
            return np.zeros(len(rows) - 1)

    with pytest.raises(EngineError, match=r"shape \(3,\) at step 0, not \(4,\)"):
        run(CfoConfig(n_probes=4, n_steps=2), UNIT_BOX, Short())


def replay(cfg, space, objective):
    """run()'s loop rebuilt from the public step functions, with the running
    best kept by a scan of its own, independent of the engine's array fold:
    scanning probes in order, every value >= the best so far takes over."""
    batch = batch_form(objective)
    positions = init_probes(cfg.init_scheme, space, cfg)
    acc = np.zeros_like(positions)
    frep = cfg.frep_init
    best, probe, best_step = -math.inf, 0, 0
    series = {name: [] for name in ("best_fitness", "step_best_fitness", "best_probe",
                                    "d_avg", "frep")}
    fits, points = [], []
    reason = "CompletedNt"
    for j in range(cfg.n_steps + 1):
        if j:
            raw = advance_positions(positions, acc, cfg.delta_t)
            positions = retrieve_errant_probes(raw, positions, space, frep)
        fitness = np.asarray(batch(positions.copy(), step=j), dtype=float)
        moved = False
        for p, v in enumerate(fitness.tolist()):
            if v >= best:
                best, probe, best_step, moved = v, p + 1, j, True
        if moved:
            best_x = positions[probe - 1].copy()
        if j == 0:
            ring = np.full(cfg.n_saved, best)
        else:
            if moved:
                ring[(j - 1) % cfg.n_saved] = best
            frep = update_frep(ring, frep, cfg)
            acc = compute_accelerations(positions, fitness, cfg, space)
        for name, value in zip(series, (best, float(fitness.max()), probe,
                                        d_avg(positions, best_x, space), frep)):
            series[name].append(value)
        fits.append(fitness)
        points.append(positions)
        if j and cfg.early_termination and detect_fitness_saturation(
                series["step_best_fitness"], j, cfg):
            reason = "FitnessSaturated"
            break
    final = (best, probe, best_step, best_x.tolist(), reason)
    return series, np.asarray(fits), np.asarray(points), final


def _replay_configs():
    """44 seeded (objective, config) pairs: 1 to 30 dimensions, 2 to 120
    probes, every init scheme, g, delta_t, alpha, beta, n_sat and frep_init
    away from their defaults, and early termination; and a run that
    saturates at its last step."""
    rng = np.random.default_rng(20261019)
    fixed = [("gp", {}), ("himmelblau", {}), ("colville", {}), ("parrott_f4", {})]
    cases = []
    for i in range(44):
        if i % 3 == 0:
            obj_id, options = fixed[(i // 3) % len(fixed)]
        else:
            obj_id = ("step", "schwefel_226", "griewank")[(i // 3) % 3]
            options = {"n_dims": 30 if i % 11 == 1 else int(rng.integers(1, 9))}
        obj = get_objective(obj_id, **options)
        n_d = obj.bounds.n_dims
        n_p = 120 if i % 11 == 1 else int(rng.integers(2, 17))
        fields = {"n_probes": n_p, "n_steps": 12 if n_p * n_d > 500 else 60,
                  "init_scheme": "off_diagonal"}
        if n_p % n_d == 0 and n_p // n_d >= 2 and i % 2:
            fields.update(init_scheme="on_axis", gamma=float(rng.uniform(0, 1)))
        elif i % 4 == 2:
            lo, hi = obj.bounds.lower, obj.bounds.upper
            fields.update(init_scheme="custom", initial_probes=rng.uniform(lo, hi, (n_p, n_d)))
        elif n_d == 2 and n_p < 100:
            fields.update(n_probes=9, init_scheme="grid_2d")
        if i % 4:
            n_saved = int(rng.integers(1, 7))
            fields.update(g=float(rng.uniform(0.5, 6)), delta_t=float(rng.uniform(0.5, 1.5)),
                          alpha=float(rng.uniform(0.5, 3)), beta=float(rng.uniform(0.5, 3)),
                          n_saved=n_saved, n_sat=int(rng.integers(1, n_saved + 1)),
                          frep_init=float(rng.uniform(0.05, 1.0)))
        if i % 5 == 0:
            fields.update(n_steps=200, n_avg_steps=10, early_termination=True)
        cases.append((obj, CfoConfig(**fields)))
    # the detector first fires at step 60, the run's last
    cases.append((get_objective("gp"), CfoConfig(n_probes=8, n_steps=60, gamma=0.1,
                                                 early_termination=True)))
    cases.append((SIGNED_ZEROS, CfoConfig(n_probes=8, n_steps=40, init_scheme="off_diagonal")))
    return cases


def _signed_zero_rows(rows):
    """-floor(2 |x1|), whose plateau |x1| < 1/2 holds 0.0 or -0.0 by the
    sign of sin(11 (x1 + x2)): a step's best is a tie of both zeros."""
    level = -np.floor(2.0 * np.abs(rows[:, 0]))
    return np.where(level == 0.0, np.copysign(0.0, np.sin(11.0 * rows.sum(axis=1))), level)


SIGNED_ZEROS = Objective(id="signed_zeros", n_dims=2, bounds=UNIT_BOX,
                         evaluate_batch=lambda rows, step=0: _signed_zero_rows(rows))


def _bits(values) -> bytes:
    """The float64 bytes of values: unlike ==, they tell 0.0 from -0.0."""
    return np.asarray(values, dtype=float).tobytes()


def test_run_equals_a_replay_of_the_public_step_functions():
    cases = _replay_configs()
    reasons, dims, probes = set(), set(), set()
    for obj, cfg in cases:
        rec = run(cfg, obj.bounds, obj, keep_history=True)
        series, fits, points, final = replay(cfg, obj.bounds, obj)
        for name, values in series.items():
            assert getattr(rec, name) == values, (obj.id, cfg, name)
            assert _bits(getattr(rec, name)) == _bits(values), (obj.id, cfg, name)
        # both histories to the bit
        assert rec.fitness_history.tobytes() == fits.tobytes()
        assert rec.positions_history.tobytes() == points.tobytes()
        assert (rec.final_best_fitness, rec.final_best_probe, rec.final_best_step,
                rec.best_point.tolist(), rec.termination_reason) == final
        assert _bits(rec.final_best_fitness) == _bits(final[0])
        reasons.add(rec.termination_reason)
        dims.add(obj.bounds.n_dims)
        probes.add(cfg.n_probes)
    assert len(cases) >= 40
    assert reasons == {"CompletedNt", "FitnessSaturated"}
    # the signed-zero case: steps whose best is a tie of 0.0 and -0.0, and a
    # running best that changes sign
    rec = run(cases[-1][1], UNIT_BOX, SIGNED_ZEROS, keep_history=True)
    zero, negative = rec.fitness_history == 0.0, np.signbit(rec.fitness_history)
    assert (rec.fitness_history.max(axis=1) == 0.0).all()
    assert ((zero & negative).any(axis=1) & (zero & ~negative).any(axis=1)).all()
    assert {bool(np.signbit(v)) for v in rec.best_fitness} == {False, True}
    assert min(dims) == 1 and max(dims) == 30 and min(probes) == 2 and max(probes) == 120


def test_runs_of_different_shapes_back_to_back():
    # each run sizes its own arrays, so a run is the same after any other
    small = (get_objective("gp"), CfoConfig(n_probes=8, n_steps=40, g=5.0))
    large = (get_objective("schwefel_226", n_dims=30), CfoConfig(n_probes=60, n_steps=10))
    first = [run(cfg, obj.bounds, obj).to_json() for obj, cfg in (small, large)]
    again = [run(cfg, obj.bounds, obj).to_json() for obj, cfg in (large, small)]
    assert first == again[::-1]


COINCIDENT = np.array([[0.2, 0.3], [0.2, 0.3], [0.8, -0.5], [-0.4, 0.1]])


def test_coincident_probes_skip_their_pair():
    cfg = CfoConfig(n_probes=4, n_steps=1)
    fitness = np.array([0.0, 1.0, 2.0, -1.0])
    acc = compute_accelerations(COINCIDENT, fitness, cfg, UNIT_BOX)
    assert np.isfinite(acc).all()
    _, want = naive_engine_step(COINCIDENT, fitness, np.zeros_like(COINCIDENT), cfg, UNIT_BOX, 0.5)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(acc - want) / scale) <= 1e-12
    # probe 1 feels probe 3 alone: its coincident partner adds nothing
    rest = compute_accelerations(COINCIDENT[[0, 2, 3]], fitness[[0, 2, 3]], cfg, UNIT_BOX)
    assert np.max(np.abs(acc[0] - rest[0]) / np.maximum(1.0, np.abs(rest[0]))) <= 1e-12


def test_run_with_coincident_probes_is_finite_and_repeatable():
    cfg = CfoConfig(n_probes=4, n_steps=60, init_scheme="custom", initial_probes=COINCIDENT)
    a = run(cfg, UNIT_BOX, quad_objective, keep_history=True)
    b = run(cfg, UNIT_BOX, quad_objective, keep_history=True)
    assert a.to_json() == b.to_json()
    assert a.positions_history.tobytes() == b.positions_history.tobytes()
    assert np.isfinite(a.positions_history).all() and np.isfinite(a.d_avg).all()
    # equal fitness and equal forces: the pair stays coincident every step
    assert np.array_equal(a.positions_history[:, 0], a.positions_history[:, 1])


# ---------------------------------------------------------------------------
# lockstep groups: run_group() gives every run the bytes run() gives it alone


def _outcome_bytes(outcome):
    """A record's canonical bytes plus its histories' bytes, if kept."""
    return (outcome.to_json(),
            None if outcome.fitness_history is None else outcome.fitness_history.tobytes(),
            None if outcome.positions_history is None else outcome.positions_history.tobytes())


LOCKSTEP = {  # name: (objective id and noise options, shared cfo fields, swept field, values)
    "gp_gamma": (("gp", {}), {"n_probes": 8, "n_steps": 60}, "gamma", np.linspace(0, 1, 11)),
    "himmelblau_gamma": (("himmelblau", {}), {"n_probes": 8, "n_steps": 60}, "gamma",
                         np.linspace(0, 1, 11)),
    "parrott_f4_gamma": (("parrott_f4", {}), {"n_probes": 6, "n_steps": 60}, "gamma",
                         np.linspace(0, 1, 11)),
    "colville_gamma": (("colville", {}), {"n_probes": 16, "n_steps": 60}, "gamma",
                       np.linspace(0, 1, 11)),
    "schwefel_226_gamma": (("schwefel_226", {}), {"n_probes": 60, "n_steps": 12}, "gamma",
                           np.linspace(0, 1, 3)),
    "colville_forces_gamma": (("colville", {}), {"n_probes": 8, "n_steps": 100, "g": 5.0,
                                                 "delta_t": 0.75, "alpha": 1.5, "beta": 3.0,
                                                 "n_sat": 2}, "gamma", np.linspace(0, 1, 5)),
    "gp_frep_init": (("gp", {}), {"n_probes": 8, "n_steps": 100}, "frep_init",
                     np.linspace(0.1, 0.9, 5)),
    # runs that stop at steps 60 to 173
    "gp_early_termination": (("gp", {}), {"n_probes": 8, "n_steps": 200,
                                          "early_termination": True}, "gamma",
                             np.linspace(0, 1, 11)),
    "gp_noisy_seed": (("gp", {"sigma": 0.5}), {"n_probes": 8, "n_steps": 60}, "seed",
                      range(1, 12)),
}


@pytest.mark.parametrize("keep_history", [False, True])
@pytest.mark.parametrize("name", sorted(LOCKSTEP))
def test_a_group_gives_each_run_its_bytes_alone(name, keep_history):
    (obj_id, noise), fields, swept, values = LOCKSTEP[name]

    def objective(value):
        if swept == "seed":
            return get_objective(obj_id, noise=dict(noise, seed=int(value)))
        return get_objective(obj_id)

    space = objective(values[0]).bounds
    cfgs = [CfoConfig(**fields, **({} if swept == "seed" else {swept: float(v)}))
            for v in values]
    alone = [run(cfg, space, objective(v), keep_history) for cfg, v in zip(cfgs, values)]
    together = run_group(cfgs, space, [objective(v) for v in values], keep_history)
    assert [_outcome_bytes(r) for r in together] == [_outcome_bytes(r) for r in alone]
    assert len({r.to_json() for r in alone}) == len(alone)
    if fields.get("early_termination"):
        assert len({r.steps_executed for r in alone}) > 3


@pytest.mark.parametrize("keep_history", [False, True])
@pytest.mark.parametrize("name", sorted(name for name in LOCKSTEP if LOCKSTEP[name][2] != "seed"))
def test_a_group_sharing_one_objective_gives_each_run_its_bytes_alone(name, keep_history):
    (obj_id, _noise), fields, swept, values = LOCKSTEP[name]
    obj = get_objective(obj_id)
    calls = []

    class Counted:
        def evaluate_batch(self, rows, step=0):
            calls.append(len(rows))
            return obj.evaluate_batch(rows, step)

    cfgs = [CfoConfig(**fields, **{swept: float(v)}) for v in values]
    alone = [run(cfg, obj.bounds, obj, keep_history) for cfg in cfgs]
    shared = Counted()
    together = run_group(cfgs, obj.bounds, [shared] * len(cfgs), keep_history)
    assert [_outcome_bytes(r) for r in together] == [_outcome_bytes(r) for r in alone]
    # one call a step, on the rows of every run still in the group
    steps = [r.steps_executed for r in alone]
    assert calls == [fields["n_probes"] * sum(s >= j for s in steps)
                     for j in range(max(steps) + 1)]


def test_a_shared_objective_must_be_stateless():
    gp = get_objective("gp")
    cfgs = [CfoConfig(n_probes=8, n_steps=5, gamma=g) for g in (0.2, 0.8)]
    noisy = get_objective("gp", noise={"seed": 3})
    closing = Objective(id="gp", n_dims=2, bounds=gp.bounds, evaluate_batch=gp.evaluate_batch,
                        close=lambda: None)
    for shared in (noisy, closing):
        with pytest.raises(ValueError, match="share only a stateless objective"):
            run_group(cfgs + cfgs[:1], gp.bounds, [gp, shared, shared])
        # one run each: nothing is shared
        assert len(run_group(cfgs, gp.bounds, [shared, gp])) == 2


def test_a_shared_batch_of_the_wrong_shape_is_charged_to_the_first_run():
    class Short:
        def evaluate_batch(self, rows, step=0):
            return np.zeros(len(rows) - 1)

    cfgs = [CfoConfig(n_probes=4, n_steps=2, gamma=g) for g in (0.2, 0.5, 0.8)]
    short = Short()
    outcome, = run_group(cfgs, UNIT_BOX, [short] * 3)
    assert isinstance(outcome, EngineError)
    assert re.search(r"shape \(3,\) at step 0, not \(4,\)", str(outcome))


def test_a_group_needs_one_probe_count_and_one_force_law():
    gp = get_objective("gp")
    for other in (CfoConfig(n_probes=6, n_steps=5), CfoConfig(n_probes=8, n_steps=5, g=3.0)):
        with pytest.raises(ValueError, match="the runs must share"):
            run_group([CfoConfig(n_probes=8, n_steps=5), other], gp.bounds, [gp, gp])


def _sweep_spec(tmp_path, objective, cfo, sweep):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": objective, "cfo": cfo, "sweep": sweep,
                                "outputs": {"dir": str(tmp_path / "out")}}))
    return cli.load_config(str(path))


def _gamma_sweep(count):
    return {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": count}


def test_sweep_groups_follow_probe_count_size_threads_and_children(tmp_path):
    def groups(objective, cfo, sweep, jobs=1):
        spec = _sweep_spec(tmp_path, objective, cfo, sweep)
        cfgs = [cli._sweep_run_config(spec, sweep["parameter"], v)
                for v in cli._sweep_values(sweep)]
        try:
            return [(g.start, g.stop) for g in cli.sweep_groups(spec, cfgs, jobs)]
        finally:
            cli._close(spec.objective)

    assert groups("gp", {"n_steps": 5}, _gamma_sweep(11)) == [(0, 11)]
    assert groups("gp", {"n_steps": 5}, _gamma_sweep(20)) == [(0, cli.MAX_GROUP_RUNS),
                                                              (cli.MAX_GROUP_RUNS, 20)]
    # every thread gets a group
    assert groups("gp", {"n_steps": 5}, _gamma_sweep(11), jobs=2) == [(0, 6), (6, 11)]
    assert groups("gp", {"n_steps": 5}, _gamma_sweep(3), jobs=8) == [(0, 1), (1, 2), (2, 3)]
    # 2, 2, 3, 4, 4, 4 and 5 probes
    assert groups("parrott_f4", {"n_steps": 5},
                  {"parameter": "n_probes", "start": 2, "stop": 5, "count": 7}) == [
        (0, 2), (2, 3), (3, 6), (6, 7)]
    # 120 probes in 30-D: the engine blocks the pair arrays, so the runs group
    assert groups("schwefel_226", {"n_steps": 5}, _gamma_sweep(3)) == [(0, 3)]
    external = {"id": "external", "options": {
        "command": [sys.executable, "-m", "cfobench.external", "quadratic"],
        "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}}
    assert groups(external, {"n_probes": 4, "n_steps": 5}, _gamma_sweep(3)) == [
        (0, 1), (1, 2), (2, 3)]


def test_a_group_of_120_probe_runs_keeps_each_runs_bytes(tmp_path):
    spec = _sweep_spec(tmp_path, "schwefel_226", {"n_steps": 6}, _gamma_sweep(3))
    records, _rows = cli.sweep_runs(spec, quiet=True)
    obj = get_objective("schwefel_226")
    for i, gamma in enumerate((0.0, 0.5, 1.0)):
        alone = run(CfoConfig(n_probes=120, n_steps=6, gamma=gamma), obj.bounds, obj)
        assert records[i].to_json() == alone.to_json()
        assert (tmp_path / "out" / f"run_0{i + 1}" / "record.json").read_text() == (
            alone.to_json() + "\n")


def _breaking(objective: Objective, name: str, fail_at: dict, how: str) -> Objective:
    """objective, failing at the step fail_at names (if any): raising, or
    returning a NaN for its second probe."""

    def evaluate_batch(rows, step=0):
        values = objective.evaluate_batch(rows, step)
        if step == fail_at.get(name):
            if how == "raise":
                raise ValueError(f"{name} broke")
            values[1] = math.nan
        return values

    return Objective(id=objective.id, n_dims=objective.n_dims, bounds=objective.bounds,
                     evaluate_batch=evaluate_batch)


# run 2 fails at step 30 and run 4 at step 3: run 4 fails first in time, but
# running the group one run at a time meets run 2's failure first
FAIL_AT = {"run 2": 30, "run 4": 3}


FAILURES = [
    ("raise", "objective failed at step 30: run 2 broke"),
    ("nan", "non-finite fitness at step 30, probe 2"),
]
FAILING_CFGS = [CfoConfig(n_probes=8, n_steps=60, gamma=g) for g in np.linspace(0, 1, 6)]


@pytest.mark.parametrize("how, message", FAILURES)
def test_a_group_reports_its_lowest_numbered_failure(how, message):
    gp = get_objective("gp")
    cfgs = FAILING_CFGS
    objectives = [_breaking(get_objective("gp"), f"run {i + 1}", FAIL_AT, how) for i in range(6)]
    outcomes = run_group(cfgs, gp.bounds, objectives)
    assert len(outcomes) == 2
    assert outcomes[0].to_json() == run(cfgs[0], gp.bounds, gp).to_json()
    assert isinstance(outcomes[1], EngineError) and message in str(outcomes[1])
    with pytest.raises(EngineError, match=re.escape(message)):
        run(cfgs[1], gp.bounds, _breaking(get_objective("gp"), "run 2", FAIL_AT, how))


def _shared_breaking(objective: Objective, cfgs: list, fail_at: dict, how: str) -> Objective:
    """A stateless objective that every run of a group of cfgs may share,
    failing as _breaking does on the rows a run reaches at its fail_at step
    (the positions it has there made alone), wherever they sit in a call."""
    marks = []
    for name, step in fail_at.items():
        cfg = cfgs[int(name.split()[1]) - 1]
        rec = run(cfg, objective.bounds, objective, keep_history=True)
        marks.append((name, step, rec.positions_history[step]))

    def evaluate_batch(rows, step=0):
        values = objective.evaluate_batch(rows, step)
        for name, at, mark in marks:
            blocks = rows.reshape(-1, *mark.shape) if step == at else ()
            for b, block in enumerate(blocks):
                if np.array_equal(block, mark):
                    if how == "raise":
                        raise ValueError(f"{name} broke")
                    values[b * len(mark) + 1] = math.nan
        return values

    return Objective(id=objective.id, n_dims=objective.n_dims, bounds=objective.bounds,
                     evaluate_batch=evaluate_batch)


@pytest.mark.parametrize("how, message", FAILURES)
def test_a_group_sharing_one_objective_reports_its_lowest_numbered_failure(how, message):
    gp = get_objective("gp")
    shared = _shared_breaking(gp, FAILING_CFGS, FAIL_AT, how)
    outcomes = run_group(FAILING_CFGS, gp.bounds, [shared] * 6)
    assert len(outcomes) == 2
    assert outcomes[0].to_json() == run(FAILING_CFGS[0], gp.bounds, gp).to_json()
    assert isinstance(outcomes[1], EngineError) and message in str(outcomes[1])
    with pytest.raises(EngineError, match=re.escape(message)):
        run(FAILING_CFGS[1], gp.bounds, shared)


def test_a_failed_sweep_writes_the_runs_before_it_and_closes_every_objective(
        tmp_path, monkeypatch, capsys):
    # a gamma sweep's group shares one stateless objective, which fails on
    # run 2's rows at step 30 only
    spec = _sweep_spec(tmp_path, "gp", {"n_probes": 8, "n_steps": 60}, _gamma_sweep(6))
    built, closed = [], []

    def get_breaking(obj_id, **options):
        built.append(_shared_breaking(get_objective(obj_id, **options), FAILING_CFGS,
                                      {"run 2": 30}, "raise"))
        return built[-1]

    close = cli._close

    def recording_close(objective):
        closed.append(objective)
        close(objective)

    monkeypatch.setattr(cli, "get_objective", get_breaking)
    monkeypatch.setattr(cli, "_close", recording_close)
    with pytest.raises(EngineError, match="objective failed at step 30: run 2 broke"):
        cli.sweep_runs(spec, quiet=True)
    # the spec's own objective, then the group's one
    assert len(built) == 1 and len(closed) == 2
    assert closed[0] is spec.objective and closed[1] is built[0]
    out = tmp_path / "out"
    gp = get_objective("gp")
    assert (out / "run_01" / "record.json").read_text() == (
        run(CfoConfig(n_probes=8, n_steps=60, gamma=0.0), gp.bounds, gp).to_json() + "\n")
    assert sorted(p.name for p in out.iterdir()) == ["run_01"]
