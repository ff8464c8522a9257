from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cfobench import CfoConfig, DecisionSpace, EngineError, get_objective, run


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
