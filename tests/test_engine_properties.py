"""Engine invariants, checked by hypothesis over small analytic runs.

Every drawn run must keep its probes inside the box after retrieval, report
a nondecreasing running best, make exactly (steps+1)*n_probes objective
calls (counted, not derived), and keep the repositioning factor in (0, 1].
Any cut of one gamma sweep into lockstep groups, each sharing one objective,
must give every run the bytes it gets alone. The example sets are fixed
(derandomize) so the tests are deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cfobench import CfoConfig, get_objective, run
from cfobench.engine import run_group

FUNCTIONS = ("gp", "himmelblau", "sgo", "step", "colville", "parrott_f4", "griewank")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    func_id=st.sampled_from(FUNCTIONS),
    per_axis=st.integers(2, 4),
    n_steps=st.integers(1, 40),
    gamma=st.floats(0.0, 1.0),
    g=st.floats(0.1, 10.0),
    frep_init=st.floats(0.01, 1.0),
    frep_increment=st.floats(0.001, 0.5),
    early_termination=st.booleans(),
)
def test_engine_invariants(func_id, per_axis, n_steps, gamma, g, frep_init,
                           frep_increment, early_termination):
    objective = get_objective(func_id)
    space = objective.bounds
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return objective.evaluate(x)

    cfg = CfoConfig(
        n_probes=per_axis * space.n_dims, n_steps=n_steps, gamma=gamma, g=g,
        frep_init=frep_init, frep_increment=frep_increment,
        n_avg_steps=5, early_termination=early_termination,
    )
    record = run(cfg, space, counting, keep_history=True)

    for step, positions in enumerate(record.positions_history):
        assert space.contains(positions), f"probe outside the box at step {step}"
    best = record.best_fitness
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert calls == record.n_eval[-1] == (record.steps_executed + 1) * cfg.n_probes
    assert all(0.0 < f <= 1.0 for f in record.frep)


SWEEP = [CfoConfig(n_probes=8, n_steps=30, gamma=float(g)) for g in np.linspace(0, 1, 11)]


@lru_cache(maxsize=None)
def _sweep_alone() -> tuple:
    gp = get_objective("gp")
    return tuple(run(cfg, gp.bounds, gp).to_json() for cfg in SWEEP)


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(cuts=st.sets(st.integers(1, len(SWEEP) - 1)))
def test_group_cuts_do_not_change_a_sweeps_records(cuts):
    ends = [0, *sorted(cuts), len(SWEEP)]
    records = []
    for start, stop in zip(ends, ends[1:]):
        gp = get_objective("gp")
        records += run_group(SWEEP[start:stop], gp.bounds, [gp] * (stop - start))
    assert tuple(r.to_json() for r in records) == _sweep_alone()
