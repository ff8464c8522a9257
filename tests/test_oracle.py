from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from cfobench import get_objective, oracle
from cfobench.oracle import OracleResult, grid_oracle, refine
from cfobench.space import DecisionSpace


def test_constant_objective_ties_to_the_first_grid_point():
    space = DecisionSpace(np.array([-1.0, 2.0]), np.array([1.0, 4.0]))
    res = grid_oracle(lambda x: 7.0, bounds=space, resolution=5)
    assert np.array_equal(res.argmax, [-1.0, 2.0])
    assert res.value == 7.0
    assert res.resolution == (5, 5)
    assert res.n_evaluations == 25


def test_grid_point_guard():
    obj = get_objective("schwefel_226", n_dims=30)
    with pytest.raises(ValueError, match="coarser resolution"):
        grid_oracle(obj, resolution=101)


def test_goldstein_price_grid_then_refine():
    obj = get_objective("gp")
    coarse = grid_oracle(obj, resolution=401)
    pitch = 4.0 / 400
    assert abs(coarse.argmax[0] - 0.0) <= pitch
    assert abs(coarse.argmax[1] + 1.0) <= pitch
    assert coarse.value == pytest.approx(-3.0, abs=1e-3)
    assert coarse.n_evaluations == 401 * 401

    sharp = refine(obj, coarse.argmax, half_widths=pitch, levels=4)
    assert sharp.value >= coarse.value
    assert sharp.value == pytest.approx(-3.0, abs=1e-10)
    assert math.dist(sharp.argmax, (0.0, -1.0)) < 1e-5
    assert sharp.n_evaluations == 1 + 4 * 21 * 21


def test_per_axis_resolution():
    obj = get_objective("gp")
    res = grid_oracle(obj, resolution=(81, 41))
    assert res.resolution == (81, 41)
    assert res.n_evaluations == 81 * 41
    with pytest.raises(ValueError, match="entries for"):
        grid_oracle(obj, resolution=(81, 41, 21))
    with pytest.raises(ValueError, match="at least 1"):
        grid_oracle(obj, resolution=0)


def test_non_finite_values_lose():
    def spiky(x):
        if abs(x[0]) < 0.3:
            return float("nan")
        return -abs(x[0])

    res = grid_oracle(spiky, bounds=[(-1.0, 1.0)], resolution=21)
    assert math.isfinite(res.value)
    assert abs(res.argmax[0]) >= 0.3
    assert res.value == pytest.approx(-0.3, abs=1e-12)

    with pytest.raises(ValueError, match="no finite value"):
        grid_oracle(lambda x: float("inf"), bounds=[(0.0, 1.0)], resolution=3)


def test_batch_and_scalar_paths_agree():
    obj = get_objective("himmelblau")
    with_batch = grid_oracle(obj, resolution=151)
    scalar = grid_oracle(obj.evaluate, bounds=obj.bounds, resolution=151)
    assert np.array_equal(with_batch.argmax, scalar.argmax)
    assert with_batch.value == scalar.value


def test_scalar_objectives_are_evaluated_in_grid_order():
    # a stateful (noisy) objective's stream depends on the call order
    calls = []

    def record(x):
        calls.append(tuple(x))
        return 0.0

    grid_oracle(record, bounds=[(0.0, 1.0), (0.0, 2.0)], resolution=(2, 3))
    assert calls == [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]


@pytest.mark.parametrize("chunk", [1, 4, 7, 64])
@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 3, 5), (2, 3, 2, 2)])
def test_chunks_visit_the_grid_in_c_order(monkeypatch, shape, chunk):
    # the chunk splits the grid after axis 0, 1 or 2, or holds all of it;
    # each coordinate is its grid index, so the calls spell the index order
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    calls = []

    def record(x):
        calls.append(tuple(x))
        return 0.0

    grid_oracle(record, bounds=[(0.0, n - 1.0) for n in shape], resolution=shape)
    want = np.column_stack(np.unravel_index(np.arange(math.prod(shape)), shape))
    assert calls == [tuple(map(float, p)) for p in want]


@pytest.mark.parametrize("chunk", [4, 7])
def test_plateau_across_chunks_ties_to_its_first_grid_point(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    bounds = [(0.0, 4.0), (0.0, 2.0), (0.0, 1.0)]
    res = grid_oracle(lambda x: 1.0, bounds=bounds, resolution=(5, 3, 2))
    assert np.array_equal(res.argmax, [0.0, 0.0, 0.0])
    # a plateau that starts inside a later chunk
    res = grid_oracle(lambda x: float(x[0] + x[1] >= 3.0), bounds=bounds, resolution=(5, 3, 2))
    assert np.array_equal(res.argmax, [1.0, 2.0, 0.0])
    assert res.value == 1.0


@pytest.mark.parametrize("obj_id,options,resolution", [
    ("sgo", {"noise": {"seed": 3}}, (41, 37)),
    ("pbm1", {}, (200, 91)),
], ids=["noisy", "pbm1"])
def test_oracle_does_not_depend_on_the_chunk(monkeypatch, obj_id, options, resolution):
    # a noise stream runs in grid order across chunk boundaries; pbm1 folds a
    # batch's distinct lengths at once: at 91 points a chunk is one length,
    # at 7 a length spans chunks, and the default splits after 180 lengths
    def search():
        res = grid_oracle(get_objective(obj_id, **options), resolution=resolution)
        return res.argmax.tolist(), res.value.hex(), res.n_evaluations

    want = search()
    for chunk in (7, 64, 91, math.prod(resolution)):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert search() == want, chunk


def test_large_grid_memory_is_bounded_by_the_chunk():
    tracemalloc.start()
    try:
        grid_oracle(get_objective("gp"), resolution=(1001, 1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_refine_respects_bounds_and_validates():
    obj = get_objective("parrott_f4")
    res = refine(obj, [0.99], half_widths=0.05, levels=3)
    assert 0.0 <= res.argmax[0] <= 1.0
    with pytest.raises(ValueError, match="positive"):
        refine(obj, [0.5], half_widths=0.0)
    with pytest.raises(ValueError, match="at least 3"):
        refine(obj, [0.5], half_widths=0.1, n_points=2)
    with pytest.raises(ValueError, match="center shape"):
        refine(obj, [0.5, 0.5], half_widths=0.1)


def test_refine_center_always_competes():
    # a delta spike the refinement grid will never sample: the center value
    # must still win
    def spike(x):
        return 1.0 if abs(x[0] - 0.123456789) < 1e-12 else 0.0

    res = refine(spike, [0.123456789], half_widths=0.01,
                 bounds=[(0.0, 1.0)], levels=2)
    assert res.value == 1.0
    assert res.argmax[0] == 0.123456789


def test_result_is_frozen():
    res = OracleResult(argmax=np.array([0.0]), value=1.0,
                       resolution=(3,), n_evaluations=3)
    with pytest.raises(AttributeError):
        res.value = 2.0
