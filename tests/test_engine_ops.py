from __future__ import annotations

import math

import numpy as np
import pytest

from cfobench import engine
from cfobench.engine import (
    COINCIDENT_REL_TOL,
    CfoConfig,
    ConfigError,
    advance_positions,
    compute_accelerations,
    d_avg,
    detect_fitness_saturation,
    init_probes,
    retrieve_errant_probes,
    update_frep,
)
from cfobench.space import DecisionSpace


def test_acceleration_two_probe_line():
    # p at x=0 with fitness 0 is pulled toward k at x=1 with fitness 1:
    # a_p = G * 1 * (1)/1 = 2 and the better probe feels nothing.
    space = DecisionSpace(np.array([-10.0]), np.array([10.0]))
    cfg = CfoConfig(n_probes=2, n_steps=1)
    pos = np.array([[0.0], [1.0]])
    fit = np.array([0.0, 1.0])
    acc = compute_accelerations(pos, fit, cfg, space)
    assert acc[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert acc[1, 0] == 0.0


def test_acceleration_symmetric_pair_cancels():
    space = DecisionSpace(np.array([-10.0]), np.array([10.0]))
    cfg = CfoConfig(n_probes=3, n_steps=1)
    pos = np.array([[-1.0], [0.0], [1.0]])
    fit = np.array([0.0, 1.0, 0.0])
    acc = compute_accelerations(pos, fit, cfg, space)
    assert acc[1, 0] == pytest.approx(0.0, abs=1e-15)


def naive_accelerations(pos, fit, cfg):
    """Triple-loop transcription of the gravity sum, kept independent of the
    vectorized implementation on purpose."""
    n_p, n_d = pos.shape
    out = np.zeros((n_p, n_d))
    for p in range(n_p):
        for k in range(n_p):
            if k == p:
                continue
            diff = fit[k] - fit[p]
            if diff < 0:
                continue
            mass = diff ** cfg.alpha
            dvec = pos[k] - pos[p]
            dist = math.sqrt(float((dvec ** 2).sum()))
            if dist == 0.0:
                continue
            for i in range(n_d):
                out[p, i] += mass * dvec[i] / dist ** cfg.beta
    return cfg.g * out


def test_acceleration_matches_bruteforce():
    rng = np.random.default_rng(90125)
    space = DecisionSpace(np.array([-5.0] * 3), np.array([5.0] * 3))
    cfg = CfoConfig(n_probes=4, n_steps=1, alpha=2.0, beta=2.0, g=2.0)
    for _ in range(25):
        pos = rng.uniform(-5, 5, size=(4, 3))
        fit = rng.uniform(-2, 3, size=4)
        got = compute_accelerations(pos, fit, cfg, space)
        want = naive_accelerations(pos, fit, cfg)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.max(np.abs(got - want)) / scale < 1e-12


def test_advance_positions():
    out = advance_positions(np.array([[5.0]]), np.array([[2.0]]), 1.0)
    assert out[0, 0] == 6.0
    pos = np.array([[1.0, 2.0], [3.0, 4.0]])
    same = advance_positions(pos, np.zeros_like(pos), 1.0)
    assert np.array_equal(same, pos)
    out = advance_positions(np.array([[0.0]]), np.array([[1.0]]), 2.0)
    assert out[0, 0] == 2.0


def test_retrieve_errant_probes():
    space = DecisionSpace(np.array([0.0]), np.array([1.0]))
    low = retrieve_errant_probes(np.array([[-0.3]]), np.array([[0.4]]), space, 0.5)
    assert low[0, 0] == pytest.approx(0.2)
    high = retrieve_errant_probes(np.array([[1.4]]), np.array([[0.8]]), space, 0.5)
    assert high[0, 0] == pytest.approx(0.9)
    mid = retrieve_errant_probes(np.array([[0.7]]), np.array([[0.4]]), space, 0.5)
    assert mid[0, 0] == 0.7
    assert space.contains(low) and space.contains(high)


def test_update_frep_increments_on_flat_ring():
    cfg = CfoConfig(n_probes=2, n_steps=1)
    ring = np.array([10.0, 10.0, 10.0000, 10.0003, 10.0001])
    assert update_frep(ring, 0.5, cfg) == pytest.approx(0.505)


def test_update_frep_wraps_to_start():
    cfg = CfoConfig(n_probes=2, n_steps=1)
    assert update_frep(np.ones(5), 0.9975, cfg) == cfg.frep_init


def test_update_frep_holds_when_ring_moves():
    cfg = CfoConfig(n_probes=2, n_steps=1)
    ring = np.array([0.0, 0.0, 1.0, 5.0, 9.0])
    assert update_frep(ring, 0.5, cfg) == 0.5


def test_update_frep_takes_the_tail_mean_to_the_bit():
    # fit_tol is set to the exact gap tail.mean() gives, and to one ulp
    # below it, so a mean that differs in its last bit flips the decision
    rng = np.random.default_rng(1234)
    for n_saved in range(1, 13):
        for n_sat in range(1, n_saved + 1):
            for _ in range(20):
                ring = rng.normal(rng.uniform(-1e3, 1e3), 10 ** rng.uniform(-9, 1), n_saved)
                gap = abs(float(ring[-1]) - float(ring[n_saved - n_sat:].mean()))
                for tol in (gap, float(np.nextafter(gap, 0.0))):
                    cfg = CfoConfig(n_probes=2, n_steps=1, n_saved=n_saved, n_sat=n_sat,
                                    fit_tol=tol)
                    want = 0.5 + cfg.frep_increment if gap <= tol else 0.5
                    assert update_frep(ring, 0.5, cfg) == want


def test_init_on_axis_unit_square():
    space = DecisionSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    cfg = CfoConfig(n_probes=4, n_steps=1, gamma=0.5)
    pts = init_probes("on_axis", space, cfg)
    want = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]])
    assert np.allclose(pts, want)


def test_init_custom_rejects_outside_point():
    space = DecisionSpace(np.array([0.0]), np.array([1.0]))
    cfg = CfoConfig(n_probes=2, n_steps=1, init_scheme="custom",
                    initial_probes=np.array([[0.5], [1.5]]))
    with pytest.raises(ConfigError):
        cfg.validate(space)


def test_d_avg_values():
    space = DecisionSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    pos = np.array([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]])
    assert d_avg(pos, pos[0], space) == 0.0
    pos = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert d_avg(pos, pos[0], space) == pytest.approx(1.0)


def test_d_avg_matches_bruteforce():
    rng = np.random.default_rng(77)
    space = DecisionSpace(np.array([-2.0, 0.0, 1.0]), np.array([2.0, 3.0, 4.0]))
    for _ in range(10):
        pos = rng.uniform(space.lower, space.upper, size=(6, 3))
        ref = pos[2]
        total = 0.0
        for p in range(6):
            total += math.sqrt(float(((pos[p] - ref) ** 2).sum()))
        want = total / (space.diag_length * 5)
        assert d_avg(pos, pos[2], space) == pytest.approx(want, rel=1e-12)


def test_d_avg_needs_two_probes():
    space = DecisionSpace(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        d_avg(np.array([[0.5]]), np.array([0.5]), space)


def test_fitness_saturation_detector():
    cfg = CfoConfig(n_probes=2, n_steps=1, n_avg_steps=10)
    flat = [3.0] * 60
    assert detect_fitness_saturation(flat, 20, cfg) is True
    assert detect_fitness_saturation(flat, 14, cfg) is False
    assert detect_fitness_saturation(flat, 60, cfg) is False
    rising = [0.1 * k for k in range(60)]
    assert detect_fitness_saturation(rising, 30, cfg) is False


def naive_full_step(pos, fit, acc, cfg, space, frep):
    """One engine step written as plain loops: advance, pull escapees back,
    then rebuild accelerations from the new layout."""
    n_p, n_d = pos.shape
    moved = np.empty_like(pos)
    for p in range(n_p):
        for i in range(n_d):
            x = pos[p, i] + 0.5 * acc[p, i] * cfg.delta_t ** 2
            if x < space.lower[i]:
                x = space.lower[i] + frep * (pos[p, i] - space.lower[i])
            elif x > space.upper[i]:
                x = space.upper[i] - frep * (space.upper[i] - pos[p, i])
            moved[p, i] = x
    return moved


def test_single_step_matches_naive_loops():
    rng = np.random.default_rng(20260219)
    for trial in range(20):
        n_d = int(rng.integers(1, 4))
        n_p = int(rng.integers(2, 6))
        lo = rng.uniform(-3, 0, n_d)
        hi = lo + rng.uniform(0.5, 4.0, n_d)
        space = DecisionSpace(lo, hi)
        cfg = CfoConfig(n_probes=n_p, n_steps=1,
                        g=float(rng.uniform(0.5, 3.0)),
                        delta_t=float(rng.uniform(0.5, 1.5)),
                        alpha=float(rng.uniform(1.0, 3.0)),
                        beta=float(rng.uniform(1.0, 3.0)))
        pos = rng.uniform(lo, hi, size=(n_p, n_d))
        fit = rng.uniform(-1, 1, size=n_p)
        acc = rng.uniform(-2, 2, size=(n_p, n_d))
        frep = float(rng.uniform(0.1, 0.9))

        raw = advance_positions(pos, acc, cfg.delta_t)
        got = retrieve_errant_probes(raw, pos, space, frep)
        want = naive_full_step(pos, fit, acc, cfg, space, frep)
        assert np.max(np.abs(got - want)) < 1e-12, f"trial {trial}"
        assert space.contains(got)


def full_array_accelerations(pos, fit, cfg, space):
    """The step's force sum over the whole group's pair arrays at once, the
    form the blocked step replaced: the bit-for-bit reference."""
    n_r, n_p, n_d = pos.shape
    pairs = np.empty((n_r * n_p, n_p, n_d))
    squares = np.empty((n_r * n_p, n_p, n_d))
    dist = np.empty((n_r * n_p, n_p))
    weight = np.empty((n_r * n_p, n_p))
    acc = np.empty((n_r, n_p, n_d))
    np.subtract(pos[:, None], pos[:, :, None], out=pairs.reshape(n_r, n_p, n_p, n_d))
    np.multiply(pairs, pairs, out=squares)
    np.add.reduce(squares, axis=2, out=dist)
    np.sqrt(dist, out=dist)
    np.subtract(fit[:, None], fit[:, :, None], out=weight.reshape(n_r, n_p, n_p))
    np.maximum(weight, 0.0, out=weight)
    weight **= float(cfg.alpha)
    alive = dist > COINCIDENT_REL_TOL * space.diag_length
    dead = ~alive
    dist **= float(cfg.beta)
    np.divide(weight, dist, out=weight, where=alive)
    np.copyto(weight, 0.0, where=dead)
    np.einsum("pk,pkd->pd", weight, pairs, out=acc.reshape(n_r * n_p, n_d))
    acc *= float(cfg.g)
    return acc


def awkward_group(rng, n_r, n_p, n_d, space):
    """Positions and fitnesses of n_r runs with coincident probes, fitness
    ties and signed zeros among the coordinates and the fitnesses."""
    pos = rng.uniform(space.lower, space.upper, size=(n_r, n_p, n_d))
    pos[:, 1] = pos[:, 0]                        # coincident probes
    pos[:, -1] = pos[:, n_p // 2]
    zeros = rng.random(pos.shape) < 0.2
    pos[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    fit = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(n_r, n_p))
    fit[:, n_p // 3:] = rng.uniform(-3.0, 3.0, size=(n_r, n_p - n_p // 3))
    fit[:, -2] = fit[:, 0]                       # a tie far from its twin
    return pos, fit


# (block budget or None for _BLOCK_VALUES, runs, probes, dimensions)
BLOCK_SHAPES = [
    (None, 3, 8, 2),       # one block
    (None, 7, 40, 10),     # whole-run blocks of four and three runs
    (None, 2, 120, 30),    # row blocks of 18 rows, each run's last of 12
    (None, 1, 90, 30),     # row blocks of 24 rows, the last of 18
    (50, 3, 8, 2),         # row blocks of 3, 3 and 2 rows
    (1, 2, 5, 3),          # row blocks of one row
    (40, 5, 6, 1),         # one 1-D run a block
]


@pytest.mark.parametrize("budget, n_r, n_p, n_d", BLOCK_SHAPES)
@pytest.mark.parametrize("alpha, beta", [(2.0, 2.0), (1.5, 3.0)])
def test_blocked_step_gives_the_full_array_bits(monkeypatch, budget, n_r, n_p, n_d, alpha, beta):
    if budget is not None:
        monkeypatch.setattr(engine, "_BLOCK_VALUES", budget)
    rng = np.random.default_rng(n_r * 1000 + n_p * 10 + n_d)
    space = DecisionSpace(np.full(n_d, -5.0), np.full(n_d, 4.0))
    cfg = CfoConfig(n_probes=n_p, n_steps=1, alpha=alpha, beta=beta, g=3.0)
    step = engine._Step(n_r, n_p, n_d)
    for _ in range(2):  # the second step reuses every block's arrays
        pos, fit = awkward_group(rng, n_r, n_p, n_d, space)
        got = step.accelerations(pos, fit, cfg, space)
        want = full_array_accelerations(pos, fit, cfg, space)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
        for r in range(n_r):
            alone = compute_accelerations(pos[r], fit[r], cfg, space)
            assert (alone.view(np.uint64) == got[r].view(np.uint64)).all()
