from __future__ import annotations

import math

import numpy as np
import pytest

from cfobench import antenna, get_objective, list_objectives, objectives
from cfobench.engine import CfoConfig, EngineError, run
from cfobench.objectives import ObjectiveError
from cfobench.rng import NoiseState, gaussian_deviate
from cfobench.space import DecisionSpace

# Peak locations and values confirmed by direct stationarity checks (the
# quartic root for sgo, the first lobe center for parrott_f4) before freezing.
SGO_X = -2.836207492245858
SGO_PEAK = 130.83232264432905
PARROTT_X = 0.07969977945933969
PARROTT_PEAK = 0.9999998284544724
SCHWEFEL_X = 420.9687462275036


def test_goldstein_price_optimum():
    obj = get_objective("gp")
    assert obj.evaluate([0.0, -1.0]) == pytest.approx(-3.0, abs=1e-9)
    assert obj.bounds.bounds_list() == [(-2.0, 2.0), (-2.0, 2.0)]
    # a couple of textbook spot values away from the optimum
    assert obj.evaluate([0.0, 0.0]) == pytest.approx(-600.0, abs=1e-9)


def test_himmelblau_maxima():
    obj = get_objective("himmelblau")
    for pt in [(3.0, 2.0), (-2.805118086952745, 3.131312518250573),
               (-3.779310253377747, -3.283185991286170),
               (3.584428340330492, -1.848126526964404)]:
        assert obj.evaluate(pt) == pytest.approx(200.0, abs=1e-9)


def test_parrott_f4_first_lobe():
    obj = get_objective("parrott_f4")
    assert obj.evaluate([PARROTT_X]) == pytest.approx(PARROTT_PEAK, abs=1e-12)
    # the lobe train vanishes where x^0.75 hits 0.05
    assert obj.evaluate([0.05 ** (4.0 / 3.0)]) == pytest.approx(0.0, abs=1e-12)


def test_sgo_optimum_and_symmetry():
    obj = get_objective("sgo")
    assert obj.evaluate([SGO_X, SGO_X]) == pytest.approx(SGO_PEAK, abs=1e-9)
    assert obj.evaluate([1.0, -2.0]) == obj.evaluate([-2.0, 1.0])


def test_schwefel_30d_value():
    obj = get_objective("schwefel_226", n_dims=30)
    assert obj.n_dims == 30
    x = np.full(30, SCHWEFEL_X)
    assert obj.evaluate(x) == pytest.approx(12569.48661817299, abs=0.5)


def test_step_shifted_plateau():
    obj = get_objective("step_shifted")
    assert obj.evaluate([75.0, 35.0]) == 0.0
    assert obj.evaluate([75.3, 34.8]) == 0.0
    assert obj.evaluate([0.0, 0.0]) == -(75.0 ** 2 + 35.0 ** 2)
    assert obj.bounds.bounds_list() == [(-100.0, 100.0), (-100.0, 100.0)]


def test_shifted_variants_relocate_the_optimum():
    plain = get_objective("gp")
    shifted = get_objective("gp_shifted")
    assert shifted.evaluate([20.0, -11.0]) == pytest.approx(
        plain.evaluate([0.0, -1.0]), abs=1e-9)
    assert get_objective("colville_shifted").evaluate([8.123] * 4) == pytest.approx(
        0.0, abs=1e-9)
    assert get_objective("griewank_shifted").evaluate([75.123, 75.123]) == pytest.approx(
        0.0, abs=1e-12)
    assert get_objective("sgo_shifted").evaluate(
        [40.0 + SGO_X, 10.0 + SGO_X]) == pytest.approx(SGO_PEAK, abs=1e-9)


def test_batch_matches_scalar():
    # every id whose evaluation runs in this process; the antenna ids are a
    # few points each because every new point costs a sphere quadrature
    rng = np.random.default_rng(4242)
    for name in sorted(set(list_objectives()) - {"pbm4", "external"}):
        obj = get_objective(name)
        n = 3 if name.startswith("pbm") else 32
        pts = rng.uniform(obj.bounds.lower, obj.bounds.upper, size=(n, obj.n_dims))
        batch = obj.evaluate_batch(pts)
        singles = np.array([obj.evaluate(p) for p in pts])
        assert np.array_equal(batch, singles), name

    # a noisy batch consumes the stream in row order, as one-row calls do
    pts = rng.uniform(-5.0, 5.0, size=(17, 2))
    batched = get_objective("sgo", noise={"seed": 31})
    scalar = get_objective("sgo", noise={"seed": 31})
    values = batched.evaluate_batch(pts, step=4)
    assert np.array_equal(values, [scalar.evaluate(p) for p in pts])
    assert batched.noise.rng.state == scalar.noise.rng.state


def test_degenerate_antenna_row_names_its_probe():
    # the antenna batch checks each row's power as antenna.directivity does
    def power(x):
        scale = float(x[0] < 0.0)
        flat = lambda th, ph: scale * np.ones(np.broadcast(th, ph).shape)
        return None, lambda n_theta, n_phi: antenna.radiated_power(flat, n_theta, n_phi)

    obj = objectives._antenna_factory(power, lambda rows: np.ones(len(rows)),
                                      [(-1.0, 1.0)])("flat")
    space = DecisionSpace(np.array([-1.0]), np.array([1.0]))
    cfg = CfoConfig(n_probes=2, n_steps=1, init_scheme="custom",
                    initial_probes=np.array([[-0.5], [0.5]]))
    with pytest.raises(EngineError, match=r"step 0, probe 2: degenerate pattern") as info:
        run(cfg, space, obj)
    assert isinstance(info.value.__cause__, antenna.DegeneratePatternError)


def test_dimension_options():
    assert get_objective("step", n_dims=5).n_dims == 5
    assert get_objective("griewank", n_dims=10).n_dims == 10
    assert get_objective("neg_sum_squares", n_dims=4).n_dims == 4
    with pytest.raises(ObjectiveError, match="fixed"):
        get_objective("gp", n_dims=3)
    with pytest.raises(ObjectiveError, match="unknown options"):
        get_objective("sgo", wavelength=3)


def test_out_of_domain_points_stay_finite():
    # retrieval can momentarily hand the objective any point in the box, and
    # the box sometimes exceeds the textbook domain (parrott's fractional
    # power is the delicate one)
    obj = get_objective("parrott_f4")
    for x in (-0.5, -1e-9, 0.0, 1.5):
        assert math.isfinite(obj.evaluate([x]))
    gp = get_objective("gp")
    assert math.isfinite(gp.evaluate([50.0, -50.0]))


def test_ids_are_case_insensitive():
    assert get_objective("GP").id == "gp"
    assert get_objective("  Sgo ").id == "sgo"
    with pytest.raises(ObjectiveError, match="unknown objective id"):
        get_objective("rosenbrock99")


def test_registry_listing():
    names = list_objectives()
    assert names == sorted(names)
    for required in ("gp", "sgo", "parrott_f4", "pbm1", "pbm2", "pbm3",
                     "pbm5", "external", "neg_sum_squares"):
        assert required in names


def test_noise_is_additive_and_seeded():
    clean = get_objective("sgo")
    noisy = get_objective("sgo", noise={"seed": 99})
    assert noisy.noise is not None and noisy.noise.sigma == 0.4472
    stream = NoiseState.seeded(99, mu=0.0, sigma=0.4472)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5.0, 5.0, size=(20, 2))
    for p in pts:
        expected = clean.evaluate(p) + gaussian_deviate(stream)
        assert noisy.evaluate(p) == expected

    # same seed, same stream; different seed, different draws
    again = get_objective("sgo", noise={"seed": 99})
    assert again.evaluate(pts[0]) == get_objective(
        "sgo", noise={"seed": 99}).evaluate(pts[0])
    other = get_objective("sgo", noise={"seed": 100})
    assert other.evaluate(pts[0]) != again.evaluate(pts[0])


def test_noise_mu_and_sigma_options():
    base = get_objective("neg_sum_squares", n_dims=2)
    biased = get_objective("neg_sum_squares", n_dims=2,
                           noise={"seed": 3, "sigma": 1e-12, "mu": 10.0})
    assert biased.evaluate([0.0, 0.0]) == pytest.approx(
        base.evaluate([0.0, 0.0]) + 10.0, abs=1e-9)


def test_antenna_objectives_match_the_pattern_layer():
    pbm1 = get_objective("pbm1")
    assert pbm1.evaluate([0.5, math.pi / 2]) == pytest.approx(
        1.640922377259262, abs=1e-12)
    assert pbm1.bounds.bounds_list() == [(0.5, 3.0), (0.0, math.pi / 2)]

    pbm2 = get_objective("pbm2")
    want = antenna.directivity(antenna.uniform_line_pattern(5.85), math.pi / 2, math.pi / 2)
    assert pbm2.evaluate([5.85, math.pi / 2]) == pytest.approx(want, rel=1e-12)

    pbm3 = get_objective("pbm3")
    want = antenna.directivity(
        antenna.array_pattern(antenna.circular_array_spec(0.5)), math.pi / 2, 0.0)
    assert pbm3.evaluate([0.5, math.pi / 2]) == pytest.approx(want, rel=1e-12)

    pbm5 = get_objective("pbm5", n_elements=6)
    assert pbm5.n_dims == 5
    assert pbm5.bounds.bounds_list() == [(0.5, 1.5)] * 5
    val = pbm5.evaluate([1.0] * 5)
    assert 5.0 < val < 20.0


@pytest.mark.parametrize("obj_id,option", [
    *[(f"pbm{n}", name) for n in (1, 2, 3, 5) for name in ("n_theta", "n_phi")],
    ("pbm2", "n_elements"),
    ("parrott_f4", "offset"),
    ("external", "run_id"),
])
def test_removed_objective_options_are_unknown(obj_id, option):
    with pytest.raises(ObjectiveError, match=f"{obj_id}: unknown options \\['{option}'\\]"):
        get_objective(obj_id, **{option: 1})


def test_pbm4_requires_the_external_protocol():
    with pytest.raises(ObjectiveError, match="external"):
        get_objective("pbm4")


def test_objective_close_defaults_to_none():
    assert get_objective("gp").close is None
