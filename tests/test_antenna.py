from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from cfobench import antenna, get_objective
from cfobench.antenna import (
    DegeneratePatternError,
    array_pattern,
    circular_array_spec,
    collinear_array_spec,
    dipole_pattern,
    directivity,
    linear_array_spec,
    radiated_power,
    sphere_mesh,
    uniform_line_pattern,
)

# Directivity values frozen from the fixed 256x512 midpoint rule. The
# half-wave number was cross-checked against adaptive quadrature during
# development (agreement to 2e-10) and the collinear pair against their
# Richardson limits; the exact digits are regression pins for the rule.
HALFWAVE_D = 1.640922377259262
LINE_D_5923 = 18.223521112825285
LINE_D_585 = 17.986875734251292
RING_D_CANDIDATE = 2.8714978353313243
COLLINEAR_D6 = 11.196180947047530
COLLINEAR_D10 = 19.058181894565074


def test_halfwave_pattern_shape():
    # classic sinusoidal-current half-wave values
    assert dipole_pattern(0.5, math.pi / 2) == pytest.approx(1.0)
    assert dipole_pattern(0.5, 0.0) == 0.0
    th = np.linspace(0.01, math.pi - 0.01, 64)
    pat = dipole_pattern(0.5, th)
    want = np.cos(0.5 * math.pi * np.cos(th)) / np.sin(th)
    assert np.allclose(pat, np.abs(want), atol=1e-12)


def test_dipole_rejects_bad_length():
    with pytest.raises(ValueError):
        dipole_pattern(0.0, 1.0)


def test_isotropic_directivity_is_one():
    # midpoint rule on sin(theta) carries an O(h^2) bias of about 6e-6
    d = directivity(lambda th, ph: np.ones(np.broadcast(th, ph).shape), 1.0, 2.0)
    assert d == pytest.approx(1.0, abs=2e-5)


def test_halfwave_directivity_frozen():
    d = directivity(lambda th, ph: dipole_pattern(0.5, th), math.pi / 2, 0.0)
    assert d == pytest.approx(HALFWAVE_D, rel=1e-9)


def test_directivity_normalization_closes():
    # integrating D over the sphere with the same mesh must give 4 pi back
    pattern = lambda th, ph: dipole_pattern(2.58, th)
    th, ph, sin_th = sphere_mesh()
    power = radiated_power(pattern, power_key=None)
    f = np.broadcast_to(np.asarray(pattern(th, ph)), (th.size, ph.size))
    d_grid = 4.0 * math.pi * f * f / power
    total = float(np.sum(d_grid * sin_th) * (math.pi / th.size) * (2 * math.pi / ph.size))
    assert total / (4.0 * math.pi) == pytest.approx(1.0, abs=1e-12)


def test_resolution_doubling_is_converged():
    pattern = uniform_line_pattern(5.85)
    d1 = directivity(pattern, math.pi / 2, math.pi / 2, 256, 512)
    d2 = directivity(pattern, math.pi / 2, math.pi / 2, 512, 1024)
    assert abs(d1 - d2) / d1 < 1e-3


def test_uniform_line_matches_generic_sum():
    gen = array_pattern(linear_array_spec(7.31))
    fast = uniform_line_pattern(7.31)
    rng = np.random.default_rng(31)
    th = rng.uniform(0.0, math.pi, 400)
    ph = rng.uniform(0.0, 2 * math.pi, 400)
    a = gen(th, ph)
    b = fast(th, ph)
    assert np.max(np.abs(a - b)) < 1e-10


def test_uniform_line_inphase_peak():
    # at theta=pi/2, phi=pi/2 the element phases all vanish: |AF| = n
    pat = uniform_line_pattern(5.85, n_elements=10)
    peak = pat(math.pi / 2, math.pi / 2)
    assert peak == pytest.approx(10.0 * dipole_pattern(0.5, math.pi / 2), rel=1e-12)


def test_linear_directivity_frozen():
    d = directivity(uniform_line_pattern(5.92359), math.pi / 2, math.pi / 2)
    assert d == pytest.approx(LINE_D_5923, rel=1e-9)
    d = directivity(uniform_line_pattern(5.85), math.pi / 2, math.pi / 2)
    assert d == pytest.approx(LINE_D_585, rel=1e-9)


def test_ring_candidates_equal_and_periodic():
    # the four half-integer steering phases give one directivity level
    vals = []
    for i in range(1, 5):
        beta = i - 0.5
        pat = array_pattern(circular_array_spec(beta))
        vals.append(directivity(pat, math.pi / 2, 0.0))
    assert max(vals) - min(vals) <= 1e-9 * abs(vals[0])
    assert vals[0] == pytest.approx(RING_D_CANDIDATE, rel=1e-9)

    # the steering law is periodic in beta with period 1
    p1 = array_pattern(circular_array_spec(0.37))
    p2 = array_pattern(circular_array_spec(1.37))
    th = np.linspace(0.1, math.pi - 0.1, 50)
    assert np.allclose(p1(th, 0.3), p2(th, 0.3), rtol=1e-9)


def test_pattern_mirror_symmetry():
    # all benchmark geometries lie in the z=0 plane or on the z axis, so the
    # field is symmetric under theta -> pi - theta
    for pat in (
        lambda th, ph: dipole_pattern(1.75, th),
        uniform_line_pattern(6.2),
        array_pattern(circular_array_spec(0.8)),
        array_pattern(collinear_array_spec([0.99] * 5)),
    ):
        th = np.linspace(0.05, 1.5, 40)
        ph = 0.7
        assert np.allclose(pat(th, ph), pat(math.pi - th, ph), rtol=1e-9, atol=1e-12)


def test_single_element_array_reduces_to_element():
    spec = collinear_array_spec([])
    pat = array_pattern(spec)
    th = np.linspace(0.1, math.pi - 0.1, 30)
    # a one-element "array" is the bare y-oriented element; compare against
    # the z-oriented formula with the axis angle mapped explicitly
    cos_psi = np.sin(th) * math.sin(0.4)
    want = antenna._element_factor(0.5, cos_psi)
    assert np.allclose(pat(th, 0.4), want, atol=1e-12)


def test_patterns_are_nonnegative():
    rng = np.random.default_rng(8)
    th = rng.uniform(0, math.pi, 100)
    ph = rng.uniform(0, 2 * math.pi, 100)
    for pat in (uniform_line_pattern(9.9),
                array_pattern(circular_array_spec(2.3)),
                array_pattern(collinear_array_spec([1.2, 0.7, 1.4]))):
        assert np.all(pat(th, ph) >= 0.0)


def test_collinear_frozen_values():
    d = directivity(array_pattern(collinear_array_spec([0.99] * 5)),
                    math.pi / 2, 0.0)
    assert d == pytest.approx(COLLINEAR_D6, rel=1e-9)
    d = directivity(array_pattern(collinear_array_spec([0.99] * 9)),
                    math.pi / 2, 0.0)
    assert d == pytest.approx(COLLINEAR_D10, rel=1e-9)


def test_collinear_rejects_overlapping_elements():
    with pytest.raises(ValueError):
        collinear_array_spec([0.99, 0.45, 0.99])


def test_power_cache_hit_is_bitwise():
    pat = uniform_line_pattern(5.1)
    memo = {}
    first = radiated_power(pat, power_key=("memo-test", 5.1), memo=memo)
    assert len(memo) == 1
    again = radiated_power(pat, power_key=("memo-test", 5.1), memo=memo)
    assert first == again
    recomputed = radiated_power(pat, power_key=("memo-test", 5.1), memo={})
    assert recomputed == first


def test_degenerate_pattern_raises():
    with pytest.raises(DegeneratePatternError):
        directivity(lambda th, ph: np.zeros(np.broadcast(th, ph).shape), 1.0, 0.0)


@pytest.mark.parametrize("n_theta,n_phi,n_points", [(256, 512, 3), (512, 1024, 2)])
def test_same_node_power_forms_match_the_full_mesh_sum(n_theta, n_phi, n_points):
    # the octant fold (pbm2), its triangle (pbm5) and the ring coupling matrix
    # (pbm3) sum the same midpoint nodes as the plain sum; only rounding may differ
    rng = np.random.default_rng(20261018)
    ring = antenna.CouplingMatrix(circular_array_spec(0.0))
    triangle = antenna.CollinearPower()
    cases = []
    for _ in range(n_points):
        line = uniform_line_pattern(rng.uniform(5.0, 15.0), 10)
        cases.append((line, antenna.octant_power(line, n_theta, n_phi)))
        spec = circular_array_spec(rng.uniform(0.0, 4.0))
        cases.append((array_pattern(spec), ring.power(spec.excitations, n_theta, n_phi)))
        for n_elements in (6, 10):
            spec = collinear_array_spec(rng.uniform(0.5, 1.5, n_elements - 1))
            stack = array_pattern(spec)
            cases.append((stack, antenna.octant_power(stack, n_theta, n_phi)))
            cases.append((stack, triangle.power(spec, n_theta, n_phi)))
    for pattern, power in cases:
        assert power == pytest.approx(radiated_power(pattern, n_theta, n_phi), rel=1e-11)


@pytest.mark.parametrize("obj_id,options", [("pbm2", {}), ("pbm3", {}), ("pbm5", {"n_elements": 6}),
                                            ("pbm5", {})])
def test_antenna_objectives_match_the_full_mesh_directivity(obj_id, options):
    obj = get_objective(obj_id, **options)
    rng = np.random.default_rng(7)
    lo, hi = obj.bounds.lower, obj.bounds.upper
    for _ in range(3):
        x = lo + rng.random(obj.n_dims) * (hi - lo)
        if obj_id == "pbm2":
            bare, angles = uniform_line_pattern(x[0], 10), (x[1], math.pi / 2)
        elif obj_id == "pbm3":
            bare, angles = array_pattern(circular_array_spec(x[0])), (x[1], 0.0)
        else:
            bare, angles = array_pattern(collinear_array_spec(x)), (math.pi / 2, 0.0)
        assert obj.evaluate(x) == pytest.approx(directivity(bare, *angles), rel=1e-11)


def _dipole(length):
    return lambda th, ph: dipole_pattern(length, th)


@pytest.mark.parametrize("n_theta,n_phi,n_lengths", [(256, 512, 200), (512, 1024, 40)])
def test_phi_fold_is_the_full_mesh_sum_bit_for_bit(n_theta, n_phi, n_lengths):
    # ==, not approx: the fold replays numpy's pairwise summation order, so a
    # numpy build that reduces in another order fails here. One call folds
    # every length along a leading batch axis, with each scalar call's bits
    rng = np.random.default_rng(20261019)
    lengths = rng.uniform(0.5, 3.0, n_lengths)
    batch = antenna.axisymmetric_power(lambda th, ph: dipole_pattern(lengths[:, None, None], th),
                                       n_theta, n_phi)
    assert batch.shape == (n_lengths,)
    for length, power in zip(lengths, batch):
        dipole = _dipole(length)
        full = radiated_power(dipole, n_theta, n_phi)
        assert power == full and antenna.axisymmetric_power(dipole, n_theta, n_phi) == full, length
    flat = lambda th, ph: np.ones(np.broadcast(th, ph).shape)
    assert antenna.axisymmetric_power(flat, n_theta, n_phi) == radiated_power(flat, n_theta, n_phi)


@pytest.mark.parametrize("n_theta,n_phi,n_random", [(256, 512, 300), (512, 1024, 40)])
def test_triangle_fold_is_the_octant_sum_bit_for_bit(n_theta, n_phi, n_random):
    # ==, not approx: the mirrored triangle holds the octant's |F| bits
    rng = np.random.default_rng(20261020)
    stacks = [rng.uniform(0.5, 1.5, rng.integers(1, 10)) for _ in range(n_random)]
    # equal spacings; with an odd count the middle element sits at y = 0, so
    # its phase is a signed zero
    stacks += [np.full(n - 1, d) for n in range(2, 11) for d in (0.5, 1.0, 1.37)]
    assert 0.0 in collinear_array_spec(np.full(8, 1.37)).positions[:, 1]
    triangle = antenna.CollinearPower()
    for spacings in stacks:
        spec = collinear_array_spec(spacings)
        assert (triangle.power(spec, n_theta, n_phi)
                == antenna.octant_power(array_pattern(spec), n_theta, n_phi)), spacings


@pytest.mark.parametrize("n_theta,n_phi,n_random", [(256, 512, 1500), (512, 1024, 40)])
def test_line_fold_is_the_octant_sum_bit_for_bit(n_theta, n_phi, n_random):
    # ==, not approx: the buffered steps are uniform_line_field's arithmetic
    rng = np.random.default_rng(20261021)
    spacings = list(rng.uniform(5.0, 15.0, n_random)) + [5.0, 6.0, 8.0, 10.0, 12.0, 15.0]
    # d = m / u at an octant node puts psi/2 within rounding of m pi there, so
    # that node takes uniform_line_field's |sin| < 1e-9 in-phase branch
    th, ph, _ = sphere_mesh(n_theta, n_phi)
    u = np.sin(th[:n_theta // 2]) * np.cos(ph[:, :n_phi // 4])
    for _ in range(25):
        i, k = rng.integers(0, n_theta // 2), rng.integers(0, n_phi // 4)
        d = float(rng.integers(1, 16)) / u[i, k]
        assert np.any(np.abs(np.sin(math.pi * d * u)) < 1e-9), d
        spacings.append(d)
    line = antenna.UniformLinePower()
    for d in spacings:
        assert (line.power(d, 10, n_theta, n_phi)
                == antenna.octant_power(uniform_line_pattern(d, 10), n_theta, n_phi)), d


def _bare(obj_id, x, ring):
    """obj_id's pattern at x built from the pattern layer, its steering
    angles and the same-node power form its objective uses."""
    if obj_id == "pbm1":
        pattern = _dipole(x[0])
        return pattern, (x[1], 0.0), functools.partial(antenna.axisymmetric_power, pattern)
    if obj_id == "pbm2":
        pattern = uniform_line_pattern(x[0], 10)
        return pattern, (x[1], math.pi / 2), functools.partial(antenna.octant_power, pattern)
    if obj_id == "pbm3":
        spec = circular_array_spec(x[0])
        return (array_pattern(spec), (x[1], 0.0),
                functools.partial(ring.power, spec.excitations))
    pattern = array_pattern(collinear_array_spec(x))
    return pattern, (math.pi / 2, 0.0), functools.partial(antenna.octant_power, pattern)


@pytest.mark.parametrize("obj_id,options", [("pbm1", {}), ("pbm2", {}), ("pbm3", {}),
                                            ("pbm5", {"n_elements": 6}), ("pbm5", {}),
                                            ("pbm5", {"n_elements": 2}), ("pbm5", {"n_elements": 3})])
def test_antenna_batches_are_the_directivity_bit_for_bit(obj_id, options):
    # one batch over a shuffled grid (so power keys repeat within it, out of
    # order) against an uncached antenna.directivity call per row on the
    # bare pattern
    obj = get_objective(obj_id, **options)
    lo, hi = obj.bounds.lower, obj.bounds.upper
    if obj_id == "pbm5":
        rows = lo + np.random.default_rng(11).random((12, obj.n_dims)) * (hi - lo)
        rows = np.vstack([rows, rows[:1]])
    else:
        grid = np.meshgrid(np.linspace(lo[0], hi[0], 21), np.linspace(lo[1], hi[1], 11),
                           indexing="ij")
        rows = np.column_stack([g.ravel() for g in grid])
        rows = rows[np.random.default_rng(12).permutation(len(rows))]
    ring = antenna.CouplingMatrix(circular_array_spec(0.0))
    want = []
    for x in rows:
        pattern, angles, mesh_sum = _bare(obj_id, x, ring)
        want.append(directivity(pattern, *angles, mesh_sum=mesh_sum))
    assert np.array_equal(obj.evaluate_batch(rows), want)


def test_same_node_forms_reject_meshes_they_cannot_fold():
    dipole = _dipole(1.2)
    for n_theta, n_phi in ((256, 500), (256, 64), (96, 256), (255, 512)):
        with pytest.raises(ValueError, match="phi fold"):
            antenna.axisymmetric_power(dipole, n_theta, n_phi)
    line = uniform_line_pattern(6.0)
    for n_theta, n_phi in ((255, 512), (256, 510)):
        with pytest.raises(ValueError, match="octant fold"):
            antenna.octant_power(line, n_theta, n_phi)
        with pytest.raises(ValueError, match="octant fold"):
            antenna.UniformLinePower().power(6.0, 10, n_theta, n_phi)
    triangle = antenna.CollinearPower()
    stack = collinear_array_spec([0.7, 1.2])
    for n_theta, n_phi in ((256, 256), (256, 1024), (255, 510)):
        with pytest.raises(ValueError, match="triangle fold"):
            triangle.power(stack, n_theta, n_phi)
    with pytest.raises(ValueError, match="y dipoles on the y axis"):
        triangle.power(linear_array_spec(0.7, 3), 256, 512)
    ring = antenna.CouplingMatrix(circular_array_spec(0.0))
    with pytest.raises(ValueError, match="even n_theta"):
        ring.power(circular_array_spec(0.5).excitations, 255, 512)
    lifted = antenna.ArraySpec(np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5]]),
                               np.ones(2, dtype=complex), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="z=0 plane"):
        antenna.CouplingMatrix(lifted)


def test_pbm3_rows_reuse_the_ring(monkeypatch):
    # the objective builds the ring once; a row makes only its excitations
    obj = get_objective("pbm3")
    monkeypatch.setattr(antenna, "circular_array_spec", None)
    assert obj.evaluate_batch(np.array([[0.5, 1.0], [1.5, 2.0]])).shape == (2,)


def test_ring_steering_batch_is_the_scalar_pattern_bit_for_bit():
    # the batch form pbm3 steers with, against one array_pattern call per
    # row; the beta and theta grid endpoints are rows too
    rng = np.random.default_rng(20)
    rows = np.column_stack([rng.random(2000) * 4.0, rng.random(2000) * math.pi])
    ends = np.array([[beta, theta] for beta in (0.0, 4.0, 1.25) for theta in (0.0, math.pi, 1.0)])
    rows = np.vstack([rows, ends])
    ring = circular_array_spec(0.0)
    excitations = np.array([antenna.ring_excitations(beta) for beta in rows[:, 0]])
    got = antenna.array_pattern_rows(ring, excitations, rows[:, 1], 0.0)
    want = [array_pattern(circular_array_spec(beta))(theta, 0.0) for beta, theta in rows]
    assert np.array_equal(got, want)
