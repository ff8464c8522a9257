from __future__ import annotations

import math

import numpy as np
import pytest

from cfobench.rng import (
    NoiseState,
    SplitMix64,
    box_muller,
    gaussian_batch,
    gaussian_deviate,
)

# First outputs of the generator for two fixed seeds. These pin the exact
# stream; any change to the mixing constants breaks reproducibility of every
# recorded noisy run.
SEED_1234567_U64 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]
SEED_0_FLOATS = [
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
]


def test_reference_stream_u64():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == SEED_1234567_U64


def test_reference_stream_floats():
    rng = SplitMix64(0)
    got = [rng.next_float() for _ in range(4)]
    assert got == pytest.approx(SEED_0_FLOATS, abs=0.0)


def test_batch_equals_scalar_sequence():
    a = SplitMix64(99)
    b = SplitMix64(99)
    batch = a.uniform_batch(257)
    scalar = np.array([b.next_float() for _ in range(257)])
    assert np.array_equal(batch, scalar)
    # and the states agree afterwards, so the streams stay interchangeable
    assert a.state == b.state
    assert a.next_u64() == b.next_u64()


def test_batch_empty():
    rng = SplitMix64(1)
    before = rng.state
    assert rng.uniform_batch(0).size == 0
    assert rng.state == before


def test_box_muller_known_points():
    assert box_muller(3.0, 0.7, 1.0, 0.123) == 3.0
    assert box_muller(0.0, 1.0, math.exp(-2.0), 0.0) == pytest.approx(2.0)
    assert box_muller(1.0, 2.0, math.exp(-2.0), 0.5) == pytest.approx(1.0 - 4.0)


def test_box_muller_domain():
    with pytest.raises(ValueError):
        box_muller(0.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        box_muller(0.0, 1.0, 1.5, 0.5)


def test_gaussian_batch_matches_scalar():
    a = NoiseState.seeded(4242)
    b = NoiseState.seeded(4242)
    batch = gaussian_batch(a, 101)
    scalar = np.array([gaussian_deviate(b) for _ in range(101)])
    # values agree to an ulp (numpy's vector transcendentals vs libm) and
    # the two paths leave the stream in the same position
    assert np.max(np.abs(batch - scalar)) < 1e-14
    assert a.rng.state == b.rng.state


def test_noise_statistics():
    state = NoiseState.seeded(1234, sigma=0.4472)
    draws = gaussian_batch(state, 200_000)
    assert abs(float(draws.mean())) < 0.005
    assert 0.195 < float(draws.var()) < 0.205


def test_seeded_streams_reproduce():
    x = gaussian_batch(NoiseState.seeded(7), 16)
    y = gaussian_batch(NoiseState.seeded(7), 16)
    z = gaussian_batch(NoiseState.seeded(8), 16)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
