"""Seedable uniform stream and the one Gaussian sampler built on it.

The uniform generator is SplitMix64: state advances by the 64-bit golden
ratio constant and each output is a finalizer hash of the new state. It is
tiny, fast, passes BigCrush, and the whole stream is reproducible from one
64-bit seed, which is what the run-record determinism guarantee rests on.
Reference vector (seed 1234567): 6457827717110365317, 3203168211198807973,
9817491932198370423.

gaussian_deviate(state, n) is the Box-Muller cosine branch. Deviate k is
mu + sigma * sqrt(-2 ln s) * cos(2 pi t) for the k-th pair (s, t) of
successive uniforms with s > 0, so an n-row batch consumes the stream
exactly as n one-row calls do and leaves it in the same place. The stream
is integer arithmetic and the same everywhere; the deviates' bits depend on
libm's log and cos, so like the rest of a record they are fixed per build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
# the same constants as numpy scalars for uniform_batch, built once
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT30, _SHIFT27, _SHIFT31, _SHIFT11 = (np.uint64(k) for k in (30, 27, 31, 11))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit seedable uniform generator with a counter-based batch mode."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def uniform_batch(self, n: int) -> np.ndarray:
        """n uniforms identical to n successive next_float() calls.

        The state jump is closed-form (state + k * golden), so the batch is
        computed counter-style in numpy without a Python loop.
        """
        if n <= 0:
            return np.empty(0)
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = (np.uint64(self.state) + idx * _GOLDEN_U64)
        z = (z ^ (z >> _SHIFT30)) * _MIX1_U64
        z = (z ^ (z >> _SHIFT27)) * _MIX2_U64
        z = z ^ (z >> _SHIFT31)
        self.state = (self.state + n * _GOLDEN) & _MASK
        return (z >> _SHIFT11).astype(np.float64) * _INV_2_53


@dataclass
class NoiseState:
    """Gaussian noise source: mean, standard deviation, and its own stream.

    The 0.4472 default standard deviation gives variance 0.19998784, the
    0.2-variance additive-noise setting used by the noisy array benchmark.
    """

    mu: float = 0.0
    sigma: float = 0.4472
    rng: SplitMix64 = field(default_factory=lambda: SplitMix64(0))

    # mu and sigma below read the field defaults declared above
    @classmethod
    def seeded(cls, seed: int, mu: float = mu, sigma: float = sigma) -> "NoiseState":
        return cls(mu=mu, sigma=sigma, rng=SplitMix64(seed))


def gaussian_deviate(state: NoiseState, n: int) -> np.ndarray:
    """n normal deviates from state's stream, as a float array.

    A pair with s == 0.0 (probability 2^-53) would send log() to -inf, so it
    is dropped and the missing deviates are drawn from the pairs after it.
    Each deviate is computed on Python floats with libm's log and cos.
    """
    mu, sigma = state.mu, state.sigma
    out = []
    while len(out) < n:
        u = state.rng.uniform_batch(2 * (n - len(out))).tolist()
        out += [mu + sigma * math.sqrt(-2.0 * math.log(s)) * math.cos(2.0 * math.pi * t)
                for s, t in zip(u[0::2], u[1::2]) if s > 0.0]
    return np.array(out, dtype=float)
