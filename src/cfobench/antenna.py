"""Analytic far-field surrogates for the antenna benchmarks.

Element patterns use the ideal sinusoidal-current dipole model, arrays are
built by pattern multiplication with unit-amplitude excitations, and
directivity comes from a fixed midpoint quadrature over the sphere. These
stand in for a full-wave solver: they reproduce the landscape structure of
the benchmark suite while ignoring mutual coupling between elements, which
is why the acceptance targets carry 5-10% tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_SIN_EPS = 1e-12

DEFAULT_N_THETA = 256
DEFAULT_N_PHI = 512


class DegeneratePatternError(ValueError):
    """The pattern radiates no power on the quadrature grid."""


def _element_factor(length: float, cos_psi):
    """Sinusoidal-current dipole magnitude as a function of cos(axis angle).

    |cos(pi L c) - cos(pi L)| / sin(psi), with the removable zero at the
    element axis handled explicitly.
    """
    c = np.asarray(cos_psi, dtype=float)
    sin_psi = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    num = np.abs(np.cos(np.pi * length * c) - math.cos(np.pi * length))
    return np.where(sin_psi > _SIN_EPS, num / np.maximum(sin_psi, _SIN_EPS), 0.0)


def dipole_pattern(length: float, theta):
    """Far-field magnitude of a z-oriented center-fed dipole of given length."""
    if not length > 0:
        raise ValueError("dipole length must be > 0")
    th = np.asarray(theta, dtype=float)
    out = _element_factor(length, np.cos(th))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ArraySpec:
    """Geometry and excitation of one benchmark array.

    Positions are 3-vectors in wavelengths, axis is the common element
    orientation, excitations are unit-amplitude complex weights.
    """

    n_elements: int
    positions: tuple
    axis: tuple
    excitations: tuple
    element_length: float = 0.5

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (self.n_elements, 3):
            raise ValueError("positions must be one 3-vector per element")
        if self.n_elements > 1:
            diffs = pos[None, :, :] - pos[:, None, :]
            dist = np.sqrt((diffs ** 2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 0.0:
                raise ValueError("element positions must be distinct")
        exc = np.asarray(self.excitations, dtype=complex)
        if exc.shape != (self.n_elements,):
            raise ValueError("one excitation per element required")
        if np.max(np.abs(np.abs(exc) - 1.0)) > 1e-9:
            raise ValueError("excitation amplitudes must be 1")
        ax = np.asarray(self.axis, dtype=float)
        if abs(float(np.sqrt((ax ** 2).sum())) - 1.0) > 1e-9:
            raise ValueError("element axis must be a unit vector")


def array_pattern(spec: ArraySpec) -> Callable:
    """Pattern-multiplication field magnitude for an ArraySpec.

    Returns pattern(theta, phi) operating on scalars or broadcastable
    arrays: element factor about the common axis times |sum of excitations
    with spatial phase|.
    """
    pos = np.asarray(spec.positions, dtype=float)
    exc = np.asarray(spec.excitations, dtype=complex)
    ax = np.asarray(spec.axis, dtype=float)
    length = spec.element_length

    def pattern(theta, phi):
        th = np.asarray(theta, dtype=float)
        ph = np.asarray(phi, dtype=float)
        st, ct = np.sin(th), np.cos(th)
        rx = st * np.cos(ph)
        ry = st * np.sin(ph)
        rz = ct
        cos_psi = rx * ax[0] + ry * ax[1] + rz * ax[2]
        elem = _element_factor(length, cos_psi)
        af = np.zeros(np.broadcast(rx, rz).shape, dtype=complex)
        for n in range(spec.n_elements):
            phase = TWO_PI * (rx * pos[n, 0] + ry * pos[n, 1] + rz * pos[n, 2])
            af += exc[n] * np.exp(1j * phase)
        out = np.abs(af) * elem
        return float(out) if np.ndim(out) == 0 else out

    return pattern


# ---------------------------------------------------------------------------
# benchmark geometries


def linear_array_spec(d: float, n_elements: int = 10) -> ArraySpec:
    """Uniform in-phase line of z-dipoles along x, spacing d wavelengths."""
    centre = 0.5 * (n_elements + 1)
    positions = tuple(((m - centre) * d, 0.0, 0.0) for m in range(1, n_elements + 1))
    return ArraySpec(
        n_elements=n_elements,
        positions=positions,
        axis=(0.0, 0.0, 1.0),
        excitations=tuple(1.0 + 0.0j for _ in range(n_elements)),
    )


def circular_array_spec(beta: float, n_elements: int = 8, radius: float = 1.0) -> ArraySpec:
    """Ring of z-dipoles with the cosine phase law alpha_n = -cos(2 pi beta (n-1))."""
    ang = [TWO_PI * (n - 1) / n_elements for n in range(1, n_elements + 1)]
    positions = tuple((radius * math.cos(a), radius * math.sin(a), 0.0) for a in ang)
    alphas = [-math.cos(TWO_PI * beta * (n - 1)) for n in range(1, n_elements + 1)]
    excitations = tuple(complex(math.cos(a), math.sin(a)) for a in alphas)
    return ArraySpec(
        n_elements=n_elements,
        positions=positions,
        axis=(0.0, 0.0, 1.0),
        excitations=excitations,
    )


def collinear_array_spec(spacings) -> ArraySpec:
    """In-phase y-oriented half-wave dipoles strung along y.

    Element centers accumulate from the spacing vector and are shifted so
    the array is symmetric about the origin. Spacings under 0.5 wavelength
    would overlap adjacent half-wave elements and are rejected.
    """
    sp = np.asarray(spacings, dtype=float).ravel()
    if sp.size and sp.min() < 0.5:
        raise ValueError("element spacing below 0.5 wavelength overlaps the dipoles")
    y = np.concatenate(([0.0], np.cumsum(sp)))
    y = y - y.mean()
    positions = tuple((0.0, float(v), 0.0) for v in y)
    n = len(positions)
    return ArraySpec(
        n_elements=n,
        positions=positions,
        axis=(0.0, 1.0, 0.0),
        excitations=tuple(1.0 + 0.0j for _ in range(n)),
    )


def uniform_line_pattern(d: float, n_elements: int = 10) -> Callable:
    """Closed-form magnitude for the uniform in-phase line of z-dipoles.

    Same field as array_pattern(linear_array_spec(d, n_elements)): for equal
    spacing the excitation sum telescopes to sin(n psi/2)/sin(psi/2) with
    psi = 2 pi d sin(theta) cos(phi), which costs one sine pair per point
    instead of one complex exponential per element. Points where psi is a
    multiple of 2 pi are in-phase addition and evaluate to n_elements.
    """
    if d <= 0.0:
        raise ValueError("element spacing must be positive")
    n = int(n_elements)

    def pattern(theta, phi):
        th = np.asarray(theta, dtype=float)
        ph = np.asarray(phi, dtype=float)
        st, ct = np.sin(th), np.cos(th)
        elem = _element_factor(0.5, ct)
        half = math.pi * d * (st * np.cos(ph))
        denom = np.sin(half)
        safe = np.where(np.abs(denom) < 1e-9, 1.0, denom)
        af = np.where(np.abs(denom) < 1e-9, float(n), np.sin(n * half) / safe)
        out = np.abs(af) * elem
        return float(out) if np.ndim(out) == 0 else out

    return pattern


# ---------------------------------------------------------------------------
# directivity quadrature

_MESH_CACHE: dict = {}
_POWER_CACHE: dict = {}
_POWER_CACHE_LIMIT = 1 << 18


def _mesh(n_theta: int, n_phi: int):
    key = (n_theta, n_phi)
    got = _MESH_CACHE.get(key)
    if got is None:
        theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
        phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
        got = (theta[:, None], phi[None, :], np.sin(theta)[:, None])
        _MESH_CACHE[key] = got
    return got


def sphere_mesh(n_theta: int = DEFAULT_N_THETA, n_phi: int = DEFAULT_N_PHI):
    """Midpoint quadrature nodes used by radiated_power.

    Returns (theta column (n_theta, 1), phi row (1, n_phi), sin(theta)
    column); broadcasting the first two against each other spans the
    sphere. Exposed so callers can integrate their own mesh quantities
    with exactly the nodes the power integral uses.
    """
    return _mesh(n_theta, n_phi)


def radiated_power(
    pattern: Callable,
    n_theta: int = DEFAULT_N_THETA,
    n_phi: int = DEFAULT_N_PHI,
    power_key=None,
) -> float:
    """Integral of |F|^2 sin(theta) over the sphere, fixed midpoint rule.

    power_key, when given, memoizes the result for repeated directivity
    calls on the same geometry; the key must determine the pattern.
    """
    if power_key is not None:
        cached = _POWER_CACHE.get((power_key, n_theta, n_phi))
        if cached is not None:
            return cached
    th, ph, sin_th = _mesh(n_theta, n_phi)
    f = np.asarray(pattern(th, ph), dtype=float)
    f = np.broadcast_to(f, (n_theta, n_phi))
    power = float(np.sum(f * f * sin_th) * (math.pi / n_theta) * (TWO_PI / n_phi))
    if power_key is not None:
        if len(_POWER_CACHE) >= _POWER_CACHE_LIMIT:
            _POWER_CACHE.clear()
        _POWER_CACHE[(power_key, n_theta, n_phi)] = power
    return power


def clear_power_cache() -> None:
    _POWER_CACHE.clear()


def directivity(
    pattern: Callable,
    theta0: float,
    phi0: float,
    n_theta: int = DEFAULT_N_THETA,
    n_phi: int = DEFAULT_N_PHI,
    power_key=None,
) -> float:
    """4 pi |F(theta0, phi0)|^2 over the radiated power.

    Deterministic by construction: fixed node set, fixed summation order.
    Doubling the resolution moves the result by well under 0.1% for every
    benchmark surrogate at the default 256 x 512 panels.
    """
    power = radiated_power(pattern, n_theta, n_phi, power_key)
    if power == 0.0:
        raise DegeneratePatternError("degenerate pattern: no radiated power")
    amp = float(np.abs(pattern(np.float64(theta0), np.float64(phi0))))
    return 4.0 * math.pi * amp * amp / power
