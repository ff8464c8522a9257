"""Analytic far-field surrogates for the antenna benchmarks.

Element patterns use the ideal sinusoidal-current dipole model, arrays are
built by pattern multiplication with unit-amplitude excitations, and
directivity comes from a fixed midpoint quadrature over the sphere. These
stand in for a full-wave solver: they reproduce the landscape structure of
the benchmark suite while ignoring mutual coupling between elements, which
is why the acceptance targets carry 5-10% tolerances.

An ArraySpec is three arrays: element positions, complex excitations and
the common element axis; every element is a half-wave dipole. The three
builders below produce distinct positions, unit excitations and a unit
axis by construction. The ring's positions do not depend on its steering
phase, so a caller can build the ring once and make only each row's
excitations with ring_excitations. Every half-wave pattern and power form
takes the unit vector toward a node and the element factor there from
_direction.

Every power integral is the same midpoint sum on the nodes and weights of
sphere_mesh. radiated_power sums all nodes unless the caller hands it an
exact cheaper form of that sum: axisymmetric_power for patterns that do not
depend on phi (one node per theta row, folded in numpy's own pairwise
summation order, so the result is the full sum's bits), octant_power for
patterns even under the three coordinate reflections (1/8 of the nodes),
UniformLinePower.power for the uniform line (octant_power's bits, in
octant buffers the instance keeps), CollinearPower.power for y-dipoles
strung on the y axis (octant_power's bits from the octant's upper
triangle, about 1/16 of the nodes, when n_phi = 2 n_theta), or
CouplingMatrix.power for a fixed planar array whose excitations vary
(Re(e^H K e), an N x N product once K is built).
radiated_power can memoize powers by key in a dict its caller owns (each
antenna objective keeps one, keyed by a row's geometry coordinates) and
calls the form only on a miss, so a form that builds its pattern when
called builds it only then. The module keeps no state: sphere_mesh builds
the nodes afresh on each call.

dipole_pattern and uniform_line_field also take arrays of lengths or
spacings that broadcast with theta, and array_pattern_rows takes one row of
excitations per direction, so a batch of steering amplitudes is one array
call with the same bits as one call per geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi
_SIN_EPS = 1e-12

DEFAULT_N_THETA = 256
DEFAULT_N_PHI = 512
ELEMENT_LENGTH = 0.5  # wavelengths; every array element is a half-wave dipole
RING_ELEMENTS = 8  # the circular array's element count
_Y = (0.0, 1.0, 0.0)  # element axes
_Z = (0.0, 0.0, 1.0)


class DegeneratePatternError(ValueError):
    """The pattern radiates no power on the quadrature grid."""


def _element_factor(length, cos_psi):
    """Sinusoidal-current dipole magnitude as a function of cos(axis angle).

    |cos(pi L c) - cos(pi L)| / sin(psi), with the removable zero at the
    element axis handled explicitly.
    """
    c = np.asarray(cos_psi, dtype=float)
    sin_psi = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    num = np.abs(np.cos(np.pi * length * c) - np.cos(np.pi * length))
    return np.where(sin_psi > _SIN_EPS, num / np.maximum(sin_psi, _SIN_EPS), 0.0)


def dipole_pattern(length, theta):
    """Far-field magnitude of a z-oriented center-fed dipole of given length.

    length may be an array that broadcasts with theta."""
    if not np.all(np.asarray(length) > 0):
        raise ValueError("dipole length must be > 0")
    th = np.asarray(theta, dtype=float)
    out = _element_factor(length, np.cos(th))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ArraySpec:
    """Geometry and excitation of one benchmark array: positions (n, 3) in
    wavelengths, excitations (n,) complex, and the common element axis (3,)."""

    positions: np.ndarray
    excitations: np.ndarray
    axis: np.ndarray


def array_pattern(spec: ArraySpec) -> Callable:
    """Pattern-multiplication field magnitude for an ArraySpec.

    Returns pattern(theta, phi) operating on scalars or broadcastable
    arrays: element factor about the common axis times |sum of excitations
    with spatial phase|.
    """
    pos, exc = spec.positions, spec.excitations

    def pattern(theta, phi):
        rx, ry, rz, elem = _direction(spec.axis, theta, phi)
        af = np.zeros(np.broadcast(rx, rz).shape, dtype=complex)
        for n in range(len(pos)):
            phase = TWO_PI * (rx * pos[n, 0] + ry * pos[n, 1] + rz * pos[n, 2])
            af += exc[n] * np.exp(1j * phase)
        out = np.abs(af) * elem
        return float(out) if np.ndim(out) == 0 else out

    return pattern


def array_pattern_rows(spec: ArraySpec, excitations, theta, phi) -> np.ndarray:
    """array_pattern for a batch of excitations, bit for bit: entry i is
    array_pattern(replace(spec, excitations=excitations[i]))(theta[i], phi)
    for excitations of shape (m, n) and theta of shape (m,).

    The complex sum runs in real arithmetic, re += a*c - b*d and
    im += a*d + b*c, and |F| is np.abs(re + 1j*im): these give the
    one-point call's bits, where numpy's complex array multiply and
    np.hypot do not.
    """
    pos = spec.positions
    exc = np.asarray(excitations, dtype=complex)
    rx, ry, rz, elem = _direction(spec.axis, theta, phi)
    re = np.zeros(np.broadcast(rx, rz).shape)
    im = np.zeros_like(re)
    for n in range(len(pos)):
        phase = TWO_PI * (rx * pos[n, 0] + ry * pos[n, 1] + rz * pos[n, 2])
        e = np.exp(1j * phase)
        a, b, c, d = exc[:, n].real, exc[:, n].imag, e.real, e.imag
        re += a * c - b * d
        im += a * d + b * c
    return np.abs(re + 1j * im) * elem


def _direction(axis, theta, phi):
    """The unit vector (rx, ry, rz) toward (theta, phi) and the half-wave
    element factor there about axis."""
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    st, ct = np.sin(th), np.cos(th)
    rx = st * np.cos(ph)
    ry = st * np.sin(ph)
    rz = ct
    cos_psi = rx * axis[0] + ry * axis[1] + rz * axis[2]
    return rx, ry, rz, _element_factor(ELEMENT_LENGTH, cos_psi)


# ---------------------------------------------------------------------------
# benchmark geometries


def linear_array_spec(d: float, n_elements: int = 10) -> ArraySpec:
    """Uniform in-phase line of z-dipoles along x, spacing d wavelengths."""
    positions = np.zeros((n_elements, 3))
    positions[:, 0] = (np.arange(1, n_elements + 1) - 0.5 * (n_elements + 1)) * d
    return ArraySpec(positions, np.ones(n_elements, dtype=complex), np.array(_Z))


def ring_excitations(beta: float) -> np.ndarray:
    """The ring's cosine phase law: unit weights of phase alpha_n = -cos(2 pi beta (n-1))."""
    alphas = [-math.cos(TWO_PI * beta * (n - 1)) for n in range(1, RING_ELEMENTS + 1)]
    return np.array([complex(math.cos(a), math.sin(a)) for a in alphas])


def circular_array_spec(beta: float) -> ArraySpec:
    """Ring of RING_ELEMENTS z-dipoles of radius 1 wavelength in the z=0
    plane, excited by ring_excitations(beta)."""
    ang = [TWO_PI * (n - 1) / RING_ELEMENTS for n in range(1, RING_ELEMENTS + 1)]
    positions = np.array([(math.cos(a), math.sin(a), 0.0) for a in ang])
    return ArraySpec(positions, ring_excitations(beta), np.array(_Z))


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
    positions = np.zeros((len(y), 3))
    positions[:, 1] = y - y.mean()
    return ArraySpec(positions, np.ones(len(y), dtype=complex), np.array(_Y))


def uniform_line_pattern(d: float, n_elements: int = 10) -> Callable:
    """Closed-form magnitude for the uniform in-phase line of z-dipoles.

    Same field as array_pattern(linear_array_spec(d, n_elements)), as
    pattern(theta, phi) = uniform_line_field(d, n_elements, theta, phi).
    """
    if d <= 0.0:
        raise ValueError("element spacing must be positive")
    return functools.partial(uniform_line_field, d, int(n_elements))


def uniform_line_field(d, n_elements: int, theta, phi):
    """|F| of the uniform in-phase line of n_elements z-dipoles, spacing d.

    For equal spacing the excitation sum telescopes to sin(n psi/2)/sin(psi/2)
    with psi = 2 pi d sin(theta) cos(phi), which costs one sine pair per point
    instead of one complex exponential per element. Points where psi is a
    multiple of 2 pi are in-phase addition and evaluate to n_elements. d may
    be an array of spacings that broadcasts with theta and phi.
    """
    rx, _, _, elem = _direction(_Z, theta, phi)
    half = math.pi * d * rx
    denom = np.sin(half)
    safe = np.where(np.abs(denom) < 1e-9, 1.0, denom)
    af = np.where(np.abs(denom) < 1e-9, float(n_elements), np.sin(n_elements * half) / safe)
    out = np.abs(af) * elem
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# directivity quadrature

_MEMO_LIMIT = 1 << 18
_PW_BLOCK = 128  # leaf size of numpy's pairwise summation


def sphere_mesh(n_theta: int = DEFAULT_N_THETA, n_phi: int = DEFAULT_N_PHI):
    """Midpoint quadrature nodes used by radiated_power.

    Returns (theta column (n_theta, 1), phi row (1, n_phi), sin(theta)
    column); broadcasting the first two against each other spans the
    sphere. Exposed so callers can integrate their own mesh quantities
    with exactly the nodes the power integral uses.
    """
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
    return theta[:, None], phi[None, :], np.sin(theta)[:, None]


def _midpoint_sum(pattern: Callable, n_theta: int, n_phi: int, rows: int, cols: int) -> float:
    """Midpoint-rule sum of |F|^2 sin(theta) over the first rows x cols nodes."""
    th, ph, sin_th = sphere_mesh(n_theta, n_phi)
    f = np.asarray(pattern(th[:rows], ph[:, :cols]), dtype=float)
    f = np.broadcast_to(f, (rows, cols))
    return float(np.sum(f * f * sin_th[:rows]) * (math.pi / n_theta) * (TWO_PI / n_phi))


def axisymmetric_power(pattern: Callable, n_theta: int, n_phi: int) -> float:
    """radiated_power's midpoint sum, bit for bit, for a pattern that does not
    depend on phi.

    Every theta row of the full-mesh summand holds one repeated value v, and
    np.sum reduces the contiguous mesh pairwise (numpy's pairwise_sum): leaf
    blocks of 128 values summed with eight running accumulators, then a
    halving tree. A leaf of 128 copies of v is 8 times (v added to itself 16
    times), exactly, and when the leaves tile the rows and their count is a
    power of two the tree is log2(count) levels of pairwise sums. Any other
    mesh raises ValueError. The result is exact for numpy builds that reduce
    in this order, which tests/test_antenna.py checks against the full sum.
    """
    leaves = n_theta * n_phi // _PW_BLOCK
    if n_phi % _PW_BLOCK or leaves < 1 or leaves & (leaves - 1):
        raise ValueError(
            f"the phi fold needs n_phi divisible by {_PW_BLOCK} and a power-of-two "
            f"number of {_PW_BLOCK}-node blocks, got {n_theta} x {n_phi}"
        )
    th, ph, sin_th = sphere_mesh(n_theta, n_phi)
    f = np.broadcast_to(np.asarray(pattern(th, ph[:, :1]), dtype=float), (n_theta, 1))
    v = (f * f * sin_th).ravel()
    acc = v
    for _ in range(_PW_BLOCK // 8 - 1):
        acc = acc + v
    s = np.repeat(8.0 * acc, n_phi // _PW_BLOCK)
    while len(s) > 1:
        s = s[0::2] + s[1::2]
    return float(s[0] * (math.pi / n_theta) * (TWO_PI / n_phi))


def _octant(n_theta: int, n_phi: int):
    """The first octant's node rows and columns, (n_theta//2, n_phi//4)."""
    if n_theta % 2 or n_phi % 4:
        raise ValueError(
            f"the octant fold needs an even n_theta and n_phi divisible by 4, "
            f"got {n_theta} x {n_phi}"
        )
    return n_theta // 2, n_phi // 4


def octant_power(pattern: Callable, n_theta: int, n_phi: int) -> float:
    """radiated_power's midpoint sum for a pattern with eightfold symmetry.

    The pattern must be even under theta -> pi - theta, phi -> -phi and
    phi -> pi - phi (that is under z, y and x reflections). Midpoint nodes
    never lie on a symmetry plane, so the full sum is exactly 8 times the
    sum over the first-octant nodes [:n_theta//2, :n_phi//4], up to the
    rounding of the mirrored node coordinates.
    """
    return 8.0 * _midpoint_sum(pattern, n_theta, n_phi, *_octant(n_theta, n_phi))


class UniformLinePower:
    """octant_power(uniform_line_pattern(d, n_elements)), bit for bit.

    power() does uniform_line_field's arithmetic on the octant one step at a
    time, in the same order, writing each step into octant-sized buffers
    that this instance keeps, then sums with octant_power's expression. A
    fresh temporary of the octant's size (128 KiB at 256 x 512) sits at
    glibc's mmap threshold, so each call would map and page-fault it anew;
    reused buffers fault once. The node tables (u = sin(theta) cos(phi), the
    element factor and sin(theta)) and the buffers are built on the first
    power() call for a mesh. The buffers make an instance unsafe to share
    between threads; each objective owns one.
    """

    def __init__(self):
        self._meshes = {}

    @staticmethod
    def _build(n_theta: int, n_phi: int):
        rows, cols = _octant(n_theta, n_phi)
        th, ph, sin_th = sphere_mesh(n_theta, n_phi)
        # uniform_line_field's node arithmetic on the octant's (rows, 1)
        # and (1, cols) slices, as _midpoint_sum hands them to the pattern
        u, _, _, elem = _direction(_Z, th[:rows], ph[:, :cols])
        in_phase = np.empty((rows, cols), dtype=bool)
        return (u, elem, sin_th[:rows], in_phase, *(np.empty((rows, cols)) for _ in range(3)))

    def power(self, d: float, n_elements: int, n_theta: int, n_phi: int) -> float:
        if d <= 0.0:
            raise ValueError("element spacing must be positive")
        mesh = self._meshes.get((n_theta, n_phi))
        if mesh is None:
            mesh = self._meshes[(n_theta, n_phi)] = self._build(n_theta, n_phi)
        u, elem, sin_th, in_phase, half, den, f = mesh
        np.multiply(math.pi * d, u, out=half)
        np.sin(half, out=den)
        np.less(np.abs(den, out=f), 1e-9, out=in_phase)
        np.multiply(n_elements, half, out=f)
        np.sin(f, out=f)
        np.copyto(den, 1.0, where=in_phase)
        np.divide(f, den, out=f)
        np.copyto(f, float(n_elements), where=in_phase)
        np.abs(f, out=f)
        np.multiply(f, elem, out=f)
        np.multiply(f, f, out=half)
        np.multiply(half, sin_th, out=half)
        return 8.0 * float(np.sum(half) * (math.pi / n_theta) * (TWO_PI / n_phi))


class CouplingMatrix:
    """Radiated power of a fixed planar array as Re(e^H K e).

    For excitations e, |AF|^2 = sum_mn conj(e_m) e_n exp(j 2 pi r.(p_n - p_m)),
    so radiated_power's midpoint sum equals Re(e^H K e), with K the Hermitian
    matrix of pair integrals K_mn = sum_nodes w elem^2 exp(j 2 pi r.(p_n - p_m)):
    the mutual-coupling form of array power (Balanis, Antenna Theory, array
    directivity). K depends on the positions, the element and the mesh but
    not on e; it is built on the first power() call for a mesh and kept by
    this instance.

    The array must lie in the z=0 plane with its elements along z or in the
    plane, so the integrand is even in theta: K sums the upper half of the
    theta rows and doubles it, a few rows at a time so that no temporary
    spans the mesh, and mirrors its upper triangle.
    """

    _ROWS = 16

    def __init__(self, spec: ArraySpec):
        pos, ax = spec.positions, spec.axis
        if np.any(pos[:, 2] != 0.0) or (ax[2] != 0.0 and np.any(ax[:2] != 0.0)):
            raise ValueError(
                "coupling matrix: the array must lie in the z=0 plane with "
                "elements along z or in that plane"
            )
        self._pos = pos
        self._axis = ax
        self._k = {}

    def _build(self, n_theta: int, n_phi: int) -> np.ndarray:
        if n_theta % 2:
            raise ValueError(f"the theta fold needs an even n_theta, got {n_theta}")
        th, ph, sin_th = sphere_mesh(n_theta, n_phi)
        ax, pos = self._axis, self._pos
        k = np.zeros((len(pos), len(pos)), dtype=complex)
        for start in range(0, n_theta // 2, self._ROWS):
            rows = slice(start, min(start + self._ROWS, n_theta // 2))
            rx, ry, _, elem = _direction(ax, th[rows], ph)
            w = elem * elem * sin_th[rows]
            e = np.exp(1j * TWO_PI * (rx * pos[:, 0, None, None] + ry * pos[:, 1, None, None]))
            for m in range(len(pos)):
                k[m, m:] += (np.conj(e[m]) * w * e[m:]).sum(axis=(1, 2))
        k = k + np.conj(np.triu(k, 1)).T
        return k * (2.0 * (math.pi / n_theta) * (TWO_PI / n_phi))

    def power(self, excitations, n_theta: int, n_phi: int) -> float:
        k = self._k.get((n_theta, n_phi))
        if k is None:
            k = self._k[(n_theta, n_phi)] = self._build(n_theta, n_phi)
        return float(np.sum(np.real(np.conj(excitations)[:, None] * k * excitations[None, :])))


class CollinearPower:
    """octant_power(array_pattern(spec)), bit for bit, for dipoles along y
    strung on the y axis, from the upper triangle of the octant.

    Such a pattern reaches a node only through ry = sin(theta) sin(phi). When
    n_phi = 2 n_theta the octant's theta and phi midpoint nodes are the same
    floats, so ry, and with it |F|, is the same at octant nodes (i, k) and
    (k, i). power() evaluates the array factor with array_pattern's arithmetic
    on the q(q+1)/2 nodes with i <= k of the q x q octant, mirrors them into
    the octant and sums it with octant_power's expression. The triangle's ry,
    its element factor and the mirror index do not depend on the array; they
    are built on the first power() call for a mesh and kept by this instance.
    Any other mesh raises ValueError. As for octant_power, the result is the
    full sphere's sum only if |F| is even in ry, as with real excitations.
    """

    def __init__(self):
        self._tables = {}

    def _build(self, n_theta: int, n_phi: int):
        if n_theta % 2 or n_phi != 2 * n_theta:
            raise ValueError(
                f"the triangle fold needs an even n_theta and n_phi = 2 n_theta, "
                f"got {n_theta} x {n_phi}"
            )
        q = n_theta // 2
        th, ph, sin_th = sphere_mesh(n_theta, n_phi)
        _, ry, _, elem = _direction(_Y, th[:q], ph[:, :q])
        upper = np.triu_indices(q)
        mirror = np.empty((q, q), dtype=np.int32)
        mirror[upper] = mirror.T[upper] = np.arange(len(upper[0]))
        return ry[upper], elem[upper], mirror, sin_th[:q]

    def power(self, spec: ArraySpec, n_theta: int, n_phi: int) -> float:
        pos, exc = spec.positions, spec.excitations
        if np.any(pos[:, ::2] != 0.0) or np.any(spec.axis != _Y):
            raise ValueError("triangle fold: the array must be y dipoles on the y axis")
        tables = self._tables.get((n_theta, n_phi))
        if tables is None:
            tables = self._tables[(n_theta, n_phi)] = self._build(n_theta, n_phi)
        ry, elem, mirror, sin_th = tables
        af = np.zeros(len(ry), dtype=complex)
        for n in range(len(pos)):
            # array_pattern also adds rx * x and rz * z, both zero here
            phase = TWO_PI * (ry * pos[n, 1])
            af += exc[n] * np.exp(1j * phase)
        f = np.take(np.abs(af) * elem, mirror)
        return 8.0 * float(np.sum(f * f * sin_th) * (math.pi / n_theta) * (TWO_PI / n_phi))


def radiated_power(
    pattern: Optional[Callable],
    n_theta: int = DEFAULT_N_THETA,
    n_phi: int = DEFAULT_N_PHI,
    power_key=None,
    mesh_sum: Optional[Callable] = None,
    memo: Optional[dict] = None,
) -> float:
    """Integral of |F|^2 sin(theta) over the sphere, fixed midpoint rule.

    power_key and memo, when both given, memoize the result in memo, a dict
    the caller owns, for repeated calls on the same geometry; the key must
    determine the pattern. A memo is emptied wholesale when it reaches 2^18
    entries. mesh_sum, when given, is a callable (n_theta, n_phi) -> power
    that evaluates the same sum on the same nodes in a cheaper exact form
    (axisymmetric_power, octant_power, UniformLinePower.power,
    CollinearPower.power, CouplingMatrix.power) and is called only on a memo
    miss; pattern is then unused and may be None. Without mesh_sum every
    node of pattern is summed.
    """
    full_key = (power_key, n_theta, n_phi)
    if memo is not None and power_key is not None:
        cached = memo.get(full_key)
        if cached is not None:
            return cached
    if mesh_sum is None:
        power = _midpoint_sum(pattern, n_theta, n_phi, n_theta, n_phi)
    else:
        power = mesh_sum(n_theta, n_phi)
    if memo is not None and power_key is not None:
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[full_key] = power
    return power


def directivity(
    pattern: Callable,
    theta0: float,
    phi0: float,
    n_theta: int = DEFAULT_N_THETA,
    n_phi: int = DEFAULT_N_PHI,
    mesh_sum: Optional[Callable] = None,
) -> float:
    """4 pi |F(theta0, phi0)|^2 over the radiated power, computed afresh.

    The reference the antenna objectives reproduce bit for bit.
    Deterministic by construction: fixed node set, fixed summation order.
    Doubling the resolution moves the result by well under 0.1% for every
    benchmark surrogate at the default 256 x 512 panels.
    """
    power = radiated_power(pattern, n_theta, n_phi, mesh_sum=mesh_sum)
    if power == 0.0:
        raise DegeneratePatternError("degenerate pattern: no radiated power")
    amp = float(np.abs(pattern(np.float64(theta0), np.float64(phi0))))
    return 4.0 * math.pi * amp * amp / power
