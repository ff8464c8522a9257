"""Rectangular decision spaces for the optimizer and the objectives."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DecisionSpace:
    """Axis-aligned box of search coordinates.

    bounds holds one (low, high) pair per dimension, in whatever units the
    objective uses (wavelengths, radians, plain numbers). The principal
    diagonal length normalizes the probe-spread diagnostic.
    """

    lower: np.ndarray
    upper: np.ndarray
    _diag: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or upper.shape != lower.shape or lower.size == 0:
            raise ValueError("bounds must be two equal-length 1-D arrays")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            bad = int(np.argmax(~(lower < upper)))
            raise ValueError(f"bounds: low must be < high in every dimension (dimension {bad})")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_diag", float(np.sqrt(np.sum((upper - lower) ** 2))))

    @classmethod
    def from_bounds(cls, bounds) -> "DecisionSpace":
        arr = np.asarray(bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("bounds must be a sequence of (low, high) pairs")
        return cls(arr[:, 0].copy(), arr[:, 1].copy())

    @property
    def n_dims(self) -> int:
        return int(self.lower.size)

    @property
    def diag_length(self) -> float:
        return self._diag

    def contains(self, points: np.ndarray) -> bool:
        """True when every coordinate of every row lies inside the box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool((pts >= self.lower).all() and (pts <= self.upper).all())

    def bounds_list(self) -> list[tuple[float, float]]:
        return [(float(lo), float(hi)) for lo, hi in zip(self.lower, self.upper)]
