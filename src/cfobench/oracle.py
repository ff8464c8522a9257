"""Brute-force grid maximization used as ground truth in the benchmarks.

The oracle is deliberately dumb: evaluate every point of a uniform inclusive
grid, keep the best, break ties toward the lexicographically smallest grid
index. A local refinement pass (refine) zooms the grid around a point so
benchmark comparisons are not limited by the global grid pitch.

The grid is evaluated in C order, one evaluate_batch call per chunk of at
most _CHUNK points, so memory does not grow with the grid. A chunk is laid
out by broadcasting, not by flat-index arithmetic: the grid splits after the
first axis whose trailing block of points fits in a chunk, that block is
built once, and each chunk is a run of consecutive prefixes of the leading
axes times the whole block, written into one buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .objectives import batch_form
from .space import DecisionSpace

MAX_GRID_POINTS = 100_000_000
_CHUNK = 1 << 14  # a chunk's per-point temporaries (128 KiB) stay in cache


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive (or refined) grid search."""

    argmax: np.ndarray
    value: float
    resolution: Tuple[int, ...]
    n_evaluations: int


def _resolve_bounds(objective, bounds) -> DecisionSpace:
    if bounds is None:
        space = getattr(objective, "bounds", None)
        if space is None:
            raise ValueError("grid oracle: no bounds given and the objective has none")
        return space
    if isinstance(bounds, DecisionSpace):
        return bounds
    return DecisionSpace.from_bounds(bounds)


def _grid_axes(space: DecisionSpace, resolution) -> list:
    n_d = space.n_dims
    if np.isscalar(resolution):
        counts = [int(resolution)] * n_d
    else:
        counts = [int(r) for r in resolution]
        if len(counts) != n_d:
            raise ValueError(
                f"resolution has {len(counts)} entries for {n_d} dimensions"
            )
    if any(c < 1 for c in counts):
        raise ValueError("grid resolution must be at least 1 point per axis")
    total = 1
    for c in counts:
        total *= c
    if total > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {total} points exceeds the {MAX_GRID_POINTS} point guard; "
            "use a coarser resolution"
        )
    axes = [
        np.linspace(space.lower[d], space.upper[d], counts[d]) for d in range(n_d)
    ]
    return axes


def grid_oracle(objective, bounds=None, resolution=101) -> OracleResult:
    """Maximize by exhaustive search on a uniform inclusive grid.

    bounds defaults to the objective's own; resolution is points per axis,
    scalar or per-dimension. Non-finite fitnesses lose every comparison.
    """
    space = _resolve_bounds(objective, bounds)
    axes = _grid_axes(space, resolution)
    shape = tuple(len(ax) for ax in axes)
    total = int(np.prod(shape))

    n_d = len(shape)
    # split after the first axis j whose trailing block fits in a chunk; a
    # chunk is k consecutive prefixes (i_0..i_j) times the whole block
    j = next(j for j in range(n_d) if math.prod(shape[j + 1:]) <= _CHUNK)
    block = math.prod(shape[j + 1:])
    n_prefixes = math.prod(shape[:j + 1])
    k = min(_CHUNK // block, n_prefixes)
    trailing = np.empty((block, n_d - j - 1))
    for c, g in enumerate(np.meshgrid(*axes[j + 1:], indexing="ij")):
        trailing[:, c] = g.ravel()
    buf = np.empty((k, block, n_d))

    batch = batch_form(objective)
    best_value = -np.inf
    best_point: Optional[np.ndarray] = None
    for start in range(0, n_prefixes, k):
        m = min(k, n_prefixes - start)
        prefix = np.unravel_index(np.arange(start, start + m), shape[:j + 1])
        for d in range(j + 1):
            buf[:m, :, d] = axes[d][prefix[d]][:, None]
        buf[:m, :, j + 1:] = trailing
        points = buf[:m].reshape(m * block, n_d)
        values = np.asarray(batch(points), dtype=float)
        values = np.where(np.isfinite(values), values, -np.inf)
        i = int(np.argmax(values))
        # strict > keeps the earliest (lexicographically smallest) index
        if values[i] > best_value:
            best_value = float(values[i])
            best_point = points[i].copy()

    if best_point is None:
        raise ValueError("grid oracle: the objective returned no finite value")
    return OracleResult(
        argmax=best_point,
        value=best_value,
        resolution=shape,
        n_evaluations=total,
    )


def refine(
    objective,
    center: Sequence[float],
    half_widths,
    levels: int = 3,
    n_points: int = 21,
    bounds=None,
) -> OracleResult:
    """Zooming grid search around a point; the center always competes.

    Each level lays an inclusive n_points-per-axis grid on
    [center - hw, center + hw] clipped to the bounds, moves the center to
    the level's argmax, then shrinks hw to twice the old grid pitch. Used
    to sharpen oracle values near a candidate optimum.
    """
    space = _resolve_bounds(objective, bounds)
    n_d = space.n_dims
    center = np.asarray(center, dtype=float).copy()
    if center.shape != (n_d,):
        raise ValueError(f"center shape {center.shape} != ({n_d},)")
    hw = np.broadcast_to(np.asarray(half_widths, dtype=float), (n_d,)).copy()
    if np.any(hw <= 0) or not np.all(np.isfinite(hw)):
        raise ValueError("refine half_widths must be positive and finite")
    if n_points < 3:
        raise ValueError("refine needs at least 3 points per axis")
    if levels < 1:
        raise ValueError("refine needs at least one level")

    best_point = np.clip(center, space.lower, space.upper)
    best_value = float(batch_form(objective)(best_point[None, :])[0])
    n_evals = 1

    for _level in range(levels):
        # clipping to the bounds keeps lo < hi because hw > 0 and the best
        # point is always inside the (nondegenerate) bounds
        lo = np.clip(best_point - hw, space.lower, space.upper)
        hi = np.clip(best_point + hw, space.lower, space.upper)
        window = DecisionSpace(lower=lo, upper=hi)
        result = grid_oracle(objective, bounds=window, resolution=n_points)
        n_evals += result.n_evaluations
        if result.value > best_value:
            best_value = result.value
            best_point = result.argmax.copy()
        hw = hw * (2.0 / (n_points - 1))

    return OracleResult(
        argmax=best_point,
        value=best_value,
        resolution=(int(n_points),) * n_d,
        n_evaluations=n_evals,
    )
