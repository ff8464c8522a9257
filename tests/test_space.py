from __future__ import annotations

import numpy as np
import pytest

from cfobench.space import DecisionSpace


def test_from_bounds_roundtrip():
    space = DecisionSpace.from_bounds([(0.0, 3.0), (-1.0, 4.0)])
    assert space.n_dims == 2
    assert space.bounds_list() == [(0.0, 3.0), (-1.0, 4.0)]


def test_diagonal_length():
    space = DecisionSpace.from_bounds([(0.0, 3.0), (0.0, 4.0)])
    assert space.diag_length == pytest.approx(5.0)


def test_contains_is_inclusive():
    space = DecisionSpace.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    assert space.contains(np.array([[0.0, 1.0]]))
    assert space.contains(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert not space.contains(np.array([[0.5, 1.0 + 1e-12]]))
    # single point without the row dimension is accepted too
    assert space.contains(np.array([0.25, 0.75]))


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError, match="dimension 1"):
        DecisionSpace(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DecisionSpace(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        DecisionSpace.from_bounds([(0.0, 1.0, 2.0)])
    with pytest.raises(ValueError):
        DecisionSpace(np.array([]), np.array([]))


def test_spaces_are_immutable():
    space = DecisionSpace.from_bounds([(0.0, 1.0)])
    with pytest.raises(Exception):
        space.lower = np.array([5.0])
