"""Evaluation grids and their trapezoidal quadrature weights.

The weights are the grid's whole L2 geometry: span coordinates scale
curves by their square roots, so that Euclidean algebra on the
coordinates is L2([0, 1]) algebra on the curves, and forecast errors are
integrated with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = [
    "QuadratureGrid",
    "make_trapezoid_grid",
    "uniform_grid",
]


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Strictly increasing evaluation points with positive quadrature weights.

    Instances are immutable: the arrays are copied and marked read-only at
    construction, so downstream objects can safely hold references.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if points.ndim != 1 or points.size < 2:
            raise GridError("grid needs at least 2 points")
        if weights.shape != points.shape:
            raise GridError("points and weights must have the same length")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise GridError("grid points and weights must be finite")
        if np.any(np.diff(points) <= 0):
            raise GridError("grid points must be strictly increasing")
        if np.any(weights <= 0):
            raise GridError("quadrature weights must be strictly positive")
        points.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)


def make_trapezoid_grid(points) -> QuadratureGrid:
    """Build a grid with trapezoidal-rule quadrature weights.

    Interior weights are half the distance between the two neighbouring
    points; the endpoint weights are half the first/last spacing. The
    weights sum to the grid span exactly (up to rounding), so constants
    integrate to span * value.

    Parameters
    ----------
    points : array_like
        Strictly increasing evaluation points, length >= 2.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 2:
        raise GridError("grid needs at least 2 points")
    if np.any(np.diff(points) <= 0):
        raise GridError("grid points must be strictly increasing")
    gaps = np.diff(points)
    weights = np.empty_like(points)
    weights[0] = gaps[0] / 2.0
    weights[-1] = gaps[-1] / 2.0
    weights[1:-1] = (points[2:] - points[:-2]) / 2.0
    return QuadratureGrid(points, weights)


def uniform_grid(m: int) -> QuadratureGrid:
    """Uniform m-point trapezoid grid on [0, 1]."""
    if m < 2:
        raise GridError("grid needs at least 2 points")
    return make_trapezoid_grid(np.linspace(0.0, 1.0, m))
