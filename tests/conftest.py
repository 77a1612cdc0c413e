import numpy as np
import pytest

from farkit.grid import QuadratureGrid
from farkit.moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    WeightedMomentPair,
    span_coordinates,
)


def unit_weight_grid(m: int) -> QuadratureGrid:
    """Synthetic grid whose weight matrix is the identity (not a trapezoid grid)."""
    return QuadratureGrid(np.linspace(0.0, 1.0, m), np.ones(m))


def moment_pair(c0, c1) -> WeightedMomentPair:
    """Wrap explicit coordinate-space moment matrices with a zero mean."""
    c0 = np.asarray(c0, float)
    return WeightedMomentPair(c0, np.asarray(c1, float), np.zeros(c0.shape[0]))


def rotation_coordinates(m: int, grid: QuadratureGrid | None = None) -> SpanCoordinates:
    """Full-rank span coordinates of a noise sample in a random m x m rotation of the grid.

    ``span_coordinates`` gives such a sample the identity basis; the
    rotation keeps a basis V != I in the tests that use this helper.
    """
    rng = np.random.default_rng(7)
    grid = unit_weight_grid(m) if grid is None else grid
    coords = span_coordinates(FunctionalSample(rng.standard_normal((m + 5, m)), grid))
    rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return SpanCoordinates(coords.values @ rotation, coords.basis @ rotation, grid, m)


def grid_operator(kernel, grid, method="tikhonov") -> OperatorEstimate:
    """An estimate with a given grid kernel, in identity coordinates of the grid.

    With V = I the operator matrix is the kernel conjugated by the square
    roots of the quadrature weights, so zero kernel entries stay exact.
    """
    m = grid.size
    sw = np.sqrt(grid.weights)
    identity = SpanCoordinates(np.zeros((2, m)), np.eye(m), grid, m)
    return OperatorEstimate(np.asarray(kernel, float) * np.outer(sw, sw), identity, method)


def random_spd(rng, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T) / m


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
