import numpy as np
import pytest

from farkit.errors import GridError
from farkit.grid import QuadratureGrid, make_trapezoid_grid, uniform_grid
from farkit.moments import FunctionalSample


def sorted_points(rng, m):
    pts = np.sort(rng.uniform(0.0, 1.0, m))
    while np.any(np.diff(pts) <= 1e-9):
        pts = np.sort(rng.uniform(0.0, 1.0, m))
    return pts


class TestTrapezoidWeights:
    def test_three_point_grid(self):
        g = make_trapezoid_grid([0.0, 0.5, 1.0])
        assert np.allclose(g.weights, [0.25, 0.5, 0.25], rtol=0, atol=0)

    def test_uniform_101(self):
        g = uniform_grid(101)
        assert np.allclose(g.weights[1:-1], 0.01, atol=1e-15)
        assert np.allclose(g.weights[[0, -1]], 0.005, atol=1e-15)

    def test_nonuniform_hand_values(self):
        # interior w_i = (u_{i+1} - u_{i-1}) / 2, endpoints half the edge gaps
        g = make_trapezoid_grid([0.0, 0.1, 0.4, 1.0])
        assert np.allclose(g.weights, [0.05, 0.2, 0.45, 0.3], atol=1e-15)

    def test_rejects_non_increasing(self):
        with pytest.raises(GridError):
            make_trapezoid_grid([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(GridError):
            make_trapezoid_grid([0.0, 0.7, 0.3])

    def test_rejects_too_short(self):
        with pytest.raises(GridError):
            make_trapezoid_grid([0.3])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([0.5, 0.0]))

    def test_weights_sum_to_span_random_grids(self):
        rng = np.random.default_rng(7)
        for m in (2, 3, 17, 101):
            pts = sorted_points(rng, m)
            g = make_trapezoid_grid(pts)
            span = pts[-1] - pts[0]
            assert abs(g.weights.sum() - span) <= 1e-12 * span

    def test_grid_arrays_immutable(self):
        g = uniform_grid(5)
        with pytest.raises(ValueError):
            g.weights[0] = 2.0


def inner(f, h, g):
    """Trapezoid quadrature of f * h with the grid's weights."""
    return float(np.sum(f * h * g.weights))


class TestInnerProduct:
    def test_constant_one(self):
        g = make_trapezoid_grid([0.0, 0.2, 0.9, 1.0])
        one = np.ones(4)
        assert inner(one, one, g) == pytest.approx(1.0, abs=1e-15)

    def test_zero_curve(self):
        g = uniform_grid(11)
        assert inner(np.sin(g.points), np.zeros(11), g) == 0.0

    def test_sine_squared_integral(self):
        # int_0^1 2 sin^2(2 pi u) du = 1
        g = uniform_grid(101)
        f = np.sqrt(2.0) * np.sin(2 * np.pi * g.points)
        assert inner(f, f, g) == pytest.approx(1.0, abs=1e-3)

    def test_linear_integrand_exact_on_random_grids(self):
        # trapezoid integrates degree-1 integrands exactly on any grid
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            g = make_trapezoid_grid(sorted_points(rng, m))
            a, b = rng.standard_normal(2)
            f = a + b * g.points
            u0, u1 = g.points[0], g.points[-1]
            exact = a * (u1 - u0) + b * (u1**2 - u0**2) / 2
            assert inner(f, np.ones(m), g) == pytest.approx(exact, rel=1e-12, abs=1e-14)


class TestNorm:
    def test_zero(self):
        g = uniform_grid(8)
        assert np.sqrt(inner(np.zeros(8), np.zeros(8), g)) == 0.0

    def test_constant(self):
        g = uniform_grid(12)
        f = np.full(12, -3.5)
        assert np.sqrt(inner(f, f, g)) == pytest.approx(3.5, rel=1e-12)

    def test_cosine(self):
        g = uniform_grid(101)
        f = np.sqrt(2.0) * np.cos(2 * np.pi * g.points)
        assert np.sqrt(inner(f, f, g)) == pytest.approx(1.0, abs=1e-3)


def test_curve_length_validation():
    # a sample's curves must have one finite value per grid point
    with pytest.raises(GridError):
        FunctionalSample(np.ones((3, 4)), uniform_grid(5))
    with pytest.raises(GridError):
        FunctionalSample(np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 2.0]]), uniform_grid(3))
