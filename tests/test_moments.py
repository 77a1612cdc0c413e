import numpy as np
import pytest

from conftest import unit_weight_grid
from farkit.errors import GridError, InsufficientDataError
from farkit.grid import Curve, uniform_grid
from farkit.moments import (
    FunctionalSample,
    OperatorEstimate,
    apply_kernel_matrix,
    sample_moments,
    to_weighted,
    unweight_kernel,
    weighted_moments,
)


def brute_force_moments(values):
    """Independent loop-level oracle for the centered moment matrices."""
    n, m = values.shape
    xbar = values.mean(axis=0)
    c0 = np.zeros((m, m))
    for t in range(n):
        d = values[t] - xbar
        c0 += np.outer(d, d)
    c0 /= n
    c1 = np.zeros((m, m))
    for t in range(n - 1):
        c1 += np.outer(values[t + 1] - xbar, values[t] - xbar)
    c1 /= n - 1
    return c0, c1, xbar


class TestSampleMoments:
    def test_identical_curves_center_out(self):
        g = uniform_grid(4)
        sample = FunctionalSample(np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)), g)
        c0, c1, mean = sample_moments(sample)
        assert np.allclose(c0, 0) and np.allclose(c1, 0)
        assert np.allclose(mean.values, [1, 2, 3, 4])

    def test_hand_case_n3_m2(self):
        g = uniform_grid(2)
        values = np.array([[1.0, 2.0], [0.0, -1.0], [2.0, 5.0]])
        c0, c1, mean = sample_moments(sample := FunctionalSample(values, g))
        oc0, oc1, omean = brute_force_moments(values)
        assert np.allclose(c0, oc0, atol=1e-14)
        assert np.allclose(c1, oc1, atol=1e-14)
        assert np.allclose(mean.values, omean)
        assert sample.n == 3

    @pytest.mark.parametrize("n", [100, 800])
    def test_normalisation_at_benchmark_sizes(self, rng, n):
        # the tuning-rate gate compares slopes in n, so the 1/n and 1/(n-1)
        # scalings are pinned at the smallest and largest benchmark sizes
        values = rng.standard_normal((n, 5))
        c0, c1, _ = sample_moments(FunctionalSample(values, uniform_grid(5)))
        oc0, oc1, _ = brute_force_moments(values)
        assert np.abs(c0 - oc0).max() <= 1e-12 * np.abs(oc0).max()
        assert np.abs(c1 - oc1).max() <= 1e-12 * np.abs(oc0).max()

    def test_c0_symmetric_c1_not(self, rng):
        g = uniform_grid(6)
        sample = FunctionalSample(rng.standard_normal((30, 6)), g)
        c0, c1, _ = sample_moments(sample)
        assert np.allclose(c0, c0.T, atol=1e-14)
        assert not np.allclose(c1, c1.T)

    def test_centering_invariance(self, rng):
        g = uniform_grid(5)
        values = rng.standard_normal((12, 5))
        shift = rng.standard_normal(5)
        c0a, c1a, _ = sample_moments(FunctionalSample(values, g))
        c0b, c1b, _ = sample_moments(FunctionalSample(values + shift, g))
        scale = np.abs(c0a).max()
        assert np.abs(c0a - c0b).max() <= 1e-10 * scale
        assert np.abs(c1a - c1b).max() <= 1e-10 * scale

    def test_lag_reversal(self, rng):
        g = uniform_grid(4)
        values = rng.standard_normal((15, 4))
        _, c1_rev, _ = sample_moments(FunctionalSample(values[::-1], g))
        xbar = values.mean(axis=0)
        expected = sum(
            np.outer(values[t] - xbar, values[t + 1] - xbar) for t in range(14)
        ) / 14
        assert np.allclose(c1_rev, expected, atol=1e-12)

    def test_too_few_curves(self):
        with pytest.raises(InsufficientDataError):
            FunctionalSample(np.ones((1, 3)), uniform_grid(3))


class TestWeightedRepresentation:
    def test_identity_weights_no_op(self, rng):
        g = unit_weight_grid(4)
        c0 = rng.standard_normal((4, 4))
        c1 = rng.standard_normal((4, 4))
        pair = to_weighted(c0, c1, Curve(np.zeros(4), g), g)
        assert np.array_equal(pair.c0_tilde, c0)
        assert np.array_equal(pair.c1_tilde, c1)

    def test_uniform_three_point_diag(self):
        g = uniform_grid(3)  # weights 0.25, 0.5, 0.25
        pair = to_weighted(np.eye(3), np.zeros((3, 3)), Curve(np.zeros(3), g), g)
        assert np.allclose(pair.c0_tilde, np.diag([0.25, 0.5, 0.25]), atol=1e-15)

    def test_elementwise_oracle(self, rng):
        from farkit.grid import QuadratureGrid

        w = rng.uniform(0.1, 2.0, 4)
        g = QuadratureGrid(np.linspace(0, 1, 4), w)
        c0 = rng.standard_normal((4, 4))
        pair = to_weighted(c0, c0, Curve(np.zeros(4), g), g)
        for i in range(4):
            for j in range(4):
                assert pair.c0_tilde[i, j] == pytest.approx(
                    np.sqrt(w[i] * w[j]) * c0[i, j], rel=1e-14
                )

    def test_weighted_moments_psd(self, rng):
        g = uniform_grid(9)
        pair = weighted_moments(FunctionalSample(rng.standard_normal((40, 9)), g))
        lam = np.linalg.eigvalsh((pair.c0_tilde + pair.c0_tilde.T) / 2)
        assert lam.min() >= -1e-10 * lam.max()

    def test_dimension_mismatch(self):
        g = uniform_grid(3)
        with pytest.raises(GridError):
            to_weighted(np.eye(4), np.eye(4), Curve(np.zeros(3), g), g)


class TestApplyKernel:
    def test_zero_kernel(self):
        g = uniform_grid(5)
        op = OperatorEstimate(np.zeros((5, 5)), g, method="fpca")
        out = op.predict(Curve(np.arange(5.0), g))
        assert np.allclose(out.values, 0)

    def test_ones_kernel_constant_input(self):
        g = uniform_grid(7)  # weights sum to 1
        op = OperatorEstimate(np.ones((7, 7)), g, method="fpca")
        out = op.predict(Curve(np.ones(7), g))
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_single_row_hand_values(self):
        g = uniform_grid(3)  # weights 0.25, 0.5, 0.25
        kernel = np.zeros((3, 3))
        kernel[1] = [2.0, -1.0, 4.0]
        op = OperatorEstimate(kernel, g, method="fpca")
        x = Curve(np.array([1.0, 3.0, 5.0]), g)
        out = op.predict(x)
        # row quadrature: 2*1*0.25 - 1*3*0.5 + 4*5*0.25
        assert out.values[1] == pytest.approx(0.5 - 1.5 + 5.0, rel=1e-14)
        assert out.values[0] == out.values[2] == 0.0

    def test_linearity(self, rng):
        g = uniform_grid(6)
        op = OperatorEstimate(rng.standard_normal((6, 6)), g, method="tikhonov")
        x = Curve(rng.standard_normal(6), g)
        y = Curve(rng.standard_normal(6), g)
        combo = Curve(1.5 * x.values - 0.3 * y.values, g)
        expected = 1.5 * op.predict(x).values - 0.3 * op.predict(y).values
        got = op.predict(combo).values
        assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)

    def test_matrix_variant_matches_curve_variant(self, rng):
        g = uniform_grid(5)
        op = OperatorEstimate(rng.standard_normal((5, 5)), g, method="tikhonov")
        values = rng.standard_normal((4, 5))
        rows = apply_kernel_matrix(op, values)
        for t in range(4):
            assert np.allclose(rows[t], op.predict(Curve(values[t], g)).values)

    def test_grid_mismatch(self):
        op = OperatorEstimate(np.zeros((3, 3)), uniform_grid(3), method="fpca")
        with pytest.raises(GridError):
            op.predict(Curve(np.zeros(4), uniform_grid(4)))


class TestUnweightKernel:
    def test_identity_weights(self, rng):
        g = unit_weight_grid(4)
        psi = rng.standard_normal((4, 4))
        assert np.array_equal(unweight_kernel(psi, g).kernel, psi)

    def test_uniform_grid_structure(self):
        g = uniform_grid(4)
        psi = np.ones((4, 4))
        kernel = unweight_kernel(psi, g).kernel
        h = 1.0 / 3.0
        assert kernel[1, 2] == pytest.approx(1.0 / h, rel=1e-12)  # interior pair
        assert kernel[0, 0] == pytest.approx(2.0 / h, rel=1e-12)  # corner
        assert kernel[0, 1] == pytest.approx(np.sqrt(2.0) / h, rel=1e-12)

    def test_round_trip(self, rng):
        g = uniform_grid(6)
        psi = rng.standard_normal((6, 6))
        kernel = unweight_kernel(psi, g).kernel
        sw = np.sqrt(g.weights)
        back = kernel * np.outer(sw, sw)
        assert np.abs(back - psi).max() <= 1e-12 * np.abs(psi).max()

    def test_nonpositive_weight_unconstructible(self):
        # grids enforce positive weights, so the invalid-weight case is
        # rejected at grid construction
        from farkit.grid import QuadratureGrid

        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
