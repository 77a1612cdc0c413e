import warnings

import numpy as np
import pytest

from conftest import grid_operator, rotation_coordinates, unit_weight_grid
from farkit.errors import GridError, InsufficientDataError
from farkit.evaluate import fit_method
from farkit.grid import make_trapezoid_grid, uniform_grid
from farkit.moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    WeightedMomentPair,
    apply_kernel_matrix,
    centre_curves,
    full_rank_certified,
    span_coordinates,
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


def grid_moments(sample):
    """Moments of a sample in its span coordinates, mapped back to grid matrices.

    Returns (c0, c1, coordinate mean): the grid covariance is the coordinate
    covariance conjugated back by the basis and the quadrature weights,
    V c0 V^T / sqrt(w w^T), the same map as an operator's grid kernel.
    """
    coords = span_coordinates(sample)
    mom = weighted_moments(coords)
    return coords.kernel(mom.c0), coords.kernel(mom.c1), mom.mean


class TestSampleMoments:
    def test_identical_curves_center_out(self):
        g = uniform_grid(4)
        sample = FunctionalSample(np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)), g)
        c0, c1, mean = grid_moments(sample)
        assert np.allclose(c0, 0) and np.allclose(c1, 0)
        # the coordinates are of the centred curves
        assert not mean.any()

    def test_hand_case_n3_m2(self):
        g = uniform_grid(2)
        values = np.array([[1.0, 2.0], [0.0, -1.0], [2.0, 5.0]])
        c0, c1, mean = grid_moments(sample := FunctionalSample(values, g))
        oc0, oc1, _ = brute_force_moments(values)
        assert np.allclose(c0, oc0, atol=1e-14)
        assert np.allclose(c1, oc1, atol=1e-14)
        assert np.allclose(mean, 0, atol=1e-15)
        assert sample.n == 3

    @pytest.mark.parametrize("n", [100, 800])
    def test_normalisation_at_benchmark_sizes(self, rng, n):
        # the tuning-rate gate compares slopes in n, so the 1/n and 1/(n-1)
        # scalings are pinned at the smallest and largest benchmark sizes
        values = rng.standard_normal((n, 5))
        c0, c1, _ = grid_moments(FunctionalSample(values, uniform_grid(5)))
        oc0, oc1, _ = brute_force_moments(values)
        assert np.abs(c0 - oc0).max() <= 1e-12 * np.abs(oc0).max()
        assert np.abs(c1 - oc1).max() <= 1e-12 * np.abs(oc0).max()

    def test_c0_symmetric_c1_not(self, rng):
        g = uniform_grid(6)
        sample = FunctionalSample(rng.standard_normal((30, 6)), g)
        c0, c1, _ = grid_moments(sample)
        assert np.allclose(c0, c0.T, atol=1e-14)
        assert not np.allclose(c1, c1.T)

    def test_centering_invariance(self, rng):
        g = uniform_grid(5)
        values = rng.standard_normal((12, 5))
        shift = rng.standard_normal(5)
        c0a, c1a, _ = grid_moments(FunctionalSample(values, g))
        c0b, c1b, _ = grid_moments(FunctionalSample(values + shift, g))
        scale = np.abs(c0a).max()
        assert np.abs(c0a - c0b).max() <= 1e-10 * scale
        assert np.abs(c1a - c1b).max() <= 1e-10 * scale

    def test_lag_reversal(self, rng):
        g = uniform_grid(4)
        values = rng.standard_normal((15, 4))
        _, c1_rev, _ = grid_moments(FunctionalSample(values[::-1], g))
        xbar = values.mean(axis=0)
        expected = sum(
            np.outer(values[t] - xbar, values[t + 1] - xbar) for t in range(14)
        ) / 14
        assert np.allclose(c1_rev, expected, atol=1e-12)

    def test_too_few_curves(self):
        with pytest.raises(InsufficientDataError):
            FunctionalSample(np.ones((1, 3)), uniform_grid(3))


class TestWeightedRepresentation:
    def test_weighted_moments_psd(self, rng):
        g = uniform_grid(9)
        sample = FunctionalSample(rng.standard_normal((40, 9)), g)
        pair = weighted_moments(span_coordinates(sample))
        lam = np.linalg.eigvalsh((pair.c0 + pair.c0.T) / 2)
        assert lam.min() >= -1e-10 * lam.max()

    def test_dimension_mismatch(self):
        with pytest.raises(GridError):
            WeightedMomentPair(np.eye(4), np.eye(4), np.zeros(3))


def centred_rank(sample):
    """numpy's rank of the centred sqrt-weighted curves."""
    z = (sample.values - sample.values.mean(axis=0)) * sample.grid.sqrt_weights
    return int(np.linalg.matrix_rank(z))


def svd_coordinates(sample):
    """Coordinates in the right singular vectors of the centred sqrt-weighted curves."""
    z = (sample.values - sample.values.mean(axis=0)) * sample.grid.sqrt_weights
    basis = np.linalg.svd(z, full_matrices=False)[2].T
    return SpanCoordinates(z @ basis, basis, sample.grid, basis.shape[1])


def gram_with_smallest_eigenvalue(rng, n, m, ratio):
    """Curves (n, m) whose Gram has m - 1 unit eigenvalues and a smallest one of ``ratio`` times its trace."""
    left = np.linalg.qr(rng.standard_normal((n, m)))[0]
    right = np.linalg.qr(rng.standard_normal((m, m)))[0]
    eigenvalues = np.ones(m)
    eigenvalues[-1] = ratio * (m - 1) / (1 - ratio)
    return (left * np.sqrt(eigenvalues)) @ right.T


class TestSpanCoordinates:
    def test_full_rank_sample_gets_identity_basis(self, rng):
        g = uniform_grid(12)
        sample = FunctionalSample(np.cos(3 * g.points) + rng.standard_normal((80, 12)), g)
        coords = span_coordinates(sample)
        assert np.array_equal(coords.basis, np.eye(12))
        assert coords.rank == centred_rank(sample) == 12
        reference = svd_coordinates(sample)
        for label in ("fpca:0.80", "fpca:0.95", "fpca:K=4", "tikhonov:0.05", "tikhonov:cv"):
            est, _ = fit_method(coords, label)
            ref, _ = fit_method(reference, label)
            assert est.tuning == ref.tuning, label
            gap = np.linalg.norm(est.kernel - ref.kernel)
            assert gap <= 1e-12 * np.linalg.norm(ref.kernel), (label, gap)

    @pytest.mark.parametrize("scale", [1.0, 1e-9], ids=["duplicated", "scaled-1e-9"])
    def test_dependent_column_takes_the_svd(self, rng, scale):
        # more curves than grid points, but one grid column depends on another
        values = rng.standard_normal((50, 10))
        values[:, 7] = scale * values[:, 2]
        sample = FunctionalSample(values, uniform_grid(10))
        coords = span_coordinates(sample)
        assert coords.rank == centred_rank(sample) == 9
        assert coords.basis.shape == (10, 9)
        assert np.allclose(coords.basis.T @ coords.basis, np.eye(9), atol=1e-12)

    def test_overflowing_gram_takes_the_svd(self, rng):
        sample = FunctionalSample(rng.standard_normal((60, 8)) * 1e156, uniform_grid(8))
        coords = span_coordinates(sample)
        assert coords.rank == 8
        assert not np.array_equal(coords.basis, np.eye(8))


    def test_stacked_certificate_agrees_with_each_sample(self, rng):
        # full rank, a duplicated column, an overflowing Gram, too few curves
        g = uniform_grid(8)
        duplicated = rng.standard_normal((60, 8))
        duplicated[:, 5] = duplicated[:, 1]
        members = [
            rng.standard_normal((60, 8)),
            duplicated,
            rng.standard_normal((60, 8)) * 1e156,
            np.cos(np.arange(60))[:, None] * rng.standard_normal(8),
        ]
        stack = np.stack(members)
        with np.errstate(over="ignore", invalid="ignore"):
            certified = full_rank_certified(centre_curves(stack, g))
            each = [bool(full_rank_certified(centre_curves(v, g))) for v in members]
        alone = [
            np.array_equal(span_coordinates(FunctionalSample(v, g)).basis, np.eye(8))
            for v in members
        ]
        assert certified.tolist() == each == alone == [True, False, False, False]
        assert not full_rank_certified(centre_curves(stack[:, :8], g)).any()
        # members on both sides of the threshold and a non-finite one, as a (2, 3) stack
        graded = [gram_with_smallest_eigenvalue(rng, 60, 8, ratio) for ratio in (1e-9, 1e-11)]
        nonfinite = rng.standard_normal((60, 8))
        nonfinite[3, 4] = np.nan
        stack = np.stack([graded + [nonfinite], [nonfinite] + graded[::-1]])
        assert full_rank_certified(stack).tolist() == [
            [bool(full_rank_certified(z)) for z in row] for row in stack
        ] == [[True, False, False], [False, False, True]]

    @pytest.mark.parametrize("ratio, certified", [(1e-9, True), (1e-11, False)])
    def test_certificate_threshold_on_the_trace(self, rng, ratio, certified):
        # the rule: the smallest Gram eigenvalue must exceed 1e-10 of the trace
        z = gram_with_smallest_eigenvalue(rng, 80, 12, ratio)
        lam = np.linalg.eigvalsh(z.T @ z)
        assert lam[0] == pytest.approx(ratio * lam.sum(), rel=1e-3)
        assert bool(full_rank_certified(z)) is certified

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_nonfinite_gram_is_not_certified_without_warnings(self, rng, bad):
        z = rng.standard_normal((40, 6))
        z[7, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not full_rank_certified(z)
            stack = np.stack([z, rng.standard_normal((40, 6))])
            assert full_rank_certified(stack).tolist() == [False, True]

    def test_in_place_centring_keeps_the_bits(self, rng):
        g = make_trapezoid_grid(np.sort(rng.uniform(size=9)))
        stack = rng.standard_normal((3, 50, 9)) + 4.0
        copy = centre_curves(stack, g)
        for member, centred in zip(stack, copy):
            assert np.array_equal(span_coordinates(FunctionalSample(member, g)).values, centred)
        assert centre_curves(stack, g, out=stack) is stack
        assert np.array_equal(stack, copy)


def apply_one(op, x):
    """``apply_kernel_matrix`` on a single curve."""
    return apply_kernel_matrix(op, np.asarray(x, float)[None, :])[0]


class TestApplyKernel:
    def test_zero_kernel(self):
        g = uniform_grid(5)
        op = grid_operator(np.zeros((5, 5)), g, method="fpca")
        assert np.allclose(apply_one(op, np.arange(5.0)), 0)

    def test_ones_kernel_constant_input(self):
        g = uniform_grid(7)  # weights sum to 1
        op = grid_operator(np.ones((7, 7)), g, method="fpca")
        assert np.allclose(apply_one(op, np.ones(7)), 1.0, atol=1e-14)

    def test_single_row_hand_values(self):
        g = uniform_grid(3)  # weights 0.25, 0.5, 0.25
        kernel = np.zeros((3, 3))
        kernel[1] = [2.0, -1.0, 4.0]
        op = grid_operator(kernel, g, method="fpca")
        out = apply_one(op, [1.0, 3.0, 5.0])
        # row quadrature: 2*1*0.25 - 1*3*0.5 + 4*5*0.25
        assert out[1] == pytest.approx(0.5 - 1.5 + 5.0, rel=1e-14)
        assert out[0] == out[2] == 0.0

    def test_linearity(self, rng):
        g = uniform_grid(6)
        op = grid_operator(rng.standard_normal((6, 6)), g)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        expected = 1.5 * apply_one(op, x) - 0.3 * apply_one(op, y)
        got = apply_one(op, 1.5 * x - 0.3 * y)
        assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)

    def test_matrix_variant_matches_curve_variant(self, rng):
        g = uniform_grid(5)
        op = grid_operator(rng.standard_normal((5, 5)), g)
        values = rng.standard_normal((4, 5))
        rows = apply_kernel_matrix(op, values)
        for t in range(4):
            assert np.allclose(rows[t], apply_one(op, values[t]))

    def test_grid_mismatch(self):
        op = grid_operator(np.zeros((3, 3)), uniform_grid(3), method="fpca")
        with pytest.raises(GridError):
            apply_one(op, np.zeros(4))
        # the estimate of a stack holds one matrix per member
        stack = SpanCoordinates(np.zeros((2, 5, 3)), np.eye(3), unit_weight_grid(3), 3)
        stacked = OperatorEstimate(np.zeros((2, 3, 3)), stack, "fpca")
        with pytest.raises(GridError):
            apply_kernel_matrix(stacked, np.zeros((1, 3)))


def unweighted(psi, coords):
    """Grid kernel of an operator given in the sqrt-weighted representation."""
    return coords.kernel(coords.basis.T @ psi @ coords.basis)


class TestUnweightKernel:
    """``SpanCoordinates.kernel``: from an operator matrix back to a grid kernel."""

    def test_identity_weights(self, rng):
        g = unit_weight_grid(4)
        psi = rng.standard_normal((4, 4))
        identity = SpanCoordinates(np.zeros((2, 4)), np.eye(4), g, 4)
        assert np.array_equal(unweighted(psi, identity), psi)

    def test_uniform_grid_structure(self):
        g = uniform_grid(4)
        psi = np.ones((4, 4))
        kernel = unweighted(psi, rotation_coordinates(4, g))
        h = 1.0 / 3.0
        assert kernel[1, 2] == pytest.approx(1.0 / h, rel=1e-12)  # interior pair
        assert kernel[0, 0] == pytest.approx(2.0 / h, rel=1e-12)  # corner
        assert kernel[0, 1] == pytest.approx(np.sqrt(2.0) / h, rel=1e-12)

    def test_round_trip(self, rng):
        g = uniform_grid(6)
        psi = rng.standard_normal((6, 6))
        kernel = unweighted(psi, rotation_coordinates(6, g))
        sw = np.sqrt(g.weights)
        back = kernel * np.outer(sw, sw)
        assert np.abs(back - psi).max() <= 1e-12 * np.abs(psi).max()

    def test_nonpositive_weight_unconstructible(self):
        # grids enforce positive weights, so the invalid-weight case is
        # rejected at grid construction
        from farkit.grid import QuadratureGrid

        with pytest.raises(GridError):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
