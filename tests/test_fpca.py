import numpy as np
import pytest

from conftest import moment_pair, random_spd
from farkit.errors import (
    DegenerateSpectrumError,
    InsufficientDataError,
    NumericalError,
    SingularSystemError,
)
from farkit.fpca import (
    SpectralDecomposition,
    checked_eigh,
    eigendecompose,
    fpca_far_fit,
    select_k,
)
from farkit.grid import uniform_grid
from farkit.moments import (
    FunctionalSample,
    apply_kernel_matrix,
    span_coordinates,
    weighted_moments,
)
from farkit.tikhonov import tikhonov_fit

PM10_SHARES = np.array([0.804, 0.091, 0.043, 0.03, 0.012, 0.008, 0.007, 0.005])


class TestEigendecompose:
    def test_identity(self):
        dec = eigendecompose(moment_pair(np.eye(4), np.zeros((4, 4))))
        assert np.allclose(dec.eigenvalues, 1.0)
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.T
        assert np.abs(recon - np.eye(4)).max() <= 1e-8

    def test_diagonal(self):
        dec = eigendecompose(moment_pair(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3))))
        assert np.allclose(dec.eigenvalues, [3, 2, 1])
        assert np.allclose(np.abs(dec.vectors), np.eye(3), atol=1e-12)

    def test_random_psd_reconstruction(self, rng):
        c0 = random_spd(rng, 6)
        dec = eigendecompose(moment_pair(c0, np.zeros((6, 6))))
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.T
        assert np.linalg.norm(recon - c0) <= 1e-8 * np.linalg.norm(c0)
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(6)).max() <= 1e-8
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_eigenfunctions_unit_l2_norm(self, rng):
        g = uniform_grid(9)
        coords = span_coordinates(FunctionalSample(rng.standard_normal((25, 9)), g))
        dec = eigendecompose(weighted_moments(coords))
        phi = coords.decode(dec.vectors.T)  # eigenfunction k in row k
        for k in range(4):
            assert np.sqrt(phi[k] ** 2 @ g.weights) == pytest.approx(1.0, abs=1e-8)

    def test_small_negative_eigenvalues_clamped(self):
        eps = 1e-12
        c0 = np.array([[1.0, 0.0], [0.0, -eps]])
        dec = eigendecompose(moment_pair(c0, np.zeros((2, 2))))
        assert dec.eigenvalues[-1] == 0.0

    def test_genuinely_negative_raises(self):
        c0 = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NumericalError):
            eigendecompose(moment_pair(c0, np.zeros((2, 2))))

    def test_asymmetric_raises(self):
        c0 = np.array([[1.0, 0.4], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            eigendecompose(moment_pair(c0, np.zeros((2, 2))))


class TestCheckedEigh:
    def stack(self, rng):
        # full-rank members of several scales, a rank-deficient one whose
        # rounding-level eigenvalues are clamped, and a zero matrix
        x = rng.standard_normal((3, 6))
        members = [random_spd(rng, 6, scale) for scale in (1.0, 1e-3, 50.0)]
        return np.stack(members + [x.T @ x / 3, np.zeros((6, 6))])

    def test_stack_equals_single_decompositions_bit_for_bit(self, rng):
        c0s = self.stack(rng)
        lam, vectors = checked_eigh(c0s)
        for i, c0 in enumerate(c0s):
            dec = eigendecompose(moment_pair(c0, np.zeros((6, 6))))
            assert np.array_equal(lam[i], dec.eigenvalues)
            assert np.array_equal(vectors[i], dec.vectors)

    def test_one_asymmetric_member_raises(self, rng):
        # each member is checked on its own scale: this asymmetry is within
        # the tolerance of the largest member, not of its own
        c0s = self.stack(rng)
        c0s[1, 0, 1] += 1e-6 * np.abs(c0s[1]).max()
        with pytest.raises(NumericalError, match="not symmetric"):
            checked_eigh(c0s)

    def test_one_member_below_psd_floor_raises(self, rng):
        # the small member gets an eigenvalue at -1e-8 of its own leading one,
        # which the largest member's floor would let pass
        c0s = self.stack(rng)
        lam, vectors = np.linalg.eigh(c0s[1])
        lam[0] = -1e-8 * lam[-1]
        c0s[1] = (vectors * lam) @ vectors.T
        with pytest.raises(NumericalError, match="below the PSD tolerance"):
            checked_eigh(c0s)


class TestSelectK:
    def test_pm10_spectrum_case_list(self):
        assert select_k(PM10_SHARES, 0.80) == 1
        assert select_k(PM10_SHARES, 0.85) == 2
        assert select_k(PM10_SHARES, 0.90) == 3
        assert select_k(PM10_SHARES, 0.95) == 4
        assert select_k(PM10_SHARES, 0.99) == 7

    def test_single_eigenvalue(self):
        for tau in (0.1, 0.5, 1.0):
            assert select_k([1.0], tau) == 1

    def test_equal_quarters(self):
        assert select_k([0.25, 0.25, 0.25, 0.25], 0.6) == 3

    def test_monotone_in_tau(self, rng):
        lam = np.sort(rng.uniform(0, 1, 10))[::-1]
        ks = [select_k(lam, t) for t in np.linspace(0.05, 1.0, 30)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            select_k([0.0, 0.0], 0.9)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            select_k([1.0], 0.0)
        with pytest.raises(ValueError):
            select_k([1.0], 1.2)


def ar1_like_sample(rng, n, direction, coeff=0.0, noise=1.0):
    """Curves proportional to one fixed function with AR(1) coefficients."""
    m = direction.size
    g = uniform_grid(m)
    xi = np.empty(n)
    xi[0] = rng.standard_normal()
    for t in range(1, n):
        xi[t] = coeff * xi[t - 1] + noise * rng.standard_normal()
    return FunctionalSample(np.outer(xi, direction), g), xi


def fitted_scalar_coefficient(est, direction):
    """<phi, Psi phi> / <phi, phi> for a rank-one fit along the curve ``direction``."""
    w = est.coordinates.grid.weights
    image = apply_kernel_matrix(est, direction[None, :])[0]
    return (direction * image) @ w / ((direction * direction) @ w)


class TestFpcaFarFit:
    def test_independent_scores_give_no_dynamics(self, rng):
        direction = np.sin(2 * np.pi * np.linspace(0, 1, 21)) + 1.2
        sample, _ = ar1_like_sample(rng, 500, direction, coeff=0.0)
        est = fpca_far_fit(span_coordinates(sample), k=1)
        unit = direction / np.linalg.norm(direction)
        assert abs(fitted_scalar_coefficient(est, unit)) < 0.12

    def test_scalar_ar_recovery(self, rng):
        direction = np.cos(2 * np.pi * np.linspace(0, 1, 15)) + 2.0
        sample, _ = ar1_like_sample(rng, 400, direction, coeff=0.5)
        est = fpca_far_fit(span_coordinates(sample), k=1)
        assert est.tuning == {"k": 1}
        unit = direction / np.linalg.norm(direction)
        assert fitted_scalar_coefficient(est, unit) == pytest.approx(0.5, abs=0.1)

    def test_prediction_equivalence_oracle(self, rng):
        # independent score-space route: score a curve, advance the scores
        # with the moment-form coefficient matrix, re-expand
        g = uniform_grid(12)
        sample = FunctionalSample(rng.standard_normal((60, 12)), g)
        k = 4
        est = fpca_far_fit(span_coordinates(sample), k=k)

        # weighted grid moments, computed here with numpy alone
        z = (sample.values - sample.values.mean(axis=0)) * np.sqrt(g.weights)
        c0t = z.T @ z / 60
        c1t = z[1:].T @ z[:-1] / 59
        lam, q = np.linalg.eigh((c0t + c0t.T) / 2)
        lam, q = lam[::-1][:k], q[:, ::-1][:, :k]
        phi = q / np.sqrt(g.weights)[:, None]
        a_pred = (q.T @ c1t @ q) / lam[None, :]

        x = rng.standard_normal(12)
        scores = phi.T @ (g.weights * x)
        oracle = phi @ (a_pred @ scores)
        got = apply_kernel_matrix(est, x[None, :])[0]
        assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_rank_at_most_k(self, rng):
        g = uniform_grid(10)
        coords = span_coordinates(FunctionalSample(rng.standard_normal((50, 10)), g))
        for k in (1, 3, 5):
            est = fpca_far_fit(coords, k=k)
            sw = np.sqrt(g.weights)
            weighted = est.kernel * np.outer(sw, sw)
            svals = np.linalg.svd(weighted, compute_uv=False)
            assert np.all(svals[k:] <= 1e-8 * svals[0])

    def test_sign_flip_invariance(self, rng):
        g = uniform_grid(8)
        coords = span_coordinates(FunctionalSample(rng.standard_normal((40, 8)), g))
        dec = eigendecompose(weighted_moments(coords))
        flipped = SpectralDecomposition(
            dec.eigenvalues, dec.vectors * np.array([1, -1, 1, -1, 1, 1, -1, 1]), dec.moments
        )
        a = fpca_far_fit(coords, k=3, decomposition=dec).kernel
        b = fpca_far_fit(coords, k=3, decomposition=flipped).kernel
        assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

    def test_full_rank_matches_vanishing_ridge(self, rng):
        g = uniform_grid(7)
        sample = FunctionalSample(rng.standard_normal((35, 7)), g)
        coords = span_coordinates(sample)
        dec = eigendecompose(weighted_moments(coords))
        full = fpca_far_fit(coords, k=7, decomposition=dec)
        ridge = tikhonov_fit(coords, 1e-12 * dec.eigenvalues[0], decomposition=dec)
        x = sample.values[-1:]
        a = apply_kernel_matrix(full, x)
        b = apply_kernel_matrix(ridge, x)
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)

    def test_tau_resolves_k_and_records_both(self, rng):
        g = uniform_grid(10)
        coords = span_coordinates(FunctionalSample(rng.standard_normal((80, 10)), g))
        est = fpca_far_fit(coords, tau=0.9)
        assert est.method == "fpca"
        assert est.tuning["tau"] == 0.9
        dec = eigendecompose(weighted_moments(coords))
        assert est.tuning["k"] == select_k(dec.eigenvalues, 0.9)

    def test_scores_shape_and_quadrature(self, rng):
        g = uniform_grid(9)
        sample = FunctionalSample(rng.standard_normal((20, 9)), g)
        coords = span_coordinates(sample)
        dec = eigendecompose(weighted_moments(coords))
        # the component scores are the centred coordinates in the eigenbasis
        scores = coords.values @ dec.vectors[:, :3]
        assert scores.shape == (20, 3)
        xbar = sample.values.mean(axis=0)
        phi0 = coords.decode(dec.vectors[:, 0])
        expected = (sample.values[5] - xbar) * phi0 @ g.weights
        assert scores[5, 0] == pytest.approx(expected, rel=1e-10)

    def test_k_beyond_grid_raises(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((30, 5)), uniform_grid(5)))
        with pytest.raises(ValueError):
            fpca_far_fit(coords, k=6)

    def test_needs_k_plus_two_curves(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((5, 8)), uniform_grid(8)))
        with pytest.raises(InsufficientDataError):
            fpca_far_fit(coords, k=4)

    def test_singular_gram_raises(self):
        g = uniform_grid(6)
        values = np.tile(np.linspace(1.0, 2.0, 6), (12, 1))
        values[::2] *= 2.0  # rank-one fluctuations: spectrum has one positive value
        coords = span_coordinates(FunctionalSample(values, g))
        with pytest.raises(SingularSystemError):
            fpca_far_fit(coords, k=3)

    def test_exactly_one_truncation_argument(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((20, 4)), uniform_grid(4)))
        with pytest.raises(ValueError):
            fpca_far_fit(coords)
        with pytest.raises(ValueError):
            fpca_far_fit(coords, tau=0.9, k=2)

    def test_grid_sample_is_projected_first(self, rng):
        sample = FunctionalSample(rng.standard_normal((40, 12)), uniform_grid(12))
        a = fpca_far_fit(sample, k=2)
        b = fpca_far_fit(span_coordinates(sample), k=2)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.coordinates.basis, b.coordinates.basis)
