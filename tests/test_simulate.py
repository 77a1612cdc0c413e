import numpy as np
import pytest

from farkit.errors import InsufficientDataError
from farkit.grid import uniform_grid
from farkit.simulate import (
    BURN_IN,
    REGIMES,
    RegimeSpec,
    TrueOperator,
    draw_regime_operator,
    fourier_basis,
    innovation_eigenvalues,
    operator_kernel,
    simulate_far1,
    simulate_states,
)


class TestRegimePresets:
    def test_block_sizes_and_decays(self):
        assert REGIMES["I"].block_size == 3
        assert REGIMES["II"].block_size == 10
        assert REGIMES["III"].block_size == 25
        assert REGIMES["I"].innovation_decay == 2.0
        assert REGIMES["II"].innovation_decay == 1.0
        assert REGIMES["III"].innovation_decay == 0.6
        assert REGIMES["III"].within_block_decay == 0.3
        for spec in REGIMES.values():
            assert spec.basis_dim == 40
            assert spec.grid_points == 101
            assert spec.operator_norm_target == 0.85
            assert spec.innovation_total_variance == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RegimeSpec(block_size=50, within_block_decay=0, innovation_decay=1)
        with pytest.raises(ValueError):
            RegimeSpec(block_size=3, within_block_decay=0, innovation_decay=1,
                       operator_norm_target=1.2)


class TestFourierBasis:
    def test_first_row_constant(self):
        basis = fourier_basis(5, uniform_grid(33))
        assert np.allclose(basis[0], 1.0)

    def test_values_at_zero(self):
        basis = fourier_basis(3, uniform_grid(11))
        assert basis[0, 0] == 1.0
        assert basis[1, 0] == pytest.approx(np.sqrt(2.0))  # cosine row
        assert basis[2, 0] == pytest.approx(0.0, abs=1e-15)  # sine row

    def test_quadrature_orthonormality(self):
        g = uniform_grid(101)
        basis = fourier_basis(10, g)
        gram = (basis * g.weights) @ basis.T
        assert np.abs(gram - np.eye(10)).max() <= 5e-3

    @pytest.mark.parametrize("name", REGIMES)
    def test_exact_quadrature_on_regime_grid(self, name):
        # the benchmark fits and scores paths in their Fourier coefficients,
        # which equals the grid computation only while this holds
        spec = REGIMES[name]
        g = spec.make_grid()
        basis = fourier_basis(spec.basis_dim, g)
        gram = (basis * g.weights) @ basis.T
        assert np.abs(gram - np.eye(spec.basis_dim)).max() <= 1e-13


class TestDrawRegimeOperator:
    def test_norm_target_and_stationarity(self):
        for name, spec in REGIMES.items():
            op = draw_regime_operator(spec, seed=123)
            assert op.operator_norm == pytest.approx(0.85, rel=1e-10)
            assert np.linalg.norm(op.coefficients, 2) == pytest.approx(0.85, rel=1e-10)
            assert op.spectral_radius <= 0.85 * (1 + 1e-10)

    def test_block_support(self):
        op = draw_regime_operator(REGIMES["I"], seed=5)
        coeff = op.coefficients
        assert np.any(coeff[:3, :3] != 0)
        assert np.all(coeff[3:, :] == 0)
        assert np.all(coeff[:, 3:] == 0)

    def test_support_outside_block_rejected(self):
        op = draw_regime_operator(REGIMES["I"], seed=5)
        coeff = op.coefficients.copy()
        coeff[3, 0] = 0.1
        with pytest.raises(ValueError):
            TrueOperator(coeff, op.spec, op.operator_norm, op.spectral_radius)

    def test_deterministic(self):
        a = draw_regime_operator(REGIMES["II"], seed=77)
        b = draw_regime_operator(REGIMES["II"], seed=77)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_column_decay_applied(self):
        spec = REGIMES["III"]
        op = draw_regime_operator(spec, seed=9)
        flat = draw_regime_operator(
            RegimeSpec(block_size=25, within_block_decay=0.0, innovation_decay=0.6),
            seed=9,
        )
        b = spec.block_size
        ratio = np.abs(op.coefficients[:b, :b]) / np.abs(flat.coefficients[:b, :b])
        # decay scales whole columns: ratio is constant down each column and
        # proportional to k**-0.3 across columns
        col = ratio[:, 1:] / ratio[:, 1:].mean(axis=0)
        assert np.allclose(col, 1.0, atol=1e-10)
        profile = ratio.mean(axis=0)
        expected = np.arange(1, b + 1.0) ** -0.3
        assert np.allclose(profile / profile[0], expected / expected[0], rtol=1e-10)


class TestInnovationEigenvalues:
    def test_two_component_hand_case(self):
        spec = RegimeSpec(
            block_size=1, within_block_decay=0.0, innovation_decay=1.0,
            basis_dim=2, innovation_total_variance=0.5,
        )
        sig = innovation_eigenvalues(spec)
        assert np.allclose(sig, [1.0 / 3.0, 1.0 / 6.0], rtol=1e-14)

    def test_positive_and_decreasing(self):
        for spec in REGIMES.values():
            sig = innovation_eigenvalues(spec)
            assert np.all(sig > 0)
            assert np.all(np.diff(sig) < 0)

    def test_total_variance_normalization(self):
        sig = innovation_eigenvalues(REGIMES["I"])
        assert abs(sig.sum() - 0.5) <= 1e-12


class TestSimulateFar1:
    def test_near_zero_innovations_give_near_zero_paths(self):
        spec = RegimeSpec(
            block_size=3, within_block_decay=0.0, innovation_decay=2.0,
            innovation_total_variance=1e-30,
        )
        op = draw_regime_operator(spec, seed=1)
        sample = simulate_far1(op, spec, 20, seed=2)
        assert np.abs(sample.values).max() <= 1e-10

    def test_scalar_stationary_variance(self):
        spec = RegimeSpec(
            block_size=1, within_block_decay=0.0, innovation_decay=2.0,
            basis_dim=1, innovation_total_variance=1.0, grid_points=5,
        )
        op = draw_regime_operator(spec, seed=3)
        assert abs(abs(op.coefficients[0, 0]) - 0.85) <= 1e-12
        sample = simulate_far1(op, spec, 20000, seed=4)
        # J=1: every curve is constant at its coefficient value
        scores = sample.values[:, 0]
        target = 1.0 / (1.0 - 0.85**2)
        assert np.var(scores) == pytest.approx(target, rel=0.05)

    def test_var_recovery_from_path(self):
        # the dynamics live on the leading block; regressing its scores
        # recovers the block coefficients (the remaining components are
        # independent noise whose near-zero variance makes their own
        # least-squares coefficients uninformative at any feasible n)
        spec = REGIMES["I"]
        op = draw_regime_operator(spec, seed=11)
        sample = simulate_far1(op, spec, 5000, seed=12)
        g = sample.grid
        b = spec.block_size
        basis = fourier_basis(spec.basis_dim, g)
        scores = (sample.values * g.weights) @ basis.T[:, :b]
        a_hat, *_ = np.linalg.lstsq(scores[:-1], scores[1:], rcond=None)
        block = op.coefficients[:b, :b]
        assert np.linalg.norm(a_hat.T - block, 2) <= 0.05

    def test_bounded_moments_along_long_path(self):
        spec = REGIMES["III"]
        op = draw_regime_operator(spec, seed=21)
        sample = simulate_far1(op, spec, 10000, seed=22)
        sq_norms = (sample.values**2) @ sample.grid.weights
        assert sq_norms.max() <= 100.0 * sq_norms.mean()

    def test_seed_reproducibility(self):
        spec = REGIMES["II"]
        op = draw_regime_operator(spec, seed=31)
        a = simulate_far1(op, spec, 50, seed=32)
        b = simulate_far1(op, spec, 50, seed=32)
        assert np.array_equal(a.values, b.values)
        c = simulate_far1(op, spec, 50, seed=33)
        assert not np.array_equal(a.values, c.values)

    def test_burn_in_reaches_stationarity(self):
        # exact second-moment recursion: after the burn-in the transient
        # state covariance is indistinguishable from the stationary one
        spec = REGIMES["I"]
        op = draw_regime_operator(spec, seed=41)
        a = op.coefficients
        j = spec.basis_dim
        sig = np.diag(innovation_eigenvalues(spec))
        transient = np.zeros((j, j))
        for _ in range(BURN_IN + 1):
            transient = a @ transient @ a.T + sig
        stationary = np.linalg.solve(
            np.eye(j * j) - np.kron(a, a), sig.ravel()
        ).reshape(j, j)
        gap = np.trace(stationary - transient) / np.trace(stationary)
        assert 0 <= gap <= 0.02

        # Monte Carlo cross-check: mean squared norm of the first retained
        # curve agrees with the stationary trace within sampling error
        total = np.trace(stationary)
        draws = np.array(
            [
                (simulate_far1(op, spec, 2, seed=1000 + r).values[0] ** 2)
                @ uniform_grid(spec.grid_points).weights
                for r in range(200)
            ]
        )
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - total) <= 4 * stderr

    def test_too_short(self):
        spec = REGIMES["I"]
        op = draw_regime_operator(spec, seed=51)
        with pytest.raises(InsufficientDataError):
            simulate_far1(op, spec, 1, seed=52)


class TestSimulateStates:
    @pytest.mark.parametrize("name", REGIMES)
    def test_matches_full_recursion(self, name):
        # reference: the full J x J recursion of one seed at a time
        spec = REGIMES[name]
        op = draw_regime_operator(spec, seed=71)
        seeds = [np.random.default_rng(72 + r).integers(2**32) for r in range(3)]
        states = simulate_states(op, spec, 30, seeds)
        assert states.shape == (3, 30, spec.basis_dim)
        sigma = np.sqrt(innovation_eigenvalues(spec))
        for r, seed in enumerate(seeds):
            noise = np.random.default_rng(seed).standard_normal((BURN_IN + 30, spec.basis_dim))
            xi = np.zeros(spec.basis_dim)
            path = []
            for step in noise * sigma:
                xi = op.coefficients @ xi + step
                path.append(xi)
            expected = np.array(path[BURN_IN:])
            gap = np.abs(states[r] - expected).max()
            assert gap <= 1e-14 * np.abs(expected).max()
            # outside the block the states are the innovations themselves
            b = spec.block_size
            assert np.array_equal(states[r, :, b:], (noise * sigma)[BURN_IN:, b:])

    @pytest.mark.parametrize("name", REGIMES)
    @pytest.mark.parametrize("count", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [40, BURN_IN, 2 * BURN_IN + 37])
    def test_bits_of_the_row_major_batch_recursion(self, name, count, n):
        # reference: the whole batch stepped one row at a time, with the
        # same products on the same operands, so the bits must agree
        spec = REGIMES[name]
        op = draw_regime_operator(spec, seed=91)
        seeds = [np.random.SeedSequence([91, count, n, r]) for r in range(count)]
        j, b = spec.basis_dim, spec.block_size
        sigma = np.sqrt(innovation_eigenvalues(spec))
        noise = np.stack(
            [np.random.default_rng(seed).standard_normal((BURN_IN + n, j)) for seed in seeds]
        )
        noise *= sigma
        expected = noise[:, BURN_IN:].copy()
        block_t = op.coefficients[:b, :b].T
        xi = np.zeros((count, b))
        for t in range(BURN_IN):
            xi = xi @ block_t + noise[:, t, :b]
        for t in range(n):
            xi = xi @ block_t + expected[:, t, :b]
            expected[:, t, :b] = xi
        assert np.array_equal(simulate_states(op, spec, n, seeds), expected)

    def test_batch_rows_match_one_seed(self):
        spec = REGIMES["III"]
        op = draw_regime_operator(spec, seed=81)
        seeds = [np.random.SeedSequence([81, r]) for r in range(4)]
        batch = simulate_states(op, spec, 40, seeds)
        basis = fourier_basis(spec.basis_dim, spec.make_grid())
        for r, seed in enumerate(seeds):
            one = simulate_states(op, spec, 40, [seed])[0]
            assert np.abs(batch[r] - one).max() <= 1e-14 * np.abs(one).max()
            grid_path = simulate_far1(op, spec, 40, seed).values
            assert np.abs(batch[r] @ basis - grid_path).max() <= 1e-14 * np.abs(grid_path).max()


class TestOperatorKernel:
    def test_exact_forecast_on_noiseless_dynamics(self):
        # curves built from the coefficient recursion with no noise are
        # reproduced exactly by quadrature application of the true kernel
        spec = REGIMES["II"]
        op = draw_regime_operator(spec, seed=61)
        rng = np.random.default_rng(62)
        g = spec.make_grid()
        basis = fourier_basis(spec.basis_dim, g)
        xi = rng.standard_normal(spec.basis_dim)
        states = [xi]
        for _ in range(5):
            states.append(op.coefficients @ states[-1])
        values = np.array(states) @ basis
        kernel = operator_kernel(op, g)
        preds = (values[:-1] * g.weights) @ kernel.kernel.T
        assert np.abs(preds - values[1:]).max() <= 1e-10
