import numpy as np
import pytest

import dense_reference
from conftest import moment_pair, random_spd, rotation_coordinates, unit_weight_grid
from farkit import tikhonov
from farkit.errors import DegenerateSpectrumError, InsufficientDataError, NumericalError
from farkit.evaluate import fit_methods
from farkit.fpca import eigendecompose, spectra
from farkit.grid import uniform_grid
from farkit.moments import (
    FunctionalSample,
    SpanCoordinates,
    WeightedMomentPair,
    span_coordinates,
    weighted_moments,
)
from farkit.tikhonov import HOLDOUT_ALPHAS, cv_select_alpha, tikhonov_fit


def run_cv(sample, scheme="holdout"):
    """``cv_select_alpha`` on a grid sample, with the decomposition it is given."""
    coords = span_coordinates(sample)
    return cv_select_alpha(coords, eigendecompose(weighted_moments(coords)), scheme)


def curve_arrays(result):
    """(alphas, losses) of a CvResult's loss curve."""
    return np.array(result.cv_curve).T


def per_block_cv(coords, scheme):
    """(selected alpha, losses) by the per-block route the stacked sweep replaced.

    Each training prefix gets its own ``eigendecompose``, and each strength
    one pass of a Python loop.
    """
    n = coords.n
    if scheme == "holdout":
        blocks = [np.arange(n - max(n // 5, 20), n)]
        alphas = HOLDOUT_ALPHAS
    else:
        blocks = np.array_split(np.arange(n), 5)[1:]
        alphas = eigendecompose(weighted_moments(coords)).eigenvalues[0] * np.logspace(-4, 1, 30)
    per_block = []
    for block in blocks:
        mom = weighted_moments(coords.subsample(0, int(block[0])))
        dec = eigendecompose(mom)
        z_tgt = coords.values[block] - mom.mean
        rotated_lags = (coords.values[block - 1] - mom.mean) @ dec.vectors
        b = mom.c1 @ dec.vectors
        const = float(np.sum(z_tgt**2))
        linear = np.sum((z_tgt @ b) * rotated_lags, axis=0)
        quad = (b.T @ b) * (rotated_lags.T @ rotated_lags)
        losses = np.empty(len(alphas))
        for i, alpha in enumerate(alphas):
            d = 1.0 / (dec.eigenvalues + alpha)
            losses[i] = (const - 2.0 * float(linear @ d) + float(d @ quad @ d)) / len(block)
        per_block.append(losses)
    losses = np.mean(per_block, axis=0)
    return float(alphas[np.max(np.nonzero(losses == losses.min())[0])]), losses


def naive_holdout_cv(sample, alphas):
    """Independent per-alpha dense-solve oracle for the holdout CV losses."""
    values = sample.values
    n, m = values.shape
    n_v = max(n // 5, 20)
    n_tr = n - n_v
    train = values[:n_tr]
    mean = train.mean(axis=0)
    centered = train - mean
    c0 = centered.T @ centered / n_tr
    c1 = centered[1:].T @ centered[:-1] / (n_tr - 1)
    sw = np.sqrt(sample.grid.weights)
    scale = np.outer(sw, sw)
    c0t, c1t = c0 * scale, c1 * scale
    losses = []
    for alpha in alphas:
        psi = np.linalg.solve((c0t + alpha * np.eye(m)).T, c1t.T).T
        total = 0.0
        for t in range(n_tr, n):
            z_lag = sw * (values[t - 1] - mean)
            z_tgt = sw * (values[t] - mean)
            total += float(np.sum((z_tgt - psi @ z_lag) ** 2))
        losses.append(total / n_v)
    return np.array(losses)


class TestTikhonovFit:
    def test_diagonal_case(self):
        d = np.array([4.0, 2.0, 1.0, 0.5])
        c = np.array([1.0, -2.0, 0.5, 3.0])
        pair = moment_pair(np.diag(d), np.diag(c))
        est = tikhonov_fit(rotation_coordinates(4), alpha=0.25, moments=pair)
        assert np.allclose(est.matrix, np.diag(c / (d + 0.25)), atol=1e-12)
        assert est.method == "tikhonov"
        assert est.tuning == {"alpha": 0.25}

    def test_zero_cross_moment(self, rng):
        coords = rotation_coordinates(5, uniform_grid(5))
        pair = moment_pair(random_spd(rng, 5), np.zeros((5, 5)))
        for alpha in (1e-4, 0.1, 10.0):
            assert np.allclose(tikhonov_fit(coords, alpha, moments=pair).kernel, 0.0)

    def test_dense_solve_oracle(self, rng):
        c0t = random_spd(rng, 8)
        c1t = rng.standard_normal((8, 8))
        pair = moment_pair(c0t, c1t)
        alpha = 0.1
        est = tikhonov_fit(rotation_coordinates(8), alpha, moments=pair)
        dense = np.linalg.solve((c0t + alpha * np.eye(8)).T, c1t.T).T
        got = est.matrix
        assert np.linalg.norm(got - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_alpha_must_be_positive(self, rng):
        pair = moment_pair(np.eye(3), np.eye(3))
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                tikhonov_fit(rotation_coordinates(3), alpha, moments=pair)

    def test_resolvent_norm_nonincreasing_in_alpha(self, rng):
        coords = rotation_coordinates(7)
        pair = moment_pair(random_spd(rng, 7), rng.standard_normal((7, 7)))
        norms = [
            np.linalg.norm(tikhonov_fit(coords, a, moments=pair).matrix, 2)
            for a in HOLDOUT_ALPHAS
        ]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_large_alpha_bound(self, rng):
        c0t = random_spd(rng, 6)
        c1t = rng.standard_normal((6, 6))
        pair = moment_pair(c0t, c1t)
        lam1 = np.linalg.eigvalsh(c0t).max()
        alpha = 1e6 * lam1
        norm = np.linalg.norm(tikhonov_fit(rotation_coordinates(6), alpha, moments=pair).matrix, 2)
        assert norm <= np.linalg.norm(c1t, 2) / alpha * (1 + 1e-10)


class TestAlphaGrids:
    def test_default_grid(self):
        assert len(HOLDOUT_ALPHAS) == 25
        assert HOLDOUT_ALPHAS[0] == pytest.approx(1e-5, rel=1e-12)
        assert HOLDOUT_ALPHAS[-1] == pytest.approx(1.0, rel=1e-12)
        ratios = HOLDOUT_ALPHAS[1:] / HOLDOUT_ALPHAS[:-1]
        assert np.allclose(ratios, 10 ** (5 / 24), rtol=1e-10)
        assert 10 ** (5 / 24) == pytest.approx(1.6156, abs=5e-5)

    def test_default_grid_rescaled(self, rng):
        # the holdout grid is fixed: rescaling the data leaves it alone
        values = rng.standard_normal((40, 5))
        for scale in (1.0, 10.0):
            alphas, _ = curve_arrays(run_cv(FunctionalSample(scale * values, uniform_grid(5))))
            assert np.array_equal(alphas, HOLDOUT_ALPHAS)

    def test_default_grid_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            HOLDOUT_ALPHAS[0] = 2.0

    def test_application_grid(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((60, 6)), uniform_grid(6)))
        dec = eigendecompose(weighted_moments(coords))
        alphas, _ = curve_arrays(cv_select_alpha(coords, dec, "k-fold-forward"))
        lam1 = dec.eigenvalues[0]
        assert len(alphas) == 30
        assert alphas[0] == pytest.approx(1e-4 * lam1, rel=1e-12)
        assert alphas[-1] == pytest.approx(10.0 * lam1, rel=1e-12)

    def test_application_grid_scales_with_lambda(self, rng):
        values = rng.standard_normal((60, 6))
        one, two = (
            curve_arrays(run_cv(FunctionalSample(c * values, uniform_grid(6)), "k-fold-forward"))[0]
            for c in (1.0, np.sqrt(2.0))
        )
        assert np.allclose(two, 2.0 * one, rtol=1e-12)
        assert np.all(np.diff(two) > 0)

    def test_alpha_grid_validation(self):
        # a zero spectrum fails either scheme, before the length check: the
        # forward grid has no scale, and every holdout loss would be zero
        zeros = FunctionalSample(np.zeros((30, 5)), uniform_grid(5))
        for scheme in ("holdout", "k-fold-forward"):
            with pytest.raises(DegenerateSpectrumError):
                run_cv(zeros, scheme)


def noiseless_far_sample(rng, n=60, m=15, radius=0.85):
    """Exact autoregression in weighted space: z_{t+1} = B z_t, no noise."""
    g = uniform_grid(m)
    b = rng.standard_normal((m, m))
    b *= radius / np.linalg.norm(b, 2)
    z = np.empty((n, m))
    z[0] = rng.standard_normal(m)
    for t in range(1, n):
        z[t] = b @ z[t - 1]
    return FunctionalSample(z / np.sqrt(g.weights), g)


class TestCvSelectAlpha:
    def test_noiseless_dynamics_avoid_heavy_regularization(self, rng):
        # exact transition data: the loss is regularization bias plus the
        # small exactness floor left by training-mean centering, so the top
        # decade of the grid is strictly dominated and never selected
        cv = run_cv(noiseless_far_sample(rng))
        losses = np.array([l for _, l in cv.cv_curve])
        assert np.all(np.diff(losses[-5:]) > 0)
        assert cv.selected_alpha < HOLDOUT_ALPHAS[20]
        assert losses[-1] > losses.min() * 1.02

    def test_white_noise_prefers_heavy_regularization(self, rng):
        g = uniform_grid(11)
        sample = FunctionalSample(rng.standard_normal((200, 11)), g)
        cv = run_cv(sample)
        assert cv.selected_alpha >= HOLDOUT_ALPHAS[12]

        from farkit.evaluate import misfe

        coords = span_coordinates(sample)
        test = FunctionalSample(rng.standard_normal((200, 11)), g)
        selected = misfe(tikhonov_fit(coords, cv.selected_alpha), test)
        overfit = misfe(tikhonov_fit(coords, HOLDOUT_ALPHAS[0]), test)
        assert selected <= overfit

    def test_fast_path_equals_naive_path(self, rng):
        g = uniform_grid(21)
        sample = FunctionalSample(rng.standard_normal((60, 21)), g)
        naive = naive_holdout_cv(sample, HOLDOUT_ALPHAS)
        fast = np.array([l for _, l in run_cv(sample).cv_curve])
        assert np.abs(fast - naive).max() <= 1e-9 * np.abs(naive).max()

    def test_holdout_split_record(self, rng):
        g = uniform_grid(5)
        sample = FunctionalSample(rng.standard_normal((100, 5)), g)
        cv = run_cv(sample)
        assert cv.scheme == "holdout"
        # the last 20 curves are validated from a dense refit on the first 80
        alpha, ref_alphas, ref_losses = dense_reference.cv_alpha(
            sample.values, g.weights, "holdout"
        )
        alphas, losses = curve_arrays(cv)
        assert np.array_equal(alphas, ref_alphas)
        assert np.abs(losses - ref_losses).max() <= 1e-9 * np.abs(ref_losses).max()
        assert cv.selected_alpha == alpha

    def test_flat_curve_ties_to_largest_alpha(self):
        # an all-constant sample has all-zero losses and nothing to select
        g = uniform_grid(5)
        with pytest.raises(DegenerateSpectrumError):
            run_cv(FunctionalSample(np.zeros((40, 5)), g))

    def test_deterministic(self, rng):
        g = uniform_grid(7)
        sample = FunctionalSample(rng.standard_normal((50, 7)), g)
        a = run_cv(sample)
        b = run_cv(sample)
        assert a.selected_alpha == b.selected_alpha
        assert a.cv_curve == b.cv_curve

    def test_kfold_forward_runs_and_differs_from_holdout(self, rng):
        g = uniform_grid(9)
        sample = FunctionalSample(rng.standard_normal((80, 9)), g)
        cv = run_cv(sample, "k-fold-forward")
        assert cv.scheme == "k-fold-forward"
        # fold 1 is training-only; folds 2..5 are validated, each from a
        # dense refit on the curves before it
        alpha, ref_alphas, ref_losses = dense_reference.cv_alpha(
            sample.values, g.weights, "k-fold-forward"
        )
        alphas, losses = curve_arrays(cv)
        assert np.abs(alphas - ref_alphas).max() <= 1e-9 * ref_alphas.max()
        assert np.abs(losses - ref_losses).max() <= 1e-9 * np.abs(ref_losses).max()
        assert cv.selected_alpha == pytest.approx(alpha, rel=1e-9)

    def test_sample_too_short(self, rng):
        g = uniform_grid(4)
        with pytest.raises(InsufficientDataError):
            run_cv(FunctionalSample(rng.standard_normal((20, 4)), g))
        with pytest.raises(InsufficientDataError):
            run_cv(FunctionalSample(rng.standard_normal((30, 4)), g), "k-fold-forward")

    def test_unknown_scheme(self, rng):
        g = uniform_grid(4)
        with pytest.raises(ValueError):
            run_cv(FunctionalSample(rng.standard_normal((40, 4)), g), "loo")


def constant_prefix_sample(rng, n=60, m=9):
    """A sample whose first forward fold (the first n // 5 curves) is one repeated curve."""
    values = rng.standard_normal((n, m))
    values[: n // 5] = values[0] + 3.7
    return FunctionalSample(values, uniform_grid(m))


class TestStackedSweep:
    """The stacked sweep against the per-block route it replaced."""

    @pytest.mark.parametrize("scheme", ["holdout", "k-fold-forward"])
    def test_matches_per_block_route(self, rng, scheme):
        samples = [
            FunctionalSample(rng.standard_normal((n, m)), uniform_grid(m))
            for n, m in ((40, 5), (60, 12), (97, 21), (150, 8))
        ]
        if scheme == "k-fold-forward":
            samples.append(constant_prefix_sample(np.random.default_rng(0)))
        for sample in samples:
            coords = span_coordinates(sample)
            cv = cv_select_alpha(coords, eigendecompose(weighted_moments(coords)), scheme)
            alpha, ref = per_block_cv(coords, scheme)
            _, losses = curve_arrays(cv)
            assert np.abs(losses - ref).max() <= 1e-12 * np.abs(ref).max()
            assert cv.selected_alpha == alpha

    def test_constant_first_prefix_has_zero_spectrum(self):
        # the prefix's coordinates differ by rounding only; the 8-ulp rule in
        # weighted_moments zeroes them, so the block sees a zero spectrum
        coords = span_coordinates(constant_prefix_sample(np.random.default_rng(0)))
        prefix = coords.values[:12]
        assert np.abs(prefix - prefix.mean(axis=0)).max() > 0
        assert not np.any(weighted_moments(coords.subsample(0, 12)).c0)

    def test_stack_ties_go_to_the_largest_alpha_per_member(self, rng):
        # holdout on 60 curves validates the last 20 from the first 40. Member 0's
        # training curves are integers with zero sums and its validation lags are
        # zero, i.e. exactly the training mean: every strength forecasts the
        # same, so its losses tie across the grid. Member 1 is noise.
        m = 6
        tied = np.zeros((60, m))
        noise = rng.integers(-3, 4, (19, m)).astype(float)
        tied[:19], tied[19:38] = noise, -noise
        tied[59] = rng.integers(1, 4, m)
        stack = SpanCoordinates(
            np.stack([tied, rng.standard_normal((60, m))]), np.eye(m), unit_weight_grid(m), m
        )
        results = tikhonov._cv_select(stack, spectra(weighted_moments(stack)), "holdout")
        tied_losses, noise_losses = (curve_arrays(result)[1] for result in results)
        assert np.all(tied_losses == tied_losses[0]) and tied_losses[0] > 0
        assert np.count_nonzero(noise_losses == noise_losses.min()) == 1
        assert results[0].selected_alpha == HOLDOUT_ALPHAS[-1]
        assert results[1].selected_alpha == HOLDOUT_ALPHAS[np.argmin(noise_losses)]
        for result, member in zip(results, stack.members()):
            alone = cv_select_alpha(member, eigendecompose(weighted_moments(member)), "holdout")
            assert result.selected_alpha == alone.selected_alpha
            assert result.cv_curve == alone.cv_curve

    @pytest.mark.parametrize("scheme", ["holdout", "k-fold-forward"])
    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda c0: c0 + np.triu(np.abs(c0).max() * np.ones_like(c0), 1), "not symmetric"),
            (lambda c0: -c0, "below the PSD tolerance"),
        ],
        ids=["asymmetric", "negative"],
    )
    def test_fold_spectrum_failure_is_a_numerical_error_outcome(
        self, rng, monkeypatch, scheme, fault, message
    ):
        # only the training prefixes are broken: the sample's own spectrum,
        # computed in evaluate, stays valid
        def faulty_moments(coords):
            mom = weighted_moments(coords)
            return WeightedMomentPair(fault(mom.c0), mom.c1, mom.mean)

        monkeypatch.setattr(tikhonov, "weighted_moments", faulty_moments)
        coords = span_coordinates(FunctionalSample(rng.standard_normal((60, 6)), uniform_grid(6)))
        cv, fixed = fit_methods(coords, ["tikhonov:cv", "tikhonov:0.1"], cv_scheme=scheme)
        assert cv.estimate is None
        assert cv.error.startswith(f"{NumericalError.__name__}: ")
        assert message in cv.error
        assert fixed.error is None
