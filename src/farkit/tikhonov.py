"""Ridge-regularized operator estimation with cross-validated strength.

Instead of truncating the covariance spectrum, every direction is kept and
small eigenvalues are damped through (C0 + alpha I)^{-1}. The ridge
strength alpha is selected by one-step-ahead cross-validation. A scheme
fixes the whole selection: its validation blocks, the shortest sample it
accepts and its candidate grid. The training covariances of all of a
sample's blocks are eigendecomposed together, in one stacked call. In
that spectrum the ridge acts as the filter 1 / (lambda + alpha), so each
block then scores its whole grid with one matrix product on the rotated
validation data.

The fit and the sweep also take a stack of samples in shared coordinates
along a leading axis (``SpanCoordinates``), as the rolling backtest fits
its windows and the Monte Carlo benchmark its full-rank replications:
then the training covariances of every member's blocks share the
``eigh`` call. ``cv_select_alpha`` stays a one-sample function
over the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InsufficientDataError, NumericalError
from .fpca import SpectralDecomposition, checked_eigh, spectra
from .moments import OperatorEstimate, SpanCoordinates, WeightedMomentPair, weighted_moments

__all__ = [
    "HOLDOUT_ALPHAS",
    "CvResult",
    "tikhonov_fit",
    "cv_select_alpha",
]

# the holdout scheme's candidates: 25 log-spaced strengths from 1e-5 to 1
HOLDOUT_ALPHAS = np.logspace(-5.0, 0.0, 25)
HOLDOUT_ALPHAS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CvResult:
    """Outcome of a cross-validation sweep over a scheme's strength grid."""

    selected_alpha: float
    cv_curve: tuple  # ((alpha, validation loss), ...) in grid order
    scheme: str


def tikhonov_fit(
    coords: SpanCoordinates,
    alpha,
    *,
    moments: WeightedMomentPair | None = None,
    decomposition: SpectralDecomposition | None = None,
):
    """Ridge estimate of the autoregression operator at a fixed strength.

    Computes C1 (C0 + alpha I)^{-1} in span coordinates through the
    spectral decomposition of C0. Precomputed moments of ``coords`` and
    the decomposition of their ``c0`` skip the O(r^3) work. A stack is
    fitted at one strength or at one strength per member.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not (alpha > 0).all():
        raise ValueError(f"ridge strength must be positive, got {alpha}")
    if moments is None:
        moments = weighted_moments(coords)
    if decomposition is None:
        decomposition = spectra(moments)
    lam = decomposition.eigenvalues
    q = decomposition.vectors
    filters = (lam + alpha[..., None])[..., None, :]
    psi = ((moments.c1 @ q) / filters) @ q.swapaxes(-1, -2)
    return coords.per_member(
        lambda member, matrix, a: OperatorEstimate(
            matrix, member, method="tikhonov", tuning={"alpha": a}
        ),
        psi,
        (np.zeros(lam.shape[:-1]) + alpha).tolist(),
    )


def _block_losses(mom: WeightedMomentPair, lam, q, lag_values, target_values, alphas):
    """Mean squared one-step errors of one validation block, one per alpha.

    ``mom`` holds the training moments and ``lam``, ``q`` the spectrum of
    their ``c0``. Lags and targets are centred at the training mean before
    rotation, because the fitted operator models fluctuations around that
    mean. With ``B = C1 Q``, ``r = Q^T lag`` and the ridge filter
    ``d_a = 1 / (lam + alpha_a)``, the error ``||z - B diag(d_a) r||^2``
    expands into a constant, a linear and a quadratic form in ``d_a``, so
    the filters of all strengths, stacked as the rows of one (A, r)
    matrix, are scored by one matrix product. Every argument may carry
    the leading axis of a stack, and the losses then carry it too.
    """
    mean = mom.mean[..., None, :]
    z_tgt = target_values - mean
    rotated_lags = (lag_values - mean) @ q
    b = mom.c1 @ q

    const = np.sum(z_tgt**2, axis=(-2, -1))
    linear = np.sum((z_tgt @ b) * rotated_lags, axis=-2)
    quad = (b.swapaxes(-1, -2) @ b) * (rotated_lags.swapaxes(-1, -2) @ rotated_lags)

    d = 1.0 / (lam[..., None, :] + alphas[..., :, None])
    losses = const[..., None] - 2.0 * (d @ linear[..., None])[..., 0]
    return (losses + np.einsum("...ar,...ar->...a", d @ quad, d)) / target_values.shape[-2]


def _last_minimum(losses):
    """Index of the smallest loss in each row; exact ties go to the last, the larger alpha."""
    if np.isnan(losses).any():
        raise NumericalError("cross-validation losses are not numbers")
    return losses.shape[-1] - 1 - losses[..., ::-1].argmin(axis=-1)


def cv_select_alpha(
    coords: SpanCoordinates,
    decomposition: SpectralDecomposition,
    scheme: str = "holdout",
) -> CvResult:
    """Pick the ridge strength by one-step-ahead cross-validation.

    Both deterministic schemes are forward splits: each validation block
    is predicted one step ahead, every curve from its actual predecessor,
    by a fit on all curves strictly before the block, and the per-block
    mean losses are averaged.

    ``holdout``
        One block: the last max(floor(0.2 n), 20) curves, over the fixed
        ``HOLDOUT_ALPHAS``. Requires n >= 30.

    ``k-fold-forward``
        The sample is split into 5 contiguous, chronologically ordered
        folds; every fold after the first is a block (the first fold only
        ever serves as training data). The 30 candidates span 1e-4 to 10
        times the leading eigenvalue of ``decomposition``, the sample's
        covariance spectrum. Requires n >= 35.

    Under either scheme a zero spectrum, such as that of an all-constant
    sample, raises DegenerateSpectrumError, before the length check: its
    losses would all be zero and select nothing.

    The returned loss curve covers the whole grid; refitting on the full
    sample at the selected alpha is the caller's responsibility. This
    function takes one sample; ``_cv_select`` runs the same sweep on a
    stack.
    """
    return _cv_select(coords, decomposition, scheme)


def _cv_select(coords: SpanCoordinates, decomposition: SpectralDecomposition, scheme: str):
    """``cv_select_alpha`` of one sample or of a stack.

    A stack's members share the scheme's blocks, because they share the
    length n. Any member's failure raises for the whole stack.
    """
    n = coords.n
    lam1 = decomposition.eigenvalues[..., :1]
    if scheme not in ("holdout", "k-fold-forward"):
        raise ValueError(f"unknown cross-validation scheme: {scheme!r}")
    if (lam1 <= 0).any():
        raise DegenerateSpectrumError("covariance spectrum is identically zero")
    # each block is the row range [start, stop)
    if scheme == "holdout":
        if n < 30:
            raise InsufficientDataError(f"holdout cross-validation needs n >= 30, got {n}")
        blocks = [(n - max(n // 5, 20), n)]
        # one grid per member, as the scaled grids below
        alphas = np.zeros_like(lam1) + HOLDOUT_ALPHAS
    else:
        if n < 35:
            raise InsufficientDataError(f"k-fold-forward cross-validation needs n >= 35, got {n}")
        blocks = [(int(b[0]), int(b[-1]) + 1) for b in np.array_split(np.arange(n), 5)[1:]]
        alphas = lam1 * np.logspace(-4.0, 1.0, 30)

    # weighted_moments applies its constant-row rule to every prefix; their
    # covariances then share one eigh call
    moments = [weighted_moments(coords.subsample(0, start)) for start, _ in blocks]
    lam, q = checked_eigh(np.stack([mom.c0 for mom in moments]))
    # lags and targets are views; _block_losses centres them into new arrays
    # first, so its loss sums run in the order of a sample alone
    values = coords.values
    losses = np.mean(
        [
            _block_losses(
                mom,
                lam_b,
                q_b,
                values[..., start - 1 : stop - 1, :],
                values[..., start:stop, :],
                alphas,
            )
            for mom, lam_b, q_b, (start, stop) in zip(moments, lam, q, blocks)
        ],
        axis=0,
    )
    return coords.per_member(
        lambda _, best, grid, curve: CvResult(grid[best], tuple(zip(grid, curve)), scheme),
        _last_minimum(losses).tolist(),
        alphas.tolist(),
        losses.tolist(),
    )
