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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InsufficientDataError
from .fpca import SpectralDecomposition, checked_eigh, eigendecompose
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
    alpha: float,
    *,
    moments: WeightedMomentPair | None = None,
    decomposition: SpectralDecomposition | None = None,
) -> OperatorEstimate:
    """Ridge estimate of the autoregression operator at a fixed strength.

    Computes C1 (C0 + alpha I)^{-1} in span coordinates through the
    spectral decomposition of C0. Precomputed moments of ``coords`` and
    the decomposition of their ``c0`` skip the O(r^3) work.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"ridge strength must be positive, got {alpha}")
    if moments is None:
        moments = weighted_moments(coords)
    if decomposition is None:
        decomposition = eigendecompose(moments)
    lam = decomposition.eigenvalues
    q = decomposition.vectors
    psi = ((moments.c1 @ q) / (lam + alpha)[None, :]) @ q.T
    return OperatorEstimate(psi, coords, method="tikhonov", tuning={"alpha": alpha})


def _fast_cv_losses(train: SpanCoordinates, lag_values, target_values, alphas):
    """Mean squared L2 one-step errors for every alpha on one validation block.

    The estimator is fitted on ``train``; each row of ``target_values`` is
    predicted from the matching row of ``lag_values``, both in the
    coordinates of ``train``. The training covariance costs one
    eigendecomposition, and ``_block_losses`` scores the whole grid in one
    matrix product. ``cv_select_alpha`` runs the same kernel on each of its
    blocks, after decomposing all of a sample's training covariances in one
    stacked call.
    """
    mom = weighted_moments(train)
    dec = eigendecompose(mom)
    return _block_losses(mom, dec.eigenvalues, dec.vectors, lag_values, target_values, alphas)


def _block_losses(mom: WeightedMomentPair, lam, q, lag_values, target_values, alphas):
    """Mean squared one-step errors of one validation block, one per alpha.

    ``mom`` holds the training moments and ``lam``, ``q`` the spectrum of
    their ``c0``. Lags and targets are centred at the training mean before
    rotation, because the fitted operator models fluctuations around that
    mean. With ``B = C1 Q``, ``r = Q^T lag`` and the ridge filter
    ``d_a = 1 / (lam + alpha_a)``, the error ``||z - B diag(d_a) r||^2``
    expands into a constant, a linear and a quadratic form in ``d_a``, so
    the filters of all strengths, stacked as the rows of one (A, r)
    matrix, are scored by one matrix product.
    """
    z_tgt = target_values - mom.mean
    rotated_lags = (lag_values - mom.mean) @ q
    b = mom.c1 @ q

    const = float(np.sum(z_tgt**2))
    linear = np.sum((z_tgt @ b) * rotated_lags, axis=0)
    quad = (b.T @ b) * (rotated_lags.T @ rotated_lags)

    d = 1.0 / (lam[None, :] + alphas[:, None])
    return (const - 2.0 * (d @ linear) + np.einsum("ar,ar->a", d @ quad, d)) / len(target_values)


def _select_from_losses(alphas, losses) -> float:
    """Grid value with the smallest loss; exact ties go to the larger alpha."""
    best = losses.min()
    return float(alphas[np.max(np.nonzero(losses == best)[0])])


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
        covariance spectrum; a zero spectrum raises
        DegenerateSpectrumError, before the length check. Requires n >= 35.

    The returned loss curve covers the whole grid; refitting on the full
    sample at the selected alpha is the caller's responsibility.
    """
    n = coords.n
    if scheme == "holdout":
        if n < 30:
            raise InsufficientDataError(f"holdout cross-validation needs n >= 30, got {n}")
        blocks = [np.arange(n - max(n // 5, 20), n)]
        alphas = HOLDOUT_ALPHAS
    elif scheme == "k-fold-forward":
        lam1 = float(decomposition.eigenvalues[0])
        if lam1 <= 0:
            raise DegenerateSpectrumError("covariance spectrum is identically zero")
        if n < 35:
            raise InsufficientDataError(f"k-fold-forward cross-validation needs n >= 35, got {n}")
        blocks = np.array_split(np.arange(n), 5)[1:]
        alphas = lam1 * np.logspace(-4.0, 1.0, 30)
    else:
        raise ValueError(f"unknown cross-validation scheme: {scheme!r}")

    # weighted_moments applies its constant-row rule to every prefix; their
    # covariances then share one eigh call
    moments = [weighted_moments(coords.subsample(0, int(block[0]))) for block in blocks]
    lam, q = checked_eigh(np.stack([mom.c0 for mom in moments]))
    losses = np.mean(
        [
            _block_losses(mom, lam_b, q_b, coords.values[block - 1], coords.values[block], alphas)
            for mom, lam_b, q_b, block in zip(moments, lam, q, blocks)
        ],
        axis=0,
    )
    selected = _select_from_losses(alphas, losses)
    curve = tuple((float(a), float(l)) for a, l in zip(alphas, losses))
    return CvResult(selected, curve, scheme=scheme)
