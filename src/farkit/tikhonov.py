"""Ridge-regularized operator estimation with cross-validated strength.

Instead of truncating the covariance spectrum, every direction is kept and
small eigenvalues are damped through (C0 + alpha I)^{-1}. The ridge
strength alpha is selected by one-step-ahead cross-validation; the
validation losses for a whole alpha grid are computed from a single
eigendecomposition of the training covariance, after which each candidate
costs only elementwise work on the rotated validation data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .fpca import SpectralDecomposition, eigendecompose
from .moments import OperatorEstimate, SpanCoordinates, WeightedMomentPair, weighted_moments

__all__ = [
    "AlphaGrid",
    "CvResult",
    "tikhonov_fit",
    "default_alpha_grid",
    "application_alpha_grid",
    "cv_select_alpha",
]


@dataclass(frozen=True, eq=False)
class AlphaGrid:
    """Strictly increasing positive ridge-strength candidates."""

    values: np.ndarray
    provenance: str = "default"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 1 or values.size < 1:
            raise ValueError("alpha grid needs at least one value")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("alpha grid values must be positive and finite")
        if np.any(np.diff(values) <= 0):
            raise ValueError("alpha grid values must be strictly increasing")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CvResult:
    """Outcome of a cross-validation sweep over an alpha grid."""

    selected_alpha: float
    cv_curve: tuple  # ((alpha, validation loss), ...) in grid order
    train_indices: tuple
    validation_indices: tuple
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


def default_alpha_grid(scale: float = 1.0) -> AlphaGrid:
    """25 log-spaced candidates over five decades, 1e-5*scale .. scale."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return AlphaGrid(scale * np.logspace(-5.0, 0.0, 25), provenance="default")


def application_alpha_grid(lambda1: float) -> AlphaGrid:
    """30 log-spaced candidates spanning 1e-4 to 10 times the leading eigenvalue."""
    if not lambda1 > 0:
        raise ValueError(f"leading eigenvalue must be positive, got {lambda1}")
    return AlphaGrid(lambda1 * np.logspace(-4.0, 1.0, 30), provenance="eigenvalue-scaled")


def _fast_cv_losses(train: SpanCoordinates, lag_values, target_values, alphas):
    """Mean squared L2 one-step errors for every alpha, via one eigendecomposition.

    The estimator is fitted on ``train``; each row of ``target_values`` is
    predicted from the matching row of ``lag_values``, both in the
    coordinates of ``train``. Both are centered at the training mean before
    rotation, because the fitted operator models fluctuations around that
    mean.
    """
    mom = weighted_moments(train)
    dec = eigendecompose(mom)
    lam = dec.eigenvalues
    q = dec.vectors

    z_tgt = target_values - mom.mean
    rotated_lags = (lag_values - mom.mean) @ q
    b = mom.c1 @ q

    # ||z - B diag(d) r||^2 expanded once; per-alpha cost is O(r^2)
    const = float(np.sum(z_tgt**2))
    linear = np.sum((z_tgt @ b) * rotated_lags, axis=0)
    quad = (b.T @ b) * (rotated_lags.T @ rotated_lags)

    n_pairs = target_values.shape[0]
    losses = np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        d = 1.0 / (lam + alpha)
        losses[i] = (const - 2.0 * float(linear @ d) + float(d @ quad @ d)) / n_pairs
    return losses


def _select_from_losses(alphas, losses) -> float:
    """Grid value with the smallest loss; exact ties go to the larger alpha."""
    best = losses.min()
    return float(alphas[np.max(np.nonzero(losses == best)[0])])


def cv_select_alpha(
    coords: SpanCoordinates,
    grid: AlphaGrid,
    scheme: str = "holdout",
    n_folds: int = 5,
) -> CvResult:
    """Pick the ridge strength by one-step-ahead cross-validation.

    Both deterministic schemes are forward splits: each validation block
    is predicted one step ahead, every curve from its actual predecessor,
    by a fit on all curves strictly before the block, and the per-block
    mean losses are averaged.

    ``holdout``
        One block: the last max(floor(0.2 n), 20) curves. Requires n >= 30.

    ``k-fold-forward``
        The sample is split into ``n_folds`` contiguous, chronologically
        ordered folds; every fold after the first is a block (the first
        fold only ever serves as training data). Requires
        n >= 5 * n_folds + 10.

    The returned loss curve covers the whole grid; refitting on the full
    sample at the selected alpha is the caller's responsibility.
    """
    n = coords.n
    if scheme == "holdout":
        if n < 30:
            raise InsufficientDataError(f"holdout cross-validation needs n >= 30, got {n}")
        blocks = [np.arange(n - max(n // 5, 20), n)]
    elif scheme == "k-fold-forward":
        if n_folds < 2:
            raise ValueError("k-fold-forward needs at least 2 folds")
        if n < 5 * n_folds + 10:
            raise InsufficientDataError(
                f"k-fold-forward cross-validation needs n >= {5 * n_folds + 10}, got {n}"
            )
        blocks = np.array_split(np.arange(n), n_folds)[1:]
    else:
        raise ValueError(f"unknown cross-validation scheme: {scheme!r}")

    alphas = grid.values
    losses = np.mean(
        [
            _fast_cv_losses(
                coords.subsample(0, int(block[0])),
                lag_values=coords.values[block - 1],
                target_values=coords.values[block],
                alphas=alphas,
            )
            for block in blocks
        ],
        axis=0,
    )
    selected = _select_from_losses(alphas, losses)
    curve = tuple((float(a), float(l)) for a, l in zip(alphas, losses))
    train_idx = tuple(range(int(blocks[0][0])))
    val_idx = tuple(int(t) for block in blocks for t in block)
    return CvResult(selected, curve, train_idx, val_idx, scheme=scheme)
