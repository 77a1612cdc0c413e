"""Sample covariance / lag-one cross-covariance matrices and kernel application.

The raw moment matrices are plain outer-product averages on the grid values;
the weighted representation conjugates them by the square root of the
quadrature weight matrix so that Euclidean operations on the weighted
matrices agree with L2 operations on curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, InsufficientDataError
from .grid import Curve, QuadratureGrid, require_same_grid

__all__ = [
    "FunctionalSample",
    "WeightedMomentPair",
    "OperatorEstimate",
    "sample_moments",
    "to_weighted",
    "weighted_moments",
    "apply_kernel_matrix",
    "unweight_kernel",
]


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """An ordered collection of n curves on a shared grid, one row per period."""

    values: np.ndarray  # shape (n, M), row t = curve at time t
    grid: QuadratureGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 2:
            raise GridError("sample values must be a 2-d array (curves in rows)")
        if values.shape[1] != self.grid.size:
            raise GridError(
                f"curves have {values.shape[1]} points but grid has {self.grid.size}"
            )
        if values.shape[0] < 2:
            raise InsufficientDataError("a functional sample needs at least 2 curves")
        if not np.all(np.isfinite(values)):
            raise GridError("sample values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def curve(self, t: int) -> Curve:
        return Curve(self.values[t], self.grid)

    def subsample(self, start: int, stop: int) -> "FunctionalSample":
        """Contiguous slice [start, stop) as a new sample."""
        return FunctionalSample(self.values[start:stop], self.grid)


@dataclass(frozen=True, eq=False)
class WeightedMomentPair:
    """Weighted covariance and lag-one cross-covariance with the sample mean."""

    c0_tilde: np.ndarray
    c1_tilde: np.ndarray
    mean_curve: Curve
    grid: QuadratureGrid

    def __post_init__(self):
        m = self.grid.size
        for name in ("c0_tilde", "c1_tilde"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (m, m):
                raise GridError(f"{name} must be {m}x{m} to match the grid")
            if not np.all(np.isfinite(mat)):
                raise GridError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, mat)
        require_same_grid(self.grid, self.mean_curve.grid)


@dataclass(frozen=True, eq=False)
class OperatorEstimate:
    """An M x M kernel matrix estimating the autoregression kernel on the grid.

    ``kernel[i, j]`` estimates the kernel at (points[i], points[j]); applying
    the operator to a curve is a quadrature sum over the second index.
    """

    kernel: np.ndarray
    grid: QuadratureGrid
    method: str
    tuning: dict = field(default_factory=dict)

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        m = self.grid.size
        if kernel.shape != (m, m):
            raise GridError(f"kernel must be {m}x{m} to match the grid")
        if not np.all(np.isfinite(kernel)):
            raise GridError("kernel contains non-finite entries")
        object.__setattr__(self, "kernel", kernel)

    def predict(self, x: Curve) -> Curve:
        """Apply the kernel to one curve: the one-row case of ``apply_kernel_matrix``."""
        require_same_grid(self.grid, x.grid)
        return Curve(apply_kernel_matrix(self, x.values[None, :])[0], self.grid)


def sample_moments(sample: FunctionalSample):
    """Centered sample covariance and lag-one cross-covariance matrices.

    Returns
    -------
    c0 : ndarray, shape (M, M)
        (1/n) sum_t (x_t - xbar)(x_t - xbar)^T.
    c1 : ndarray, shape (M, M)
        (1/(n-1)) sum_{t<n} (x_{t+1} - xbar)(x_t - xbar)^T; entry (i, j)
        couples the lead curve at point i with the lagged curve at point j.
    mean : Curve
        The sample mean curve xbar used for centering both moments.
    """
    n = sample.n
    if n < 2:
        raise InsufficientDataError("moment estimation needs at least 2 curves")
    xbar = sample.values.mean(axis=0)
    centered = sample.values - xbar
    c0 = centered.T @ centered / n
    c1 = centered[1:].T @ centered[:-1] / (n - 1)
    return c0, c1, Curve(xbar, sample.grid)


def to_weighted(c0, c1, mean: Curve, grid: QuadratureGrid) -> WeightedMomentPair:
    """Conjugate raw moment matrices by diag(sqrt(w)) on both sides."""
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    m = grid.size
    if c0.shape != (m, m) or c1.shape != (m, m):
        raise GridError("moment matrices must be MxM matching the grid")
    sw = grid.sqrt_weights
    scale = np.outer(sw, sw)
    return WeightedMomentPair(c0 * scale, c1 * scale, mean, grid)


def weighted_moments(sample: FunctionalSample) -> WeightedMomentPair:
    """Sample moments of a functional sample in the weighted representation."""
    c0, c1, mean = sample_moments(sample)
    return to_weighted(c0, c1, mean, sample.grid)


def apply_kernel_matrix(op: OperatorEstimate, values: np.ndarray) -> np.ndarray:
    """Apply the kernel to every row of an (n, M) array of curve values by quadrature."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != op.grid.size:
        raise GridError("values must be (n, M) matching the operator grid")
    return (values * op.grid.weights) @ op.kernel.T


def unweight_kernel(
    psi_tilde: np.ndarray,
    grid: QuadratureGrid,
    method: str = "",
    tuning: dict | None = None,
) -> OperatorEstimate:
    """Map a weighted-space operator matrix back to a grid-point kernel.

    The entry-wise inverse of the weighted conjugation:
    ``kernel[i, j] = psi_tilde[i, j] / sqrt(w_i * w_j)``.
    """
    psi_tilde = np.asarray(psi_tilde, dtype=float)
    m = grid.size
    if psi_tilde.shape != (m, m):
        raise GridError("weighted kernel must be MxM matching the grid")
    sw = grid.sqrt_weights
    kernel = psi_tilde / np.outer(sw, sw)
    return OperatorEstimate(kernel, grid, method=method, tuning=dict(tuning or {}))
