"""Functional samples, their span coordinates, moment matrices and operator estimates.

Every fit runs in L2-orthonormal coordinates of the span of a sample's
centred curves, built once by ``span_coordinates``: there the L2 inner
product is the Euclidean one, so the moment matrices and estimators see
unit weights, and the quadrature weights enter only where curves are
encoded, forecasts decoded, or a grid kernel is formed. Samples that
share a basis, such as the windows of a rolling backtest or the Monte
Carlo benchmark's paths in their simulator coefficients, can be stacked
along a leading axis; the moments of a stack are computed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridError, InsufficientDataError
from .grid import QuadratureGrid

__all__ = [
    "FunctionalSample",
    "SpanCoordinates",
    "span_coordinates",
    "centre_curves",
    "full_rank_certified",
    "WeightedMomentPair",
    "OperatorEstimate",
    "weighted_moments",
    "apply_kernel_matrix",
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


@dataclass(frozen=True, eq=False)
class SpanCoordinates:
    """A sample in L2-orthonormal coordinates: the input of every estimator.

    ``basis`` (M x r) has orthonormal columns spanning the sample's centred
    curves scaled by the square roots of the quadrature weights, and row t
    of ``values`` (n x r) holds the coordinates of centred curve t. The L2
    inner product of curves is the Euclidean one of their coordinates, so
    the estimators work with unit weights; the quadrature weights enter
    only where ``span_coordinates`` builds the basis and through
    ``encode``, ``decode`` and ``kernel``. ``rank`` is the
    numerical rank of the centred curves; the basis keeps one column more
    only when that rank is 0. Built by ``span_coordinates``.

    ``values`` of shape (B, n, r) is a stack of B samples in the same
    coordinates, such as the windows made by ``windows``. Every step of the
    fit path computes on arrays that may carry that leading axis, and each
    member gets the bits it would get alone. Its results carry the axis
    too: moments, spectra, estimates and strength selections hold one row
    per member, in stack order.
    """

    values: np.ndarray
    basis: np.ndarray
    grid: QuadratureGrid
    rank: int

    @property
    def n(self) -> int:
        return self.values.shape[-2]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def stacked(self) -> bool:
        return self.values.ndim == 3

    def subsample(self, start: int, stop: int) -> "SpanCoordinates":
        """Contiguous rows [start, stop) in the same coordinates, of every member of a stack."""
        return replace(self, values=self.values[..., start:stop, :])

    def windows(self, starts, length: int) -> "SpanCoordinates":
        """The stack of the ``length``-row subsamples starting at each of ``starts``."""
        rows = np.asarray(starts)[:, None] + np.arange(length)
        return replace(self, values=self.values[rows])

    def encode(self, values) -> np.ndarray:
        """Coordinates ``(x * sqrt(w)) @ V`` of grid curves, one per row.

        A curve outside the span loses its orthogonal part, which every
        estimate's kernel maps to zero.
        """
        return (np.asarray(values, dtype=float) * self.grid.sqrt_weights) @ self.basis

    def decode(self, coords) -> np.ndarray:
        """Grid values ``(y @ V^T) / sqrt(w)`` of coordinate rows."""
        return (coords @ self.basis.T) / self.grid.sqrt_weights

    def kernel(self, matrix) -> np.ndarray:
        """Grid kernel ``V A V^T / sqrt(w w^T)`` of an r x r operator matrix A."""
        sw = self.grid.sqrt_weights
        return self.basis @ matrix @ self.basis.T / np.outer(sw, sw)


def span_coordinates(sample: FunctionalSample) -> SpanCoordinates:
    """Orthonormal coordinates of a sample in the span of its centred sqrt-weighted curves.

    A thin SVD of the curves, centred at the sample mean and scaled by the
    square roots of the quadrature weights, gives an orthonormal basis V
    of their span, with the rank r cut by numpy's default ``matrix_rank``
    tolerance. Every subsample's centred curves lie in that span, so its
    moments, eigenvalues and fits in these coordinates are those of the
    grid, and the fitted kernels vanish outside the span. Centring first
    keeps an exactly constant sample at exactly zero coordinates, as on the
    grid; the basis then keeps one direction, which carries only rounding.

    A sample that ``full_rank_certified`` certifies to have full rank M
    gets the identity basis and no SVD.
    """
    z = centre_curves(sample.values, sample.grid)
    m = z.shape[1]
    if full_rank_certified(z):
        return SpanCoordinates(z, np.eye(m), sample.grid, m)
    # the M x M triangular factor has the singular values and right singular
    # vectors of z, without an n x M left factor
    _, s, vt = np.linalg.svd(np.linalg.qr(z, mode="r"))
    rank = int(np.count_nonzero(s > s.max() * max(z.shape) * np.finfo(float).eps))
    basis = vt[: max(rank, 1)].T
    return SpanCoordinates(z @ basis, basis, sample.grid, rank)


def centre_curves(values: np.ndarray, grid: QuadratureGrid, out=None) -> np.ndarray:
    """Curves (n, M) centred at their mean and scaled by the grid's sqrt weights.

    A (B, n, M) stack is centred member by member. With ``out=values``
    the curves are overwritten in place, with the bits of the copy.
    """
    z = np.subtract(values, values.mean(axis=-2, keepdims=True), out=out)
    z *= grid.sqrt_weights
    return z


def full_rank_certified(z: np.ndarray) -> bool:
    """Whether centred sqrt-weighted curves ``z`` (n x M) certainly have rank M.

    The certificate: more curves than grid points, a finite Gram
    G = ``z^T z`` and a Cholesky factor of ``G - 1e-10 tr(G) I``. That
    factor exists only if the smallest eigenvalue of G exceeds
    1e-10 tr(G), which is at least 1e-10 times the largest, so the
    smallest singular value is over 1e-5 times the largest, far above
    ``span_coordinates``'s rank tolerance.
    """
    n, m = z.shape
    if n <= m:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        gram = z.T @ z
        if not np.isfinite(gram).all():
            return False
        gram[np.diag_indices(m)] -= 1e-10 * np.trace(gram)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class WeightedMomentPair:
    """Covariance and lag-one cross-covariance in span coordinates, with the mean.

    The coordinates are L2-orthonormal, so these are the sample covariance
    operators of the curves restricted to their span. The moments of a
    stack carry its leading axis: ``c0`` and ``c1`` are (B, r, r) and
    ``mean`` is (B, r).
    """

    c0: np.ndarray
    c1: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        r = mean.shape[-1] if mean.ndim else 1
        for name in ("c0", "c1"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != mean.shape[:-1] + (r, r):
                raise GridError(f"{name} must be {r}x{r} to match the mean")
            if not np.isfinite(mat).all():
                raise GridError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, mat)


@dataclass(frozen=True, eq=False)
class OperatorEstimate:
    """An r x r matrix estimating the autoregression operator in span coordinates.

    ``apply_kernel_matrix`` applies the estimate to grid curves: it encodes
    them, applies ``matrix`` and decodes the results. ``kernel`` is the
    M x M grid kernel, formed on demand: ``kernel[i, j]`` estimates the
    kernel at (points[i], points[j]), and applying it to a curve is a
    quadrature sum over the second index.

    The estimate of a stack carries its leading axis: ``matrix`` is
    (B, r, r), and each per-member tuning value is a list in stack order.
    """

    matrix: np.ndarray
    coordinates: SpanCoordinates
    method: str
    tuning: dict = field(default_factory=dict)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        r = self.coordinates.dim
        if matrix.shape != self.coordinates.values.shape[:-2] + (r, r):
            raise GridError(f"operator matrix must be {r}x{r} to match the coordinates")
        if not np.isfinite(matrix).all():
            raise GridError("operator matrix contains non-finite entries")
        object.__setattr__(self, "matrix", matrix)

    @property
    def kernel(self) -> np.ndarray:
        return self.coordinates.kernel(self.matrix)


def weighted_moments(coords: SpanCoordinates) -> WeightedMomentPair:
    """Centred sample covariance and lag-one cross-covariance in span coordinates.

    ``c0`` is (1/n) sum_t (z_t - zbar)(z_t - zbar)^T and ``c1`` is
    (1/(n-1)) sum_{t<n} (z_{t+1} - zbar)(z_t - zbar)^T, whose entry (i, j)
    couples the lead curve's coordinate i with the lagged curve's
    coordinate j; ``mean`` is zbar. Rows that are identical to within a few
    ulps of their largest coordinate centre to exact zeros, so such a
    window has the zero spectrum of rows at the sample mean instead of
    one fitted to rounding residues. Each member of a stack gets the
    moments, and the rule, it would get alone, with the same bits.
    """
    n = coords.n
    if n < 2:
        raise InsufficientDataError("moment estimation needs at least 2 curves")
    values = coords.values
    zbar = values.mean(axis=-2)
    centered = values - zbar[..., None, :]
    tol = 8 * np.finfo(float).eps
    constant = _max_abs(centered) <= tol * _max_abs(values)
    centered[constant] = 0.0
    # huge curves overflow to non-finite moments, which WeightedMomentPair rejects
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = centered.swapaxes(-1, -2) @ centered / n
        c1 = centered[..., 1:, :].swapaxes(-1, -2) @ centered[..., :-1, :] / (n - 1)
    return WeightedMomentPair(c0, c1, zbar)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each (n, r) matrix, without an ``abs`` copy of ``x``."""
    return np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1)))


def apply_kernel_matrix(op: OperatorEstimate, values: np.ndarray) -> np.ndarray:
    """Apply an estimate to every row of an (n, M) array of curve values.

    Equal to the quadrature application of ``op.kernel``, without forming it.
    """
    values = np.asarray(values, dtype=float)
    coords = op.coordinates
    if values.ndim != 2 or values.shape[1] != coords.grid.size or coords.stacked:
        raise GridError("values must be (n, M) on the grid of an estimate of one sample")
    return coords.decode(coords.encode(values) @ op.matrix.T)
