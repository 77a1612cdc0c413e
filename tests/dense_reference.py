"""Dense grid-level reference estimators, written with numpy alone.

Every quantity is computed from the grid values and quadrature weights of
a sample, with no farkit code: the sqrt-weighted moments C0w and C1w, the
ridge operator C1w (C0w + alpha I)^-1 by ``np.linalg.solve``, the
eigen-truncated operator, and the cross-validated strength by a dense
refit per alpha and split. Each operator is unweighted to a grid kernel,
applied to a curve x as ``kernel @ (w * x)``. The package fits in span
coordinates; these references never leave the grid.
"""

import numpy as np

# the package's rule for a singular score Gram and its variance-share slack
GRAM_CONDITION_LIMIT = 1e12
SHARE_SLACK = 1e-12


def weighted_moments(values, weights):
    """Centred sqrt-weighted covariance (divisor n) and lag-one cross-covariance (n-1)."""
    n = values.shape[0]
    z = (values - values.mean(axis=0)) * np.sqrt(weights)
    return z.T @ z / n, z[1:].T @ z[:-1] / (n - 1)


def unweight(psi, weights):
    sw = np.sqrt(weights)
    return psi / np.outer(sw, sw)


def ridge_operator(c0, c1, alpha):
    return np.linalg.solve((c0 + alpha * np.eye(c0.shape[0])).T, c1.T).T


def ridge_kernel(values, weights, alpha):
    return unweight(ridge_operator(*weighted_moments(values, weights), alpha), weights)


def truncation_kernel(values, weights, k):
    c0, c1 = weighted_moments(values, weights)
    lam, q = np.linalg.eigh(c0)
    lam, q = lam[::-1][:k], q[:, ::-1][:, :k]
    return unweight(q @ ((q.T @ c1 @ q) / lam[None, :]) @ q.T, weights)


def cv_alpha(values, weights, scheme):
    """(strength, strengths, losses) of one-step forward cross-validation; None on a zero spectrum.

    ``holdout`` validates the last max(n // 5, 20) curves over 25 strengths
    from 1e-5 to 1; ``k-fold-forward`` validates folds 2..5 of five, each
    from a fit on the curves before it, over 30 strengths from 1e-4 to 10
    times the leading eigenvalue. Exact ties go to the larger strength.
    """
    n = values.shape[0]
    if scheme == "holdout":
        blocks = [np.arange(n - max(n // 5, 20), n)]
        alphas = np.logspace(-5.0, 0.0, 25)
    else:
        blocks = np.array_split(np.arange(n), 5)[1:]
        lam1 = np.linalg.eigvalsh(weighted_moments(values, weights)[0])[-1]
        if not lam1 > 0:
            return None
        alphas = lam1 * np.logspace(-4.0, 1.0, 30)
    sw = np.sqrt(weights)
    losses = np.zeros(alphas.size)
    for block in blocks:
        train = values[: block[0]]
        mean = train.mean(axis=0)
        lag = (values[block - 1] - mean) * sw
        target = (values[block] - mean) * sw
        c0, c1 = weighted_moments(train, weights)
        for i, alpha in enumerate(alphas):
            psi = ridge_operator(c0, c1, alpha)
            losses[i] += np.mean(np.sum((target - lag @ psi.T) ** 2, axis=1)) / len(blocks)
    return float(alphas[np.max(np.nonzero(losses == losses.min())[0])]), alphas, losses


def fit(values, weights, label, cv_scheme="holdout"):
    """(grid kernel, K or alpha) of an estimator id, or None where no fit exists."""
    kind, _, arg = label.partition(":")
    if kind == "tikhonov":
        cv = cv_alpha(values, weights, cv_scheme) if arg == "cv" else (float(arg),)
        return None if cv is None else (ridge_kernel(values, weights, cv[0]), cv[0])
    lam = np.maximum(np.linalg.eigvalsh(weighted_moments(values, weights)[0])[::-1], 0.0)
    if arg.startswith("K="):
        k = int(arg[2:])
    elif lam.sum() > 0:
        k = int(np.searchsorted(np.cumsum(lam) / lam.sum(), float(arg) - SHARE_SLACK) + 1)
    else:
        return None
    if not (lam[k - 1] > 0 and lam[0] / lam[k - 1] <= GRAM_CONDITION_LIMIT):
        return None
    return truncation_kernel(values, weights, k), k
