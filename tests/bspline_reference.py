"""Per-point Cox-de Boor values of clamped cubic B-splines, a reference for the smoother's tests.

Every basis function is evaluated at every point on its own, by the
recursion B_i,0(x) = 1 on [t_i, t_i+1) and

    B_i,k(x) = (x - t_i) / (t_i+k - t_i) B_i,k-1(x)
               + (t_i+k+1 - x) / (t_i+k+1 - t_i+1) B_i+1,k-1(x),

where a term with a zero denominator is 0. The right end point belongs to
the last nonempty interval. The knots are 0 four times, n_basis - 4
uniform interior knots and 1 four times.
"""

import numpy as np


def knots(n_basis):
    return [0.0] * 4 + [j / (n_basis - 3) for j in range(1, n_basis - 3)] + [1.0] * 4


def value(x, t, i, k):
    """B_i,k at x for knots t."""
    if k == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        return 1.0 if x == t[-1] and t[i] < t[i + 1] == t[-1] else 0.0
    left = right = 0.0
    if t[i + k] > t[i]:
        left = (x - t[i]) / (t[i + k] - t[i]) * value(x, t, i, k - 1)
    if t[i + k + 1] > t[i + 1]:
        right = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * value(x, t, i + 1, k - 1)
    return left + right


def design(points, n_basis):
    """(points, n_basis) values of the cubic B-splines at each point."""
    t = knots(n_basis)
    return np.array([[value(float(x), t, i, 3) for i in range(n_basis)] for x in points])
