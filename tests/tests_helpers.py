"""Test functions only the test suite uses; shared presets live in
``mvlab.presets``."""

import numpy as np
from scipy.optimize import linprog

from mvlab.measures import CylindricalFunction, InnerTest


def linear_F(h):
    return CylindricalFunction.linear(h.h, h.grad, h.hess)


def square_test():
    return InnerTest(
        lambda X: X[:, 0] ** 2,
        lambda X: 2 * X[:, 0][:, None],
        lambda X: np.full((X.shape[0], 1, 1), 2.0),
    )


def identity_test():
    return InnerTest(
        lambda X: X[:, 0],
        lambda X: np.ones((X.shape[0], 1)),
        lambda X: np.zeros((X.shape[0], 1, 1)),
    )


def lp_w2sq(mu, nu):
    """Exact squared W2 between two clouds by linear programming."""
    n, m = mu.n_atoms, nu.n_atoms
    d2 = ((mu.points[:, None, :] - nu.points[None, :, :]) ** 2).sum(-1).ravel()
    A_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1
        A_eq.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1
        A_eq.append(row.ravel())
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(d2, A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun
