"""Test functions and oracles only the test suite uses; shared presets live in
``mvlab.presets``."""

import numpy as np
from scipy.optimize import linprog

from mvlab.measures import CylindricalFunction, InnerTest
from mvlab.particles import _BLOCK

HERMITE_NODES = 80  # Gauss-Hermite nodes of ``heat_semigroup_ck_residual``


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


def reference_normals(seed, n, k, d):
    """(n, d) normals of step k, row i for stream i, drawn the plain way: a
    fresh Philox per counter block, each drawing the rows of its block."""
    parts = []
    for blk, r0 in enumerate(range(0, n, _BLOCK)):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, k, blk, 0]))
        parts.append(gen.standard_normal((min(_BLOCK, n - r0), d)))
    return np.concatenate(parts)


def heat_semigroup_ck_residual(h, s, r, t, x):
    """Chapman-Kolmogorov defect of the exact heat semigroup (unit diffusion),

        | N(x, t-s)(h) - int N(y, t-r)(h) N(x, r-s)(dy) |,

    by Gauss-Hermite quadrature with ``HERMITE_NODES`` nodes. For smooth h
    this is pure quadrature error: an oracle for the quadrature alone, which
    calls no mvlab code.
    """
    if not (s < r < t):
        raise ValueError("need s < r < t")
    nodes, weights = np.polynomial.hermite_e.hermegauss(HERMITE_NODES)
    weights = weights / np.sqrt(2 * np.pi)

    def semigroup(y, tau):
        return float(np.dot(weights, h(y + np.sqrt(tau) * nodes)))

    direct = semigroup(x, t - s)
    inner = np.array([semigroup(x + np.sqrt(r - s) * z, t - r) for z in nodes])
    composed = float(np.dot(weights, inner))
    return abs(direct - composed)
