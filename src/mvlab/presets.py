"""Shared presets: the one copy of each input that the command line, the
test suite and the benchmark use alike.

- ``arctan_params``: the NLDBM-arctan family, beta(r) = 2r + arctan(r) with
  bounded drift modulation 1/(1+r^2) and the canonical confining potential.
- ``tanh_test`` / ``cos_test``: inner test functions with their first two
  derivatives.
- ``gaussian_grid``: a normalized Gaussian density on a cell-centered grid.
"""

from __future__ import annotations

import numpy as np

from .coefficients import NLDBMParams, canonical_confining_potential
from .measures import GridDensity1D, InnerTest, _grid_centers

__all__ = ["arctan_params", "tanh_test", "cos_test", "gaussian_grid"]


def arctan_params(C: float = 1.0, alpha: float = 0.5) -> NLDBMParams:
    """Density-dependent diffusion beta(r) = 2r + arctan(r) with bounded
    drift modulation 1/(1+r^2) and the canonical confining potential."""
    Phi, gradPhi = canonical_confining_potential(C, alpha)
    return NLDBMParams(
        beta=lambda r: 2 * r + np.arctan(r),
        beta_prime=lambda r: 2 + 1 / (1 + r**2),
        gamma=2.0,
        gamma1=3.0,
        b_scalar=lambda r: 1 / (1 + r**2),
        Phi=Phi,
        gradPhi=gradPhi,
    )


def tanh_test() -> InnerTest:
    return InnerTest(
        lambda X: np.tanh(X[:, 0]),
        lambda X: (1 - np.tanh(X[:, 0]) ** 2)[:, None],
        lambda X: (-2 * np.tanh(X[:, 0]) * (1 - np.tanh(X[:, 0]) ** 2))[:, None, None],
    )


def cos_test() -> InnerTest:
    return InnerTest(
        lambda X: np.cos(X[:, 0]),
        lambda X: (-np.sin(X[:, 0]))[:, None],
        lambda X: (-np.cos(X[:, 0]))[:, None, None],
    )


def gaussian_grid(var, mean=0.0, x_min=-8.0, dx=0.01, n=1600) -> GridDensity1D:
    """N(mean, var) sampled at the n cell centers from x_min, normalized to
    unit mass on the grid; ``ValueError`` if every sample underflows to zero."""
    xs = _grid_centers(x_min, dx, n)
    v = np.exp(-((xs - mean) ** 2) / (2 * var))
    if not v.sum() > 0:
        raise ValueError(f"N({mean}, {var}) has no mass on the grid [{x_min}, {x_min + dx * n}]")
    return GridDensity1D(x_min, dx, v / (v.sum() * dx))
