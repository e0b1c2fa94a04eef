"""Lifted Markov dynamics on pair space (point, probability measure).

The mean-field flow mu_t together with its frozen linearization nu_t defines
a two-parameter Markov kernel on R^d x P whose laws are product measures
nu x delta_{mu}: the point coordinate follows the linearized dynamics driven
by the measure coordinate, which moves deterministically along the nonlinear
flow. This module evaluates that kernel with the grid PDE backend (forward
frozen FPE solves for laws, the transposed backward sweep of ``fpe`` for
the kernel acting on a test function at many points at once), applies the
generator of the measure coordinate to cylindrical test functions, and
measures Chapman-Kolmogorov and Ito-type consistency residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .fpe import (
    DensityPath,
    SolverConfig,
    solve_backward_kolmogorov,
    solve_frozen_fpe,
    solve_nonlinear_fpe,
)
from .measures import CylindricalFunction, GridDensity1D, InnerTest

__all__ = [
    "LiftedTestFunction",
    "ProductLaw",
    "apply_measure_generator",
    "apply_lifted_generator",
    "delta_on_grid",
    "kernel_law",
    "kernel_evaluate",
    "chapman_kolmogorov_residual",
    "heat_semigroup_ck_residual",
    "measure_flow_derivative_residual",
]

HERMITE_NODES = 80  # Gauss-Hermite nodes of ``heat_semigroup_ck_residual``


@dataclass(frozen=True)
class LiftedTestFunction:
    """Product test function G(x, mu) = g(x) * F(mu)."""

    point_part: InnerTest
    measure_part: CylindricalFunction

    def __call__(self, x: np.ndarray, mu) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.point_part.h(x), dtype=float) * self.measure_part(mu)


@dataclass(frozen=True)
class ProductLaw:
    """Law nu x delta_mu on pair space: point marginal nu, measure atom mu."""

    point_law: GridDensity1D
    measure_atom: object

    def integrate(self, G) -> float:
        """int G d(nu x delta_mu) = int G(y, mu) nu(dy)."""
        vals = np.asarray(G(self.point_law.centers[:, None], self.measure_atom), dtype=float)
        return float(self.point_law.dx * np.dot(self.point_law.values, vals))


def apply_measure_generator(F: CylindricalFunction, coeffs: CoefficientSet, t: float, mu) -> float:
    """Generator of the measure coordinate on a cylindrical function
    F(mu) = f(mu(h_1), ..., mu(h_n)):

        sum_i d_i f(...) * int L h_i dmu,

    with L the Kolmogorov operator ``coeffs.generator`` of (b, sigma) at mu.
    """
    levels = np.array([mu.integrate(h.h) for h in F.inner])
    partials = np.atleast_1d(np.asarray(F.outer_grad(levels), dtype=float))
    total = 0.0
    for dfi, h in zip(partials, F.inner):
        if dfi != 0.0:
            total += dfi * mu.integrate(lambda X, h=h: coeffs.generator(t, X, mu, h))
    return total


def apply_lifted_generator(
    G: LiftedTestFunction, coeffs: CoefficientSet, t: float, x, mu
) -> float:
    """Sum of the frozen point generator acting on g and the measure
    generator acting on F, for G(x, mu) = g(x) F(mu), at a single point x:
    both parts are the one Kolmogorov operator, of ``coeffs.frozen`` at x
    and of ``coeffs`` under mu."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape != (1, coeffs.d):
        raise ValueError(f"x must be one point in R^{coeffs.d}, got shape {x.shape}")
    g = G.point_part
    point_term = float(coeffs.frozen.generator(t, x, mu, g)[0])
    Fval = G.measure_part(mu)
    gval = float(np.asarray(g.h(x), dtype=float)[0])
    return point_term * Fval + gval * apply_measure_generator(G.measure_part, coeffs, t, mu)


def delta_on_grid(x: float, like: GridDensity1D) -> GridDensity1D:
    """Point mass at x as a two-cell density whose mean is exactly x."""
    c = like.centers
    if not (c[0] <= x <= c[-1]):
        raise ValueError(f"x={x} outside grid centers [{c[0]}, {c[-1]}]")
    i = int(np.clip(np.searchsorted(c, x) - 1, 0, like.n_cells - 2))
    theta = (c[i + 1] - x) / like.dx
    theta = float(np.clip(theta, 0.0, 1.0))
    v = np.zeros(like.n_cells)
    v[i] = theta / like.dx
    v[i + 1] = (1.0 - theta) / like.dx
    return GridDensity1D(like.x_min, like.dx, v)


def kernel_law(
    coeffs: CoefficientSet,
    s: float,
    t: float,
    x: float,
    zeta: GridDensity1D,
    cfg: SolverConfig,
    flow: DensityPath | None = None,
) -> ProductLaw:
    """Kernel value at (s, x, zeta) over horizon t as a product law.

    The measure coordinate moves to the nonlinear flow started from zeta at
    time s; the point coordinate law is the frozen linear flow started from
    a point mass at x. Pass a precomputed ``flow`` (covering [s, t], started
    from zeta) to share it across evaluations.
    """
    if flow is None:
        flow = solve_nonlinear_fpe(zeta, coeffs, s, t, cfg)
    elif not flow.covers(s, t):
        raise ValueError("provided flow does not cover [s, t]")
    nu0 = delta_on_grid(x, zeta)
    nu = solve_frozen_fpe(nu0, flow, coeffs, cfg, s=s, t_end=t)
    return ProductLaw(point_law=nu.states[-1], measure_atom=flow.state_at(t))


def kernel_evaluate(
    G,
    coeffs: CoefficientSet,
    s: float,
    t: float,
    x: float,
    zeta: GridDensity1D,
    cfg: SolverConfig,
    flow: DensityPath | None = None,
) -> float:
    return kernel_law(coeffs, s, t, x, zeta, cfg, flow=flow).integrate(G)


def _stratified_nodes(nu: GridDensity1D, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a density into equal-mass nodes at stratum-median quantiles."""
    p = (np.arange(n_nodes) + 0.5) / n_nodes
    return nu.quantile(p), np.full(n_nodes, 1.0 / n_nodes)


def chapman_kolmogorov_residual(
    G,
    coeffs: CoefficientSet,
    s: float,
    r: float,
    t: float,
    x: float,
    zeta: GridDensity1D,
    cfg: SolverConfig,
    quad_points: int = 64,
) -> float:
    """| P_{s,t} G(x, zeta) - int P_{r,t} G(y, mu_{s,r}) P_{s,r}(x, zeta; dy) |.

    The intermediate point law is split into equal-mass quadrature nodes.
    P_{r,t} G at every node comes from one backward Kolmogorov sweep from t
    to r along the shared nonlinear flow (the measure coordinate is
    deterministic, so its restart is exact), read off at the nodes by linear
    interpolation: that is <delta_on_grid(y), w>, the forward kernel from y
    to roundoff. The sweep is the transposed semi-implicit step, so the
    explicit scheme is rejected rather than mixed with it.
    """
    if not (s < r < t):
        raise ValueError("need s < r < t")
    if cfg.scheme != "semi_implicit":
        raise ValueError("the Chapman-Kolmogorov check needs the semi_implicit scheme")
    flow = solve_nonlinear_fpe(zeta, coeffs, s, t, cfg)
    direct = kernel_evaluate(G, coeffs, s, t, x, zeta, cfg, flow=flow)

    mid = kernel_law(coeffs, s, r, x, zeta, cfg, flow=flow)
    ys, ws = _stratified_nodes(mid.point_law, quad_points)
    g_t = G(zeta.centers[:, None], flow.state_at(t))
    w_r = solve_backward_kolmogorov(g_t, flow, coeffs, cfg, r, t)
    composed = float(np.dot(ws, np.interp(ys, zeta.centers, w_r)))
    return abs(direct - composed)


def heat_semigroup_ck_residual(
    h,
    s: float,
    r: float,
    t: float,
    x: float,
    diffusion: float = 1.0,
) -> float:
    """Chapman-Kolmogorov defect of the exact Gaussian semigroup,

        | N(x, a(t-s))(h) - int N(y, a(t-r))(h) N(x, a(r-s))(dy) |,

    by Gauss-Hermite quadrature with ``HERMITE_NODES`` nodes. For smooth h
    this is pure quadrature error.
    """
    if not (s < r < t):
        raise ValueError("need s < r < t")
    nodes, weights = np.polynomial.hermite_e.hermegauss(HERMITE_NODES)
    weights = weights / np.sqrt(2 * np.pi)

    def semigroup(y, tau):
        return float(np.dot(weights, h(y + np.sqrt(diffusion * tau) * nodes)))

    direct = semigroup(x, t - s)
    inner = np.array([semigroup(x + np.sqrt(diffusion * (r - s)) * z, t - r) for z in nodes])
    composed = float(np.dot(weights, inner))
    return abs(direct - composed)


def measure_flow_derivative_residual(
    F: CylindricalFunction,
    coeffs: CoefficientSet,
    path: DensityPath,
    t: float,
    dt_fd: float,
) -> tuple[float, float, float]:
    """Compare the central-difference time derivative of t -> F(mu_t) along a
    stored flow with the measure generator. Returns (fd, generator, residual).
    The flow must hold records at t - dt_fd, t and t + dt_fd.
    """
    mu_m = path.state_at(t - dt_fd)
    mu_p = path.state_at(t + dt_fd)
    fd = (F(mu_p) - F(mu_m)) / (2 * dt_fd)
    gen = apply_measure_generator(F, coeffs, t, path.state_at(t))
    return fd, gen, abs(fd - gen)
