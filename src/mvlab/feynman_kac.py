"""Probabilistic representation of terminal-value problems on pair space.

For the lifted dynamics (X_t, mu_t), the function

    u(t, x, mu) = E[ Phi(X_T, mu_T) e^{int_t^T V dr}
                     + int_t^T f(r, X_r, mu_r) e^{int_t^r V} dr ]

solves the backward equation  d_t u + (lifted generator) u + V u + f = 0 with
terminal datum Phi. Here X is the linearized (frozen) process started at x
and the measure coordinate follows the nonlinear flow from mu.

Two backends: Monte Carlo over a frozen particle cloud (with standard
errors), stepped by the particle simulator's one Euler-Maruyama loop, and a
deterministic backward grid solve of the Kolmogorov equation with potential
along the flow (exact in the measure coordinate). The grid
backend owns no discretization: it is the transposed frozen finite-volume
step of ``fpe``, so without potential and source it is the discrete adjoint
of the frozen Fokker-Planck solve that ``lifted`` uses for the kernel.

Also provides finite-difference derivatives of measure functionals along
pushforward curves, which is how the backward equation's measure term is
probed numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .fpe import (
    DensityPath,
    SolverConfig,
    _check_flow,
    _eval_fields,
    solve_backward_kolmogorov,
    solve_nonlinear_fpe,
)
from .measures import GridDensity1D, pushforward
from .particles import SimConfig, _simulate

__all__ = [
    "FKProblem",
    "FKEstimate",
    "fk_evaluate",
    "fk_evaluate_mc",
    "fk_evaluate_grid",
    "l_derivative_fd",
    "pde_residual",
]


@dataclass(frozen=True)
class FKProblem:
    """Terminal-value problem data. ``terminal(x, mu)``, ``potential(t, x, mu)``
    and ``source(t, x, mu)`` are vectorized over rows of x; potential and
    source default to zero."""

    coeffs: CoefficientSet
    horizon: float
    terminal: object
    potential: object = None
    source: object = None


@dataclass(frozen=True)
class FKEstimate:
    value: float
    stderr: float


def fk_evaluate_mc(
    problem: FKProblem,
    t: float,
    x,
    mu: GridDensity1D,
    cfg: SolverConfig,
    n_particles: int,
    seed: int,
    flow: DensityPath | None = None,
) -> FKEstimate:
    """Monte Carlo evaluation: n_particles independent copies of the frozen
    process from x on streams 0..n_particles-1 of seed, stepped over
    [t, horizon] by ``particles._simulate`` (the last step is short when dt
    does not divide the horizon), potential and source accumulated by
    left-point rule. A flow that does not cover [t, horizon] or lies on
    another grid than mu (``fpe._check_flow``, the grid backend's rule), and
    fewer than two particles, which leave no standard error, raise
    ``ValueError`` before any step."""
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles!r}")
    if flow is None:
        flow = solve_nonlinear_fpe(mu, problem.coeffs, t, problem.horizon, cfg)
    _check_flow(flow, mu, t, problem.horizon, "mu")
    x = np.asarray(x, dtype=float).reshape(1, problem.coeffs.d)
    frozen = problem.coeffs.frozen
    weight = np.ones(n_particles)
    accum = np.zeros(n_particles)

    def drift_diffusion(r, h, X):
        nonlocal weight, accum
        mu_r = flow.state_at(r)
        if problem.source is not None:
            accum += weight * np.asarray(problem.source(r, X, mu_r), dtype=float) * h
        if problem.potential is not None:
            weight *= np.exp(np.asarray(problem.potential(r, X, mu_r), dtype=float) * h)
        return [frozen.fields(r, X, mu_r)]

    # record_every beyond the step count keeps only the start and the end
    (ens,) = _simulate((np.tile(x, (n_particles, 1)),), problem.coeffs.d, t, problem.horizon,
                       SimConfig(cfg.dt, seed, record_every=10**9), drift_diffusion)
    samples = accum + weight * np.asarray(
        problem.terminal(ens.positions[-1], flow.state_at(problem.horizon)), dtype=float
    )
    return FKEstimate(
        value=float(samples.mean()),
        stderr=float(samples.std(ddof=1) / np.sqrt(n_particles)),
    )


def fk_evaluate_grid(
    problem: FKProblem,
    t: float,
    mu: GridDensity1D,
    cfg: SolverConfig,
    flow: DensityPath | None = None,
) -> np.ndarray:
    """Deterministic evaluation on the grid of mu (one-dimensional).

    Solves the backward Kolmogorov equation with potential and source along
    the nonlinear flow from mu by ``fpe.solve_backward_kolmogorov``, the
    transposed semi-implicit frozen FPE step; returns u(t, ., mu) on the cell
    centers. Without potential and source, interpolating the result at y
    equals the forward kernel P_{t,T} Phi(y, mu) to roundoff.
    """
    if problem.coeffs.d != 1:
        raise ValueError("grid backend is one-dimensional")
    if flow is None:
        flow = solve_nonlinear_fpe(mu, problem.coeffs, t, problem.horizon, cfg)
    _check_flow(flow, mu, t, problem.horizon, "mu")
    w_end = problem.terminal(mu.centers[:, None], flow.state_at(problem.horizon))
    return solve_backward_kolmogorov(
        w_end, flow, problem.coeffs, cfg, t, problem.horizon,
        potential=problem.potential, source=problem.source,
    )


def fk_evaluate(
    problem: FKProblem,
    t: float,
    x,
    mu: GridDensity1D,
    cfg: SolverConfig,
    backend: str = "mc",
    n_particles: int = 10000,
    seed: int = 0,
    flow: DensityPath | None = None,
) -> FKEstimate:
    if backend == "mc":
        return fk_evaluate_mc(problem, t, x, mu, cfg, n_particles, seed, flow=flow)
    if backend == "grid":
        x = mu.check_inside_centers(x)
        w = fk_evaluate_grid(problem, t, mu, cfg, flow=flow)
        val = float(np.interp(x, mu.centers, w))
        return FKEstimate(value=val, stderr=0.0)
    raise ValueError(f"unknown backend {backend!r}")


def l_derivative_fd(F, mu, phi, eps: float = 1e-5) -> float:
    """Central-difference derivative of F along the pushforward curve
    t -> mu o (id + t phi)^{-1} at t = 0.

    For cylindrical F this equals the L^2(mu) pairing of the intrinsic
    gradient of F at mu with the direction field phi.
    """
    return float((F(pushforward(mu, phi, eps)) - F(pushforward(mu, phi, -eps))) / (2 * eps))


def pde_residual(
    problem: FKProblem,
    t: float,
    x: float,
    mu: GridDensity1D,
    cfg: SolverConfig,
    dt_fd: float = 1e-3,
) -> dict:
    """Residual of d_t u + (lifted generator) u + V u + f at (t, x, mu),
    with x snapped to the nearest cell center.

    The time derivative and the measure term are taken together as the total
    derivative of s -> u(s, x, mu_s) along the nonlinear flow (forward
    second-order one-sided difference); the point term is central in x at
    the grid spacing on deterministic grid evaluations. The flow and the
    backward sweep each run in three pieces split at t + dt_fd and
    t + 2 dt_fd, so [t, horizon] is swept once and dt_fd need not be a whole
    number of steps of ``cfg.dt``; it must be positive with t + 2 dt_fd
    <= horizon, or ``ValueError`` is raised before any march.

    The central differences are deliberate: the grid backend is the
    transposed upwind finite-volume step, and a probe that reused that
    operator would only check the solver against itself.
    """
    if not (dt_fd > 0 and t + 2 * dt_fd <= problem.horizon):
        raise ValueError(f"dt_fd must be > 0 with t + 2 dt_fd <= horizon, got {dt_fd!r}")
    x = mu.check_inside_centers(x)
    i = int(np.argmin(np.abs(mu.centers - x)))
    if not (0 < i < mu.n_cells - 1):
        raise ValueError("x too close to the domain edge for central differences")
    x = float(mu.centers[i])

    cuts = [(t, t + dt_fd), (t + dt_fd, t + 2 * dt_fd), (t + 2 * dt_fd, problem.horizon)]
    flows, state = [], mu
    for s, s_end in cuts:
        flows.append(solve_nonlinear_fpe(state, problem.coeffs, s, s_end, cfg))
        state = flows[-1].state_at(s_end)
    w = problem.terminal(mu.centers[:, None], state)
    ws = []
    for (s, s_end), flow in reversed(list(zip(cuts, flows))):
        w = solve_backward_kolmogorov(
            w, flow, problem.coeffs, cfg, s, s_end,
            potential=problem.potential, source=problem.source,
        )
        ws.append(w)
    w2, w1, w0 = ws
    u0 = float(w0[i])
    total_dt = float(-3 * w0[i] + 4 * w1[i] - w2[i]) / (2 * dt_fd)

    ux = float(w0[i + 1] - w0[i - 1]) / (2 * mu.dx)
    uxx = float(w0[i + 1] - 2 * w0[i] + w0[i - 1]) / (mu.dx * mu.dx)
    X = np.array([[x]])
    abar, vbar = _eval_fields(problem.coeffs.frozen, t, X, mu)
    point_term = 0.5 * float(abar[0]) * uxx + float(vbar[0]) * ux
    V, f = (0.0 if g is None else float(np.asarray(g(t, X, mu), dtype=float)[0])
            for g in (problem.potential, problem.source))
    residual = total_dt + point_term + V * u0 + f
    return {
        "residual": residual,
        "value": u0,
        "flow_derivative": total_dt,
        "point_term": point_term,
        "potential_term": V * u0,
        "source_term": f,
    }
